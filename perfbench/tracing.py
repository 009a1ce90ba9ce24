"""Spans around countmix's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of every countmix module
(and ``CountData.unique_with_multiplicity``) with a timing wrapper, in every
module namespace that binds it: ``log_pmf`` is bound both in
``countmix.kernels`` and in ``countmix.npmle``, and both bindings are wrapped.
Spans are kept in memory; ``layer_metrics`` turns them into per-layer figures
and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

LAYER_METRICS = (
    ("cli.import_s", "s"),
    ("cli.main_self_s", "s"),
    ("io.read_counts_s", "s"),
    ("io.write_s", "s"),
    ("base.unique_s", "s"),
    ("kernels.log_pmf_s", "s"),
    ("kernels.log_pmf_cells", "count"),
    ("npmle.build_grid_s", "s"),
    ("npmle.fit_self_s", "s"),
    ("npmle.fit_iterations", "count"),
    ("npmle.support_atoms", "count"),
    ("npmle.uncertified_fits", "count"),
    ("npmle.localized_partition_s", "s"),
    ("npmle.penalized_s", "s"),
    ("npmle.penalized_refits", "count"),
    ("npmle.penalized_s_per_refit", "s"),
    ("functionals.estimate_self_s", "s"),
    ("sim.trial_s", "s"),
    ("sim.sample_s", "s"),
    ("sim.estimate_busy_s", "s"),
    ("trace.op_s_p50", "s"),
)

MODULES = ("base", "kernels", "npmle", "functionals", "evaluate", "sim", "io", "cli")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _log_pmf_attrs(args, kwargs, result) -> dict:
    import numpy as np

    return {"cells": int(np.size(result))}


def _fit_attrs(args, kwargs, result) -> dict:
    return {
        "iterations": int(result.iterations),
        "atoms": len(result.mixing),
        "converged": bool(result.converged),
    }


def _penalized_attrs(args, kwargs, result) -> dict:
    return {"refits": len(result.profile)}


def _experiment_attrs(args, kwargs, result) -> dict:
    config = result.config
    return {"cells": config.trials * len(config.n_list)}


ATTRS = {
    "kernels.log_pmf": _log_pmf_attrs,
    "npmle.fit_npmle": _fit_attrs,
    "npmle.fit_penalized": _penalized_attrs,
    "sim.run_experiment": _experiment_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = attrs_of(args, kwargs, result) if attrs_of else {}
            self.spans.append(
                Span(span_id, name, start, end, parent, threading.get_ident(), attrs)
            )
            return result

        return traced

    def install(self) -> None:
        """Wrap countmix's public functions wherever a countmix module binds them."""
        import countmix

        modules = [importlib.import_module(f"countmix.{m}") for m in MODULES]
        wrapped = {}
        for short, module in zip(MODULES, modules):
            names = list(getattr(module, "__all__", ()))
            if short == "cli":
                names = ["main"]
            for attr in names:
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        for module in [countmix, *modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    setattr(module, attr, wrapped[id(value)])
        base = modules[0]
        method = base.CountData.unique_with_multiplicity
        base.CountData.unique_with_multiplicity = self.wrap("base.unique", method)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(spans: list[Span], ops: int, main_thread: int) -> dict[str, float]:
    """Per-layer figures from the spans of ``ops`` operations.

    Times and counts are totals divided by the number of operations, except
    ``npmle.support_atoms`` (mean atoms per plain fit) and
    ``npmle.penalized_s_per_refit`` (penalized time per refit).  Self time is a
    span's duration minus the time its child spans cover.
    """
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    fit_child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
            if s.name == "npmle.fit_npmle":
                fit_child_time[s.parent] = fit_child_time.get(s.parent, 0.0) + s.duration

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name) -> float:
        return sum(s.duration for s in named(name))

    def self_time(name) -> float:
        return sum(s.duration - child_time.get(s.id, 0.0) for s in named(name))

    def under_experiment(s: Span) -> bool:
        if s.parent is None:
            return s.thread != main_thread  # a trial-pool thread
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == "sim.run_experiment":
                return True
        return False

    fits = named("npmle.fit_npmle")
    penalized = named("npmle.fit_penalized")
    refits = sum(s.attrs["refits"] for s in penalized)
    experiments = named("sim.run_experiment")
    trial_cells = sum(s.attrs["cells"] for s in experiments)
    per_op = {
        "cli.main_self_s": self_time("cli.main"),
        "io.read_counts_s": total("io.read_counts"),
        "io.write_s": total("io.write_fit") + total("io.write_report"),
        "base.unique_s": total("base.unique"),
        "kernels.log_pmf_s": total("kernels.log_pmf"),
        "kernels.log_pmf_cells": sum(s.attrs["cells"] for s in named("kernels.log_pmf")),
        "npmle.build_grid_s": total("npmle.build_grid"),
        "npmle.fit_self_s": self_time("npmle.fit_npmle"),
        "npmle.fit_iterations": sum(s.attrs["iterations"] for s in fits),
        "npmle.uncertified_fits": sum(not s.attrs["converged"] for s in fits),
        "npmle.localized_partition_s": sum(
            s.duration - fit_child_time.get(s.id, 0.0) for s in named("npmle.fit_localized")
        ),
        "npmle.penalized_s": total("npmle.fit_penalized"),
        "npmle.penalized_refits": refits,
        "functionals.estimate_self_s": self_time("functionals.estimate"),
        "sim.sample_s": sum(s.duration for s in named("sim.sample") if under_experiment(s)),
        "sim.estimate_busy_s": sum(
            s.duration for s in named("functionals.estimate") if under_experiment(s)
        ),
    }
    out = {name: value / ops for name, value in per_op.items()}
    out["npmle.support_atoms"] = (
        sum(s.attrs["atoms"] for s in fits) / len(fits) if fits else 0.0
    )
    out["npmle.penalized_s_per_refit"] = (
        out["npmle.penalized_s"] * ops / refits if refits else 0.0
    )
    out["sim.trial_s"] = (
        sum(s.duration for s in experiments) / trial_cells if trial_cells else 0.0
    )
    return out

