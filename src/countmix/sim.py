"""Ground-truth generators and the Monte-Carlo experiment runner.

All randomness flows through counter-based generators keyed by the experiment
seed and the (sample size, trial) pair, so results are bit-identical across
reruns.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .base import CountData, DomainError, MixingDistribution
from .evaluate import wasserstein
from .functionals import METHODS, FunctionalSpec, estimate, g_eval
from .npmle import DEFAULT_TOL, fit_npmle

__all__ = [
    "ExperimentConfig",
    "RmseEntry",
    "RmseReport",
    "TrueDistribution",
    "config_from_json",
    "histogram_distribution",
    "make_distribution",
    "report_to_csv",
    "report_to_json",
    "run_experiment",
    "sample",
    "true_value",
    "w1_curve",
]

DISTRIBUTION_KINDS = (
    "uniform",
    "two_mixed_uniform",
    "spike_and_uniform",
    "geometric",
    "log_series",
    "zipf",
    "custom",
)

SAMPLING_SCHEMES = ("multinomial", "poisson")

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TrueDistribution:
    """A ground-truth probability vector over k categories (``s``: Zipf exponent)."""

    kind: str
    k: int
    probs: np.ndarray
    s: Optional[float] = None

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size != self.k:
            raise DomainError("probability vector must have length k")
        if not np.all(np.isfinite(probs)):
            raise DomainError("probabilities must be finite")
        if probs.min() < 0:
            raise DomainError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise DomainError("probabilities must sum to one")
        probs = probs / probs.sum()
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise DomainError("probabilities do not sum to one after normalization")
        object.__setattr__(self, "probs", probs)


def make_distribution(
    kind: str, k: int, s: Optional[float] = None, probs=None
) -> TrueDistribution:
    """Standard synthetic distributions over k categories.

    uniform: p_i = 1/k.  two_mixed_uniform: 2/(5k) on the first half, 8/(5k)
    on the second (k even).  spike_and_uniform: 1/(2(k-3)) on the first k-3
    cells, then 1/8, 1/8, 1/4.  geometric: p_i proportional to (1-theta)^i
    with theta = 1/k; log_series: proportional to (1-theta)^i / i.
    zipf: p_i proportional to i^{-s}, s = 1 unless given.  custom:
    probabilities given verbatim.  ``s`` on any kind but zipf, or ``probs`` on
    any kind but custom, is a DomainError naming it.
    """
    if kind not in DISTRIBUTION_KINDS:
        raise DomainError(f"unknown distribution kind {kind!r}")
    for key, value, reader in (("s", s, "zipf"), ("probs", probs, "custom")):
        if value is not None and kind != reader:
            raise DomainError(f"{key!r} does not apply to kind {kind!r}")
    if kind == "custom":
        if probs is None:
            raise DomainError("custom distribution needs explicit probabilities")
        p = np.asarray(probs, dtype=float)
        if p.size == 0:
            raise DomainError("custom distribution: 'probs' must not be empty")
        if k != p.size:
            raise DomainError(f"custom distribution: 'k' is {k} but 'probs' holds {p.size} values")
        return TrueDistribution("custom", p.size, p / p.sum())
    if k < 1:
        raise DomainError("k must be >= 1")
    i = np.arange(1, k + 1, dtype=float)
    if kind == "uniform":
        p = np.full(k, 1.0 / k)
    elif kind == "two_mixed_uniform":
        if k % 2:
            raise DomainError("two_mixed_uniform needs an even k")
        p = np.concatenate([np.full(k // 2, 2.0 / (5 * k)), np.full(k // 2, 8.0 / (5 * k))])
    elif kind == "spike_and_uniform":
        if k < 4:
            raise DomainError("spike_and_uniform needs k >= 4")
        p = np.concatenate([np.full(k - 3, 0.5 / (k - 3)), [0.125, 0.125, 0.25]])
    elif kind == "geometric":
        theta = 1.0 / k
        logp = i * math.log1p(-theta)
        p = np.exp(logp - logp.max())
        p /= p.sum()
    elif kind == "log_series":
        theta = 1.0 / k
        logp = i * math.log1p(-theta) - np.log(i)
        p = np.exp(logp - logp.max())
        p /= p.sum()
    else:
        s = 1.0 if s is None else float(s)
        if not math.isfinite(s):
            raise DomainError(f"Zipf exponent 's' must be finite, got {s!r}")
        p = i**-s
        p /= p.sum()
    return TrueDistribution(kind, k, p, s=s)


def histogram_distribution(dist: TrueDistribution) -> MixingDistribution:
    """The mixing measure placing mass 1/k at each category probability."""
    return MixingDistribution(dist.probs, np.full(dist.k, 1.0 / dist.k))


def true_value(
    dist: TrueDistribution, spec: FunctionalSpec, n: Optional[int] = None
) -> float:
    """Exact value of the target functional at the ground truth: sum_i g(p_i)."""
    total = float(np.sum(g_eval(spec, dist.probs, n)))
    if spec.kind == "renyi":
        return math.log(total) / (1.0 - spec.alpha)
    return total


def _rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample(
    dist: TrueDistribution, sampling: str, n: int, rng: np.random.Generator
) -> CountData:
    """Draw one count vector: multinomial sums to n; Poisson cells are independent."""
    if sampling not in SAMPLING_SCHEMES:
        raise DomainError(f"unknown sampling scheme {sampling!r}")
    if sampling == "multinomial":
        counts = rng.multinomial(n, dist.probs)
    else:
        counts = rng.poisson(n * dist.probs)
    return CountData(counts, n=max(n, 1), k=dist.k)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully reproducible description of one Monte-Carlo experiment."""

    distribution: TrueDistribution
    sampling: str
    n_list: tuple[int, ...]
    trials: int
    estimators: tuple[str, ...]
    seed: int
    functional: FunctionalSpec = field(default_factory=FunctionalSpec.entropy)
    pad_k: Optional[int] = None
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        n_list = tuple(self.n_list)
        for n in n_list:
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
                raise DomainError(f"'n_list' entries must be integers >= 1, got {n!r}")
        object.__setattr__(self, "n_list", tuple(int(n) for n in n_list))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.n_list:
            raise DomainError("'n_list' must name at least one sample size")
        if not self.estimators:
            raise DomainError("'estimators' must name at least one estimator")
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if not 0.0 < self.tol < math.inf:
            raise DomainError(f"'tol' must be positive and finite, got {self.tol!r}")
        if self.sampling not in SAMPLING_SCHEMES:
            raise DomainError(f"unknown sampling scheme {self.sampling!r}")
        for name in self.estimators:
            if name not in METHODS:
                raise DomainError(f"unknown estimator {name!r}")
        if self.pad_k is not None and self.pad_k < self.distribution.k:
            raise DomainError("pad_k must be at least the true support size")


@dataclass(frozen=True)
class RmseEntry:
    estimator: str
    n: int
    k: int
    trial_count: int
    rmse: float
    mean: float
    std: float
    truth: float


@dataclass(frozen=True)
class RmseReport:
    config: ExperimentConfig
    entries: list[RmseEntry]


def _one_trial(config: ExperimentConfig, n: int, stream: int) -> dict[str, float]:
    rng = _rng(config.seed, stream)
    counts = sample(config.distribution, config.sampling, n, rng)
    if config.pad_k is not None:
        counts = CountData(counts.counts, n=counts.n, k=config.pad_k)
    out = {}
    for name in config.estimators:
        out[name] = estimate(counts, config.functional, method=name, tol=config.tol).value
    return out


def run_experiment(config: ExperimentConfig, threads: int = 1) -> RmseReport:
    """Monte-Carlo RMSE of the configured estimators at each sample size.

    Per-trial random streams are derived from (seed, n index, trial index),
    and the trials run one after another in trial order.  ``threads`` stays
    only because ``perfbench/test_checks.py`` passes ``threads=1``; any other
    value is a DomainError.
    """
    if threads != 1:
        raise DomainError(f"trials run on one thread, got threads={threads!r}")
    entries: list[RmseEntry] = []
    k_report = config.pad_k if config.pad_k is not None else config.distribution.k
    for ni, n in enumerate(config.n_list):
        truth = true_value(config.distribution, config.functional, n)
        rows = [_one_trial(config, n, ni * 1_000_000 + t) for t in range(config.trials)]
        for name in config.estimators:
            values = np.array([row[name] for row in rows])
            mean = float(values.mean())
            std = float(values.std())
            rmse = float(np.sqrt(np.mean((values - truth) ** 2)))
            entries.append(
                RmseEntry(
                    estimator=name,
                    n=n,
                    k=k_report,
                    trial_count=config.trials,
                    rmse=rmse,
                    mean=mean,
                    std=std,
                    truth=truth,
                )
            )
    return RmseReport(config=config, entries=entries)


def w1_curve(
    dist: TrueDistribution,
    n_list,
    trials: int,
    seed: int,
    sampling: str = "poisson",
) -> list[tuple[int, float]]:
    """Mean 1-Wasserstein error of the fitted mixing distribution per n."""
    target = histogram_distribution(dist)
    out = []
    for ni, n in enumerate(n_list):
        values = []
        for t in range(trials):
            counts = sample(dist, sampling, n, _rng(seed, ni * 1_000_000 + t))
            values.append(wasserstein(fit_npmle(counts).mixing, target))
        out.append((int(n), float(np.mean(values))))
    return out


def _config_to_dict(config: ExperimentConfig) -> dict:
    dist = {"kind": config.distribution.kind, "k": config.distribution.k}
    if config.distribution.kind == "custom":
        dist["probs"] = config.distribution.probs.tolist()
    if config.distribution.s is not None:
        dist["s"] = config.distribution.s
    spec = {"kind": config.functional.kind}
    for name in ("alpha", "min_mass", "horizon"):
        value = getattr(config.functional, name)
        if value is not None:
            spec[name] = value
    return {
        "distribution": dist,
        "sampling": config.sampling,
        "n_list": list(config.n_list),
        "trials": config.trials,
        "estimators": list(config.estimators),
        "seed": config.seed,
        "functional": spec,
        "pad_k": config.pad_k,
        "tol": config.tol,
    }


_REQUIRED = object()
_NUMBER = (int, float)
# Every key config_from_json reads, per level: any other key is a DomainError
# naming it, and ``_config_to_dict`` writes no other.
_KEYS = {
    "top": ("distribution", "sampling", "n_list", "trials", "estimators", "seed",
            "functional", "pad_k", "tol"),
    "distribution": ("kind", "k", "s", "probs"),
    "functional": ("kind", "alpha", "min_mass", "horizon"),
}


def _read(doc, key: str, kind, default=_REQUIRED):
    """``doc[key]``, checked to be of JSON type ``kind``; a missing key or a
    wrong type is a DomainError naming ``key``.  Null stands for a None default.
    No key takes a boolean, though Python counts ``True`` as an int."""
    if not isinstance(doc, dict):
        raise DomainError(f"config: expected a JSON object holding {key!r}")
    if key not in doc or (doc[key] is None and default is None):
        if default is _REQUIRED:
            raise DomainError(f"config: missing key {key!r}")
        return default
    if isinstance(doc[key], bool) or not isinstance(doc[key], kind):
        raise DomainError(f"config: wrong type for {key!r}: {doc[key]!r}")
    return doc[key]


def _refuse_unread(doc: dict, level: str) -> None:
    """A key outside ``_KEYS[level]`` is a DomainError naming it: nothing reads it."""
    for key in doc:
        if key not in _KEYS[level]:
            where = "" if level == "top" else f" in {level!r}"
            raise DomainError(f"config: unknown key {key!r}{where}")


def config_from_json(text: str) -> ExperimentConfig:
    """Parse an experiment description from its JSON form; see ``_KEYS``."""
    doc = json.loads(text)
    dist_doc = _read(doc, "distribution", dict)
    _refuse_unread(doc, "top")
    _refuse_unread(dist_doc, "distribution")
    probs = _read(dist_doc, "probs", list, None)
    k = _read(dist_doc, "k", int, len(probs or ()))
    dist = make_distribution(
        _read(dist_doc, "kind", str),
        k,
        s=_read(dist_doc, "s", _NUMBER, None),
        probs=probs,
    )
    spec_doc = _read(doc, "functional", (str, dict), "entropy")
    if isinstance(spec_doc, str):
        spec_doc = {"kind": spec_doc}
    _refuse_unread(spec_doc, "functional")
    spec = FunctionalSpec(
        _read(spec_doc, "kind", str),
        **{name: _read(spec_doc, name, _NUMBER, None) for name in ("alpha", "min_mass", "horizon")},
    )
    return ExperimentConfig(
        distribution=dist,
        sampling=_read(doc, "sampling", str),
        n_list=_read(doc, "n_list", list),
        trials=_read(doc, "trials", int),
        estimators=_read(doc, "estimators", list),
        seed=_read(doc, "seed", int),
        functional=spec,
        pad_k=_read(doc, "pad_k", int, None),
        tol=float(_read(doc, "tol", _NUMBER, DEFAULT_TOL)),
    )


def report_to_json(report: RmseReport) -> str:
    doc = {
        "v": 1,
        "type": "rmse",
        "config": _config_to_dict(report.config),
        "entries": [vars(e) for e in report.entries],
    }
    return json.dumps(doc, indent=2)


def report_to_csv(report: RmseReport) -> str:
    """Long-format table: estimator, n, k, trial_count, rmse, mean, std, truth."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["estimator", "n", "k", "trial_count", "rmse", "mean", "std", "truth"])
    for e in report.entries:
        writer.writerow([e.estimator, e.n, e.k, e.trial_count, e.rmse, e.mean, e.std, e.truth])
    return buf.getvalue()
