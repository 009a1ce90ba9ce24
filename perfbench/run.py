#!/usr/bin/env python3
"""Closed-loop benchmark of countmix.

    python3 perfbench/run.py --workload fit-heavy-tail --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced then traced

A run sets up its workload, then repeats whole rounds of the workload's fixed
operations, one operation in flight, until ``--seconds`` have passed.  The
inputs are fixed (see ``inputs.py``); the seed orders the operations of a
round.  Every operation is timed, then checked by ``checks.py``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of ``tracing.py`` with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# One BLAS thread in this process and every process it starts, so fit gaps
# repeat to the last bit.  The simulate trial pool also runs one thread: with
# its default two on 2 vCPUs an op took 12.7 s against 10.3 s, and the spread of
# its times across runs was 2.6 times as wide.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "COUNTMIX_THREADS": "1",
}
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3

WORKLOADS = ("fit-heavy-tail", "simulate-rmse", "cli-large-alphabet", "penalized-support")
END_TO_END = (
    ("op_s_p50", "s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass
class Proc:
    """Outcome of one CLI process."""

    returncode: int
    stdout: str
    stderr: str


class Runner:
    """Starts the countmix CLI, as a process or, when traced, in-process."""

    def __init__(self, in_process: bool):
        self.in_process = in_process
        self.peak_rss_mb = 0.0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def __call__(self, argv: list[str]) -> Proc:
        if self.in_process:
            from countmix import cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return Proc(code, out.getvalue(), err.getvalue())
        with open(RESULTS / "stderr.txt", "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "countmix.cli", *argv],
                stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT,
            )
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode()
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return Proc(proc.returncode, stdout.decode(), stderr)


def _exit_problem(proc: Proc) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    return []


# --- set-up: the program's imports and inputs --------------------------------


def setup(workload: str) -> dict:
    """Import countmix and load or draw the workload's inputs."""
    import countmix
    import inputs

    if workload == "fit-heavy-tail":
        return {"draws": [(d, inputs.draw(d)) for d in inputs.FIT_DRAWS]}
    if workload == "penalized-support":
        draws = []
        for d in inputs.PENALIZED_DRAWS:
            data = inputs.draw(d)
            draws.append((d, countmix.CountData(data.counts[data.counts > 0], n=data.n)))
        return {"draws": draws}
    if workload == "simulate-rmse":
        path = inputs.SIM_CONFIG_FILE
        return {"path": path, "config": countmix.config_from_json(path.read_text())}
    return {"draw": inputs.CLI_DRAW, "data": inputs.draw(inputs.CLI_DRAW)}


def timed_setup(workload: str) -> tuple[dict, float]:
    start = time.perf_counter()
    state = setup(workload)
    return state, time.perf_counter() - start


def setup_probe(workload: str) -> float:
    """Set-up time of a fresh interpreter, which has not imported countmix yet."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def import_time() -> float:
    """Fresh-interpreter `import countmix.cli`, median of IMPORT_SAMPLES."""
    code = (
        "import time; t = time.perf_counter(); import countmix.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = [
        float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env, cwd=ROOT).stdout)
        for _ in range(IMPORT_SAMPLES)
    ]
    return statistics.median(samples)


# --- operations ---------------------------------------------------------------


def fit_ops(state: dict) -> list[Op]:
    import checks
    from countmix import MixtureKernel, npmle

    ops = []
    for d, data in state["draws"]:

        def fit(data=data, kernel=MixtureKernel(d.kernel, data.n)):
            return npmle.fit_npmle(data, kernel=kernel)

        def check(result, data=data, d=d):
            values, mult = checks.distinct(data.counts)
            return checks.check_fit(
                d.kernel, data.n, values, mult, result.grid.atoms, result.mixing.atoms,
                result.mixing.weights, result.log_likelihood, result.converged,
            )

        ops.append(Op(d.label, fit, check))
    return ops


def penalized_ops(state: dict) -> list[Op]:
    import checks
    from countmix import npmle

    ops = []
    for d, data in state["draws"]:
        ops.append(Op(
            d.label,
            lambda data=data: npmle.fit_penalized(data),
            lambda result, data=data: checks.check_penalized(result, data.counts, data.n),
        ))
    return ops


def simulate_ops(state: dict, runner: Runner) -> list[Op]:
    import checks

    config = state["config"]
    probs = checks.zipf_probs(config.distribution.k)
    argv = ["simulate", "--config", str(state["path"])]
    outputs: list[str] = []

    def check(proc: Proc):
        problems = _exit_problem(proc)
        if problems:
            return True, problems
        previous = outputs[-1] if outputs else None
        outputs.append(proc.stdout)
        _, found = checks.check_rmse_report(
            proc.stdout, probs, config.n_list, config.trials, config.estimators, previous
        )
        return False, found

    # One invocation per round; each must repeat the one before it byte for byte.
    return [Op("simulate", lambda: runner(argv), check)]


def cli_ops(state: dict, runner: Runner) -> list[Op]:
    import checks
    import inputs

    d, data = state["draw"], state["data"]
    argv = ["estimate", "--functional", "entropy", "--method", "localized",
            "--input", str(inputs.count_file(d))]

    def check(proc: Proc):
        problems = _exit_problem(proc)
        if problems:
            return True, problems
        return checks.check_localized_entropy(
            json.loads(proc.stdout), data.counts, data.n, data.k,
            checks.uniform_probs(d.k),
        )

    return [Op("estimate-localized", lambda: runner(argv), check)]


def make_ops(workload: str, state: dict, runner: Runner) -> list[Op]:
    if workload == "fit-heavy-tail":
        return fit_ops(state)
    if workload == "penalized-support":
        return penalized_ops(state)
    if workload == "simulate-rmse":
        return simulate_ops(state, runner)
    return cli_ops(state, runner)


# --- the closed loop ------------------------------------------------------------


def measure(ops: list[Op], seconds: float) -> dict:
    """Whole rounds of ``ops`` until ``seconds`` have passed; one op in flight."""
    times: list[float] = []
    cpu_times: list[float] = []
    labels: list[str] = []
    failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        for op in ops:
            t0, c0 = time.perf_counter(), cpu_seconds()
            output = op.run()
            times.append(time.perf_counter() - t0)
            cpu_times.append(cpu_seconds() - c0)
            labels.append(op.label)
            op_failed, found = op.check(output)
            failed += bool(op_failed)
            problems.extend(f"{op.label}: {p}" for p in found)
        if time.perf_counter() - start >= seconds:
            break
    return {"times": times, "cpu_times": cpu_times, "labels": labels, "failed": failed,
            "problems": problems}


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for.

    Kept beside each operation's wall time in the result file: where the two
    agree, a slow run was slowed by the host's speed, not by CPU steal.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def round_throughput(times: list[float], ops_per_round: int) -> float:
    """Operations per second of a median round.

    Each operation's time is its median over the run's rounds, so a burst of
    host load during one operation does not move the figure; with a
    single round this is the plain operations per second of operation time.
    """
    per_op = [statistics.median(times[i::ops_per_round]) for i in range(ops_per_round)]
    return ops_per_round / sum(per_op)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path[:0] = [str(SRC), str(HERE)]
    RESULTS.mkdir(exist_ok=True)
    inputs_cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--keep"]
    subprocess.run(inputs_cmd, check=True, cwd=ROOT)  # files exist before the clock

    state, setup_s = timed_setup(workload)
    runner = Runner(in_process=trace)
    ops = make_ops(workload, state, runner)
    random.Random(seed).shuffle(ops)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result = measure(ops, seconds)
    times = result["times"]
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        from tracing import LAYER_METRICS, layer_metrics

        tracer.dump(RESULTS / f"{tag}.spans.jsonl")
        values = layer_metrics(tracer.spans, len(times), threading.get_ident())
        values["cli.import_s"] = import_time()
        values["trace.op_s_p50"] = statistics.median(times)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
    else:
        if runner.peak_rss_mb:
            peak = runner.peak_rss_mb
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + [setup_probe(workload) for _ in range(SETUP_SAMPLES - 1)]
        values = {
            "op_s_p50": statistics.median(times),
            "ops_per_s": round_throughput(times, len(ops)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    doc = {
        "correct": not result["problems"],
        "attempted": len(times),
        "failed": result["failed"],
        "metrics": metrics,
    }
    (RESULTS / f"{tag}.json").write_text(
        json.dumps(dict(doc, ops=list(zip(result["labels"], times, result["cpu_times"]))), indent=2), encoding="utf-8"
    )
    return doc


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced, then traced; a table of every metric."""
    summary = {}
    for workload in WORKLOADS:
        docs = {}
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=True, cwd=ROOT,
            )
            sys.stderr.write(out.stderr)
            docs[trace] = json.loads(out.stdout.splitlines()[-1])
        plain, traced = docs[0], docs[1]
        print(f"{workload}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for name, metric in {**plain["metrics"], **traced["metrics"]}.items():
            print(f"  {name:30s} {metric['value']:14.6g} {metric['unit']}")
        # Traced CLI ops run in-process, so on those workloads the difference
        # also removes process start-up: only in-process workloads measure tracing.
        overhead = (
            traced["metrics"]["trace.op_s_p50"]["value"] / plain["metrics"]["op_s_p50"]["value"]
            - 1.0
        )
        print(f"  {'tracing overhead (op_s_p50)':30s} {100 * overhead:14.3g} %")
        summary[workload] = {"untraced": plain, "traced": traced, "overhead": overhead}
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "countmix" / "__init__.py").is_file():
        print(f"run.py: countmix sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    if args.workload == "all":
        return run_all(args.seed, int(args.seconds))
    if args.setup_probe:
        sys.path[:0] = [str(SRC), str(HERE)]
        _, seconds = timed_setup(args.workload)
        print(json.dumps({"setup_s": seconds}))
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
