"""Fixed benchmark inputs, drawn through countmix's own generators.

Every input is a multinomial draw from ``make_distribution(family, k)`` with
n = k, made with ``sample`` and a Philox generator keyed ``(key, 0)``.  The
instances are fixed rather than drawn from the run's ``--seed`` because fit
runtime is heavy-tailed across draws of the same size (1 s to 12 s at
k = n = 3e4): only a fixed set repeats from run to run.

    python3 perfbench/inputs.py        # (re)write every input file

writes the count files of ``cli-large-alphabet`` and the experiment config of
``simulate-rmse`` under ``perfbench/inputs/``.  In-process workloads draw their
inputs during set-up and need no files.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUT_DIR = HERE / "inputs"


@dataclass(frozen=True)
class Draw:
    family: str
    k: int
    key: int
    kernel: str = "poisson"

    @property
    def label(self) -> str:
        return f"{self.family}-k{self.k}-key{self.key}-{self.kernel}"


# fit-heavy-tail: one fit_npmle call per draw.  The k = 5e4 Zipf draw runs out
# the 20,000-iteration budget and is counted as failed.
FIT_DRAWS = (
    Draw("zipf", 10_000, 0),
    Draw("zipf", 20_000, 0),
    Draw("zipf", 30_000, 1),
    Draw("log_series", 30_000, 0),
    Draw("log_series", 30_000, 3),
    Draw("zipf", 10_000, 0, "binomial"),
    Draw("zipf", 20_000, 0, "binomial"),
    Draw("zipf", 30_000, 1, "binomial"),
    Draw("log_series", 30_000, 0, "binomial"),
    Draw("zipf", 50_000, 3),
)

# penalized-support: one fit_penalized call on the positive counts of a draw.
PENALIZED_DRAWS = (
    Draw("zipf", 3_000, 0),
    Draw("log_series", 3_000, 0),
    Draw("zipf", 5_000, 1),
    Draw("zipf", 10_000, 0),
    Draw("zipf", 10_000, 2),
)

# cli-large-alphabet: one raw count file of 2e6 cells, n = k.
CLI_DRAW = Draw("uniform", 2_000_000, 7)

SIM_CONFIG = {
    "distribution": {"kind": "zipf", "k": 1000},
    "sampling": "multinomial",
    "n_list": [100, 1000, 10000],
    "trials": 10,
    "estimators": ["empirical", "miller-madow", "plugin", "localized"],
    "functional": "entropy",
    "seed": 1,
}


def rng(key: int):
    import numpy as np

    return np.random.Generator(np.random.Philox(key=np.array([key, 0], dtype=np.uint64)))


def draw(d: Draw):
    """The CountData of one draw (all k cells, zeros included)."""
    from countmix import make_distribution, sample

    return sample(make_distribution(d.family, d.k), "multinomial", d.k, rng(d.key))


def count_file(d: Draw) -> Path:
    return INPUT_DIR / f"{d.label}.txt"


SIM_CONFIG_FILE = INPUT_DIR / "simulate.json"


def _atomic_write(path: Path, chunks) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        for chunk in chunks:
            handle.write(chunk)
    os.replace(tmp, path)


def write_count_file(d: Draw) -> None:
    data = draw(d)
    header = f"#format=raw\n#n={data.n}\n#k={data.k}\n"
    body = "\n".join(map(str, data.counts.tolist()))
    _atomic_write(count_file(d), (header, body, "\n"))


def write_inputs(workload: str, force: bool = False) -> None:
    INPUT_DIR.mkdir(exist_ok=True)
    if workload in ("all", "cli-large-alphabet"):
        if force or not count_file(CLI_DRAW).exists():
            write_count_file(CLI_DRAW)
    if workload in ("all", "simulate-rmse"):
        if force or not SIM_CONFIG_FILE.exists():
            _atomic_write(SIM_CONFIG_FILE, (json.dumps(SIM_CONFIG, indent=2),))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--keep", action="store_true", help="keep files that exist")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    write_inputs(args.workload, force=not args.keep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
