#!/usr/bin/env python3
"""Goodness-of-fit table for the bundled butterfly count data.

Fits the Poisson mixture and the empirical rate model to the counts
truncated at each level T and prints the chi-squared p-values side by side.
"""

import argparse
import importlib.resources as res

from countmix import gof_test
from countmix.io import read_counts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", default=None, help="fingerprint file (default: bundled butterfly data)")
    parser.add_argument("--levels", default="10,15,20,25,30", help="comma-separated truncation levels")
    args = parser.parse_args()

    path = args.input or str(res.files("countmix").joinpath("data/butterfly.fp"))
    counts = read_counts(path)
    levels = [int(t) for t in args.levels.split(",")]

    print(f"{'T':>4}  {'mixture stat':>12}  {'mixture p':>10}  {'rate-model stat':>15}  {'rate-model p':>12}")
    for T in levels:
        mix = gof_test(counts, "mixture", T)
        emp = gof_test(counts, "p-model", T)
        print(
            f"{T:>4}  {mix.statistic:>12.3f}  {mix.p_value:>10.4f}  "
            f"{emp.statistic:>15.2f}  {emp.p_value:>12.3e}"
        )


if __name__ == "__main__":
    main()
