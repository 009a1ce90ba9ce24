"""Command-line surface for the fitting, estimation, and simulation pipeline.

Every subcommand is a thin, deterministic wrapper over the library: identical
flags produce byte-identical output.  Exit codes: 0 success, 2 usage error,
1 computation error (single-line diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import io as cmio
from .base import KERNEL_FAMILIES, CountData, DomainError, FitError, MixtureKernel, ParseError
from .evaluate import GOF_MODELS, gof_test
from .functionals import (
    METHODS,
    FunctionalSpec,
    discovery_curve,
    estimate,
    good_turing_unseen,
)
from .npmle import DEFAULT_KAPPA, DEFAULT_REG, DEFAULT_TOL
from .npmle import fit_localized, fit_npmle, fit_penalized
from .sim import config_from_json, report_to_csv, report_to_json, run_experiment

COMPUTE_ERROR = 1


# Every flag that more than one subcommand takes; each subcommand registers
# only the ones its handler reads.
_FLAGS = {
    "--input": dict(required=True, help="count file (raw or fingerprint)"),
    "--n": dict(type=int, default=None, help="override the concentration"),
    "--k": dict(type=int, default=None, help="override the alphabet size"),
    "--kernel": dict(choices=KERNEL_FAMILIES, default="poisson"),
    "--tol": dict(type=float, default=DEFAULT_TOL, help="certificate tolerance"),
    "--output": dict(default=None, help="output path (default stdout)"),
    "--format": dict(choices=("json", "csv"), default="json"),
}


def _add_flags(parser: argparse.ArgumentParser, flags: str) -> None:
    for flag in flags.split():
        parser.add_argument(flag, **_FLAGS[flag])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countmix",
        allow_abbrev=False,
        description="Mixture modeling of frequency counts: fitting, functional "
        "estimation, goodness of fit, and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit the mixing distribution", allow_abbrev=False)
    _add_flags(p, "--input --n --k --kernel --tol --output")

    p = sub.add_parser("estimate", help="estimate a symmetric functional", allow_abbrev=False)
    _add_flags(p, "--input --n --k --kernel --tol --output --format")
    p.add_argument(
        "--functional",
        required=True,
        help="entropy | power-sum:ALPHA | renyi:ALPHA | support:MINMASS | unseen:T",
    )
    p.add_argument("--method", required=True, choices=METHODS)

    p = sub.add_parser("localized", help="fit on the small-rate cells only", allow_abbrev=False)
    _add_flags(p, "--input --n --k --kernel --tol --output")
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA, help="threshold multiplier")

    p = sub.add_parser("penalized", help="joint support-size and mixing fit", allow_abbrev=False)
    _add_flags(p, "--input --n --kernel --tol --output --format")
    c0, c1 = DEFAULT_REG
    p.add_argument("--c0", type=float, default=c0, help="tie-break regularizer scale")
    p.add_argument("--c1", type=float, default=c1, help="tie-break regularizer exponent")

    p = sub.add_parser("gof", help="chi-squared goodness of fit", allow_abbrev=False)
    _add_flags(p, "--input --k --tol --output --format")
    p.add_argument("--T", type=int, required=True, help="count truncation level")
    p.add_argument("--model", choices=GOF_MODELS, required=True)

    p = sub.add_parser("unseen", help="discovery curve of new categories", allow_abbrev=False)
    _add_flags(p, "--input --n --k --kernel --tol --output --format")
    p.add_argument("--t-grid", required=True, help="comma-separated horizons, e.g. 0.5,1,2,4")
    p.add_argument("--method", choices=("plugin", "good-turing"), default="plugin")

    p = sub.add_parser("simulate", help="run a Monte-Carlo experiment", allow_abbrev=False)
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    _add_flags(p, "--output --format")
    p.add_argument("--config", required=True, help="experiment description (JSON)")

    return parser


def _load_counts(args) -> CountData:
    data = cmio.read_counts(args.input)
    # penalized selects k itself (no --k); gof fits with n = its retained mass (no --n)
    n, k = getattr(args, "n", None), getattr(args, "k", None)
    if n is not None or k is not None:
        data = CountData(
            data.counts,
            n=n if n is not None else data.n,
            k=k if k is not None else data.k,
            tail=data.tail,
        )
    return data


def _parse_functional(text: str) -> FunctionalSpec:
    name, _, param = text.partition(":")
    if name == "entropy":
        return FunctionalSpec.entropy()
    if name == "power-sum":
        return FunctionalSpec.power_sum(float(param))
    if name == "renyi":
        return FunctionalSpec.renyi(float(param))
    if name == "support":
        return FunctionalSpec.support_size(float(param) if param else None)
    if name == "unseen":
        return FunctionalSpec.unseen(float(param))
    raise DomainError(f"unknown functional {text!r}")


def _emit(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(args.output).write_text(
            text if text.endswith("\n") else text + "\n", encoding="utf-8"
        )


def _csv_rows(rows: list[list]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_fit(args) -> str:
    counts = _load_counts(args)
    fit = fit_npmle(counts, kernel=MixtureKernel(args.kernel, counts.n), tol=args.tol)
    return cmio.write_fit(fit)


def _cmd_estimate(args) -> str:
    counts = _load_counts(args)
    spec = _parse_functional(args.functional)
    report = estimate(
        counts,
        spec,
        args.method,
        kernel=MixtureKernel(args.kernel, counts.n),
        tol=args.tol,
    )
    if args.format == "csv":
        return _csv_rows(
            [["functional", "method", "value"], [args.functional, report.method, report.value]]
        )
    return cmio.write_report(report)


def _cmd_localized(args) -> str:
    counts = _load_counts(args)
    loc = fit_localized(
        counts,
        kernel=MixtureKernel(args.kernel, counts.n),
        tol=args.tol,
        kappa=args.kappa,
    )
    doc = {
        "v": 1,
        "type": "localized",
        "threshold": loc.threshold,
        "n_small": loc.n_small,
        "n_large": int(loc.large_counts.size),
        "fit": None if loc.fit is None else cmio.fit_to_dict(loc.fit),
    }
    return json.dumps(doc, indent=2)


def _cmd_penalized(args) -> str:
    counts = _load_counts(args)
    result = fit_penalized(
        counts,
        kernel=MixtureKernel(args.kernel, counts.n),
        tol=args.tol,
        reg=(args.c0, args.c1),
    )
    if args.format == "csv":
        rows = [["k_prime", "objective"]] + [[kp, obj] for kp, obj in result.profile]
        return _csv_rows(rows)
    return cmio.write_report(result)


def _cmd_gof(args) -> str:
    counts = _load_counts(args)
    report = gof_test(counts, args.model, args.T, tol=args.tol)
    if args.format == "csv":
        return _csv_rows(
            [["T", "model", "statistic", "p_value"],
             [report.truncation, args.model, report.statistic, report.p_value]]
        )
    return cmio.write_report(report)


def _cmd_unseen(args) -> str:
    counts = _load_counts(args)
    horizons = [float(part) for part in args.t_grid.split(",") if part.strip()]
    if not horizons:
        raise DomainError("empty --t-grid")
    fit = None
    if args.method == "plugin":
        fit = fit_npmle(counts, kernel=MixtureKernel(args.kernel, counts.n), tol=args.tol)
        curve = discovery_curve(fit.mixing, counts.k, counts.n, horizons)
    else:
        curve = [(t, good_turing_unseen(counts, t).value) for t in horizons]
    if args.format == "json":
        return json.dumps(
            {"v": 1, "type": "discovery", "method": args.method,
             "curve": [[t, v] for t, v in curve],
             "converged": None if fit is None else fit.converged,
             "optimality_gap": None if fit is None else fit.optimality_gap},
            indent=2,
        )
    return _csv_rows([["t", "estimate"]] + [[t, v] for t, v in curve])


def _cmd_simulate(args) -> str:
    config_text = Path(args.config).read_text(encoding="utf-8")
    config = config_from_json(config_text)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    report = run_experiment(config)
    if args.format == "csv":
        return report_to_csv(report)
    return report_to_json(report)


_HANDLERS = {
    "fit": _cmd_fit,
    "estimate": _cmd_estimate,
    "localized": _cmd_localized,
    "penalized": _cmd_penalized,
    "gof": _cmd_gof,
    "unseen": _cmd_unseen,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = _HANDLERS[args.command](args)
    except (DomainError, FitError, ParseError, OSError, ValueError, MemoryError) as exc:
        print(f"countmix {args.command}: error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR
    _emit(args, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
