"""Count-file ingestion and serialization of fits and reports.

Count files are plain text with ``#key=value`` directives followed by data
lines.  ``#format=raw`` files hold one nonnegative integer count per line;
``#format=fingerprint`` files hold ``j,phi_j`` pairs.  Counts and directive
values must fit in int64, and so must the total count mass unless ``#n=`` is
given.  Blank lines are ignored, and directives may also follow data lines.
Optional directives: ``#n=`` (concentration; defaults to the total count
mass), ``#k=`` (alphabet size; defaults to the number of cells), and ``#tail=``
(cells binned into an unbounded top bucket, carried as metadata and excluded
from fits).

A raw body with no directive and exactly one token per line is parsed in one
vectorised pass; any other body goes through the line loop, which alone
raises ``ParseError`` and names the line.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, TextIO, Union

import numpy as np

from .base import CountData, ParseError
from .evaluate import GofReport
from .functionals import EstimateReport
from .npmle import FitResult, PenalizedFitResult

__all__ = [
    "fit_to_dict",
    "read_counts",
    "write_fit",
    "write_report",
]

_DIRECTIVES = ("format", "n", "k", "tail")


# Largest count a file may hold: counts are stored as int64.
_COUNT_MAX = int(np.iinfo(np.int64).max)


def _lines(text: str):
    """(line number, offset, line) for each newline-separated line of text."""
    start = 0
    lineno = 1
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield lineno, start, text[start:end]
        start = end + 1
        lineno += 1


def _raw_body(body: str) -> Optional[np.ndarray]:
    """The counts of a raw body in one vectorised pass, or None.

    None unless the body holds no ``#``, its tokens joined by newlines give
    back the stripped body (so each line holds exactly one token and none is
    blank), every token converts to int64 and none is negative.  On None the
    caller's line loop parses the body and reports the first bad line.
    """
    if "#" in body:
        return None
    tokens = body.split()
    if "\n".join(tokens) != body.strip():
        return None
    try:
        counts = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if counts.size and counts.min() < 0:
        return None
    return counts


def read_counts(source: Union[str, Path, TextIO]) -> CountData:
    """Parse a count file (path or open text stream) into CountData.

    Raw mode yields the counts verbatim; fingerprint mode expands each
    ``j,phi_j`` pair into phi_j copies of j.  Malformed lines, and counts or
    directive values beyond int64, raise ``ParseError`` with their line
    number.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            content = handle.read()
    else:
        content = source.read()
    fmt: Optional[str] = None
    n: Optional[int] = None
    k: Optional[int] = None
    tail = 0
    raw_counts: list[int] = []
    phi: dict[int, int] = {}
    counts: Optional[np.ndarray] = None
    for lineno, offset, line in _lines(content):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            if "=" not in text:
                raise ParseError("directive must look like #key=value", lineno)
            key, _, value = text[1:].partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key not in _DIRECTIVES:
                raise ParseError(f"unknown directive {key!r}", lineno)
            if key == "format":
                if value not in ("raw", "fingerprint"):
                    raise ParseError(f"unknown format {value!r}", lineno)
                fmt = value
            else:
                try:
                    parsed = int(value)
                except ValueError:
                    raise ParseError(f"directive #{key} needs an integer", lineno) from None
                if abs(parsed) > _COUNT_MAX:
                    raise ParseError(f"#{key}={parsed} does not fit in int64", lineno)
                if key == "n":
                    n = parsed
                elif key == "k":
                    k = parsed
                else:
                    tail = parsed
            continue
        if fmt is None:
            raise ParseError("data before a #format directive", lineno)
        if fmt == "raw":
            # The first data line of a raw file: try the whole rest at once.
            if not raw_counts:
                counts = _raw_body(content[offset:])
                if counts is not None:
                    break
            try:
                value = int(text)
            except ValueError:
                raise ParseError(f"expected an integer count, got {text!r}", lineno) from None
            if value < 0:
                raise ParseError("counts must be nonnegative", lineno)
            if value > _COUNT_MAX:
                raise ParseError(f"count {value} does not fit in int64", lineno)
            raw_counts.append(value)
        else:
            parts = text.split(",")
            if len(parts) != 2:
                raise ParseError("fingerprint lines must look like j,phi_j", lineno)
            try:
                j, count = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"expected integers, got {text!r}", lineno) from None
            if j < 0 or count < 0:
                raise ParseError("fingerprint entries must be nonnegative", lineno)
            if max(j, count) > _COUNT_MAX:
                raise ParseError(f"fingerprint entry {max(j, count)} does not fit in int64", lineno)
            if j in phi:
                raise ParseError(f"duplicate fingerprint value {j}", lineno)
            phi[j] = count
    if fmt is None:
        raise ParseError("missing #format directive")
    if fmt == "raw":
        if counts is None:
            counts = np.array(raw_counts, dtype=np.int64)
    else:
        js = sorted(phi)
        counts = np.repeat(np.array(js, dtype=np.int64), [phi[j] for j in js])
    if n is None:
        total = int(counts.sum())
        # An int64 sum past 2^63 - 1 wraps: below 2^64 it turns negative, and
        # beyond that the float64 sum, exact to far better than 25 %, shows it.
        if total < 0 or counts.sum(dtype=np.float64) >= 1.5 * 2.0**63:
            raise ParseError("the counts sum past 2^63 - 1, so #n must be given")
        if total == 0:
            raise ParseError("#n is required when every count is zero")
        n = total
    return CountData(counts, n=n, k=k, tail=tail)


def fit_to_dict(fit: FitResult) -> dict:
    """The JSON object of a fit: versioned, with its certificate fields."""
    return {
        "v": 1,
        "atoms": fit.mixing.atoms.tolist(),
        "weights": fit.mixing.weights.tolist(),
        "log_likelihood": fit.log_likelihood,
        "optimality_gap": fit.optimality_gap,
        "iterations": fit.iterations,
        "converged": fit.converged,
    }


def write_fit(fit: FitResult) -> str:
    """Fit as a JSON document; floats round-trip exactly through the text."""
    return json.dumps(fit_to_dict(fit), indent=2)


def write_report(report) -> str:
    """Serialize an estimate, goodness-of-fit, or penalized-fit report."""
    if isinstance(report, EstimateReport):
        fit = report.fit
        doc = {
            "v": 1,
            "type": "estimate",
            "value": report.value,
            "method": report.method,
            "parts": list(report.parts) if report.parts is not None else None,
            "raw": report.raw,
            "bounds": list(report.bounds) if report.bounds is not None else None,
            "converged": None if fit is None else fit.converged,
            "optimality_gap": None if fit is None else fit.optimality_gap,
        }
    elif isinstance(report, GofReport):
        stat = report.statistic
        doc = {
            "v": 1,
            "type": "gof",
            "statistic": stat if np.isfinite(stat) else "inf",
            "dof": report.dof,
            "p_value": report.p_value,
            "expected": np.asarray(report.expected).tolist(),
            "truncation": report.truncation,
            "degenerate": report.degenerate,
        }
    elif isinstance(report, PenalizedFitResult):
        doc = {
            "v": 1,
            "type": "penalized",
            "k_hat": report.k_hat,
            "atoms": report.mixing.atoms.tolist(),
            "weights": report.mixing.weights.tolist(),
            "penalized_objective": report.penalized_objective,
            "profile": [[kp, obj] for kp, obj in report.profile],
        }
    else:
        raise TypeError(f"cannot serialize report of type {type(report).__name__}")
    return json.dumps(doc, indent=2)
