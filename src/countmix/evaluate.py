"""Distances and statistical tests for fitted count mixtures.

Wasserstein distances between mixing distributions are computed exactly via
the quantile coupling; the chi-squared goodness-of-fit test operates on the
induced count density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .base import CountData, DomainError, MixingDistribution, MixtureKernel
from .kernels import log_pmf, mixture_log_density
from .npmle import DEFAULT_TOL, fit_npmle

__all__ = [
    "GofReport",
    "chi2_sf",
    "gof_test",
    "wasserstein",
]

GOF_MODELS = ("mixture", "p-model")


@dataclass(frozen=True)
class GofReport:
    """Chi-squared goodness-of-fit summary on counts truncated at T."""

    statistic: float
    dof: int
    p_value: float
    expected: np.ndarray
    truncation: int
    degenerate: bool = False


def wasserstein(
    p: MixingDistribution, q: MixingDistribution, order: float = 1.0
) -> float:
    """Exact q-Wasserstein distance between two discrete measures on [0, 1].

    Integrates |Q_p(u) - Q_q(u)|^order over the merged breakpoints of the two
    quantile functions, which is the optimal coupling on the line.
    """
    if not 1.0 <= order < math.inf:
        raise DomainError(f"Wasserstein order must be finite and >= 1, got {order!r}")
    cum_p = np.cumsum(p.weights)
    cum_q = np.cumsum(q.weights)
    edges = np.unique(np.clip(np.concatenate([[0.0], cum_p, cum_q]), 0.0, 1.0))
    if edges[-1] < 1.0:
        edges = np.append(edges, 1.0)
    mids = 0.5 * (edges[:-1] + edges[1:])
    lengths = np.diff(edges)
    qp = p.atoms[np.minimum(np.searchsorted(cum_p, mids), len(p) - 1)]
    qq = q.atoms[np.minimum(np.searchsorted(cum_q, mids), len(q) - 1)]
    total = float(np.sum(lengths * np.abs(qp - qq) ** order))
    return total ** (1.0 / order)


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail probability of the chi-squared distribution."""
    if dof < 1:
        raise DomainError("degrees of freedom must be >= 1")
    if math.isinf(x):
        return 0.0
    return float(chdtrc(dof, x))


def _expected_empirical(values: np.ndarray, mult: np.ndarray, T: int) -> np.ndarray:
    # Each retained cell contributes the Poisson pmf at its own maximum-
    # likelihood rate (= its count); the aggregate is then conditioned on
    # {0..T} so the expected fingerprint totals the number of retained cells.
    js = np.arange(T + 1, dtype=float)
    kern = MixtureKernel.poisson(1)
    logq = np.atleast_2d(log_pmf(kern, js[None, :], values[:, None].astype(float)))
    agg = mult @ np.exp(logq)
    return mult.sum() * agg / agg.sum()


def gof_test(
    counts: CountData,
    model: str,
    T: int,
    *,
    tol: float = DEFAULT_TOL,
) -> GofReport:
    """Chi-squared goodness of fit on the count histogram truncated at T.

    Both models use only the cells with counts <= T (implicit zeros
    included).  Under "mixture" the expected fingerprint is
    k_T * f(j) / F(<=T) for a Poisson mixture fitted here on the retained
    cells alone, with n their total count; under "p-model" each retained cell
    contributes a conditional Poisson at its empirical rate.  The statistic
    sum_j (phi_j - E[phi_j])^2 / E[phi_j] is referred to the chi-squared
    distribution with T degrees of freedom.  ``degenerate`` marks a report
    whose expected count underflows to zero at an observed value, which makes
    the statistic infinite.
    """
    if model not in GOF_MODELS:
        raise DomainError(f"unknown goodness-of-fit model {model!r}")
    if T < 1:
        raise DomainError("truncation T must be >= 1")
    values, mult = counts.unique_with_multiplicity()
    keep = values <= T
    values, mult = values[keep], mult[keep]
    k_T = int(mult.sum())
    if k_T == 0:
        raise DomainError("no cells with counts <= T")
    phis = np.zeros(T + 1)
    phis[values] = mult
    if model == "mixture":
        kept = counts.counts[counts.counts <= T]
        retained = CountData(kept, n=max(int(kept.sum()), 1), k=k_T)
        kernel = MixtureKernel.poisson(retained.n)
        fit = fit_npmle(retained, kernel=kernel, tol=tol)
        js = np.arange(T + 1, dtype=float)
        f = np.exp(np.atleast_1d(mixture_log_density(kernel, fit.mixing, js)))
        expected = k_T * f / f.sum()
    else:
        expected = _expected_empirical(values, mult, T)
    degenerate = bool(np.any((expected == 0) & (phis > 0)))
    if degenerate:
        statistic = math.inf
        p_value = 0.0
    else:
        live = expected > 0
        statistic = float(np.sum((phis[live] - expected[live]) ** 2 / expected[live]))
        p_value = chi2_sf(statistic, T)
    return GofReport(
        statistic=statistic,
        dof=T,
        p_value=p_value,
        expected=expected,
        truncation=T,
        degenerate=degenerate,
    )
