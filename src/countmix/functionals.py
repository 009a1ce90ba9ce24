"""Symmetric-functional estimation from count data and fitted mixtures.

Targets take the additive form G(P) = sum_i g(p_i).  Estimators provided:
the mixture plug-in k * sum_j w_j g(r_j), a combined estimator that applies
the plug-in on small-rate cells and a bias-corrected empirical value on the
rest, the raw empirical plug-in, the Miller-Madow entropy baseline, and the
alternating-series unseen-categories baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import xlogy

from .base import CountData, DomainError, MixingDistribution
from .npmle import (
    DEFAULT_TOL,
    FitResult,
    LocalizedFit,
    build_grid,
    fit_localized,
    fit_npmle,
)

__all__ = [
    "EstimateReport",
    "FunctionalSpec",
    "bias_corrected_g",
    "discovery_curve",
    "empirical_plugin",
    "estimate",
    "estimate_combined",
    "g_eval",
    "good_turing_unseen",
    "miller_madow",
    "plugin",
]

KINDS = ("entropy", "power_sum", "renyi", "support_size", "unseen")
METHODS = ("plugin", "localized", "empirical", "miller-madow", "good-turing")

POWER_SUM_LOG_GUARD = 1e-300


# Parameters that only some kinds read, with those kinds: any other kind refuses them.
_ONLY_FOR = {
    "alpha": ("power_sum", "renyi"),
    "min_mass": ("support_size",),
    "horizon": ("unseen",),
}


@dataclass(frozen=True)
class FunctionalSpec:
    """Which symmetric functional to estimate, with its parameters.

    ``alpha`` parametrizes power sums (0 < alpha < 1) and Renyi entropy
    (alpha > 0, alpha != 1, estimated through the power sum); ``min_mass`` is
    the declared smallest category mass for support-size estimation (defaults
    to 1/k at estimation time); ``horizon`` is the look-ahead factor t of the
    unseen-categories functional.
    """

    kind: str
    alpha: Optional[float] = None
    min_mass: Optional[float] = None
    horizon: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown functional kind {self.kind!r}")
        for name, kinds in _ONLY_FOR.items():
            if getattr(self, name) is not None and self.kind not in kinds:
                raise DomainError(f"{name!r} does not apply to functional kind {self.kind!r}")
        if self.kind == "power_sum":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise DomainError("power sum requires alpha in (0, 1)")
        if self.kind == "renyi":
            if self.alpha is None or not 0.0 < self.alpha < math.inf or self.alpha == 1.0:
                raise DomainError(
                    f"Renyi entropy requires a finite alpha > 0, alpha != 1, got {self.alpha!r}"
                )
        if self.kind == "support_size" and self.min_mass is not None:
            if not 0.0 < self.min_mass <= 1.0:
                raise DomainError("min_mass must lie in (0, 1]")
        if self.kind == "unseen":
            if self.horizon is None or not 0.0 < self.horizon < math.inf:
                raise DomainError(
                    f"unseen functional requires a finite horizon t > 0, got {self.horizon!r}"
                )

    @classmethod
    def entropy(cls) -> "FunctionalSpec":
        return cls("entropy")

    @classmethod
    def power_sum(cls, alpha: float) -> "FunctionalSpec":
        return cls("power_sum", alpha=alpha)

    @classmethod
    def renyi(cls, alpha: float) -> "FunctionalSpec":
        return cls("renyi", alpha=alpha)

    @classmethod
    def support_size(cls, min_mass: Optional[float] = None) -> "FunctionalSpec":
        return cls("support_size", min_mass=min_mass)

    @classmethod
    def unseen(cls, horizon: float) -> "FunctionalSpec":
        return cls("unseen", horizon=horizon)

    def resolved_bounds(self, k: int) -> tuple[float, float]:
        """Clamping interval: the natural range of the functional."""
        if self.kind in ("entropy", "renyi"):
            return (0.0, math.log(k))
        if self.kind == "power_sum":
            return (0.0, k ** (1.0 - self.alpha))
        return (0.0, float(k))

    def resolved_min_mass(self, k: int) -> float:
        if self.min_mass is not None:
            return self.min_mass
        return 1.0 / k


@dataclass(frozen=True)
class EstimateReport:
    """An estimate plus how it was produced.

    ``raw`` is the value before clamping to ``bounds``; ``parts`` splits the
    combined estimator into its small-count and large-count contributions;
    ``fit`` is the mixture fit behind a plug-in or localized estimate (None
    for the baselines and for a localized partition with no small cells).
    """

    value: float
    method: str
    parts: Optional[tuple[float, float]] = None
    raw: Optional[float] = None
    bounds: Optional[tuple[float, float]] = None
    fit: Optional[FitResult] = None


def _report(
    spec: FunctionalSpec,
    additive: float,
    k: int,
    method: str,
    parts: Optional[tuple[float, float]] = None,
    fit: Optional[FitResult] = None,
) -> EstimateReport:
    """Finish an estimate from its additive sum sum_i g(p_i).

    Renyi entropy maps the power sum to log(sum)/(1 - alpha), with the sum
    clamped away from zero before the log; the result is then clamped to
    the functional's natural range.
    """
    raw = additive
    if spec.kind == "renyi":
        alpha = spec.alpha
        lo = k ** (-(1.0 - alpha)) * POWER_SUM_LOG_GUARD
        hi = max(1.0, k ** (1.0 - alpha))
        raw = math.log(min(max(additive, lo), hi)) / (1.0 - alpha)
    bounds = spec.resolved_bounds(k)
    return EstimateReport(
        value=min(max(raw, bounds[0]), bounds[1]),
        method=method,
        parts=parts,
        raw=raw,
        bounds=bounds,
        fit=fit,
    )


def g_eval(spec: FunctionalSpec, x, n: Optional[int] = None):
    """Per-category target function g at rate ``x`` in [0, 1].

    Entropy: -x log x; power sum (and Renyi, which is estimated through the
    power sum): x^alpha; support size: 1{x > 0}; unseen categories:
    e^{-n x} (1 - e^{-t n x}), which needs the concentration ``n``.
    Values at 0 follow the continuous extensions (all zero).
    """
    x = np.asarray(x, dtype=float)
    if spec.kind == "entropy":
        out = -xlogy(x, x)
    elif spec.kind in ("power_sum", "renyi"):
        out = x**spec.alpha
    elif spec.kind == "support_size":
        out = (x > 0).astype(float)
    else:
        if n is None:
            raise DomainError("the unseen functional needs the concentration n")
        nx = n * x
        out = np.exp(-nx) * (-np.expm1(-spec.horizon * nx))
    if out.ndim == 0:
        return float(out)
    return out


def plugin(
    spec: FunctionalSpec,
    mixing: MixingDistribution,
    k: int,
    n: Optional[int] = None,
    fit: Optional[FitResult] = None,
) -> EstimateReport:
    """Plug-in estimate k * sum_j w_j g(r_j), clamped to the functional bounds."""
    additive = float(k * mixing.expectation(g_eval(spec, mixing.atoms, n)))
    return _report(spec, additive, k, "plugin", fit=fit)


def bias_corrected_g(spec: FunctionalSpec, p_hat, n: int):
    """Second-order bias correction g(x) - (x / 2n) g''(x) for positive rates.

    Entropy becomes g + 1/(2n); the power sum picks up
    -(alpha (alpha - 1) / 2n) x^{alpha - 1}; the support-size indicator is
    left unchanged.
    """
    x = np.asarray(p_hat, dtype=float)
    if np.any(x <= 0):
        raise DomainError("bias correction is defined for positive rates only")
    out = g_eval(spec, x, n)
    if spec.kind == "entropy":
        out = out + 1.0 / (2.0 * n)
    elif spec.kind in ("power_sum", "renyi"):
        a = spec.alpha
        out = out - (a * (a - 1.0) / (2.0 * n)) * x ** (a - 1.0)
    elif spec.kind == "unseen":
        t = spec.horizon
        nx = n * x
        g2 = n**2 * np.exp(-nx) * (1.0 - (1.0 + t) ** 2 * np.exp(-t * nx))
        out = out - (x / (2.0 * n)) * g2
    return out if np.ndim(out) else float(out)


def estimate_combined(
    counts: CountData, spec: FunctionalSpec, localized: LocalizedFit
) -> EstimateReport:
    """Combine the localized plug-in with bias-corrected large-count terms.

    value = clamp(|J| * sum_j w_j g(r_j) + sum_{i not in J} g_corrected(p_hat_i)),
    where J is the small-rate partition of the localized fit.
    """
    n = counts.n
    small = 0.0
    if localized.fit is not None:
        mixing = localized.fit.mixing
        small = float(
            localized.n_small * mixing.expectation(g_eval(spec, mixing.atoms, n))
        )
    large = float(np.sum(bias_corrected_g(spec, localized.large_counts / n, n)))
    return _report(
        spec, small + large, counts.k, "localized", parts=(small, large), fit=localized.fit
    )


def empirical_plugin(counts: CountData, spec: FunctionalSpec) -> EstimateReport:
    """Plug-in at the empirical rates: clamp(sum_i g(N_i / n))."""
    positive = counts.counts[counts.counts > 0]
    additive = float(np.sum(g_eval(spec, positive / counts.n, counts.n)))
    return _report(spec, additive, counts.k, "empirical")


def miller_madow(counts: CountData) -> EstimateReport:
    """Classical entropy baseline: empirical entropy + (k_+ - 1) / (2 sum_i N_i)."""
    total = int(counts.counts.sum())
    positive = counts.counts[counts.counts > 0]
    if total == 0:
        return EstimateReport(value=0.0, method="miller-madow", raw=0.0)
    p = positive / total
    raw = float(np.sum(-xlogy(p, p))) + (positive.size - 1) / (2.0 * total)
    return EstimateReport(value=raw, method="miller-madow", raw=raw)


def good_turing_unseen(counts: CountData, horizon: float) -> EstimateReport:
    """Alternating-series unseen-categories baseline  -sum_j (-t)^j phi_j.

    The series is truncated at the largest observed count.  It is reliable
    for t <= 1 but its terms grow like t^j, so the value diverges for larger
    look-ahead horizons; ``raw`` keeps the signed series value and ``value``
    floors it at zero.
    """
    if not 0.0 < horizon < math.inf:
        raise DomainError(f"horizon t must be positive and finite, got {horizon!r}")
    values, mult = counts.unique_with_multiplicity()
    keep = values > 0
    values, mult = values[keep], mult[keep]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = -np.power(-float(horizon), values.astype(float)) * mult
        raw = float(np.sum(terms))
    return EstimateReport(value=max(raw, 0.0), method="good-turing", raw=raw)


def discovery_curve(
    mixing: MixingDistribution, k: int, n: int, horizons
) -> list[tuple[float, float]]:
    """Unseen plug-in evaluated on a list of horizons against one fit."""
    return [(float(t), plugin(FunctionalSpec.unseen(t), mixing, k, n).value)
            for t in horizons]


def estimate(
    counts: CountData,
    spec: FunctionalSpec,
    method: str,
    *,
    kernel=None,
    tol: float = DEFAULT_TOL,
) -> EstimateReport:
    """One-stop estimation routing to the requested method.

    Fitting methods apply the declared minimum-mass support constraint by
    removing grid atoms in (0, min_mass) when estimating the support size.
    """
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}")
    min_mass = (
        spec.resolved_min_mass(counts.k) if spec.kind == "support_size" else None
    )
    if method == "plugin":
        grid = build_grid(counts, min_mass=min_mass)
        fit = fit_npmle(counts, grid, kernel, tol)
        return plugin(spec, fit.mixing, counts.k, counts.n, fit=fit)
    if method == "localized":
        loc = fit_localized(counts, kernel=kernel, tol=tol, min_mass=min_mass)
        return estimate_combined(counts, spec, loc)
    if method == "empirical":
        return empirical_plugin(counts, spec)
    if method == "miller-madow":
        if spec.kind != "entropy":
            raise DomainError("the Miller-Madow correction applies to entropy only")
        return miller_madow(counts)
    if spec.kind != "unseen":
        raise DomainError("the Good-Turing baseline estimates the unseen functional")
    return good_turing_unseen(counts, spec.horizon)
