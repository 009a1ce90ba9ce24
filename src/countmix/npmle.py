"""Grid construction and mixing-distribution fits for count mixtures.

Three fitting procedures share one solver core: the plain fit over the full
count multiset, a localized fit restricted to small empirical rates, and a
penalized fit that jointly selects a support size when only the non-zero
counts are observed.

The solver maximizes sum_i m_i log sum_j w_j q(N_i, r_j) over the weight
simplex by the constrained Newton method (CNM) of Wang (2007, JRSS-B
69:185), the same idea as the active-set SQP ("mix-SQP") of Kim, Carbonetto,
Stephens & Anitescu (2020, JCGS).  Each step adds to the support the local
maxima of the directional derivative that violate the certificate, solves a
quadratic model of the log-likelihood on that support by non-negative least
squares, and takes an Armijo step toward the result.  Atoms the model drops
carry weight exactly zero.  Convergence is declared on the
directional-derivative certificate

    gap = max_j (1/k) sum_i m_i q(N_i, r_j) / f_w(N_i) - 1,

which is nonpositive at an exact maximizer.  The reported gap and
log-likelihood are the solver's own, taken from the mixture density f = B w
at the returned weights; ``certificate`` stays the independent check, which
recomputes the gap from fresh pmf evaluations and the mixing distribution
alone.

B is the row-scaled d x m pmf matrix (d distinct counts, m grid atoms).  It
is built from m per-atom logarithms, the log pmf being linear in the count,
and the penalized search and ``scaled_kl_profile`` build it once per call:
each k' changes only the multiplicity of the padded zero row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import nnls
from scipy.special import gammaln

from .base import (
    CountData,
    DomainError,
    FitError,
    Grid,
    MixingDistribution,
    MixtureKernel,
)
from .kernels import log_pmf, mixture_log_density

__all__ = [
    "FitResult",
    "LocalizedFit",
    "PenalizedFitResult",
    "build_grid",
    "certificate",
    "fit_localized",
    "fit_npmle",
    "fit_penalized",
    "scaled_kl_profile",
]

DEFAULT_TOL = 1e-6
# Localized threshold multiplier and penalized tie-break (c0, c1); the CLI
# flags take their defaults from these.
DEFAULT_KAPPA = 3.6
DEFAULT_REG = (10.0, 1.0)
# Safety bound on constrained-Newton steps per fit, not a setting: the most any
# fit has been seen to take is 3768 (at tol = 1e-8).
MAX_NEWTON_STEPS = 20_000
# The penalized k' search stops once the bracket on log k' is this narrow,
# i.e. once k' is known to 0.1 %.
KPRIME_LOG_WIDTH = 1e-3
# Ceiling of that search, as a multiple of the number of positive counts.
K_MAX_FACTOR = 50.0


@dataclass(frozen=True)
class FitResult:
    """Fitted mixing distribution with its optimality certificate.

    ``optimality_gap`` is the largest directional-derivative violation over
    the grid, clamped below at zero; ``log_likelihood`` is the mixture
    log-likelihood of the data at the fit.  Both are the solver's own figures
    at the returned weights; ``certificate`` rechecks the gap independently.
    ``iterations`` counts the constrained-Newton steps taken.
    """

    mixing: MixingDistribution
    log_likelihood: float
    optimality_gap: float
    iterations: int
    converged: bool
    grid: Grid


@dataclass(frozen=True)
class LocalizedFit:
    """Localized fit plus the partition it was computed on.

    ``n_small`` counts the cells whose empirical rate is at most the
    threshold, implicit zero counts included; ``large_counts`` holds the
    rest.  ``fit`` is None when no cell qualified.
    """

    fit: Optional[FitResult]
    n_small: int
    large_counts: np.ndarray
    threshold: float


@dataclass(frozen=True)
class PenalizedFitResult:
    """Joint support-size and mixing fit from zero-padded counts.

    ``k_hat`` is the selected (real-valued) support size, ``profile`` the
    (k', objective) pairs evaluated during the search, and ``fit`` the inner
    fit at ``k_hat`` whose data included k_hat - k fractional zero counts.
    """

    k_hat: float
    mixing: MixingDistribution
    penalized_objective: float
    profile: list[tuple[float, float]]
    fit: FitResult


def build_grid(
    counts: CountData,
    *,
    upper: Optional[float] = None,
    min_mass: Optional[float] = None,
) -> Grid:
    """Data-driven grid over candidate rates in [0, 1].

    The atom count m is ceil(10 sqrt(k)) clipped to [500, 2000], so the grid
    depends on the counts alone (pass a ``Grid`` to ``fit_npmle`` for other
    atoms).  Let pbar = min(max_i N_i / n, 1) and tau = min(1.6 log(n)/n, 1).
    When pbar <= tau the grid is m uniform points on [0, pbar]; otherwise half
    of the points are placed uniformly on [0, tau] and the rest on
    (tau, pbar], concentrating resolution where small rates live.  The grid
    always contains 0 and pbar.

    ``upper`` caps pbar (used by the localized fit); atoms in the open
    interval (0, ``min_mass``) are discarded when a minimum category mass is
    declared, as in support-size estimation.  All-zero counts degenerate to
    {0} plus nine auxiliary points in [0, 1/n].
    """
    m = max(500, min(2000, math.ceil(math.sqrt(max(counts.k, 1)) * 10)))
    n = counts.n
    pbar = min(counts.max_count() / n, 1.0)
    if upper is not None:
        pbar = min(pbar, upper)
    tau = min(1.6 * math.log(n) / n, 1.0)
    if pbar <= 0.0:
        atoms = np.linspace(0.0, 1.0 / n, 10)
    elif pbar <= tau:
        atoms = np.linspace(0.0, pbar, m)
    else:
        m_lo = math.ceil(m / 2)
        m_hi = m // 2
        lo = np.linspace(0.0, tau, m_lo)
        hi = tau + (pbar - tau) * np.arange(1, m_hi + 1) / m_hi
        atoms = np.concatenate([lo, hi])
    if min_mass is not None:
        atoms = atoms[(atoms <= 0.0) | (atoms >= min_mass)]
        atoms = np.concatenate([atoms, [0.0]])
    return Grid(np.unique(atoms))


def _solve_weights(
    B: np.ndarray, mult: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Maximize sum_i m_i log (B w)_i over the weight simplex by CNM.

    ``B`` is the row-scaled pmf matrix, so each row peaks at exactly 1.
    Returns the weights w, f = B w (positive: the start gives f_i >= m_i / k
    and a step that would bring any f_i near zero is refused), the
    certificate gap max_j g_j - 1 at w, where g = B^T (m / f) / k, and the
    number of Newton steps taken.
    """
    ktot = mult.sum()
    sqrt_m = np.sqrt(mult)
    # Multiplicity-weighted start on the row peaks gives f_i >= m_i / k, which
    # the optimum satisfies too; a uniform start on the peaks lets the first
    # step drop the only atom covering a count.
    w = np.bincount(np.argmax(B, axis=1), weights=mult, minlength=B.shape[1]) / ktot
    f = B @ w
    iterations = 0
    while True:
        g = B.T @ (mult / f) / ktot
        gap = float(g.max() - 1.0)
        if gap <= tol or iterations >= MAX_NEWTON_STEPS:
            break
        # Admit every violating local maximum of g over the sorted grid.
        left = np.concatenate(([-np.inf], g[:-1]))
        right = np.concatenate((g[1:], [-np.inf]))
        support = np.flatnonzero((w > 0) | ((g > 1.0) & (g > left) & (g >= right)))
        # Newton step: minimize the quadratic model of the log-likelihood at f,
        # ||diag(sqrt(m)/f) B_S u - 2 sqrt(m)||, over u >= 0; a heavy row holds
        # sum(u) = 1.
        Bs = B[:, support]
        A = Bs * (sqrt_m / f)[:, None]
        heavy = 1e3 * A.max()
        try:
            u, _ = nnls(
                np.vstack([A, np.full(support.size, heavy)]), np.append(2.0 * sqrt_m, heavy)
            )
        except RuntimeError as exc:  # nnls gives up after 3n inner iterations
            raise FitError(f"weight solver: {exc}") from exc
        u /= u.sum()
        # g - 1 rather than g: both weight vectors sum to one, and this keeps a
        # small slope from drowning in rounding.
        slope = ktot * float((g[support] - 1.0) @ (u - w[support]))
        # Armijo search on the segment from w to u.  Float dust is zeroed inside
        # the test, so an accepted f is exactly the one checked; a tiny f would
        # put huge entries into the next model, so such candidates are refused.
        # The gain is summed as log ratios, which resolves gains far below the
        # rounding of the log-likelihood itself.
        step = 1.0
        while slope > 0.0 and step > 1e-10:
            cand = (1.0 - step) * w[support] + step * u
            cand[cand < 1e-14 * cand.max()] = 0.0
            cand /= cand.sum()
            fc = Bs @ cand
            if np.all(fc * ktot > 1e-8 * mult):
                gain = float(mult @ np.log1p((fc - f) / f))
                if gain > 0.0 and gain >= step * slope / 3.0:
                    break
            step *= 0.5
        else:
            break  # no ascent left at this precision: w stays, with its gap
        w = np.zeros_like(w)
        w[support] = cand
        f = fc
        iterations += 1
    return w, f, max(gap, 0.0), iterations


def _linear_logs(out: np.ndarray, x: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """out[i, j] = x_i a_j + b_j, where a row with x_i = 0 takes 0 log 0 = 0."""
    with np.errstate(invalid="ignore"):
        np.multiply.outer(x, a, out=out)
    out[x == 0.0] = 0.0
    out += b


def _prepare_rows(
    values: np.ndarray, grid: Grid, kernel: MixtureKernel
) -> tuple[np.ndarray, np.ndarray]:
    """Row-scaled pmf matrix B = exp(log q - rowmax), and rowmax = max_j log q.

    The log pmf is linear in the count x: log q(x, r_j) = x a_j + b_j + c(x).
    Poisson: a = log(n r), b = -n r, c = -log x!.  Binomial: a = log r -
    log(1 - r), b = n log(1 - r), c = log C(n, x); above r = 1/2 it takes the
    mirror q(x; r) = q(n - x; 1 - r), count n - x, so that the offset b stays
    below n log 2 in size and x a + b cancels no more digits than ``log_pmf``.
    So the matrix takes m logarithms, not d m, and c(x), constant along a
    row, goes into rowmax alone.  Boundary cells follow ``log_pmf``: at r = 0
    only x = 0 has mass and at a binomial r = 1 only x = n, both through
    0 log 0 = 0.  A row with no support raises FitError.
    """
    x = values.astype(float)
    r = grid.atoms
    logB = np.empty((x.size, r.size))
    with np.errstate(divide="ignore"):
        if kernel.family == "poisson":
            lam = kernel.n * r
            _linear_logs(logB, x, np.log(lam), -lam)
            c = -gammaln(x + 1.0)
        else:
            if np.any(x > kernel.n):
                raise DomainError("binomial count exceeds the number of trials")
            n = float(kernel.n)
            half = np.searchsorted(r, 0.5, side="right")
            lo, hi = r[:half], r[half:]
            _linear_logs(logB[:, :half], x, np.log(lo) - np.log1p(-lo), n * np.log1p(-lo))
            _linear_logs(logB[:, half:], n - x, np.log1p(-hi) - np.log(hi), n * np.log(hi))
            c = gammaln(n + 1.0) - gammaln(x + 1.0) - gammaln(n - x + 1.0)
    rowmax = logB.max(axis=1)
    if not np.all(np.isfinite(rowmax)):
        bad = values[~np.isfinite(rowmax)]
        raise FitError(f"count {bad[0]} has zero probability under every grid atom")
    logB -= rowmax[:, None]
    return np.exp(logB, out=logB), rowmax + c


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


def _solve_rows(
    B: np.ndarray, rowmax: np.ndarray, mult: np.ndarray, grid: Grid, tol: float
) -> FitResult:
    """Fit on rows from ``_prepare_rows``; rows of multiplicity 0 are dropped."""
    _check_tol(tol)
    live = mult > 0
    if not live.all():
        B, rowmax, mult = B[live], rowmax[live], mult[live]
    if mult.size == 0:
        raise FitError("no counts to fit")
    w, f, gap, iterations = _solve_weights(B, mult, tol)
    keep = w > 0
    return FitResult(
        mixing=MixingDistribution(grid.atoms[keep], w[keep]),
        log_likelihood=float(mult @ (np.log(f) + rowmax)),
        optimality_gap=gap,
        iterations=iterations,
        converged=gap <= tol,
        grid=grid,
    )


def fit_npmle(
    counts: CountData,
    grid: Optional[Grid] = None,
    kernel: Optional[MixtureKernel] = None,
    tol: float = DEFAULT_TOL,
) -> FitResult:
    """Maximum-likelihood mixing distribution over the grid atoms.

    Returns weights over ``grid`` approximately maximizing
    sum_i log sum_j w_j q(N_i, r_j), with ``optimality_gap <= tol`` on
    success.  The weights come from the constrained Newton method of Wang
    (2007).  It stops when the certificate holds or when no step can raise
    the likelihood further; only the first sets ``converged``.  Every
    returned atom carries positive weight.
    """
    if kernel is None:
        kernel = MixtureKernel.poisson(counts.n)
    if grid is None:
        grid = build_grid(counts)
    values, mult = counts.unique_with_multiplicity()
    return _solve_rows(*_prepare_rows(values, grid, kernel), mult, grid, tol)


def certificate(
    fit: FitResult, counts: CountData, grid: Grid, kernel: MixtureKernel
) -> float:
    """Recompute the optimality gap of a fit from scratch.

    Evaluates max_j of the directional derivative toward each grid atom using
    fresh pmf evaluations and the reported mixing distribution only, so it
    checks the solver's answer rather than repeating its internal state.
    """
    values, mult = counts.unique_with_multiplicity()
    logf = np.atleast_1d(mixture_log_density(kernel, fit.mixing, values.astype(float)))
    if not np.all(np.isfinite(logf[mult > 0])):
        raise FitError("mixture density vanishes at an observed count")
    logq_grid = np.atleast_2d(
        log_pmf(kernel, values[:, None].astype(float), grid.atoms[None, :])
    )
    per_atom = np.einsum("i,ij->j", mult / mult.sum(), np.exp(logq_grid - logf[:, None]))
    return max(float(per_atom.max() - 1.0), 0.0)


def fit_localized(
    counts: CountData,
    *,
    kernel: Optional[MixtureKernel] = None,
    tol: float = DEFAULT_TOL,
    min_mass: Optional[float] = None,
    kappa: float = DEFAULT_KAPPA,
) -> LocalizedFit:
    """Fit restricted to cells whose empirical rate is below kappa log(n)/n.

    The grid of the sub-fit is capped at the same threshold.
    """
    if not 0.0 < kappa < math.inf:
        raise DomainError(f"kappa must be positive and finite, got {kappa!r}")
    _check_tol(tol)
    n = counts.n
    if n < 2:
        raise DomainError("localization requires n >= 2")
    threshold = kappa * math.log(n) / n
    small_mask = (counts.counts / n) <= threshold
    n_small = int(small_mask.sum()) + counts.implicit_zeros
    large_counts = counts.counts[~small_mask]
    if n_small == 0:
        return LocalizedFit(None, 0, large_counts, threshold)
    sub = CountData(counts.counts[small_mask], n=n, k=n_small)
    grid = build_grid(sub, upper=threshold, min_mass=min_mass)
    fit = fit_npmle(sub, grid, kernel, tol)
    return LocalizedFit(fit, n_small, large_counts, threshold)


def _check_positive(counts: CountData, what: str) -> None:
    """The padded fits take the observed non-zero counts alone: a zero count,
    listed or implicit in k, is padding, which they choose themselves."""
    if counts.counts.size == 0 or counts.counts.min() < 1:
        raise DomainError(f"{what} requires strictly positive counts")
    if counts.implicit_zeros:
        raise DomainError(
            f"{what} got {counts.implicit_zeros} implicit zero counts (k > number of counts);"
            " zero padding is selected by the fit, so supply only positive counts"
        )


def _padded_fits(counts: CountData, kernel: MixtureKernel, tol: float):
    """k' -> (padded multiplicities, fit to ``tol``) on ``build_grid(counts)``.

    The padded multiset is [0] + the distinct positive counts, the zero row
    taking multiplicity k' - k.  Its rows are prepared once per call: every k'
    shares them, and only the zero row's multiplicity changes.
    """
    grid = build_grid(counts)
    values, mult = counts.unique_with_multiplicity()
    B, rowmax = _prepare_rows(np.concatenate(([0], values)), grid, kernel)

    def solve(k_prime: float) -> tuple[np.ndarray, FitResult]:
        padded = np.concatenate(([k_prime - counts.k], mult))
        return padded, _solve_rows(B, rowmax, padded, grid, tol)

    return solve


def fit_penalized(
    counts: CountData,
    kernel: Optional[MixtureKernel] = None,
    tol: float = DEFAULT_TOL,
    reg: tuple[float, float] = DEFAULT_REG,
) -> PenalizedFitResult:
    """Joint fit of the mixing distribution and a real support size k' >= k.

    Input must be the observed non-zero counts.  The objective adds to the
    padded log-likelihood the binary-entropy term k' H(k/k') and the
    tie-breaking regularizer c0 / k'^c1, which prefers the smallest maximizer
    on the flat part of the profile.  By the envelope theorem the profile's
    slope in k' is log f(0) - log((k'-k)/k') - c0 c1 / k'^(c1+1), with f the
    fit at k'.  It is +inf just above k and turns negative past the point
    where the profile flattens; the search bisects on its sign in log k' over
    [k, K_MAX_FACTOR * k] until k' is known to 0.1 %, a fixed number of fits,
    and raises FitError when the slope is still positive at the ceiling.
    At a selected k_hat > k the fitted mixture satisfies
    f(0) ~= (k_hat - k)/k_hat.

    Every k' is fitted on ``build_grid(counts)``, which is no setting: its
    first positive atom is the mass floor that makes the support size
    identifiable, so a finer grid moves k_hat rather than sharpening it.
    """
    _check_positive(counts, "penalized fit")
    c0, c1 = reg
    for name, value in (("c0", c0), ("c1", c1)):
        if not math.isfinite(value):
            raise DomainError(f"regularizer {name} must be finite, got {value!r}")
    k = float(counts.k)
    k_max = K_MAX_FACTOR * k
    if kernel is None:
        kernel = MixtureKernel.poisson(counts.n)
    solve = _padded_fits(counts, kernel, tol)
    # (k', objective, fit) for every k' the search evaluates
    records: list[tuple[float, float, FitResult]] = []

    def evaluate(kp: float) -> FitResult:
        _, fit = solve(kp)
        p = k / kp  # k' H(k/k'): H is zero at p = 1
        entropy = 0.0 if p >= 1.0 else -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))
        records.append((kp, fit.log_likelihood + kp * entropy + c0 / kp**c1, fit))
        return fit

    def slope(kp: float) -> float:
        log_f0 = mixture_log_density(kernel, evaluate(kp).mixing, 0)
        return log_f0 - math.log1p(-k / kp) - c0 * c1 / kp ** (c1 + 1)

    # Plain bisection on the sign: the slope has a corner where the profile
    # flattens and sits near -c0 c1 / k'^(c1+1) beyond it, which draws
    # interpolating root finders (Brent) to the flat side; they took 18-24
    # fits for the same bracket width.
    evaluate(k)
    if slope(k_max) > 0.0:
        raise FitError(f"support size search hit the bracket ceiling {k_max:g}")
    lo, hi = math.log(k), math.log(k_max)
    while hi - lo > KPRIME_LOG_WIDTH:
        mid = 0.5 * (lo + hi)
        if slope(math.exp(mid)) > 0.0:
            lo = mid
        else:
            hi = mid

    best = max(obj for _, obj, _ in records)
    k_hat, objective, final = min(
        (r for r in records if r[1] >= best - 1e-8), key=lambda r: r[0]
    )
    return PenalizedFitResult(
        k_hat=k_hat,
        mixing=final.mixing,
        penalized_objective=objective,
        profile=[(kp, obj) for kp, obj, _ in records],
        fit=final,
    )


def scaled_kl_profile(
    counts: CountData, k_prime_list, tol: float = DEFAULT_TOL
) -> list[tuple[float, float]]:
    """k' * KL(padded count histogram || fitted mixture) per candidate k'.

    The padded histogram puts mass c_x / k' on each observed count value x
    (multiplicity c_x) and (k' - k)/k' on zero, so k' * KL is the sum of
    c log(c / k') over the padded cells (the zero cell with c = k' - k) minus
    the padded fit's log-likelihood.  The profile is monotone non-increasing
    in k' up to solver tolerance.  The padded fits use the Poisson kernel at
    ``counts.n`` and the grid ``fit_penalized`` searches on.
    """
    _check_positive(counts, "profile")
    k_primes = [float(kp) for kp in k_prime_list]
    for kp in k_primes:
        if not math.isfinite(kp):
            raise DomainError(f"k' must be finite, got {kp!r}")
        if kp < counts.k:
            raise DomainError("k' must be at least the number of positive counts")
    solve = _padded_fits(counts, MixtureKernel.poisson(counts.n), tol)
    out: list[tuple[float, float]] = []
    for kp in k_primes:
        padded, fit = solve(kp)
        live = padded[padded > 0]
        out.append((kp, float(live @ np.log(live / kp)) - fit.log_likelihood))
    return out
