"""Independent checks of countmix outputs.

Every quantity here is recomputed from the inputs and the reported output with
``scipy.stats`` pmfs and ``scipy.special.logsumexp``; nothing is imported from
countmix, so a fault in its kernels cannot hide in the check.  Each check
returns ``(failed, problems)``: ``failed`` means the program returned a result
without a valid optimality certificate (gap above tol, non-zero exit), and
``problems`` lists every other property the output violates.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import stats
from scipy.special import entr, logsumexp

TOL = 1e-6
LOGLIK_RTOL = 1e-9
F0_ATOL = 1e-4
PROFILE_ATOL = 1e-8
ESTIMATE_RTOL = 0.01
KAPPA = 3.6
PENALTY = (10.0, 1.0)  # fit_penalized's default reg=(c0, c1)


def distinct(counts):
    """Distinct count values and their multiplicities (float)."""
    values, mult = np.unique(np.asarray(counts, dtype=np.int64), return_counts=True)
    return values, mult.astype(float)


def component_logpmf(family: str, n: int, values, atoms) -> np.ndarray:
    x = np.asarray(values, dtype=float)[:, None]
    r = np.asarray(atoms, dtype=float)[None, :]
    if family == "poisson":
        return stats.poisson.logpmf(x, n * r)
    return stats.binom.logpmf(x, n, r)


def mixture_logf(family, n, values, atoms, weights) -> np.ndarray:
    logq = component_logpmf(family, n, values, atoms)
    with np.errstate(divide="ignore"):
        return logsumexp(logq, axis=1, b=np.asarray(weights, dtype=float)[None, :])


def gap(family, n, values, mult, atoms, weights, grid) -> float:
    """max_j (1/k) sum_i m_i q(v_i, r_j) / f(v_i) - 1 over the grid (unclamped)."""
    live = mult > 0
    values, mult = values[live], mult[live]
    logf = mixture_logf(family, n, values, atoms, weights)
    if not np.all(np.isfinite(logf)):
        return math.inf
    ratios = np.exp(component_logpmf(family, n, values, grid) - logf[:, None])
    return float((mult @ ratios).max() / mult.sum() - 1.0)


def loglik(family, n, values, mult, atoms, weights) -> float:
    live = mult > 0
    return float(mult[live] @ mixture_logf(family, n, values[live], atoms, weights))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def check_fit(family, n, values, mult, grid, atoms, weights, log_likelihood,
              converged, tol=TOL):
    """Certificate, Lindsay's bound, log-likelihood and the converged flag."""
    atoms, weights = np.asarray(atoms, dtype=float), np.asarray(weights, dtype=float)
    problems = []
    g = gap(family, n, values, mult, atoms, weights, np.asarray(grid, dtype=float))
    failed = not g <= tol
    if bool(converged) == failed:
        problems.append(f"converged={converged} disagrees with recomputed gap {g:.3g}")
    n_distinct = int(np.count_nonzero(mult > 0))
    if not failed and atoms.size > n_distinct:
        problems.append(f"{atoms.size} atoms exceed {n_distinct} distinct counts")
    ll = loglik(family, n, values, mult, atoms, weights)
    if not _close(ll, log_likelihood, LOGLIK_RTOL):
        problems.append(f"log-likelihood {log_likelihood!r} != recomputed {ll!r}")
    return failed, problems


def zipf_probs(k: int, s: float = 1.0) -> np.ndarray:
    p = np.arange(1, k + 1, dtype=float) ** -s
    return p / p.sum()


def uniform_probs(k: int) -> np.ndarray:
    return np.full(k, 1.0 / k)


def entropy(p) -> float:
    return float(entr(np.asarray(p, dtype=float)).sum())


def check_rmse_report(text: str, probs, n_list, trials, estimators, previous=None):
    """RMSE document of ``countmix simulate``: truths, moment identity, ordering.

    ``previous`` is the output of an earlier invocation with the same config,
    which must be byte-identical.
    """
    problems = []
    if previous is not None and text != previous:
        problems.append("two invocations of the same config differ")
    doc = json.loads(text)
    truth = entropy(probs)
    entries = doc["entries"]
    if len(entries) != len(n_list) * len(estimators):
        problems.append(f"{len(entries)} entries for {len(n_list)} sizes x {len(estimators)}")
    rmse = {}
    for e in entries:
        if e["trial_count"] != trials:
            problems.append(f"trial_count {e['trial_count']} != {trials}")
        if not _close(e["truth"], truth, 1e-10):
            problems.append(f"truth {e['truth']!r} != entropy {truth!r} at n={e['n']}")
        lhs = e["rmse"] ** 2
        rhs = (e["mean"] - e["truth"]) ** 2 + e["std"] ** 2
        if not _close(lhs, rhs, 1e-9):
            problems.append(f"{e['estimator']} n={e['n']}: rmse^2 {lhs!r} != bias^2+var {rhs!r}")
        rmse[(e["estimator"], e["n"])] = e["rmse"]
    for n in n_list:
        base = rmse.get(("empirical", n))
        for name in ("plugin", "localized"):
            value = rmse.get((name, n))
            if base is None or value is None or not value < base:
                problems.append(f"{name} RMSE {value!r} not below empirical {base!r} at n={n}")
    return False, problems


def check_localized_entropy(doc: dict, counts, n: int, k: int, probs):
    """`estimate --functional entropy --method localized` against the draw."""
    problems = []
    value, parts = doc["value"], doc["parts"]
    p_hat = np.asarray(counts, dtype=float) / n
    large = p_hat[p_hat > KAPPA * math.log(n) / n]
    expected_large = float(np.sum(entr(large) + 1.0 / (2.0 * n)))
    if not _close(parts[1], expected_large, 1e-9):
        problems.append(f"large-count part {parts[1]!r} != {expected_large!r}")
    if not 0.0 <= value <= math.log(k):
        problems.append(f"entropy {value!r} outside [0, log k]")
    truth = entropy(probs)
    if abs(value - truth) > ESTIMATE_RTOL * truth:
        problems.append(f"entropy {value!r} more than 1% from the truth {truth!r}")
    return False, problems


def check_penalized(result, counts, n: int):
    """Poisson ``fit_penalized`` on positive counts: k_hat, f(0), certificate, selection."""
    problems = []
    values, mult = distinct(counts)
    k = float(mult.sum())
    k_hat = float(result.k_hat)
    atoms = np.asarray(result.mixing.atoms, dtype=float)
    weights = np.asarray(result.mixing.weights, dtype=float)
    if k_hat < k:
        problems.append(f"k_hat {k_hat!r} below the observed k {k:g}")
    if k_hat > k:
        f0 = float(weights @ stats.poisson.pmf(0, n * atoms))
        target = (k_hat - k) / k_hat
        if abs(f0 - target) > F0_ATOL:
            problems.append(f"f(0) {f0!r} != (k_hat - k)/k_hat {target!r}")
    pad_values = np.concatenate(([0], values))
    pad_mult = np.concatenate(([max(k_hat - k, 0.0)], mult))
    g = gap("poisson", n, pad_values, pad_mult, atoms, weights,
            np.asarray(result.fit.grid.atoms, dtype=float))
    failed = not g <= TOL
    best = max(obj for _, obj in result.profile)
    smallest = min(kp for kp, obj in result.profile if obj >= best - PROFILE_ATOL)
    if k_hat != smallest:
        problems.append(f"k_hat {k_hat!r} is not the smallest maximizer {smallest!r}")
    ll = loglik("poisson", n, pad_values, pad_mult, atoms, weights)
    q = k / k_hat
    h = 0.0 if q >= 1.0 else -(q * math.log(q) + (1.0 - q) * math.log1p(-q))
    objective = ll + k_hat * h + PENALTY[0] / k_hat ** PENALTY[1]
    if not _close(objective, result.penalized_objective, LOGLIK_RTOL):
        problems.append(
            f"objective {result.penalized_objective!r} != recomputed {objective!r}"
        )
    return failed, problems
