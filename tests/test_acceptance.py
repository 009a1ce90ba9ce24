"""Desk-scale acceptance suite.

Each test covers one acceptance criterion end to end and prints a single
pass/fail line (visible under ``pytest -s`` or in the -v test listing).
Expected values come from independent in-test oracles or closed forms, never
from the code paths under test.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

import importlib.resources as res

from countmix import (
    CountData,
    FunctionalSpec,
    MixingDistribution,
    MixtureKernel,
    estimate,
    fit_npmle,
    fit_penalized,
    gof_test,
    make_distribution,
    sample,
    scaled_kl_profile,
    w1_curve,
)
from countmix.base import Grid
from countmix.evaluate import wasserstein
from countmix.functionals import discovery_curve, good_turing_unseen
from countmix.kernels import log_pmf, mixture_log_density
from countmix.npmle import certificate
from countmix.sim import true_value
from countmix.io import read_counts

TOL = 1e-6
KINDS = ("uniform", "two_mixed_uniform", "spike_and_uniform", "geometric", "log_series", "zipf")


def report(num, name, ok, detail=""):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def stream_rng(seed, stream):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def random_instance(i):
    """One of 200 randomized instances: k <= 1e4, n <= 1e5, both kernels."""
    gen = stream_rng(424242, i)
    kind = KINDS[i % 6]
    k = int(np.exp(gen.uniform(np.log(10), np.log(10_000))))
    if kind == "two_mixed_uniform":
        k += k % 2
    if kind == "spike_and_uniform":
        k = max(k, 5)
    n = int(np.exp(gen.uniform(np.log(10), np.log(100_000))))
    family = "poisson" if i % 2 == 0 else "binomial"
    dist = make_distribution(kind, k)
    counts = sample(dist, "multinomial", n, gen)
    return counts, MixtureKernel(family, counts.n)


@pytest.fixture(scope="module")
def certified_fits():
    out = []
    for i in range(200):
        counts, kernel = random_instance(i)
        fit = fit_npmle(counts, kernel=kernel, tol=TOL)
        out.append((counts, kernel, fit))
    return out


def test_criterion_1_butterfly_goodness_of_fit():
    start = time.time()
    data = read_counts(str(res.files("countmix").joinpath("data/butterfly.fp")))
    mixture_ps, pmodel_ps = {}, {}
    for T in (10, 15, 20, 25, 30):
        mixture_ps[T] = gof_test(data, "mixture", T).p_value
        pmodel_ps[T] = gof_test(data, "p-model", T).p_value
    elapsed = time.time() - start
    ok = (
        all(p > 0.05 for p in mixture_ps.values())
        and all(p < 1e-3 for p in pmodel_ps.values())
        and elapsed < 10.0
    )
    report(
        1,
        "butterfly goodness of fit",
        ok,
        f"mixture p={ {T: round(p, 4) for T, p in mixture_ps.items()} } "
        f"p-model p={ {T: float(f'{p:.2e}') for T, p in pmodel_ps.items()} } "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_2_optimality_certificates(certified_fits):
    start = time.time()
    worst_gap, worst_agree = 0.0, 0.0
    for counts, kernel, fit in certified_fits:
        worst_gap = max(worst_gap, fit.optimality_gap)
        recomputed = certificate(fit, counts, fit.grid, kernel)
        worst_agree = max(worst_agree, abs(recomputed - fit.optimality_gap))
    elapsed = time.time() - start
    ok = worst_gap <= TOL and worst_agree <= 1e-10
    report(
        2,
        "optimality certificates on 200 instances",
        ok,
        f"max gap={worst_gap:.2e} max recomputation diff={worst_agree:.2e} "
        f"check time={elapsed:.0f}s",
    )


def test_criterion_3_support_and_sparsity(certified_fits):
    violations = 0
    for counts, kernel, fit in certified_fits:
        values, _ = counts.unique_with_multiplicity()
        spacing = fit.grid.max_spacing()
        lo = min(1.0, values.min() / counts.n) - spacing
        hi = min(1.0, values.max() / counts.n) + spacing
        if fit.mixing.atoms.min() < lo or fit.mixing.atoms.max() > hi:
            violations += 1
        elif (fit.mixing.weights > 1e-9).sum() > len(values):
            violations += 1
    report(
        3,
        "support range and sparsity on 200 instances",
        violations == 0,
        f"violations={violations}",
    )


def brute_force_loglik(counts, grid, kernel, resolution=1e-3):
    """Exhaustive simplex search over every 3-atom support of the grid.

    With at most three distinct counts the optimum needs few atoms; the
    3-atom sub-simplices cover all 1- and 2-atom weightings on their faces.
    """
    values, mult = counts.unique_with_multiplicity()
    A = np.exp(log_pmf(kernel, values[:, None].astype(float), grid.atoms[None, :]))
    steps = int(round(1.0 / resolution))
    # Every lattice point (a, b, c) / steps with a + b + c = steps, built once
    # and shared by all supports.
    rows = []
    for a in range(steps + 1):
        b = np.arange(steps - a + 1)
        rows.append(np.stack([np.full(b.size, a), b, steps - a - b], axis=1))
    W = np.concatenate(rows) / steps
    best = -math.inf
    for support in combinations(range(A.shape[1]), 3):
        f = W @ A[:, support].T
        with np.errstate(divide="ignore"):
            ll = (np.log(f) * mult).sum(axis=1)
        best = max(best, float(ll.max()))
    return best


def test_criterion_4_bruteforce_oracle_equivalence():
    start = time.time()
    worst = math.inf
    for i in range(50):
        gen = stream_rng(515151, i)
        n = int(gen.integers(2, 30))
        n_counts = int(gen.integers(1, 4))
        counts = CountData(gen.integers(0, n + 1, size=n_counts), n=n)
        atoms = np.unique(np.concatenate([[0.0], np.sort(gen.uniform(0, 1, size=4))]))
        while atoms.size < 5:
            atoms = np.unique(np.append(atoms, gen.uniform(0, 1)))
        grid = Grid(atoms)
        kernel = MixtureKernel.poisson(n)
        fit = fit_npmle(counts, grid, kernel, tol=TOL)
        oracle = brute_force_loglik(counts, grid, kernel)
        worst = min(worst, fit.log_likelihood - oracle)
    elapsed = time.time() - start
    ok = worst >= -1e-4 and elapsed < 60.0
    report(
        4,
        "brute-force oracle equivalence",
        ok,
        f"min(loglik - oracle)={worst:.2e} elapsed={elapsed:.0f}s",
    )


def test_criterion_5_w1_rate():
    start = time.time()
    probs = np.array([1 / 24] * 4 + [1 / 12] * 3 + [1 / 6] * 2 + [1 / 4])
    dist = make_distribution("custom", 10, probs=probs)
    ns = [500, 2000, 5000, 20000]
    curve = w1_curve(dist, ns, trials=30, seed=5, sampling="poisson")
    values = [v for _, v in curve]
    slope = float(np.polyfit(np.log(ns), np.log(values), 1)[0])
    elapsed = time.time() - start
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    ok = decreasing and -0.7 <= slope <= -0.3 and elapsed < 180.0
    report(
        5,
        "W1 convergence rate",
        ok,
        f"means={[round(v, 5) for v in values]} slope={slope:.3f} elapsed={elapsed:.0f}s",
    )


def rmse(values, truth):
    arr = np.asarray(values)
    return float(np.sqrt(np.mean((arr - truth) ** 2)))


def test_criterion_6_entropy_estimator_ordering():
    start = time.time()
    spec = FunctionalSpec.entropy()
    summary = {}
    ok = True
    for kind in ("uniform", "zipf"):
        dist = make_distribution(kind, 1000)
        truth = true_value(dist, spec)
        emp, loc = [], []
        for t in range(50):
            counts = sample(dist, "multinomial", 1000, stream_rng(77, t))
            emp.append(estimate(counts, spec, "empirical").value)
            loc.append(estimate(counts, spec, "localized").value)
        summary[kind] = (rmse(loc, truth), rmse(emp, truth))
        ok = ok and summary[kind][0] < summary[kind][1]
    dist = make_distribution("uniform", 100)
    truth = true_value(dist, spec)
    big = [
        estimate(sample(dist, "multinomial", 100_000, stream_rng(78, t)), spec, "localized").value
        for t in range(50)
    ]
    big_rmse = rmse(big, truth)
    elapsed = time.time() - start
    ok = ok and big_rmse < 0.02 and elapsed < 300.0
    report(
        6,
        "entropy estimator ordering",
        ok,
        f"rmse(localized, empirical): uniform={tuple(round(v, 4) for v in summary['uniform'])} "
        f"zipf={tuple(round(v, 4) for v in summary['zipf'])} large-sample={big_rmse:.5f} "
        f"elapsed={elapsed:.0f}s",
    )


def test_criterion_7_penalized_support_recovery():
    start = time.time()
    dist = make_distribution("uniform", 500)
    khats, foc_ok = [], True
    for t in range(20):
        counts = sample(dist, "multinomial", 10_000, stream_rng(11, t))
        positive = CountData(counts.counts[counts.counts > 0], n=counts.n)
        result = fit_penalized(positive, tol=TOL)
        khats.append(result.k_hat)
        if result.k_hat > positive.k:
            kernel = MixtureKernel.poisson(positive.n)
            f0 = math.exp(mixture_log_density(kernel, result.mixing, 0))
            foc_ok = foc_ok and abs(f0 - (result.k_hat - positive.k) / result.k_hat) <= 1e-4
    median = float(np.median(khats))
    # scaled-KL profile monotonicity on one representative draw
    counts = sample(dist, "multinomial", 2000, stream_rng(11, 100))
    positive = CountData(counts.counts[counts.counts > 0], n=counts.n)
    profile = scaled_kl_profile(
        positive, [positive.k * f for f in (1.0, 1.1, 1.3, 1.8, 3.0, 6.0)], tol=TOL
    )
    kl = [v for _, v in profile]
    monotone = all(b <= a + 2 * TOL for a, b in zip(kl, kl[1:]))
    elapsed = time.time() - start
    ok = 400 <= median <= 600 and foc_ok and monotone and elapsed < 300.0
    report(
        7,
        "penalized support recovery",
        ok,
        f"median k_hat={median:.2f} first-order ok={foc_ok} profile monotone={monotone} "
        f"elapsed={elapsed:.0f}s",
    )


def test_criterion_8_unseen_discovery_curve():
    start = time.time()
    dist = make_distribution("zipf", 5000)
    counts = sample(dist, "multinomial", 2000, stream_rng(21, 0))
    fit = fit_npmle(counts, tol=TOL)
    horizons = [0.25, 0.5, 1.0, 2.0, 4.0]
    curve = dict(discovery_curve(fit.mixing, counts.k, counts.n, horizons))
    monotone = all(
        curve[a] <= curve[b] + 1e-9 for a, b in zip(horizons, horizons[1:])
    )
    bounded = all(v <= counts.k for v in curve.values())
    agree = True
    for t in (0.25, 0.5, 1.0):
        gt = good_turing_unseen(counts, t).value
        agree = agree and abs(curve[t] - gt) <= 0.15 * gt
    gt4 = good_turing_unseen(counts, 4.0)
    stable = abs(gt4.raw) > counts.k and curve[4.0] <= counts.k
    elapsed = time.time() - start
    ok = monotone and bounded and agree and stable and elapsed < 60.0
    report(
        8,
        "unseen discovery curve",
        ok,
        f"plugin={ {t: round(v, 1) for t, v in curve.items()} } |GT(4)|={abs(gt4.raw):.2e} "
        f"elapsed={elapsed:.0f}s",
    )


def test_criterion_9_identity_suite():
    start = time.time()
    details = []

    # (a) likelihood = -k (H(pi_N) + KL(pi_N || f)) for a fitted mixture
    dist = make_distribution("zipf", 300)
    counts = sample(dist, "poisson", 2000, stream_rng(31, 0))
    fit = fit_npmle(counts, tol=TOL)
    kernel = MixtureKernel.poisson(counts.n)
    values, mult = counts.unique_with_multiplicity()
    k = mult.sum()
    p_emp = mult / k
    logf = np.array([mixture_log_density(kernel, fit.mixing, int(v)) for v in values])
    entropy = -float(np.sum(p_emp * np.log(p_emp)))
    kl = float(np.sum(p_emp * (np.log(p_emp) - logf)))
    kl_gap = abs(fit.log_likelihood - (-k * (entropy + kl)))
    details.append(f"KL identity gap={kl_gap:.1e}")
    ok = kl_gap <= 1e-8

    # (b) expected log-likelihood equals k * cross-entropy of the mixtures
    n, probs = 20, np.array([0.5, 0.3, 0.2])
    kern = MixtureKernel.poisson(n)
    pi = MixingDistribution(np.array([0.1, 0.45]), np.array([0.4, 0.6]))
    js = np.arange(91)
    log_f = np.array([mixture_log_density(kern, pi, int(j)) for j in js])
    lhs = 0.0
    for p in probs:
        lam = n * p
        pmf = np.exp(js * math.log(lam) - lam - np.array([math.lgamma(j + 1) for j in js]))
        lhs += float(pmf @ log_f)
    truth_mix = MixingDistribution(probs, np.ones(3) / 3)
    f_truth = np.exp([mixture_log_density(kern, truth_mix, int(j)) for j in js])
    rhs = 3.0 * float(f_truth @ log_f)
    exp_gap = abs(lhs - rhs)
    details.append(f"expected-likelihood gap={exp_gap:.1e}")
    ok = ok and exp_gap <= 1e-8

    # (c) Renyi through the power sum
    pi = MixingDistribution(np.array([0.002, 0.03]), np.array([0.6, 0.4]))
    from countmix.functionals import plugin

    alpha, kk = 0.5, 40
    renyi = plugin(FunctionalSpec.renyi(alpha), pi, kk)
    power = plugin(FunctionalSpec.power_sum(alpha), pi, kk)
    renyi_gap = abs(math.exp((1 - alpha) * renyi.raw) - power.raw)
    details.append(f"renyi consistency gap={renyi_gap:.1e}")
    ok = ok and renyi_gap <= 1e-12

    # (d) Wasserstein metric axioms on random triples
    gen = stream_rng(31, 1)
    axioms = True
    for _ in range(20):
        mixes = []
        for _ in range(3):
            atoms = np.unique(gen.uniform(0, 1, size=int(gen.integers(1, 6))))
            mixes.append(MixingDistribution(atoms, gen.dirichlet(np.ones(atoms.size))))
        a, b, c = mixes
        axioms = axioms and abs(wasserstein(a, b) - wasserstein(b, a)) <= 1e-12
        axioms = axioms and wasserstein(a, a) <= 1e-12
        axioms = axioms and wasserstein(a, b) <= wasserstein(a, c) + wasserstein(c, b) + 1e-12
        axioms = axioms and wasserstein(a, b, 1.0) <= wasserstein(a, b, 2.0) + 1e-12
    details.append(f"metric axioms={axioms}")
    ok = ok and axioms

    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    report(9, "identity suite", ok, "; ".join(details) + f"; elapsed={elapsed:.0f}s")
