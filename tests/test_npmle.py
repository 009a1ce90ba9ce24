import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countmix import (
    CountData,
    DomainError,
    FitError,
    FunctionalSpec,
    MixingDistribution,
    MixtureKernel,
    estimate,
    fit_npmle,
    gof_test,
    make_distribution,
    sample,
)
from countmix.base import Grid
from countmix.kernels import log_pmf, mixture_log_density
from countmix.npmle import (
    FitResult,
    _prepare_rows,
    build_grid,
    certificate,
    fit_localized,
    fit_penalized,
    scaled_kl_profile,
)


def rng(stream):
    return np.random.Generator(np.random.Philox(key=np.array([901, stream], dtype=np.uint64)))


# ---------------------------------------------------------------- build_grid


def test_grid_all_zero_counts_degenerates():
    counts = CountData([0, 0, 0], n=50)
    grid = build_grid(counts)
    assert grid.atoms[0] == 0.0
    assert grid.atoms[-1] == pytest.approx(1.0 / 50)
    assert len(grid) == 10


def test_grid_small_max_count_is_uniform():
    # n=100, max count 2: pbar = 0.02 below tau = 1.6 log(100)/100 ~ 0.0737;
    # k = 3 takes the 500-atom floor
    counts = CountData([0, 1, 2], n=100)
    grid = build_grid(counts)
    assert len(grid) == 500
    assert np.allclose(grid.atoms, np.linspace(0.0, 0.02, 500))


def test_grid_splits_around_tau():
    counts = CountData([500, 1], n=1000)
    grid = build_grid(counts)
    tau = 1.6 * math.log(1000) / 1000
    lo = grid.atoms[grid.atoms <= tau]
    hi = grid.atoms[grid.atoms > tau]
    assert np.allclose(lo, np.linspace(0.0, tau, 250))
    assert np.allclose(hi, tau + (0.5 - tau) * np.arange(1, 251) / 250)
    assert grid.atoms[0] == 0.0
    assert grid.atoms[-1] == pytest.approx(0.5)


def test_grid_respects_min_mass():
    counts = CountData([3, 8], n=10)
    grid = build_grid(counts, min_mass=0.1)
    inside = (grid.atoms > 0) & (grid.atoms < 0.1)
    assert not inside.any()
    assert grid.atoms[0] == 0.0
    # the atoms at and above min_mass are those of the unconstrained grid
    full = build_grid(counts).atoms
    assert np.array_equal(grid.atoms[1:], full[full >= 0.1])


def test_default_grid_size_rule():
    # ceil(10 sqrt(k)) atoms clipped to [500, 2000]; implicit zeros count in k
    for k, m in ((1, 500), (10_000, 1000), (1_000_000, 2000)):
        assert len(build_grid(CountData([500], n=1000, k=k))) == m


def test_a_stale_positional_grid_size_is_a_type_error():
    # settings after the data are keyword-only, so a leftover m cannot land in tol
    counts = CountData([1, 2, 5], n=10)
    for call in (
        lambda: build_grid(counts, 500),
        lambda: fit_localized(counts, None, 500),
        lambda: estimate(counts, FunctionalSpec.entropy(), "plugin", None, 500),
        lambda: gof_test(counts, "mixture", 3, 500),
    ):
        with pytest.raises(TypeError):
            call()


# ------------------------------------------------------------- _prepare_rows


def assert_rows_match_log_pmf(values, grid, kernel):
    """The per-atom-log builder against the reference pmf, cell by cell."""
    logq = np.atleast_2d(log_pmf(kernel, values[:, None].astype(float), grid.atoms[None, :]))
    rowmax = logq.max(axis=1)
    if not np.all(np.isfinite(rowmax)):
        with pytest.raises(FitError, match="zero probability under every grid atom"):
            _prepare_rows(values, grid, kernel)
        return
    B, got_rowmax = _prepare_rows(values, grid, kernel)
    np.testing.assert_allclose(B, np.exp(logq - rowmax[:, None]), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got_rowmax, rowmax, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("family", ["poisson", "binomial"])
def test_prepared_rows_match_log_pmf_at_the_boundaries(family):
    # counts 0 and n against atoms 0 and 1: the cells that take 0 log 0 = 0,
    # and the columns where only one count has mass (on the binomial grids
    # {0, 1} and {1}, some rows have no support and must raise)
    kernel = getattr(MixtureKernel, family)(40)
    for values in ([0, 1, 7, 20, 39, 40], [0, 40], [40]):
        for atoms in ([0.0, 1e-3, 0.25, 0.5, 0.75, 1.0 - 1e-9, 1.0], [0.0, 1.0], [0.6, 1.0],
                      [1.0]):
            assert_rows_match_log_pmf(np.array(values), Grid(np.array(atoms)), kernel)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["poisson", "binomial"]),
    n=st.integers(min_value=1, max_value=200),
    counts=st.lists(st.integers(min_value=0, max_value=600), min_size=1, max_size=20),
    atoms=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
    ends=st.sampled_from([(), (0.0,), (1.0,), (0.0, 1.0)]),
)
def test_prepared_rows_match_log_pmf_on_random_rows(family, n, counts, atoms, ends):
    values = np.unique(counts if family == "poisson" else np.minimum(counts, n))
    grid = Grid(np.unique(np.concatenate([atoms, ends])))
    assert_rows_match_log_pmf(values, grid, MixtureKernel(family, n))


# ----------------------------------------------------------------- fit_npmle


def test_single_count_concentrates_near_phat():
    counts = CountData([5], n=10)
    fit = fit_npmle(counts)
    spacing = fit.grid.max_spacing()
    top = fit.mixing.atoms[np.argmax(fit.mixing.weights)]
    assert abs(top - 0.5) <= spacing
    assert fit.mixing.weights.max() >= 1.0 - 1e-6
    assert fit.converged


def test_all_zero_counts_fit_is_point_mass_at_zero():
    counts = CountData([0] * 6, n=4)
    fit = fit_npmle(counts)
    assert fit.mixing.atoms.tolist() == [0.0]
    assert fit.mixing.weights.tolist() == [1.0]
    assert fit.optimality_gap <= 1e-12


def brute_force_best(counts, grid, kernel, resolution=1e-3):
    """Exhaustive search over three-atom sub-simplices of the grid."""
    values, mult = counts.unique_with_multiplicity()
    A = np.exp(log_pmf(kernel, values[:, None].astype(float), grid.atoms[None, :]))
    m = A.shape[1]
    steps = int(round(1.0 / resolution))
    best = -math.inf
    from itertools import combinations

    for support in combinations(range(m), 3):
        cols = A[:, support]
        w1 = np.arange(steps + 1) / steps
        for a in range(steps + 1):
            rest = steps - a
            b = np.arange(rest + 1)
            W = np.stack(
                [np.full(rest + 1, a), b, rest - b], axis=1
            ) / steps
            f = W @ cols.T
            with np.errstate(divide="ignore"):
                ll = (np.log(f) * mult).sum(axis=1)
            top = ll.max()
            if top > best:
                best = top
    return best


def test_two_counts_match_bruteforce_simplex_search():
    counts = CountData([1, 2], n=4)
    grid = Grid(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    kernel = MixtureKernel.poisson(4)
    fit = fit_npmle(counts, grid, kernel)
    oracle = brute_force_best(counts, grid, kernel)
    assert fit.log_likelihood >= oracle - 1e-4
    # mixture density values agree with the brute-force optimum to grid error
    assert fit.optimality_gap <= 1e-6


def test_fit_errors_on_impossible_counts():
    counts = CountData([3], n=10)
    grid = Grid(np.array([0.0]))
    with pytest.raises(FitError):
        fit_npmle(counts, grid)


def test_binomial_count_above_trials_rejected():
    counts = CountData([12], n=10)
    with pytest.raises(DomainError, match="binomial count exceeds the number of trials"):
        fit_npmle(counts, kernel=MixtureKernel.binomial(10))


def test_nnls_iteration_limit_becomes_fit_error(monkeypatch):
    def give_up(A, b):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr("countmix.npmle.nnls", give_up)
    with pytest.raises(FitError, match="Maximum number of iterations"):
        fit_npmle(CountData([1, 2, 2, 5], n=10))


# --------------------------------------------------------------- certificate


def test_certificate_matches_reported_gap():
    counts = CountData([1, 2], n=4)
    grid = Grid(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    kernel = MixtureKernel.poisson(4)
    fit = fit_npmle(counts, grid, kernel)
    assert certificate(fit, counts, grid, kernel) == pytest.approx(
        fit.optimality_gap, abs=1e-10
    )


def test_certificate_detects_perturbed_weights():
    counts = CountData([1, 2, 2, 4], n=8)
    grid = Grid(np.linspace(0.0, 0.6, 30))
    kernel = MixtureKernel.poisson(8)
    fit = fit_npmle(counts, grid, kernel)
    w = fit.mixing.weights.copy()
    assert len(w) >= 2
    w[0], w[-1] = w[0] + 0.1 * w[-1], 0.9 * w[-1]
    perturbed = FitResult(
        mixing=MixingDistribution(fit.mixing.atoms, w),
        log_likelihood=fit.log_likelihood,
        optimality_gap=0.0,
        iterations=fit.iterations,
        converged=True,
        grid=grid,
    )
    assert certificate(perturbed, counts, grid, kernel) > 1e-6


def test_certificate_rejects_a_count_the_mixture_cannot_produce():
    grid = Grid(np.array([0.0, 0.5, 1.0]))
    fit = fit_npmle(CountData([0, 0], n=5), grid)  # all mass at rate 0
    with pytest.raises(FitError, match="vanishes"):
        certificate(fit, CountData([0, 3], n=5), grid, MixtureKernel.poisson(5))


def test_exact_single_atom_fit_has_zero_gap():
    counts = CountData([0, 0], n=5)
    grid = Grid(np.array([0.0, 0.5, 1.0]))
    fit = fit_npmle(counts, grid)
    assert fit.optimality_gap <= 1e-10
    assert certificate(fit, counts, grid, MixtureKernel.poisson(5)) <= 1e-10


# ------------------------------------------------------ invariants on random


@pytest.mark.parametrize(
    "stream, kind, k, n, family",
    [
        pytest.param(0, "uniform", 400, 3000, "poisson", id="uniform"),
        pytest.param(1, "zipf", 400, 3000, "poisson", id="zipf"),
        pytest.param(2, "geometric", 400, 3000, "poisson", id="geometric"),
        pytest.param(3, "zipf", 50_000, 50_000, "poisson", id="zipf-5e4-poisson"),
        pytest.param(4, "zipf", 50_000, 50_000, "binomial", id="zipf-5e4-binomial"),
        pytest.param(5, "log_series", 100_000, 100_000, "poisson", id="log_series-1e5-poisson"),
        pytest.param(6, "log_series", 100_000, 100_000, "binomial", id="log_series-1e5-binomial"),
    ],
)
def test_support_and_sparsity_invariants(stream, kind, k, n, family):
    dist = make_distribution(kind, k)
    counts = sample(dist, "multinomial", n, rng(stream))
    kernel = getattr(MixtureKernel, family)(counts.n)
    fit = fit_npmle(counts, kernel=kernel)
    values, mult = counts.unique_with_multiplicity()
    spacing = fit.grid.max_spacing()
    lo = min(1.0, values.min() / counts.n) - spacing
    hi = min(1.0, values.max() / counts.n) + spacing
    assert fit.mixing.atoms.min() >= lo
    assert fit.mixing.atoms.max() <= hi
    assert len(fit.mixing.atoms) <= len(values)
    assert fit.mixing.weights.min() > 0
    assert fit.converged
    assert certificate(fit, counts, fit.grid, kernel) <= 1e-6
    # every fitted atom is a grid atom
    assert np.isin(fit.mixing.atoms, fit.grid.atoms).all()
    # the solver's log-likelihood is the mixture density's, recomputed
    logf = mixture_log_density(kernel, fit.mixing, values.astype(float))
    assert fit.log_likelihood == pytest.approx(float(mult @ logf), rel=1e-12, abs=0.0)


def test_geometric_fingerprint_at_k_1e6_certifies():
    # Fingerprint of a geometric draw with k = n = 1e6: eleven distinct counts.
    phi = {0: 382807, 1: 352906, 2: 176954, 3: 63223, 4: 18457, 5: 4512,
           6: 906, 7: 193, 8: 38, 9: 2, 10: 2}
    counts = CountData(np.repeat(list(phi), list(phi.values())), n=1_000_000)
    kernel = MixtureKernel.poisson(counts.n)
    fit = fit_npmle(counts, kernel=kernel)
    assert fit.converged
    assert certificate(fit, counts, fit.grid, kernel) <= 1e-6
    assert len(fit.mixing.atoms) <= len(phi)


def test_kl_identity_between_likelihood_and_count_histogram():
    # total log-likelihood equals -k (H(pi_N) + KL(pi_N || f)) for any mixing
    dist = make_distribution("zipf", 300)
    counts = sample(dist, "poisson", 2000, rng(77))
    fit = fit_npmle(counts)
    kernel = MixtureKernel.poisson(counts.n)
    lhs = fit.log_likelihood

    values, mult = counts.unique_with_multiplicity()
    k = mult.sum()
    p_emp = mult / k
    entropy = -np.sum(p_emp * np.log(p_emp))
    logf = np.array(
        [mixture_log_density(kernel, fit.mixing, int(v)) for v in values]
    )
    kl = float(np.sum(p_emp * (np.log(p_emp) - logf)))
    assert lhs == pytest.approx(-k * (entropy + kl), abs=1e-8)


def test_expected_likelihood_equals_cross_entropy_of_mixtures():
    # E L(pi; N) under independent Poisson counts equals
    # k * sum_j f_truth(j) log f_pi(j); both sides by exhaustive expectation.
    n, probs = 20, np.array([0.5, 0.3, 0.2])
    kernel = MixtureKernel.poisson(n)
    pi = MixingDistribution(np.array([0.1, 0.45]), np.array([0.4, 0.6]))
    top = 90  # Poisson(10) tail beyond 90 is < 1e-12
    js = np.arange(top + 1)
    log_f = np.array([mixture_log_density(kernel, pi, int(j)) for j in js])
    lhs = 0.0
    for p in probs:
        pmf = np.exp(js * np.log(n * p) - n * p - [math.lgamma(j + 1) for j in js])
        lhs += float(pmf @ log_f)
    truth = MixingDistribution(probs, np.ones(3) / 3)
    f_truth = np.exp([mixture_log_density(kernel, truth, int(j)) for j in js])
    rhs = 3.0 * float(f_truth @ log_f)
    assert lhs == pytest.approx(rhs, abs=1e-8)


# ---------------------------------------------------------------- localized


def test_localized_all_large_counts_gives_empty_fit():
    counts = CountData([500, 600], n=1000)
    loc = fit_localized(counts)
    assert loc.fit is None
    assert loc.n_small == 0
    assert sorted(loc.large_counts.tolist()) == [500, 600]


def test_localized_all_zeros_is_point_mass_at_zero():
    counts = CountData([0] * 5, n=100)
    loc = fit_localized(counts)
    assert loc.n_small == 5
    assert loc.fit.mixing.atoms.tolist() == [0.0]


def test_localized_partition_matches_threshold():
    dist = make_distribution("zipf", 1000)
    counts = sample(dist, "multinomial", 1000, rng(8))
    loc = fit_localized(counts)
    threshold = 3.6 * math.log(1000) / 1000
    expected = counts.counts / counts.n <= threshold
    assert loc.n_small == int(expected.sum())
    assert loc.fit.grid.atoms.max() <= threshold + 1e-15
    assert sorted(loc.large_counts.tolist()) == sorted(
        counts.counts[~expected].tolist()
    )


def test_localized_rejects_nonpositive_kappa():
    counts = CountData([0, 100, 3], n=200)
    for kappa in (0.0, -1.0):
        with pytest.raises(DomainError, match="kappa"):
            fit_localized(counts, kappa=kappa)


FITS = {
    "fit_npmle": fit_npmle,
    "fit_localized": fit_localized,
    "fit_penalized": fit_penalized,
    "scaled_kl_profile": lambda counts, k_prime_list=None, **kw: scaled_kl_profile(
        counts, k_prime_list or [2 * counts.k], **kw
    ),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(FITS))
def test_every_fit_rejects_a_tol_that_is_not_positive_and_finite(name, tol):
    # [500, 600] at n = 10 leaves no small cell, so the localized fit fits nothing
    for counts in ([1, 2, 5], [500, 600]):
        with pytest.raises(DomainError, match="tol"):
            FITS[name](CountData(counts, n=10), tol=tol)


@pytest.mark.parametrize(
    "name,settings,setting",
    [
        ("fit_localized", {"kappa": math.nan}, "kappa"),
        ("fit_localized", {"kappa": math.inf}, "kappa"),
        ("fit_penalized", {"reg": (math.nan, 1.0)}, "c0"),
        ("fit_penalized", {"reg": (10.0, math.nan)}, "c1"),
        ("fit_penalized", {"reg": (math.inf, 1.0)}, "c0"),
        ("scaled_kl_profile", {"k_prime_list": [math.nan]}, "k'"),
        ("scaled_kl_profile", {"k_prime_list": [math.inf]}, "k'"),
        ("scaled_kl_profile", {"k_prime_list": [6.0, -math.inf]}, "k'"),
    ],
)
def test_nan_and_infinite_settings_are_rejected_by_name(name, settings, setting):
    with pytest.raises(DomainError, match=setting):
        FITS[name](CountData([1, 2, 5], n=10), **settings)
