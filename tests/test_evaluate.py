import math

import numpy as np
import pytest

from countmix import CountData, DomainError, MixingDistribution, gof_test
from countmix.base import Grid
from countmix.evaluate import chi2_sf, wasserstein
from countmix.npmle import FitResult


def rng(stream):
    return np.random.Generator(np.random.Philox(key=np.array([808, stream], dtype=np.uint64)))


def random_mixing(gen, max_atoms=6):
    size = int(gen.integers(1, max_atoms + 1))
    atoms = np.unique(gen.uniform(0, 1, size=size))
    weights = gen.dirichlet(np.ones(atoms.size))
    return MixingDistribution(atoms, weights)


def transport_lp(p, q):
    """Exact W1 via the transport linear program (independent oracle)."""
    from scipy.optimize import linprog

    np_, nq = len(p), len(q)
    cost = np.abs(p.atoms[:, None] - q.atoms[None, :]).ravel()
    A_eq = []
    for i in range(np_):
        row = np.zeros((np_, nq))
        row[i, :] = 1.0
        A_eq.append(row.ravel())
    for j in range(nq):
        row = np.zeros((np_, nq))
        row[:, j] = 1.0
        A_eq.append(row.ravel())
    b_eq = np.concatenate([p.weights, q.weights])
    res = linprog(cost, A_eq=np.array(A_eq), b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return res.fun


# -------------------------------------------------------------- wasserstein


def test_w1_point_masses():
    assert wasserstein(
        MixingDistribution.point_mass(0.2), MixingDistribution.point_mass(0.5)
    ) == pytest.approx(0.3, abs=1e-15)


def test_w1_of_identical_measures_is_zero():
    pi = random_mixing(rng(1))
    assert wasserstein(pi, pi) == 0.0


@pytest.mark.parametrize("order", [0.5, math.inf, math.nan])
def test_wasserstein_refuses_order_that_is_not_finite_and_at_least_one(order):
    # an infinite order read 1.0 for a measure against itself, and nan gave nan
    pi = random_mixing(rng(1))
    with pytest.raises(DomainError, match="order"):
        wasserstein(pi, pi, order)


def test_w1_split_mass_against_lp_oracle():
    p = MixingDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    q = MixingDistribution.point_mass(0.5)
    assert wasserstein(p, q) == pytest.approx(0.5, abs=1e-15)
    assert wasserstein(p, q) == pytest.approx(transport_lp(p, q), abs=1e-9)


@pytest.mark.parametrize("stream", range(5))
def test_w1_matches_lp_on_random_pairs(stream):
    gen = rng(100 + stream)
    p, q = random_mixing(gen), random_mixing(gen)
    assert wasserstein(p, q) == pytest.approx(transport_lp(p, q), abs=1e-9)


def test_wq_metric_axioms_on_random_triples():
    gen = rng(2)
    for _ in range(25):
        a, b, c = (random_mixing(gen) for _ in range(3))
        for order in (1.0, 2.0):
            dab = wasserstein(a, b, order)
            dba = wasserstein(b, a, order)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert wasserstein(a, a, order) <= 1e-12
            assert dab <= wasserstein(a, c, order) + wasserstein(c, b, order) + 1e-12


def test_w1_below_w2():
    gen = rng(3)
    for _ in range(25):
        p, q = random_mixing(gen), random_mixing(gen)
        assert wasserstein(p, q, 1.0) <= wasserstein(p, q, 2.0) + 1e-12


def test_wasserstein_rejects_order_below_one():
    p = random_mixing(rng(4))
    with pytest.raises(DomainError):
        wasserstein(p, p, 0.5)


# ------------------------------------------------------------------ chi2_sf


def test_chi2_sf_reference_points():
    assert chi2_sf(0.0, 5) == 1.0
    assert chi2_sf(2 * math.log(2), 2) == pytest.approx(0.5, rel=1e-12)
    assert chi2_sf(18.307, 10) == pytest.approx(0.05, abs=2e-4)
    assert chi2_sf(math.inf, 3) == 0.0


def test_chi2_sf_against_mpmath_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for dof in (1, 2, 7, 30):
        for x in (0.5, 3.0, 20.0, 85.0):
            oracle = float(mp.gammainc(dof / 2, x / 2, mp.inf, regularized=True))
            assert chi2_sf(x, dof) == pytest.approx(oracle, rel=1e-10)


# ---------------------------------------------------------------- gof_test


def point_mass_at_zero_fit(counts, grid=None, kernel=None, tol=None):
    return FitResult(
        mixing=MixingDistribution.point_mass(0.0),
        log_likelihood=0.0,
        optimality_gap=0.0,
        iterations=0,
        converged=True,
        grid=Grid(np.array([0.0])),
    )


def test_gof_perfect_model_statistic_zero():
    # the fit is a point mass at rate zero, which reproduces an all-zeros
    # fingerprint exactly
    counts = CountData(np.zeros(25, dtype=int), n=1)
    report = gof_test(counts, "mixture", T=5)
    assert report.statistic == 0.0
    assert report.p_value == 1.0
    assert report.dof == 5


def test_gof_degenerate_expected_flags_report(monkeypatch):
    # a mixture fitted to these cells gives every count positive density, so
    # the fit is replaced by a point mass at zero, under which the observed
    # 3s have expected count exactly zero (as underflow gives at huge counts)
    monkeypatch.setattr("countmix.evaluate.fit_npmle", point_mass_at_zero_fit)
    counts = CountData([0] * 10 + [3] * 2, n=6)
    report = gof_test(counts, "mixture", T=4)
    assert report.degenerate
    assert report.statistic == math.inf
    assert report.p_value == 0.0


def test_gof_statistic_invariant_under_count_permutation():
    gen = rng(6)
    counts = gen.integers(0, 8, size=60)
    a = CountData(counts, n=counts.sum())
    b = CountData(counts[::-1].copy(), n=counts.sum())
    ra = gof_test(a, "p-model", T=7)
    rb = gof_test(b, "p-model", T=7)
    assert ra.statistic == pytest.approx(rb.statistic, abs=1e-12)


def test_gof_expected_fingerprint_sums_to_retained_cells():
    gen = rng(7)
    counts = gen.poisson(2.0, size=80)
    data = CountData(counts, n=max(int(counts.sum()), 1))
    T = 6
    k_T = int(np.sum(counts <= T))
    for model in ("mixture", "p-model"):
        report = gof_test(data, model, T=T)
        assert float(np.sum(report.expected)) == pytest.approx(k_T, rel=1e-9)


def test_gof_implicit_zeros_match_explicit_zeros():
    gen = rng(8)
    counts = gen.poisson(1.5, size=50)
    positive = counts[counts > 0]
    explicit = CountData(counts, n=max(int(counts.sum()), 1))
    implicit = CountData(positive, n=explicit.n, k=explicit.k)
    for model in ("mixture", "p-model"):
        a = gof_test(explicit, model, T=4)
        b = gof_test(implicit, model, T=4)
        assert a.statistic == b.statistic
        assert np.array_equal(a.expected, b.expected)


def test_butterfly_fit_reproduces_zero_cell_count():
    # the fitted mixture's expected number of unobserved cells at T=10 should
    # land near the observed 304 (the model fits the zero bin well)
    import importlib.resources as res

    from countmix.io import read_counts

    data = read_counts(str(res.files("countmix").joinpath("data/butterfly.fp")))
    report = gof_test(data, "mixture", T=10)
    density_at_zero = report.expected[0]
    assert math.isfinite(density_at_zero)
    assert abs(density_at_zero - 304) / 304 < 0.15
