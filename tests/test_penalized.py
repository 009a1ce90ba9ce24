import math

import numpy as np
import pytest

from countmix import (
    CountData,
    DomainError,
    MixtureKernel,
    fit_penalized,
    make_distribution,
    sample,
    scaled_kl_profile,
)
from countmix.kernels import mixture_log_density
from countmix.npmle import DEFAULT_REG, _padded_fits


def rng(stream):
    return np.random.Generator(np.random.Philox(key=np.array([313, stream], dtype=np.uint64)))


def test_rejects_zero_counts():
    with pytest.raises(DomainError):
        fit_penalized(CountData([0, 3, 4], n=10))


def test_profile_rejects_implicit_zeros():
    # k = 5 over three listed counts: the two implicit zeros would enter the
    # empirical term as a cell of their own, and k' KL came out at -2.28 at k' = 7
    with pytest.raises(DomainError, match="implicit zero"):
        scaled_kl_profile(CountData([1, 2, 3], n=9, k=5), [5.0, 7.0])


def test_all_large_counts_select_k():
    # Counts far from zero leave no mixture mass at zero, so padding never pays.
    counts = CountData([400, 500, 600], n=1000)
    result = fit_penalized(counts)
    assert result.k_hat == pytest.approx(3.0, rel=1e-9)


SEARCH_DRAWS = pytest.mark.parametrize(
    "family, k_star, n, philox_key",
    [
        ("uniform", 200, 1200, (313, 1)),
        # Heavy-tailed draws (n = k*) whose profile is nearly flat over a long
        # stretch of k': the search must still end after a fixed number of fits.
        ("zipf", 10_000, 10_000, (1, 0)),
        ("zipf", 3_000, 3_000, (2, 0)),
        ("log_series", 5_000, 5_000, (3, 0)),
        ("log_series", 10_000, 10_000, (0, 0)),
    ],
    ids=["uniform-200", "zipf-1e4-key1", "zipf-3e3-key2", "log_series-5e3-key3",
         "log_series-1e4-key0"],
)


def positive_draw(family, k_star, n, philox_key):
    gen = np.random.Generator(np.random.Philox(key=np.array(philox_key, dtype=np.uint64)))
    counts = sample(make_distribution(family, k_star), "multinomial", n, gen)
    return CountData(counts.counts[counts.counts > 0], n=counts.n)


@SEARCH_DRAWS
def test_first_order_condition_at_selected_support(family, k_star, n, philox_key):
    positive = positive_draw(family, k_star, n, philox_key)
    result = fit_penalized(positive)
    assert len(result.profile) <= 20
    assert result.k_hat >= positive.k
    if result.k_hat > positive.k:
        f0 = math.exp(
            mixture_log_density(MixtureKernel.poisson(positive.n), result.mixing, 0)
        )
        assert abs(f0 - (result.k_hat - positive.k) / result.k_hat) <= 1e-4


def padded_objective(k, log_likelihood, k_prime, c0, c1):
    """Padded log-likelihood + k' H(k/k') + c0 / k'^c1, H the binary entropy."""
    p = k / k_prime
    entropy = 0.0 if p >= 1.0 else -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))
    return log_likelihood + k_prime * entropy + c0 / k_prime**c1


@SEARCH_DRAWS
def test_shared_rows_match_cold_fits(family, k_star, n, philox_key):
    # the search and the profile build the padded pmf matrix once; a fit that
    # builds its own at each k' must give the same figures
    positive = positive_draw(family, k_star, n, philox_key)
    kernel = MixtureKernel.poisson(positive.n)
    result = fit_penalized(positive)
    for kp, objective in result.profile:
        _, cold = _padded_fits(positive, kernel, 1e-6)(kp)
        assert objective == pytest.approx(
            padded_objective(positive.k, cold.log_likelihood, kp, *DEFAULT_REG),
            rel=1e-12,
            abs=0.0,
        )
    _, mult = positive.unique_with_multiplicity()
    k_primes = [kp for kp, _ in result.profile[:5]]
    for kp, kl in scaled_kl_profile(positive, k_primes):
        _, cold = _padded_fits(positive, kernel, 1e-6)(kp)
        cells = np.append(mult, kp - positive.k)
        cells = cells[cells > 0]
        expected = float(cells @ np.log(cells / kp)) - cold.log_likelihood
        assert kl == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_profile_records_evaluations():
    counts = CountData([400, 500, 600], n=1000)
    result = fit_penalized(counts)
    assert result.profile[0][0] == 3.0
    assert all(kp >= 3.0 for kp, _ in result.profile)
    assert result.penalized_objective == pytest.approx(
        max(obj for _, obj in result.profile), abs=1e-8
    )


def penalized_objective_direct(counts, mixing, k_prime, c0=10.0, c1=1.0):
    """Independent evaluation of the padded objective with its regularizer."""
    kernel = MixtureKernel.poisson(counts.n)
    k = counts.k
    ll = sum(
        mixture_log_density(kernel, mixing, int(c)) for c in counts.counts
    ) + (k_prime - k) * mixture_log_density(kernel, mixing, 0)
    p = k / k_prime
    entropy = 0.0 if p >= 1.0 else -(p * math.log(p) + (1 - p) * math.log(1 - p))
    return ll + k_prime * entropy + c0 / k_prime**c1


def test_reported_objective_matches_direct_evaluation():
    dist = make_distribution("uniform", 60)
    counts = sample(dist, "multinomial", 300, rng(2))
    positive = CountData(counts.counts[counts.counts > 0], n=counts.n)
    result = fit_penalized(positive)
    direct = penalized_objective_direct(positive, result.mixing, result.k_hat)
    assert result.penalized_objective == pytest.approx(direct, abs=1e-6)


def test_scaled_kl_nonnegative_and_matches_identity():
    dist = make_distribution("uniform", 40)
    counts = sample(dist, "multinomial", 400, rng(3))
    positive = CountData(counts.counts[counts.counts > 0], n=counts.n)
    k = positive.k
    kps = [float(k), k * 1.5, k * 3.0]
    profile = scaled_kl_profile(positive, kps)
    kernel = MixtureKernel.poisson(positive.n)
    values, mult = positive.unique_with_multiplicity()
    log_emp = float(np.sum(mult * np.log(mult / k)))
    for _, kl in profile:
        assert kl >= -1e-9
    # identity check: k' KL = sum_i log pi_N(N_i) - (padded ll + k' H(k/k'))
    kp = kps[1]
    _, fit = _padded_fits(positive, kernel, 1e-6)(kp)
    p = k / kp
    entropy_term = -(p * math.log(p) + (1 - p) * math.log(1 - p)) * kp
    lhs = dict(profile)[kp]
    rhs = log_emp - (fit.log_likelihood + entropy_term)
    assert lhs == pytest.approx(rhs, abs=1e-4)


def test_scaled_kl_profile_non_increasing():
    dist = make_distribution("uniform", 120)
    counts = sample(dist, "multinomial", 500, rng(4))
    positive = CountData(counts.counts[counts.counts > 0], n=counts.n)
    kps = [positive.k * f for f in (1.0, 1.2, 1.6, 2.5, 4.0, 8.0)]
    profile = scaled_kl_profile(positive, kps)
    values = [v for _, v in profile]
    for a, b in zip(values, values[1:]):
        assert b <= a + 2e-6


def test_distinct_counts_kl_is_nonnegative_at_k():
    counts = CountData([1, 2, 3], n=9)
    profile = scaled_kl_profile(counts, [3.0])
    assert profile[0][1] >= -1e-12


def test_search_ceiling_raises(monkeypatch):
    from countmix import FitError

    # singleton counts put f(0) ~ e^-1, wanting k_hat ~ 1.58 k; a bracket
    # capped just above k cannot contain it
    monkeypatch.setattr("countmix.npmle.K_MAX_FACTOR", 1.0 + 1e-9)
    counts = CountData([1, 1, 1, 1], n=400)
    with pytest.raises(FitError, match="bracket ceiling"):
        fit_penalized(counts)
