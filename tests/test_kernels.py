import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countmix import CountData, DomainError, MixingDistribution, MixtureKernel
from countmix.base import Grid
from countmix.kernels import log_pmf, mixture_log_density


def test_poisson_log_pmf_closed_forms():
    kern = MixtureKernel.poisson(10)
    assert log_pmf(kern, 0, 0.0) == 0.0
    # poi(2, 1) = 1 * e^-1 / 2
    assert log_pmf(kern, 2, 0.1) == pytest.approx(-1.0 - math.log(2.0), abs=1e-12)
    assert log_pmf(kern, 3, 0.0) == -math.inf


def test_binomial_log_pmf_closed_forms():
    kern = MixtureKernel.binomial(4)
    assert log_pmf(kern, 2, 0.5) == pytest.approx(math.log(6.0 / 16.0), abs=1e-12)
    assert log_pmf(kern, 0, 0.0) == 0.0
    assert log_pmf(kern, 4, 1.0) == 0.0
    assert log_pmf(kern, 2, 1.0) == -math.inf
    with pytest.raises(DomainError):
        log_pmf(kern, 5, 0.5)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200),
    r=st.floats(min_value=0.0, max_value=1.0),
    family=st.sampled_from(["poisson", "binomial"]),
)
def test_pmf_sums_to_one(n, r, family):
    kern = MixtureKernel(family, n)
    # past mean + 20 sd + 50 at the largest Poisson rate the tail is below 1e-12;
    # a binomial ends at n
    top = n if family == "binomial" else math.ceil(n + 20.0 * math.sqrt(n) + 50.0)
    xs = np.arange(top + 1)
    total = np.exp(log_pmf(kern, xs, r)).sum()
    assert total == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=500),
    x=st.integers(min_value=0, max_value=400),
    r=st.floats(min_value=0.0, max_value=1.0),
)
def test_log_pmf_never_nan(n, x, r):
    kern = MixtureKernel.poisson(n)
    value = log_pmf(kern, x, r)
    assert not math.isnan(value)
    assert value <= 0.0 or value == pytest.approx(0.0, abs=1e-12)


def test_mixture_density_single_atom_reduces_to_pmf():
    kern = MixtureKernel.poisson(10)
    pi = MixingDistribution.point_mass(0.5)
    assert mixture_log_density(kern, pi, 5) == pytest.approx(
        log_pmf(kern, 5, 0.5), abs=1e-12
    )


def test_mixture_density_two_atoms():
    kern = MixtureKernel.poisson(10)
    pi = MixingDistribution(np.array([0.0, 0.2]), np.array([0.5, 0.5]))
    expected = math.log(0.5 * (1.0 + math.exp(-2.0)))
    assert mixture_log_density(kern, pi, 0) == pytest.approx(expected, abs=1e-12)


def test_mixture_density_all_terms_vanish_is_minus_inf():
    kern = MixtureKernel.poisson(10)
    pi = MixingDistribution.point_mass(0.0)
    assert mixture_log_density(kern, pi, 3) == -math.inf


@settings(max_examples=30, deadline=None)
@given(
    lam=st.floats(min_value=0.01, max_value=0.99),
    x=st.integers(min_value=0, max_value=30),
    data=st.data(),
)
def test_mixture_density_linear_in_weights(lam, x, data):
    # exp(mixture_log_density) is exactly linear in the mixing weights.
    kern = MixtureKernel.poisson(20)
    atoms = np.array([0.05, 0.3, 0.8])
    w1 = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3)))
    w2 = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3)))
    w1, w2 = w1 / w1.sum(), w2 / w2.sum()
    pi1 = MixingDistribution(atoms, w1)
    pi2 = MixingDistribution(atoms, w2)
    mix = MixingDistribution(atoms, lam * w1 + (1.0 - lam) * w2)
    f_mix = math.exp(mixture_log_density(kern, mix, x))
    f_sep = lam * math.exp(mixture_log_density(kern, pi1, x)) + (1.0 - lam) * math.exp(
        mixture_log_density(kern, pi2, x)
    )
    assert f_mix == pytest.approx(f_sep, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda: MixingDistribution([0.1], [math.nan]), "weights"),
        (lambda: MixingDistribution([0.1, 0.2], [1.0, math.inf]), "weights"),
        (lambda: MixingDistribution([math.nan], [1.0]), "atoms"),
        (lambda: Grid([math.nan]), "atoms"),
    ],
    ids=["weight-nan", "weight-inf", "atom-nan", "grid-atom-nan"],
)
def test_non_finite_atoms_or_weights_are_refused_by_name(build, name):
    with pytest.raises(DomainError, match=name):
        build()


def test_unique_counts_collapse_and_zero_rate_log_pmf():
    counts = CountData([0, 0, 3], n=2)
    grid = Grid(np.array([0.0, 0.5]))
    kern = MixtureKernel.poisson(2)
    values, mult = counts.unique_with_multiplicity()
    assert values.tolist() == [0, 3]
    assert mult.tolist() == [2.0, 1.0]
    matrix = log_pmf(kern, values[:, None].astype(float), grid.atoms[None, :])
    assert matrix.shape == (2, 2)
    assert matrix[0, 0] == 0.0  # count 0 at rate 0 has log-probability 0


def test_broadcast_log_pmf_matches_elementwise_evaluation():
    counts = CountData([1, 4, 7], n=9)
    grid = Grid(np.array([0.1, 0.4, 0.9]))
    kern = MixtureKernel.poisson(9)
    values, _ = counts.unique_with_multiplicity()
    matrix = log_pmf(kern, values[:, None].astype(float), grid.atoms[None, :])
    for i, v in enumerate(values):
        for j, r in enumerate(grid.atoms):
            assert matrix[i, j] == pytest.approx(log_pmf(kern, int(v), float(r)), abs=1e-13)


def test_implicit_zero_padding_enters_multiplicities():
    counts = CountData([2, 2, 5], n=10, k=7)
    values, mult = counts.unique_with_multiplicity()
    assert values.tolist() == [0, 2, 5]
    assert mult.tolist() == [4.0, 2.0, 1.0]
