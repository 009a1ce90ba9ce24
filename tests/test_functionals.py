import math
from itertools import product

import numpy as np
import pytest

from countmix import (
    CountData,
    DomainError,
    FunctionalSpec,
    MixingDistribution,
    estimate,
    make_distribution,
    sample,
)
from countmix.functionals import (
    bias_corrected_g,
    discovery_curve,
    empirical_plugin,
    estimate_combined,
    g_eval,
    good_turing_unseen,
    miller_madow,
    plugin,
)
from countmix.npmle import fit_localized
from countmix.sim import true_value


def rng(stream):
    return np.random.Generator(np.random.Philox(key=np.array([551, stream], dtype=np.uint64)))


# ------------------------------------------------------------------- g_eval


def test_g_values_at_reference_points():
    assert g_eval(FunctionalSpec.entropy(), 1 / math.e) == pytest.approx(1 / math.e)
    assert g_eval(FunctionalSpec.entropy(), 0.0) == 0.0
    assert g_eval(FunctionalSpec.power_sum(0.5), 0.25) == pytest.approx(0.5)
    assert g_eval(FunctionalSpec.unseen(2.0), 0.0, n=10) == 0.0
    assert g_eval(FunctionalSpec.support_size(), 0.0) == 0.0
    assert g_eval(FunctionalSpec.support_size(), 0.3) == 1.0


def test_spec_validation():
    with pytest.raises(DomainError):
        FunctionalSpec.power_sum(1.5)
    with pytest.raises(DomainError):
        FunctionalSpec.renyi(1.0)
    with pytest.raises(DomainError):
        FunctionalSpec.unseen(0.0)
    with pytest.raises(DomainError):
        FunctionalSpec("support_size", min_mass=2.0)


@pytest.mark.parametrize(
    "kind,params,name",
    [
        ("entropy", {"alpha": 0.5}, "alpha"),
        ("power_sum", {"alpha": 0.5, "horizon": 3.0}, "horizon"),
        ("renyi", {"alpha": 2.0, "min_mass": 0.1}, "min_mass"),
        ("support_size", {"horizon": 2.0}, "horizon"),
        ("unseen", {"horizon": 2.0, "alpha": 0.5}, "alpha"),
    ],
)
def test_spec_refuses_a_parameter_its_kind_does_not_read(kind, params, name):
    with pytest.raises(DomainError, match=repr(name)):
        FunctionalSpec(kind, **params)


@pytest.mark.parametrize(
    "make,setting",
    [
        (lambda: FunctionalSpec.renyi(math.nan), "alpha"),
        (lambda: FunctionalSpec.renyi(math.inf), "alpha"),
        (lambda: FunctionalSpec.unseen(math.nan), "horizon"),
        (lambda: FunctionalSpec.unseen(math.inf), "horizon"),
        (lambda: good_turing_unseen(CountData([1, 2], n=3), math.nan), "horizon"),
    ],
    ids=["renyi-nan", "renyi-inf", "unseen-nan", "unseen-inf", "good-turing-nan"],
)
def test_nan_and_infinite_settings_are_rejected_by_name(make, setting):
    with pytest.raises(DomainError, match=setting):
        make()


# ------------------------------------------------------------------- plugin


def test_plugin_uniform_identity():
    k = 64
    pi = MixingDistribution.point_mass(1.0 / k)
    report = plugin(FunctionalSpec.entropy(), pi, k)
    assert report.value == pytest.approx(math.log(k), rel=1e-12)


def test_plugin_at_zero_mass_is_zero():
    pi = MixingDistribution.point_mass(0.0)
    for spec in (
        FunctionalSpec.entropy(),
        FunctionalSpec.support_size(),
        FunctionalSpec.unseen(1.0),
    ):
        assert plugin(spec, pi, 10, n=10).value == 0.0


def test_plugin_two_atom_hand_computation():
    pi = MixingDistribution(np.array([0.1, 0.3]), np.array([0.5, 0.5]))
    expected = 10 * (0.5 * 0.1 * math.log(10) + 0.5 * 0.3 * math.log(10 / 3))
    report = plugin(FunctionalSpec.entropy(), pi, 10)
    assert report.raw == pytest.approx(expected, rel=1e-12)
    # the hand value exceeds log k, so the reported value is clamped to it
    assert report.value == pytest.approx(math.log(10), rel=1e-12)


def test_plugin_linear_in_mixing_before_clamping():
    atoms = np.array([0.02, 0.2, 0.7])
    gen = rng(0)
    w1 = gen.dirichlet(np.ones(3))
    w2 = gen.dirichlet(np.ones(3))
    lam = 0.3
    spec = FunctionalSpec.power_sum(0.5)
    r1 = plugin(spec, MixingDistribution(atoms, w1), 50).raw
    r2 = plugin(spec, MixingDistribution(atoms, w2), 50).raw
    rmix = plugin(spec, MixingDistribution(atoms, lam * w1 + (1 - lam) * w2), 50).raw
    assert rmix == pytest.approx(lam * r1 + (1 - lam) * r2, rel=1e-12)


def test_renyi_consistent_with_power_sum():
    # mixing with power sum inside its natural range, so no clamp interferes
    pi = MixingDistribution(np.array([0.001, 0.02]), np.array([0.7, 0.3]))
    alpha, k = 0.5, 30
    renyi = plugin(FunctionalSpec.renyi(alpha), pi, k)
    power = plugin(FunctionalSpec.power_sum(alpha), pi, k)
    assert 0.0 < power.raw < k ** (1 - alpha)
    assert math.exp((1 - alpha) * renyi.raw) == pytest.approx(power.raw, rel=1e-12)


def test_bounds_clamp_reported_value():
    pi = MixingDistribution.point_mass(1.0)
    report = plugin(FunctionalSpec.entropy(), pi, 4)
    assert 0.0 <= report.value <= math.log(4)


# --------------------------------------------------------- bias correction


def test_entropy_correction_is_half_over_n():
    x, n = 0.37, 100
    h = -x * math.log(x)
    assert bias_corrected_g(FunctionalSpec.entropy(), x, n) == pytest.approx(
        h + 0.005, abs=1e-12
    )


def test_power_sum_correction_formula():
    # alpha=0.5, x=0.25, n=10: x^a - a(a-1)/(2n) x^(a-1) = 0.5 + 0.0125 * 2
    value = bias_corrected_g(FunctionalSpec.power_sum(0.5), 0.25, 10)
    assert value == pytest.approx(0.525, abs=1e-12)
    # cross-check against a central finite difference of g - (x/2n) g''
    h = 1e-6
    g = lambda v: v**0.5
    g2 = (g(0.25 + h) - 2 * g(0.25) + g(0.25 - h)) / h**2
    assert value == pytest.approx(g(0.25) - 0.25 / 20 * g2, rel=1e-4)


def test_support_size_indicator_uncorrected():
    assert bias_corrected_g(FunctionalSpec.support_size(), 0.3, 50) == 1.0


def test_unseen_correction_matches_finite_differences():
    t, n, x = 1.5, 40, 0.12
    spec = FunctionalSpec.unseen(t)

    def g(v):
        return math.exp(-n * v) * (1 - math.exp(-t * n * v))

    h = 1e-5
    g2 = (g(x + h) - 2 * g(x) + g(x - h)) / h**2
    expected = g(x) - (x / (2 * n)) * g2
    assert bias_corrected_g(spec, x, n) == pytest.approx(expected, rel=1e-5)


def test_correction_rejects_nonpositive_rate():
    with pytest.raises(DomainError):
        bias_corrected_g(FunctionalSpec.entropy(), 0.0, 10)


# ----------------------------------------------------------------- combined


def test_combined_reduces_to_corrected_empirical_when_no_small_counts():
    counts = CountData([500, 300, 200], n=1000)
    loc = fit_localized(counts)
    assert loc.fit is None
    report = estimate_combined(counts, FunctionalSpec.entropy(), loc)
    manual = sum(
        bias_corrected_g(FunctionalSpec.entropy(), c / 1000, 1000)
        for c in (500, 300, 200)
    )
    manual = min(max(manual, 0.0), math.log(3))
    assert report.value == pytest.approx(manual, rel=1e-12)
    assert report.parts[0] == 0.0


def test_combined_reduces_to_plugin_when_all_counts_small():
    dist = make_distribution("uniform", 300)
    counts = sample(dist, "multinomial", 300, rng(4))
    loc = fit_localized(counts)
    assert loc.large_counts.size == 0
    report = estimate_combined(counts, FunctionalSpec.entropy(), loc)
    direct = plugin(FunctionalSpec.entropy(), loc.fit.mixing, counts.k)
    assert report.value == pytest.approx(direct.value, rel=1e-12)
    assert report.parts[1] == 0.0


# ---------------------------------------------------------------- baselines


def test_empirical_plugin_examples():
    assert empirical_plugin(CountData([0, 0], n=5), FunctionalSpec.entropy()).value == 0.0
    assert (
        empirical_plugin(CountData([7], n=7, k=3), FunctionalSpec.entropy()).value == 0.0
    )
    counts = CountData([1, 1, 2], n=4)
    expected = 2 * (-0.25 * math.log(0.25)) - 0.5 * math.log(0.5)
    report = empirical_plugin(counts, FunctionalSpec.entropy())
    assert report.value == pytest.approx(expected, rel=1e-12)


def test_miller_madow_correction():
    counts = CountData([1, 1], n=2)
    report = miller_madow(counts)
    assert report.value == pytest.approx(math.log(2) + 0.25, rel=1e-12)
    single = miller_madow(CountData([9], n=9))
    assert single.value == 0.0


def test_miller_madow_equals_empirical_plus_correction():
    counts = CountData([3, 1, 4, 0, 2], n=10)
    emp = empirical_plugin(counts, FunctionalSpec.entropy())
    mm = miller_madow(counts)
    assert mm.value == pytest.approx(emp.raw + (4 - 1) / 20.0, rel=1e-12)


def test_good_turing_examples():
    # five singletons at t=1
    counts = CountData([1] * 5, n=5)
    assert good_turing_unseen(counts, 1.0).value == pytest.approx(5.0)
    # phi_1=4, phi_2=1, t=0.5: 4*0.5 - 1*0.25
    counts = CountData([1, 1, 1, 1, 2], n=6)
    assert good_turing_unseen(counts, 0.5).value == pytest.approx(1.75)


def test_good_turing_alternating_blowup_at_large_t():
    counts = CountData([3, 4, 5], n=12)
    report = good_turing_unseen(counts, 2.0)
    # alternating signs with t^j growth: raw is large in magnitude
    assert abs(report.raw) > 3
    assert report.value >= 0.0


def test_unseen_plugin_closed_forms():
    spec = FunctionalSpec.unseen(1.0)
    assert plugin(spec, MixingDistribution.point_mass(0.0), 5, 9).value == 0.0
    n = 7
    pi = MixingDistribution.point_mass(1.0 / n)
    expected = math.exp(-1) * (1 - math.exp(-1))
    assert plugin(spec, pi, 1, n).value == pytest.approx(expected, rel=1e-12)


def test_discovery_curve_monotone_in_horizon():
    pi = MixingDistribution(np.array([0.0, 0.01, 0.2]), np.array([0.5, 0.3, 0.2]))
    curve = discovery_curve(pi, 100, 50, [0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    values = [v for _, v in curve]
    assert all(b >= a for a, b in zip(values, values[1:]))


# ------------------------------------------------------- bias sanity oracle


def test_empirical_entropy_is_biased_low_by_enumeration():
    # exhaustive multinomial expectation on k=3, n=20
    probs = np.array([0.5, 0.3, 0.2])
    n = 20
    expectation = 0.0
    for a, b in product(range(n + 1), range(n + 1)):
        c = n - a - b
        if c < 0:
            continue
        logpmf = (
            math.lgamma(n + 1)
            - math.lgamma(a + 1)
            - math.lgamma(b + 1)
            - math.lgamma(c + 1)
            + (a * math.log(probs[0]) + b * math.log(probs[1]) + c * math.log(probs[2]))
        )
        counts = CountData([a, b, c], n=n)
        value = empirical_plugin(counts, FunctionalSpec.entropy()).value
        expectation += math.exp(logpmf) * value
    truth = float(-(probs * np.log(probs)).sum())
    assert expectation < truth


# ----------------------------------------------------------------- routing


def test_estimate_routes_and_clamps():
    dist = make_distribution("uniform", 100)
    counts = sample(dist, "multinomial", 500, rng(9))
    for method in ("plugin", "localized", "empirical", "miller-madow"):
        report = estimate(counts, FunctionalSpec.entropy(), method)
        assert math.isfinite(report.value)
        if report.bounds is not None:
            assert report.bounds[0] <= report.value <= report.bounds[1]
    unseen = estimate(counts, FunctionalSpec.unseen(1.0), "good-turing")
    assert unseen.value >= 0.0
    with pytest.raises(DomainError):
        estimate(counts, FunctionalSpec.entropy(), "good-turing")


def test_miller_madow_refuses_other_functionals():
    counts = CountData([1, 2, 2, 5], n=10)
    with pytest.raises(DomainError, match="entropy only"):
        estimate(counts, FunctionalSpec.power_sum(0.5), "miller-madow")


def test_support_size_estimate_uses_constrained_grid():
    dist = make_distribution("uniform", 50)
    counts = sample(dist, "multinomial", 2000, rng(10))
    report = estimate(counts, FunctionalSpec.support_size(), "plugin")
    fit = report.fit
    min_mass = 1.0 / counts.k
    inside = (fit.grid.atoms > 0) & (fit.grid.atoms < min_mass)
    assert not inside.any()
    assert 0 <= report.value <= counts.k


def test_true_value_matches_direct_formulas():
    dist = make_distribution("zipf", 5)
    p = dist.probs
    assert true_value(dist, FunctionalSpec.entropy()) == pytest.approx(
        float(-(p * np.log(p)).sum())
    )
    assert true_value(dist, FunctionalSpec.power_sum(0.5)) == pytest.approx(
        float(np.sqrt(p).sum())
    )
    assert true_value(dist, FunctionalSpec.support_size()) == 5.0
    n, t = 11, 2.0
    expected = float(np.sum(np.exp(-n * p) * (1 - np.exp(-t * n * p))))
    assert true_value(dist, FunctionalSpec.unseen(t), n=n) == pytest.approx(expected)
    assert true_value(dist, FunctionalSpec.renyi(2.0)) == pytest.approx(
        -math.log(float(np.sum(p**2)))
    )
    with pytest.raises(DomainError):
        true_value(dist, FunctionalSpec.unseen(t))
