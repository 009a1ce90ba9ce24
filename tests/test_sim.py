import json

import numpy as np
import pytest

from countmix import (
    DomainError,
    ExperimentConfig,
    config_from_json,
    make_distribution,
    report_to_csv,
    report_to_json,
    run_experiment,
    sample,
    w1_curve,
)
from countmix.sim import histogram_distribution


def rng(stream):
    return np.random.Generator(np.random.Philox(key=np.array([606, stream], dtype=np.uint64)))


# ------------------------------------------------------------ distributions


def test_uniform_probs():
    dist = make_distribution("uniform", 4)
    assert np.allclose(dist.probs, 0.25)


def test_spike_and_uniform_k7():
    dist = make_distribution("spike_and_uniform", 7)
    assert np.allclose(dist.probs, [1 / 8, 1 / 8, 1 / 8, 1 / 8, 1 / 8, 1 / 8, 1 / 4])


def test_zipf_k3_harmonic_normalization():
    dist = make_distribution("zipf", 3)
    assert np.allclose(dist.probs, [6 / 11, 3 / 11, 2 / 11])


def test_a_distribution_that_is_not_finite_is_refused():
    for s in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError, match="'s'"):
            make_distribution("zipf", 5, s=s)
    with pytest.raises(DomainError, match="finite"):
        make_distribution("custom", 3, probs=[0.5, 0.5, float("nan")])
    with pytest.raises(DomainError, match="'probs'"):
        make_distribution("custom", 0, probs=[])


def test_two_mixed_uniform_halves():
    dist = make_distribution("two_mixed_uniform", 10)
    assert np.allclose(dist.probs[:5], 2 / 50)
    assert np.allclose(dist.probs[5:], 8 / 50)
    with pytest.raises(DomainError):
        make_distribution("two_mixed_uniform", 9)


def test_geometric_and_log_series_proportionality():
    k = 50
    theta = 1.0 / k
    geo = make_distribution("geometric", k)
    ratio = geo.probs[1:] / geo.probs[:-1]
    assert np.allclose(ratio, 1 - theta)
    logs = make_distribution("log_series", k)
    i = np.arange(1, k + 1)
    expected = (1 - theta) ** i / i
    assert np.allclose(logs.probs, expected / expected.sum())


def test_histogram_distribution_merges_equal_masses():
    dist = make_distribution("uniform", 10)
    pi = histogram_distribution(dist)
    assert len(pi) == 1
    assert pi.atoms[0] == pytest.approx(0.1)


# ----------------------------------------------------------------- sampling


def test_multinomial_counts_sum_to_n():
    dist = make_distribution("zipf", 30)
    data = sample(dist, "multinomial", 500, rng(1))
    assert data.counts.sum() == 500
    assert data.k == 30


def test_point_mass_distribution_sampling():
    dist = make_distribution("custom", 1, probs=[1.0])
    data = sample(dist, "multinomial", 77, rng(2))
    assert data.counts.tolist() == [77]


def test_zero_draws_all_zero():
    dist = make_distribution("uniform", 5)
    data = sample(dist, "multinomial", 0, rng(3))
    assert data.counts.tolist() == [0] * 5


def test_poisson_sampling_means_within_clt_band():
    dist = make_distribution("uniform", 8)
    n, trials = 50, 10_000
    totals = np.zeros(8)
    gen = rng(4)
    for _ in range(trials):
        totals += gen.poisson(n * dist.probs)
    means = totals / trials
    target = n * dist.probs
    band = 4 * np.sqrt(target / trials)
    assert np.all(np.abs(means - target) <= band)


# --------------------------------------------------------------- experiment


def small_config(**overrides):
    base = dict(
        distribution=make_distribution("uniform", 40),
        sampling="multinomial",
        n_list=(100, 200),
        trials=4,
        estimators=("empirical", "miller-madow"),
        seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_reproducible():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    assert a.entries == b.entries


def test_run_experiment_rejects_a_thread_count_above_one():
    with pytest.raises(DomainError, match="threads"):
        run_experiment(small_config(), threads=2)


def test_rmse_moment_identity():
    report = run_experiment(small_config(trials=6))
    for e in report.entries:
        assert e.rmse**2 == pytest.approx((e.mean - e.truth) ** 2 + e.std**2, abs=1e-10)


def test_empirical_rmse_small_in_large_sample_regime():
    config = small_config(
        distribution=make_distribution("uniform", 20),
        n_list=(100_000,),
        trials=5,
        estimators=("empirical",),
    )
    report = run_experiment(config)
    assert report.entries[0].rmse < 0.01


def test_report_serialization():
    report = run_experiment(small_config())
    doc = json.loads(report_to_json(report))
    assert doc["v"] == 1 and doc["type"] == "rmse"
    assert len(doc["entries"]) == 4
    csv_text = report_to_csv(report)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "estimator,n,k,trial_count,rmse,mean,std,truth"
    assert len(lines) == 5


def test_config_json_roundtrip():
    text = json.dumps(
        {
            "distribution": {"kind": "zipf", "k": 25, "s": 1.0},
            "sampling": "poisson",
            "n_list": [50, 100],
            "trials": 3,
            "estimators": ["empirical"],
            "seed": 7,
            "functional": {"kind": "power_sum", "alpha": 0.5},
        }
    )
    config = config_from_json(text)
    assert config.distribution.kind == "zipf"
    assert config.functional.alpha == 0.5
    report = run_experiment(config)
    assert len(report.entries) == 2


def test_report_config_reruns_to_the_same_report():
    config = small_config(distribution=make_distribution("zipf", 50, s=2.0))
    text = report_to_json(run_experiment(config))
    echoed = json.loads(text)["config"]
    assert echoed["distribution"] == {"kind": "zipf", "k": 50, "s": 2.0}
    assert report_to_json(run_experiment(config_from_json(json.dumps(echoed)))) == text


VALID_CONFIG = {"distribution": {"kind": "uniform", "k": 5}, "sampling": "poisson",
                "n_list": [50], "trials": 2, "estimators": ["empirical"], "seed": 1}


@pytest.mark.parametrize(
    "doc,key",
    [
        ({"sampling": "multinomial"}, "distribution"),
        ({"distribution": 5}, "distribution"),
        ({"distribution": {"k": 5}}, "kind"),
        ({"distribution": {"kind": "uniform", "k": "five"}}, "k"),
        ({"distribution": {"kind": "uniform", "k": 5}, "sampling": "poisson", "n_list": 5},
         "n_list"),
        ({"distribution": {"kind": "uniform", "k": 5}, "sampling": "poisson", "n_list": "100"},
         "n_list"),
        ({"distribution": {"kind": "uniform", "k": 5}, "functional": 3}, "functional"),
        ({"distribution": {"kind": "uniform", "k": 5}, "functional": {"alpha": 0.5}}, "kind"),
        # JSON true is no number, though Python counts it as the int 1
        ({"distribution": {"kind": "uniform", "k": True}}, "k"),
        ({"distribution": {"kind": "zipf", "k": 5, "s": True}}, "s"),
        ({"distribution": {"kind": "uniform", "k": 5},
          "functional": {"kind": "power_sum", "alpha": True}}, "alpha"),
        ({"distribution": {"kind": "uniform", "k": 5},
          "functional": {"kind": "power_sum", "alpha": "a"}}, "alpha"),
        ({"distribution": {"kind": "uniform", "k": 5},
          "functional": {"kind": "support_size", "min_mass": True}}, "min_mass"),
        ({"distribution": {"kind": "uniform", "k": 5},
          "functional": {"kind": "unseen", "horizon": True}}, "horizon"),
        (dict(VALID_CONFIG, trials=True), "trials"),
        (dict(VALID_CONFIG, seed=True), "seed"),
        (dict(VALID_CONFIG, pad_k=True), "pad_k"),
        (dict(VALID_CONFIG, grid_size=True), "grid_size"),
        (dict(VALID_CONFIG, tol=True), "tol"),
        # a key that nothing reads is refused by name, at every level
        (dict(VALID_CONFIG, grid_size=50), "grid_size"),
        (dict(VALID_CONFIG, tolerance=5), "tolerance"),
        (dict(VALID_CONFIG, distribution={"kind": "zipf", "k": 5, "S": 3.0}), "S"),
        (dict(VALID_CONFIG, functional={"kind": "power_sum", "alpha": 0.5, "Alpha": 0.7}),
         "Alpha"),
        # a key that the chosen kind does not read is refused by name too
        (dict(VALID_CONFIG, distribution={"kind": "uniform", "k": 5, "s": 3.0}), "s"),
        (dict(VALID_CONFIG, distribution={"kind": "geometric", "k": 2, "probs": [0.5, 0.5]}),
         "probs"),
        (dict(VALID_CONFIG, distribution={"kind": "custom", "k": 7, "probs": [0.5, 0.25, 0.25]}),
         "k"),
        (dict(VALID_CONFIG, functional={"kind": "entropy", "alpha": 0.5}), "alpha"),
        (dict(VALID_CONFIG, functional={"kind": "power_sum", "alpha": 0.5, "min_mass": 0.1}),
         "min_mass"),
        (dict(VALID_CONFIG, functional={"kind": "renyi", "alpha": 2.0, "horizon": 2.0}),
         "horizon"),
    ],
)
def test_config_from_json_names_the_bad_key(doc, key):
    with pytest.raises(DomainError, match=repr(key)):
        config_from_json(json.dumps(doc))


def test_pad_k_extends_alphabet():
    config = small_config(pad_k=1000, estimators=("empirical",))
    report = run_experiment(config)
    assert all(e.k == 1000 for e in report.entries)


def test_unknown_estimator_rejected():
    with pytest.raises(DomainError):
        small_config(estimators=("nonsense",))


@pytest.mark.parametrize(
    "overrides,key",
    [
        ({"n_list": ()}, "n_list"),
        ({"estimators": ()}, "estimators"),
        ({"n_list": (100, 0)}, "n_list"),
        ({"n_list": ("a",)}, "n_list"),
        ({"n_list": (100.5,)}, "n_list"),
    ],
)
def test_config_rejects_empty_or_bad_lists(overrides, key):
    with pytest.raises(DomainError, match=repr(key)):
        small_config(**overrides)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_config_rejects_a_tol_that_is_not_positive_and_finite(tol):
    with pytest.raises(DomainError, match="'tol'"):
        small_config(tol=tol)
    doc = {"distribution": {"kind": "uniform", "k": 5}, "sampling": "poisson",
           "n_list": [50], "trials": 2, "estimators": ["empirical"], "seed": 1, "tol": tol}
    with pytest.raises(DomainError, match="'tol'"):
        config_from_json(json.dumps(doc))


# ----------------------------------------------------------------- w1 curve


def test_w1_curve_single_cell():
    dist = make_distribution("custom", 1, probs=[1.0])
    curve = w1_curve(dist, [400], trials=5, seed=3)
    # single category: W1 is |p_hat - 1| which is 0 under multinomial=poisson rate 1
    assert curve[0][1] < 0.2


def test_w1_curve_deterministic():
    dist = make_distribution("uniform", 10)
    a = w1_curve(dist, [200], trials=3, seed=11)
    b = w1_curve(dist, [200], trials=3, seed=11)
    assert a == b
