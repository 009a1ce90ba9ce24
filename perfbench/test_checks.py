"""Self-test of the benchmark's checks: each accepts a true output and rejects
a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q

Lives outside the package's test paths, so the main suite does not run it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import countmix  # noqa: E402
from countmix import io as cmio  # noqa: E402


def draw(kind: str, k: int, key: int = 0):
    rng = np.random.Generator(np.random.Philox(key=np.array([key, 0], dtype=np.uint64)))
    return countmix.sample(countmix.make_distribution(kind, k), "multinomial", k, rng)


def fit_check(data, fit):
    values, mult = checks.distinct(data.counts)
    return checks.check_fit(
        "poisson", data.n, values, mult, fit.grid.atoms, fit.mixing.atoms,
        fit.mixing.weights, fit.log_likelihood, fit.converged,
    )


@pytest.fixture(scope="module")
def zipf_fit():
    data = draw("zipf", 2000)
    return data, countmix.fit_npmle(data)


def test_fit_check_accepts_the_fit(zipf_fit):
    assert fit_check(*zipf_fit) == (False, [])


def test_fit_check_rejects_a_moved_weight(zipf_fit):
    data, fit = zipf_fit
    weights = fit.mixing.weights.copy()
    top = int(np.argmax(weights))
    moved = 0.5 * weights[top]
    weights[top] -= moved
    weights[(top + 1) % weights.size] += moved
    mixing = countmix.MixingDistribution(fit.mixing.atoms, weights)
    corrupted = dataclasses.replace(fit, mixing=mixing)
    failed, problems = fit_check(data, corrupted)
    assert failed
    assert any("log-likelihood" in p for p in problems)
    assert any("disagrees" in p for p in problems)


def test_fit_check_rejects_extra_atoms(zipf_fit):
    data, fit = zipf_fit
    values, mult = checks.distinct(data.counts)
    grid = fit.grid.atoms
    atoms = grid[: int(np.count_nonzero(mult)) + 1]
    weights = np.full(atoms.size, 1.0 / atoms.size)
    _, problems = checks.check_fit(
        "poisson", data.n, values, mult, atoms, atoms, weights,
        checks.loglik("poisson", data.n, values, mult, atoms, weights), False,
    )
    assert not any("atoms exceed" in p for p in problems)  # uncertified: bound not applied
    _, problems = checks.check_fit(
        "poisson", data.n, values, mult, atoms, atoms, weights,
        checks.loglik("poisson", data.n, values, mult, atoms, weights), True, tol=math.inf,
    )
    assert any("atoms exceed" in p for p in problems)


@pytest.fixture(scope="module")
def rmse_report():
    config = countmix.ExperimentConfig(
        distribution=countmix.make_distribution("zipf", 1000),
        sampling="multinomial",
        n_list=(1000,),
        trials=3,
        estimators=("empirical", "miller-madow", "plugin", "localized"),
        seed=1,
    )
    return config, countmix.report_to_json(countmix.run_experiment(config, threads=1))


def rmse_check(config, text, previous=None):
    return checks.check_rmse_report(
        text, checks.zipf_probs(1000), config.n_list, config.trials, config.estimators,
        previous,
    )


def test_rmse_check_accepts_the_report(rmse_report):
    config, text = rmse_report
    assert rmse_check(config, text, previous=text) == (False, [])


def test_rmse_check_rejects_a_shifted_estimate(rmse_report):
    config, text = rmse_report
    doc = json.loads(text)
    entry = next(e for e in doc["entries"] if e["estimator"] == "localized")
    entry["mean"] *= 1.02
    _, problems = rmse_check(config, json.dumps(doc, indent=2))
    assert any("bias^2+var" in p for p in problems)


def test_rmse_check_rejects_a_changed_rerun_and_truth(rmse_report):
    config, text = rmse_report
    doc = json.loads(text)
    for entry in doc["entries"]:
        entry["truth"] *= 1.02
    _, problems = rmse_check(config, json.dumps(doc, indent=2), previous=text)
    assert any("differ" in p for p in problems)
    assert any("!= entropy" in p for p in problems)


def test_rmse_check_rejects_a_lost_ordering(rmse_report):
    config, text = rmse_report
    doc = json.loads(text)
    for entry in doc["entries"]:
        if entry["estimator"] == "plugin":
            entry["mean"] = entry["truth"] + 10.0
            entry["std"] = 0.0
            entry["rmse"] = 10.0
    _, problems = rmse_check(config, json.dumps(doc, indent=2))
    assert any("plugin RMSE" in p for p in problems)


@pytest.fixture(scope="module")
def localized_estimate():
    data = draw("zipf", 100_000)
    report = countmix.estimate(data, countmix.FunctionalSpec.entropy(), "localized")
    return data, json.loads(cmio.write_report(report))


def test_estimate_check_accepts_the_estimate(localized_estimate):
    data, doc = localized_estimate
    assert doc["parts"][1] > 0  # the large-count part is exercised
    probs = checks.zipf_probs(data.k)
    assert checks.check_localized_entropy(doc, data.counts, data.n, data.k, probs) == (False, [])


def test_estimate_check_rejects_a_shifted_estimate():
    data = draw("uniform", 100_000)
    report = countmix.estimate(data, countmix.FunctionalSpec.entropy(), "localized")
    doc = json.loads(cmio.write_report(report))
    probs = checks.uniform_probs(data.k)
    assert checks.check_localized_entropy(doc, data.counts, data.n, data.k, probs) == (False, [])
    doc["value"] *= 0.98
    _, problems = checks.check_localized_entropy(doc, data.counts, data.n, data.k, probs)
    assert any("from the truth" in p for p in problems)


def test_estimate_check_rejects_a_wrong_large_part(localized_estimate):
    data, doc = localized_estimate
    doc = dict(doc, parts=[doc["parts"][0], doc["parts"][1] * 1.02])
    _, problems = checks.check_localized_entropy(
        doc, data.counts, data.n, data.k, checks.zipf_probs(data.k)
    )
    assert any("large-count part" in p for p in problems)


@pytest.fixture(scope="module")
def penalized():
    data = draw("zipf", 3000)
    positive = countmix.CountData(data.counts[data.counts > 0], n=data.n)
    return positive, countmix.fit_penalized(positive)


def test_penalized_check_accepts_the_fit(penalized):
    data, result = penalized
    assert result.k_hat > data.k
    assert checks.check_penalized(result, data.counts, data.n) == (False, [])


def test_penalized_check_rejects_a_moved_k_hat(penalized):
    data, result = penalized
    corrupted = dataclasses.replace(result, k_hat=result.k_hat * 1.01)
    _, problems = checks.check_penalized(corrupted, data.counts, data.n)
    assert any("smallest maximizer" in p for p in problems)
    assert any("f(0)" in p for p in problems)
    assert any("objective" in p for p in problems)


def test_penalized_check_rejects_k_hat_below_k(penalized):
    data, result = penalized
    corrupted = dataclasses.replace(result, k_hat=data.k - 1.0)
    _, problems = checks.check_penalized(corrupted, data.counts, data.n)
    assert any("below the observed k" in p for p in problems)
