import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from countmix.cli import main

RAW = "#format=raw\n#n=40\n5\n9\n0\n2\n1\n"


@pytest.fixture
def raw_file(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text(RAW)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fit_outputs_valid_json(capsys, raw_file):
    code, out, err = run(capsys, ["fit", "--input", raw_file])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["optimality_gap"] <= 1e-6
    assert abs(sum(doc["weights"]) - 1.0) < 1e-9


def test_fit_deterministic_byte_identical(capsys, raw_file):
    _, out1, _ = run(capsys, ["fit", "--input", raw_file])
    _, out2, _ = run(capsys, ["fit", "--input", raw_file])
    assert out1 == out2


def test_estimate_entropy_empirical_all_zero(capsys, tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("#format=raw\n#n=10\n0\n0\n0\n")
    code, out, _ = run(
        capsys,
        ["estimate", "--input", str(path), "--functional", "entropy", "--method", "empirical"],
    )
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_estimate_functional_flag_parsing(capsys, raw_file):
    for flag in ("power-sum:0.5", "renyi:0.5", "support:0.01", "unseen:2", "entropy"):
        code, out, err = run(
            capsys,
            ["estimate", "--input", raw_file, "--functional", flag, "--method", "empirical"],
        )
        assert code == 0, (flag, err)
        assert math.isfinite(json.loads(out)["value"])


def test_estimate_csv_format(capsys, raw_file):
    code, out, _ = run(
        capsys,
        ["estimate", "--input", raw_file, "--functional", "entropy",
         "--method", "miller-madow", "--format", "csv"],
    )
    assert code == 0
    assert out.splitlines()[0] == "functional,method,value"


def test_estimate_reports_fit_certificate(capsys, raw_file):
    code, out, _ = run(
        capsys,
        ["estimate", "--input", raw_file, "--functional", "entropy",
         "--method", "localized", "--tol", "1e-7"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert 0.0 <= doc["optimality_gap"] <= 1e-7
    code, out, _ = run(
        capsys,
        ["estimate", "--input", raw_file, "--functional", "entropy", "--method", "empirical"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is None and doc["optimality_gap"] is None


def test_localized_reports_partition(capsys, raw_file):
    code, out, _ = run(capsys, ["localized", "--input", raw_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["n_small"] + doc["n_large"] == 5
    threshold = 3.6 * math.log(40) / 40
    assert doc["threshold"] == pytest.approx(threshold)


def test_penalized_profile_csv(capsys, tmp_path):
    path = tmp_path / "pos.txt"
    path.write_text("#format=raw\n#n=100\n" + "\n".join(["4"] * 10 + ["7"] * 5) + "\n")
    code, out, _ = run(capsys, ["penalized", "--input", str(path), "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k_prime,objective"
    assert len(lines) >= 2
    code, out, _ = run(capsys, ["penalized", "--input", str(path)])
    doc = json.loads(out)
    assert doc["k_hat"] >= 15


def test_gof_butterfly_mixture_accepts(capsys):
    import importlib.resources as res

    path = str(res.files("countmix").joinpath("data/butterfly.fp"))
    code, out, _ = run(capsys, ["gof", "--input", path, "--T", "10", "--model", "mixture"])
    assert code == 0
    assert json.loads(out)["p_value"] > 0.05


def test_unseen_curve_csv(capsys, raw_file):
    code, out, _ = run(
        capsys, ["unseen", "--input", raw_file, "--t-grid", "0.5,1,2", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,estimate"
    assert len(lines) == 4
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)


def test_simulate_runs_config(capsys, tmp_path):
    config = {
        "distribution": {"kind": "uniform", "k": 20},
        "sampling": "multinomial",
        "n_list": [50],
        "trials": 2,
        "estimators": ["empirical"],
        "seed": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, ["simulate", "--config", str(path), "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0].startswith("estimator,")


def test_simulate_seed_flag_overrides_config_seed(capsys, tmp_path):
    config = {
        "distribution": {"kind": "uniform", "k": 20},
        "sampling": "multinomial",
        "n_list": [50],
        "trials": 2,
        "estimators": ["empirical"],
        "seed": 3,
    }
    path = tmp_path / "seed3.json"
    path.write_text(json.dumps(config))
    zero = tmp_path / "seed0.json"
    zero.write_text(json.dumps(dict(config, seed=0)))
    _, flagged, _ = run(capsys, ["simulate", "--config", str(path), "--seed", "0"])
    _, expected, _ = run(capsys, ["simulate", "--config", str(zero)])
    _, unflagged, _ = run(capsys, ["simulate", "--config", str(path)])
    assert flagged == expected
    assert flagged != unflagged


def test_simulate_malformed_config_exit_code_1(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    code, out, err = run(capsys, ["simulate", "--config", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("countmix simulate: error:") and "\n" not in err.strip()
    assert "'distribution'" in err


@pytest.mark.parametrize(
    "overrides,key",
    [
        ({"n_list": []}, "n_list"),
        ({"estimators": []}, "estimators"),
        ({"n_list": [0]}, "n_list"),
        ({"n_list": ["a"]}, "n_list"),
    ],
)
def test_simulate_empty_or_bad_lists_exit_code_1(capsys, tmp_path, overrides, key):
    config = {
        "distribution": {"kind": "uniform", "k": 5},
        "sampling": "multinomial",
        "n_list": [50],
        "trials": 2,
        "estimators": ["empirical"],
        "seed": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, **overrides)))
    code, out, err = run(capsys, ["simulate", "--config", str(path), "--format", "csv"])
    assert code == 1 and out == ""
    assert err.startswith("countmix simulate: error:") and "\n" not in err.strip()
    assert repr(key) in err


def test_count_beyond_int64_exit_code_1(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("#format=raw\n3\n99999999999999999999\n")
    argv = ["estimate", "--input", str(path), "--functional", "entropy", "--method", "localized"]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("countmix estimate: error: line 3:") and "\n" not in err.strip()


def test_nnls_iteration_limit_exit_code_1(capsys, raw_file, monkeypatch):
    def give_up(A, b):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr("countmix.npmle.nnls", give_up)
    code, out, err = run(capsys, ["fit", "--input", raw_file])
    assert code == 1 and out == ""
    assert err.startswith("countmix fit: error: weight solver:") and "\n" not in err.strip()


def test_binomial_count_above_trials_exit_code_1(capsys, raw_file):
    code, out, err = run(capsys, ["fit", "--input", raw_file, "--kernel", "binomial", "--n", "5"])
    assert code == 1 and out == ""
    assert err.strip() == "countmix fit: error: binomial count exceeds the number of trials"


def test_localized_nonpositive_kappa_exit_code_1(capsys, raw_file):
    code, out, err = run(capsys, ["localized", "--input", raw_file, "--kappa", "0"])
    assert code == 1 and out == ""
    assert "kappa must be positive" in err and "\n" not in err.strip()


@pytest.mark.parametrize(
    "argv,setting",
    [
        (["fit", "--input", "{raw}", "--tol", "nan"], "tol"),
        (["fit", "--input", "{raw}", "--tol", "inf"], "tol"),
        (["estimate", "--input", "{raw}", "--functional", "renyi:nan", "--method", "empirical"],
         "alpha"),
        (["estimate", "--input", "{huge_k}", "--functional", "entropy", "--method", "plugin"],
         "line 2:"),
        (["localized", "--input", "{raw}", "--kappa", "nan"], "kappa"),
        (["penalized", "--input", "{positive}", "--tol", "-1"], "tol"),
        (["penalized", "--input", "{positive}", "--c0", "nan"], "c0"),
        (["gof", "--input", "{raw}", "--T", "3", "--model", "mixture", "--tol", "nan"], "tol"),
        (["unseen", "--input", "{raw}", "--t-grid", "nan,1"], "horizon"),
        (["simulate", "--config", "{config}"], "'tol'"),
        (["localized", "--input", "{large}", "--tol", "nan"], "tol"),
        (["estimate", "--input", "{large}", "--functional", "entropy", "--method", "localized",
          "--tol", "nan"], "tol"),
        (["simulate", "--config", "{zipf_nan}"], "'s'"),
        (["simulate", "--config", "{custom_empty}"], "'probs'"),
        (["simulate", "--config", "{grid_size}"], "'grid_size'"),
        (["gof", "--input", "{raw}", "--T", "1000000000000000", "--model", "p-model"],
         "Unable to allocate"),
    ],
    ids=["fit-tol-nan", "fit-tol-inf", "estimate-renyi-nan", "estimate-k-beyond-int64",
         "localized-kappa-nan", "penalized-tol-negative", "penalized-c0-nan", "gof-tol-nan",
         "unseen-t-nan", "simulate-tol-nan", "localized-tol-nan-no-small-cell",
         "estimate-localized-tol-nan-no-small-cell", "simulate-zipf-s-nan",
         "simulate-custom-probs-empty", "simulate-grid-size-key", "gof-T-out-of-memory"],
)
def test_nan_infinite_or_oversized_setting_exit_code_1(capsys, raw_file, tmp_path, argv, setting):
    files = {"raw": raw_file}
    for name, text in [
        ("positive", "#format=raw\n3\n1\n1\n2\n"),
        ("huge_k", "#format=raw\n#k=99999999999999999999\n3\n"),
        ("config", '{"distribution": {"kind": "uniform", "k": 5}, "sampling": "poisson", '
                   '"n_list": [50], "trials": 2, "estimators": ["empirical"], "seed": 1, '
                   '"tol": NaN}'),
        ("large", "#format=raw\n#n=10\n500\n600\n"),
        ("zipf_nan", '{"distribution": {"kind": "zipf", "k": 5, "s": NaN}, '
                     '"sampling": "poisson", "n_list": [50], "trials": 2, '
                     '"estimators": ["empirical"], "seed": 1}'),
        ("custom_empty", '{"distribution": {"kind": "custom", "probs": []}, '
                         '"sampling": "poisson", "n_list": [50], "trials": 2, '
                         '"estimators": ["empirical"], "seed": 1}'),
        ("grid_size", '{"distribution": {"kind": "uniform", "k": 5}, "sampling": "poisson", '
                      '"n_list": [50], "trials": 2, "estimators": ["empirical"], "seed": 1, '
                      '"grid_size": 50}'),
    ]:
        files[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, [arg.format(**files) for arg in argv])
    assert code == 1 and out == ""
    assert err.startswith(f"countmix {argv[0]}: error:") and "\n" not in err.strip()
    assert setting in err


def test_output_flag_writes_file(capsys, raw_file, tmp_path):
    target = tmp_path / "fit.json"
    code, out, _ = run(capsys, ["fit", "--input", raw_file, "--output", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["converged"] is True


def test_usage_error_exit_code_2(raw_file):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", raw_file, "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_computation_error_exit_code_1(capsys, tmp_path):
    missing = str(tmp_path / "nope.txt")
    code, out, err = run(capsys, ["fit", "--input", missing])
    assert code == 1
    assert err.strip() != "" and "\n" not in err.strip()


def test_binomial_kernel_flag(capsys, raw_file):
    code, out, _ = run(capsys, ["fit", "--input", raw_file, "--kernel", "binomial"])
    assert code == 0
    assert json.loads(out)["converged"] is True


# The flags each subcommand shares with others; its own flags are ``extra``.
SHARED = {
    "fit": "--input --n --k --kernel --tol --output",
    "estimate": "--input --n --k --kernel --tol --output --format",
    "localized": "--input --n --k --kernel --tol --output",
    "penalized": "--input --n --kernel --tol --output --format",
    "gof": "--input --k --tol --output --format",
    "unseen": "--input --n --k --kernel --tol --output --format",
    "simulate": "--output --format",
}

# Flags a subcommand used to accept and ignore, each with the value it took.
DROPPED = [
    ("fit", "--seed", "1"),
    ("fit", "--format", "csv"),
    ("localized", "--seed", "1"),
    ("localized", "--format", "csv"),
    ("estimate", "--seed", "1"),
    ("unseen", "--seed", "1"),
    ("penalized", "--seed", "1"),
    ("penalized", "--k", "4"),
    ("penalized", "--grid-size", "50"),
    ("gof", "--seed", "1"),
    ("gof", "--kernel", "binomial"),
    ("gof", "--n", "7"),
    ("simulate", "--n", "7"),
    ("simulate", "--k", "4"),
    ("simulate", "--grid-size", "3"),
    ("simulate", "--kernel", "binomial"),
    ("simulate", "--tol", "1e-3"),
    ("fit", "--grid-size", "50"),
    ("estimate", "--grid-size", "50"),
    ("localized", "--grid-size", "50"),
    ("gof", "--grid-size", "50"),
    ("unseen", "--grid-size", "50"),
]


@pytest.mark.parametrize(
    "command,extra",
    [
        ("fit", []),
        ("estimate", ["--functional", "--method"]),
        ("localized", ["--kappa"]),
        ("penalized", ["--c0", "--c1"]),
        ("gof", ["--T", "--model"]),
        ("unseen", ["--t-grid", "--method"]),
        ("simulate", ["--seed", "--config"]),
    ],
)
def test_help_lists_every_flag(capsys, command, extra):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    listed = set(re.findall(r"(?:^|[\s\[])(--?[A-Za-z][\w-]*)", text))
    assert listed == {"-h", "--help", *SHARED[command].split(), *extra}
    assert not listed & {flag for cmd, flag, _ in DROPPED if cmd == command}


# Unique prefixes of live flags (and ``--grid``, once a prefix of the deleted
# ``--grid-size``): each flag has one spelling, so none is read.
ABBREVIATIONS = [
    ("fit", "--kern", "binomial"),
    ("fit", "--grid", "50"),
    ("penalized", "--k", "binomial"),
    ("simulate", "--conf", "config.json"),
]


@pytest.mark.parametrize("command,flag,value", DROPPED + ABBREVIATIONS)
def test_dropped_flag_is_a_usage_error(capsys, raw_file, tmp_path, command, flag, value):
    # The required flags come first, so argparse reaches the flag under test
    # rather than stopping at a missing --input or --config.
    required = {
        "fit": ["--input", raw_file],
        "localized": ["--input", raw_file],
        "estimate": ["--input", raw_file, "--functional", "entropy", "--method", "empirical"],
        "unseen": ["--input", raw_file, "--t-grid", "1"],
        "penalized": ["--input", raw_file],
        "gof": ["--input", raw_file, "--T", "3", "--model", "mixture"],
        "simulate": ["--config", str(tmp_path / "config.json")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_cli_import_leaves_scipy_stats_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, countmix.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
