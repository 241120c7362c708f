import json
import os
import pathlib
import subprocess
import sys

import pytest

import vertexlab
from vertexlab.cli import main
from vertexlab.core import ModelParams, params_to_config


@pytest.fixture()
def config(tmp_path):
    p = ModelParams(
        q=0.5,
        u=(-1.0, -0.8, -1.2),
        a=(1.0, 0.9, 1.1, 0.95),
        nu=(0.0, 0.3, 0.4, 0.25),
    )
    path = tmp_path / "params.json"
    path.write_text(params_to_config(p))
    return str(path)


def test_usage_error_exit_code():
    # the child imports vertexlab from where this process found it
    src = str(pathlib.Path(vertexlab.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "vertexlab.cli", "no-such-command"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("flag,value", [("--budget", "1000"), ("--format", "jsonl")])
def test_removed_flags_are_usage_errors(config, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["sample-vertex", "--config", config, flag, value])
    assert exc.value.code == 2


def test_sample_vertex(config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "sample-vertex",
            "--config", config,
            "--window", "4,3",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "heights.csv").read_text().splitlines()
    assert lines[0] == "N,T,h"
    assert len(lines) == 1 + 5 * 4


def test_seed_env_override(config, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["sample-vertex", "--config", config, "--window", "4,3",
          "--seed", "1", "--out", str(out1)])
    monkeypatch.setenv("VERTEXLAB_SEED", "1")
    main(["sample-vertex", "--config", config, "--window", "4,3",
          "--seed", "999", "--out", str(out2)])
    assert (out1 / "heights.csv").read_text() == (out2 / "heights.csv").read_text()


def test_sample_qtasep(config, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["sample-qtasep", "--config", config, "--path", "TNT",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "trajectory.jsonl").read_text().strip().splitlines()
    assert len(lines) == 4
    rec = json.loads(lines[0])
    assert rec["N"] == 1 and rec["T"] == 0 and rec["X_value"] == 0


def test_couple_check(config, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["couple-check", "--config", config, "--path", "TN", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "couple_check.json").read_text())
    assert doc["pass"] and doc["tv_distance"] <= 1e-8


def test_moments_routes(config, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["moments", "--config", config, "--n-list", "2,1", "--T", "2",
         "--route", "all", "--out", str(out)]
    )
    assert code == 0
    recs = [json.loads(x) for x in (out / "moments.jsonl").read_text().strip().splitlines()]
    assert {r["method"] for r in recs} == {"residues", "quadrature", "operator"}
    vals = [r["value"] for r in recs if r["formula"] == "product-moment"]
    assert abs(vals[0] - vals[1]) < 1e-9


def test_diffops_check_cli(tmp_path):
    out = tmp_path / "out"
    code = main(["diffops-check", "--seed", "4", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "diffops_check.json").read_text())
    assert doc["pass"] and doc["check"] == "operator-lemma"


def test_schur_cli(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["schur", "--mode", "fredholm", "--u", "-2.0", "--a1", "1.2",
         "--N", "2", "--T", "2", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "schur_fredholm.json").read_text())
    assert abs(doc["2"] - 1.0) < 1e-8


@pytest.mark.parametrize(
    "mode,flag,value",
    [("fredholm", "--cutoff", "30"), ("tracy-widom", "--cutoff", "30"),
     ("length-pmf", "--r", "1.0"), ("fredholm", "--r", "1.0")],
)
def test_schur_flag_outside_its_mode_is_usage_error(mode, flag, value, tmp_path):
    code = main(["schur", "--mode", mode, flag, value, "--out", str(tmp_path)])
    assert code == 2
    assert not list(tmp_path.iterdir())


def test_schur_length_pmf_cli(tmp_path):
    out = tmp_path / "out"
    common = ["--u", "-2.0", "--a1", "1.2", "--N", "2", "--T", "2", "--out", str(out)]
    assert main(["schur", "--mode", "length-pmf", "--cutoff", "40"] + common) == 0
    assert main(["schur", "--mode", "fredholm"] + common) == 0
    pmf = json.loads((out / "schur_length-pmf.json").read_text())
    cdf = json.loads((out / "schur_fredholm.json").read_text())
    assert set(pmf) == set(cdf) == {"0", "1", "2"}
    assert abs(sum(pmf.values()) - 1.0) < 1e-10
    acc = 0.0
    for k in ("0", "1", "2"):
        acc += pmf[k]
        assert abs(acc - cdf[k]) < 1e-6


def test_asymptotics_cli(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["asymptotics", "--m-list", "30", "--replicas", "40",
         "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    assert (out / "asymptotics.csv").read_text().startswith("M,replica")
    doc = json.loads((out / "asymptotics_summary.json").read_text())
    assert "X_theory" in doc and "ks_stat" in doc


def test_verify_subset(tmp_path, capsys):
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps({"checks": ["formal-identity", "stochasticity"]}))
    code = main(["verify", str(spec), "--out", str(tmp_path / "v")])
    assert code == 0
    captured = capsys.readouterr()
    assert "PASS formal-identity" in captured.out
    assert (tmp_path / "v" / "summary.csv").exists()


@pytest.mark.parametrize(
    "argv,flag",
    [(["sample-vertex", "--window", "3,2"], "--config"),
     (["sample-qtasep"], "--config"),
     (["sample-vertex", "--boundary", "nope"], "--boundary"),
     (["sample-vertex", "--boundary", "gen-step-bernoulli:x"], "--boundary"),
     (["sample-vertex", "--boundary", "gen-step-bernoulli:0"], "--boundary")],
)
def test_usage_errors_name_the_flag(argv, flag, config, capsys):
    if flag != "--config":
        argv = argv + ["--config", config]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err


def test_boundary_order_beyond_the_columns_is_a_usage_error(tmp_path, capsys):
    # every nu is zero, so the boundary's nu_1..nu_r = 0 test reaches column 5
    p = ModelParams(q=0.5, u=(-1.0,), a=(1.0, 0.9, 1.1, 0.95), nu=(0.0,) * 4)
    config = tmp_path / "params.json"
    config.write_text(params_to_config(p))
    argv = ["sample-vertex", "--config", str(config), "--boundary", "gen-step-bernoulli:9"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "r=9" in err and "4 columns" in err


@pytest.mark.parametrize("order", ["0", "-1"])
def test_couple_check_order_below_one_is_a_usage_error(config, order, capsys):
    # order 0 used to read x_0 as the last particle and report a false TV
    # failure (exit 1); order -1 ended in an IndexError traceback
    argv = ["couple-check", "--config", config, "--path", "TNT", "--order", order]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"r >= 1, got r={order}" in err


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(pathlib.Path(vertexlab.__file__).parents[1])
    code = "import sys, vertexlab.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a bad flag value by exiting
        return exc.code


@pytest.mark.parametrize(
    "argv,seed_env,name",
    [(["sample-vertex", "--config", "CONFIG", "--window", "4"], None, "--window"),
     (["moments", "--config", "CONFIG", "--n-list", "a"], None, "--n-list"),
     (["asymptotics", "--m-list", "x"], None, "--m-list"),
     (["asymptotics", "--m-list", "10", "--replicas", "0"], None, "--replicas"),
     (["asymptotics", "--m-list", "10", "--replicas", "-3"], None, "--replicas"),
     (["sample-vertex", "--config", "CONFIG"], "abc", "VERTEXLAB_SEED")],
    ids=["window", "n-list", "m-list", "replicas-0", "replicas-negative", "seed-env"],
)
def test_malformed_values_name_their_flag(argv, seed_env, name, config, tmp_path,
                                          monkeypatch, capsys):
    if seed_env is not None:
        monkeypatch.setenv("VERTEXLAB_SEED", seed_env)
    argv = [config if a == "CONFIG" else a for a in argv]
    assert _exit_code(argv + ["--out", str(tmp_path / "out")]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_keys_the_code_does_not_read_are_usage_errors(config, tmp_path, capsys):
    doc = json.loads(pathlib.Path(config).read_text())
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({**doc, "gamma": 0.2}))
    assert main(["sample-vertex", "--config", str(extra), "--window", "3,2"]) == 2
    assert "'gamma'" in capsys.readouterr().err
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"checks": ["formal-identity"], "seed": 5}))
    assert main(["verify", str(suite), "--out", str(tmp_path / "v")]) == 2
    assert "'seed'" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_malformed_config_and_suite_files_are_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"q": 0.5, "u": -1, "a": [1.0], "nu": [0.2]}')
    assert main(["sample-vertex", "--config", str(bad), "--window", "1,1"]) == 2
    assert "'u' must be a list of numbers" in capsys.readouterr().err
    bad.write_text("5")
    assert main(["sample-vertex", "--config", str(bad), "--window", "1,1"]) == 2
    assert "config must be an object" in capsys.readouterr().err
    assert main(["verify", str(bad)]) == 2
    assert "suite file must be" in capsys.readouterr().err
    bad.write_text('{"checks": "lln"}')
    assert main(["verify", str(bad)]) == 2
    assert "'checks' must list check ids" in capsys.readouterr().err


def test_verify_rejects_bad_seed_and_budget_scale(capsys, monkeypatch):
    assert main(["verify", "default", "--budget-scale", "0"]) == 2
    assert "budget_scale" in capsys.readouterr().err
    assert main(["verify", "default", "--seed", "-1"]) == 2
    assert "-1" in capsys.readouterr().err
    monkeypatch.setenv("VERTEXLAB_SEED", "-1")
    assert main(["verify", "default"]) == 2
    assert "-1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [(["schur", "--mode", "tracy-widom", "--config", "CONFIG"], "--config"),
     (["schur", "--mode", "tracy-widom", "--seed", "5"], "--seed"),
     (["asymptotics", "--m-list", "10", "--replicas", "5", "--config", "CONFIG"],
      "--config"),
     (["diffops-check", "--config", "CONFIG"], "--config"),
     (["verify", "SUITE", "--config", "CONFIG"], "--config"),
     (["couple-check", "--config", "CONFIG", "--seed", "5"], "--seed"),
     (["moments", "--config", "CONFIG", "--seed", "5"], "--seed")],
    ids=["schur-config", "schur-seed", "asymptotics-config", "diffops-config",
         "verify-config", "couple-check-seed", "moments-seed"],
)
def test_unread_flags_are_usage_errors(argv, flag, config, tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"checks": ["formal-identity"]}))
    argv = [{"CONFIG": config, "SUITE": str(suite)}.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
