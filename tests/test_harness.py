import json

import numpy as np
import pytest

from vertexlab import harness
from vertexlab.harness import (
    distribution_compare,
    draw_params,
    run_suite,
)
from vertexlab.core import validate_params
from vertexlab.rng import stream


def test_distribution_compare_tv():
    rep = distribution_compare({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}, "EXACT_TV")
    assert rep.statistic == 0.0 and rep.passed
    rep = distribution_compare({0: 1.0}, {1: 1.0}, "EXACT_TV")
    assert rep.statistic == 1.0 and not rep.passed
    with pytest.raises(ValueError):
        distribution_compare({}, {}, "EXACT_TV")


def test_distribution_compare_chi2_calibration():
    # sampling from the oracle pmf itself should rarely reject
    oracle = {0: 0.55, 1: 0.3, 2: 0.1, 3: 0.05}
    atoms = np.array(sorted(oracle))
    probs = np.array([oracle[k] for k in atoms])
    ok = 0
    reps = 60
    for r in range(reps):
        rng = stream(99, r)
        draws = rng.choice(atoms, size=20_000, p=probs)
        counts = {int(k): int(c) for k, c in zip(*np.unique(draws, return_counts=True))}
        rep = distribution_compare(counts, oracle, "CHI2", alpha=1e-4)
        ok += rep.passed
    assert ok >= int(0.96 * reps)


def test_distribution_compare_ks():
    rng = stream(1, 0)
    samples = rng.normal(size=4000)
    from scipy.stats import norm

    rep = distribution_compare(samples, norm.cdf, "KS", tol=0.05)
    assert rep.passed and rep.statistic < 0.05


def test_draw_params_regimes():
    rng = stream(0, 0)
    for _ in range(25):
        p = draw_params(rng, 5, 3)
        rep = validate_params(p, (5, 3))
        assert rep.basic_ok and rep.whittaker_ok and rep.nested_ok


def test_run_suite_empty_and_unknown():
    code, results = run_suite([])
    assert code == 0 and results == []
    with pytest.raises(KeyError):
        run_suite(["no-such-check"])


def test_run_suite_dispatch_and_reports(tmp_path):
    code, results = run_suite(
        ["stochasticity", "formal-identity"], out_dir=tmp_path, seed=1
    )
    assert code == 0
    assert (tmp_path / "summary.csv").exists()
    doc = json.loads((tmp_path / "stochasticity.json").read_text())
    assert doc["check"] == "stochasticity" and doc["pass"]
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == "check,pass,statistic,tolerance,runtime_s"
    assert len(lines) == 3


def test_run_suite_json_spec(tmp_path):
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps({"checks": ["formal-identity"], "seed": 5}))
    code, results = run_suite(str(spec))
    assert code == 0 and results[0].check_id == "formal-identity"


def test_reports_reproducible():
    _, r1 = run_suite(["stochasticity", "sum-to-one"], seed=7)
    _, r2 = run_suite(["stochasticity", "sum-to-one"], seed=7)
    assert [r.payload() for r in r1] == [r.payload() for r in r2]


def test_every_criterion_has_a_check():
    assert len(harness.CHECKS) == 16
    assert set(harness.FULL_SUITE) == set(harness.CHECKS)
    assert set(harness.DEFAULT_SUITE) == set(harness.CHECKS) - {"tracy-widom"}
