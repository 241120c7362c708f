import json

import numpy as np
import pytest

from vertexlab import harness
from vertexlab.harness import (
    chi2_gof,
    draw_params,
    run_suite,
)
from vertexlab.core import validate_params
from vertexlab.rng import stream


def test_chi2_gof_calibration():
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
        _, p = chi2_gof(counts, oracle)
        ok += p > 1e-4
    assert ok >= int(0.96 * reps)
    # one sample pools into a single cell: no degree of freedom, no p-value
    assert np.isnan(chi2_gof({0: 1}, oracle)[1])


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


def test_run_suite_scales_default_budgets(tmp_path):
    ids = ["stochasticity", "formal-identity", "local-coupling"]
    expected = [
        harness.CHECKS[cid](
            seed=3, budget=max(int(harness.CHECKS[cid].default_budget * 0.01), 1)
        ).payload()
        for cid in ids
    ]
    _, results = run_suite(ids, seed=3, budget_scale=0.01)
    assert [r.payload() for r in results] == expected
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps({"checks": ids, "seed": 3, "budget_scale": 0.01}))
    _, results = run_suite(str(spec))
    assert [r.payload() for r in results] == expected
    # the scaled budgets differ from the defaults: 10, 1 and 1 draws
    assert expected != [harness.CHECKS[cid](seed=3).payload() for cid in ids]


def test_reports_reproducible():
    _, r1 = run_suite(["stochasticity", "sum-to-one"], seed=7)
    _, r2 = run_suite(["stochasticity", "sum-to-one"], seed=7)
    assert [r.payload() for r in r1] == [r.payload() for r in r2]


def test_every_criterion_has_a_check():
    assert list(harness.CHECKS) == [
        "stochasticity", "sum-to-one", "sampler-pmf", "operator-lemma",
        "route-triangle", "moment-closure", "formal-identity", "qwhittaker-n1",
        "commutation", "local-coupling", "coupling-theorem",
        "distribution-equality", "schur-matching", "fredholm-bruteforce", "lln",
        "tracy-widom",
    ]
    for cid, fn in harness.CHECKS.items():
        assert fn is getattr(harness, "check_" + cid.replace("-", "_"))
    assert set(harness.FULL_SUITE) == set(harness.CHECKS)
    assert set(harness.DEFAULT_SUITE) == set(harness.CHECKS) - {"tracy-widom"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "check_id,budget",
    [("sampler-pmf", 1), ("moment-closure", 1), ("distribution-equality", 1),
     ("schur-matching", 1), ("schur-matching", 2)],
)
def test_monte_carlo_checks_fail_without_evidence(check_id, budget):
    # one or two replicas estimate no spread and fill no second chi-square
    # cell: that is no evidence, so the check fails and names the cause
    result = harness.CHECKS[check_id](seed=0, budget=budget)
    assert not result.passed
    assert result.details["no_evidence"]
