"""Acceptance gate: every criterion runs at its stated tolerance through the
harness check registry and prints one pass/fail line.

Criterion 16 (the Tracy-Widom surrogate) is the single long check; it is
excluded from the default CLI suite but runs here (marked slow so it can be
deselected with -m "not slow").  Each default criterion's payload must also
equal its seed-0 entry in tests/golden/criteria_seed0.json (see
tests/test_golden.py), so a change that moves a bit of a full-budget check
fails here.
"""

import json
import pathlib

import pytest

from vertexlab import harness

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "criteria_seed0.json").read_text()
)

# (check id, runtime budget in seconds)
CRITERIA = [
    ("stochasticity", 1.0),
    ("sum-to-one", 30.0),
    ("sampler-pmf", 120.0),
    ("operator-lemma", 60.0),
    ("route-triangle", 120.0),
    ("moment-closure", 300.0),
    ("formal-identity", 1.0),
    ("qwhittaker-n1", 30.0),
    ("commutation", 60.0),
    ("local-coupling", 120.0),
    ("coupling-theorem", 300.0),
    ("distribution-equality", 180.0),
    ("schur-matching", 180.0),
    ("fredholm-bruteforce", 60.0),
    ("lln", 300.0),
]


def _report(result, budget):
    status = "PASS" if result.passed else "FAIL"
    print(
        f"[acceptance] {status} {result.check_id}: "
        f"statistic={result.statistic:.4g} tolerance={result.tolerance:.4g} "
        f"runtime={result.runtime:.1f}s (budget {budget:.0f}s)"
    )


@pytest.mark.parametrize("check_id,budget", CRITERIA, ids=[c for c, _ in CRITERIA])
def test_criterion(check_id, budget):
    result = harness.CHECKS[check_id](seed=0)
    _report(result, budget)
    assert result.passed, (
        f"criterion {check_id} failed: statistic {result.statistic} vs "
        f"tolerance {result.tolerance}; details {result.details}"
    )
    assert result.runtime < budget, (
        f"criterion {check_id} exceeded its runtime budget: "
        f"{result.runtime:.1f}s >= {budget:.0f}s"
    )
    assert json.dumps(result.payload()) == json.dumps(GOLDEN[check_id])


@pytest.mark.slow
def test_criterion_tracy_widom():
    budget = 1800.0
    result = harness.CHECKS["tracy-widom"](seed=0)
    _report(result, budget)
    assert result.passed, result.details
    assert result.runtime < budget
