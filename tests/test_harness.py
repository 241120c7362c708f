import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from vertexlab import harness
from vertexlab.harness import (
    chi2_gof,
    chi2_two_sample,
    draw_params,
    run_suite,
)
from vertexlab.rng import _draws_at, offset_seed, stream


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


def test_chi2_two_sample_matches_contingency_table():
    rng = stream(98, 0)
    c1 = np.bincount(rng.poisson(3.0, 4000), minlength=20)
    c2 = np.bincount(rng.poisson(3.1, 3000), minlength=20)
    chi2, p = chi2_two_sample(c1, c2)
    # the same pooling by hand: cells under 10 counts in all go to the tail
    keep = c1 + c2 >= 10
    assert 0 < (c1 + c2)[~keep].sum() and keep.sum() >= 5
    table = np.array([np.append(c[keep], c[~keep].sum()) for c in (c1, c2)])
    ref = stats.chi2_contingency(table, correction=False)
    assert np.isclose(chi2, ref[0], rtol=1e-12) and np.isclose(p, ref[1], rtol=1e-9)
    # every cell kept: the empty tail cell adds no degree of freedom
    chi2, p = chi2_two_sample(c1[:6], c2[:6])
    ref = stats.chi2_contingency(np.array([c1[:6], c2[:6]]), correction=False)
    assert np.isclose(chi2, ref[0], rtol=1e-12) and np.isclose(p, ref[1], rtol=1e-9)


def test_draw_params_regimes():
    rng = stream(0, 0)
    for _ in range(25):
        p = draw_params(rng, 5, 3)
        # the moment and q-Whittaker routes need a_i c_j < 1, the nested
        # contours min a > q max a
        assert max(p.a) * max(p.c) < 1.0
        assert min(p.a) > p.q * max(p.a)


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
    spec.write_text(json.dumps({"checks": ["formal-identity"]}))
    code, results = run_suite(str(spec), seed=5)
    assert code == 0 and results[0].check_id == "formal-identity"
    # the seed and the budget scale are arguments, never suite-file keys
    for key in ("seed", "budget_scale"):
        spec.write_text(json.dumps({"checks": ["formal-identity"], key: 5}))
        with pytest.raises(ValueError, match=f"'{key}'"):
            run_suite(str(spec))


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
    spec.write_text(json.dumps({"checks": ids}))
    _, results = run_suite(str(spec), seed=3, budget_scale=0.01)
    assert [r.payload() for r in results] == expected
    # the scaled budgets differ from the defaults: 10, 1 and 1 draws
    assert expected != [harness.CHECKS[cid](seed=3).payload() for cid in ids]


@pytest.mark.parametrize(
    "check_id", ["qwhittaker-n1", "commutation", "fredholm-bruteforce"]
)
def test_fixed_size_checks_take_no_budget(check_id):
    fn = harness.CHECKS[check_id]
    assert fn.default_budget is None
    with pytest.raises(ValueError, match=check_id):
        fn(seed=0, budget=5)


def test_run_suite_leaves_fixed_size_checks_unscaled():
    ids = ["commutation", "formal-identity"]
    _, results = run_suite(ids, seed=2, budget_scale=0.01)
    assert [r.payload() for r in results] == [
        harness.CHECKS["commutation"](seed=2).payload(),
        harness.CHECKS["formal-identity"](seed=2, budget=1).payload(),
    ]


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


def test_z_score_of_one_sample_is_no_evidence():
    details = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dev = harness._z_score(np.array([0.5]), 0.25, details, "k")
    assert dev == math.inf and details["k"] == math.inf
    assert details["no_evidence"] == ["k: standard error nan"]
    # a lone sample equal to the exact value is no deviation, still no evidence
    assert harness._z_score(np.array([0.25]), 0.25, {}, "k") == 0.0


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
def test_run_suite_rejects_nonpositive_budget_scale(scale, tmp_path):
    with pytest.raises(ValueError, match="budget_scale"):
        run_suite(["formal-identity"], budget_scale=scale)
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps({"checks": ["formal-identity"]}))
    with pytest.raises(ValueError, match="budget_scale"):
        run_suite(str(spec), budget_scale=scale)


@pytest.mark.parametrize("scale", [math.inf, 1e308])
def test_run_suite_rejects_infinite_scaled_budgets(scale):
    with pytest.raises(ValueError, match="budget infinite"):
        run_suite(["formal-identity"], budget_scale=scale)


@pytest.mark.parametrize(
    "doc,message",
    [
        ("5", "suite file must be"),
        ("{}", "suite file must be"),
        ('{"checks": 5}', "'checks' must list check ids, got 5"),
        ('{"checks": "lln"}', "'checks' must list check ids, got 'lln'"),
    ],
    ids=["scalar", "no-checks", "checks-scalar", "checks-string"],
)
def test_malformed_suite_file_is_value_error(doc, message, tmp_path):
    spec = tmp_path / "suite.json"
    spec.write_text(doc)
    with pytest.raises(ValueError, match=message):
        run_suite(str(spec))


def test_stream_rejects_out_of_range_keys():
    top = 2**64 - 1
    assert stream(top, top).random() == stream(top, top).random()
    for seed, stream_id, message in [
        (-1, 0, "seed -1 "), (2**64, 0, f"seed {2**64} "),
        (0, -1, "stream id -1 "), (0, 2**64, f"stream id {2**64} "),
    ]:
        with pytest.raises(ValueError, match=message):
            stream(seed, stream_id)


def test_stream_keys_keep_every_bit_of_large_seeds():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stream(2**63, 5).random() != stream(2**63 + 1, 5).random()
        assert stream(2**64 - 1, 12).random() != stream(2**64 - 2, 12).random()


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_draws_at_reads_the_stream_by_position(seed):
    for stream_id in (0, 12):
        for start, n in [(0, 1), (0, 9), (1, 1), (3, 6), (6, 1), (13, 4), (4097, 3)]:
            gen = stream(seed, stream_id)
            gen.random(5)  # what the generator drew before does not matter
            got = _draws_at(gen, start, np.empty(n))
            want = stream(seed, stream_id).random(start + n)[start:]
            assert np.array_equal(got, want)


def test_derived_seeds_wrap_at_top_of_range():
    top = 2**64 - 1
    assert offset_seed(top, 11) == 10
    with pytest.raises(ValueError, match="seed -1 "):
        offset_seed(-1, 11)
    for cid in ("distribution-equality", "schur-matching"):
        _, (res,) = run_suite([cid], seed=top, budget_scale=1e-6)
        assert res.check_id == cid
        with pytest.raises(ValueError, match="seed -1 "):
            run_suite([cid], seed=-1, budget_scale=1e-6)


@pytest.mark.parametrize(
    "check_id", ["stochasticity", "formal-identity", "operator-lemma", "commutation"]
)
def test_checks_gate_on_registered_tolerance(check_id):
    run = harness.CHECKS[check_id]
    args = (0,) if run.default_budget is None else (0, 3)
    _, stat = run.__wrapped__(*args, math.inf)
    assert not run.__wrapped__(*args, np.nextafter(stat, -math.inf))[0]
    assert run.__wrapped__(*args, np.nextafter(stat, math.inf))[0]
