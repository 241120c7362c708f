import collections
import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from vertexlab import harness, moments, qtasep, vertex
from vertexlab.harness import (
    chi2_gof,
    chi2_two_sample,
    draw_params,
    run_suite,
)
from vertexlab.rng import _rows_reader, offset_seed, sampler_stream, stream


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


def test_run_suite_creates_out_dir_before_any_check(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setitem(harness.CHECKS, "formal-identity", lambda **kw: calls.append(kw))
    (tmp_path / "file").write_text("")
    with pytest.raises(FileExistsError):
        run_suite(["formal-identity"], out_dir=tmp_path / "file")
    assert calls == []


# at this check seed the N=1 quadrature's grid doubling at 384 nodes for three
# variables moves the value by 1.0011e-10, just over its 1e-10 bound, and
# raises QuadratureError
QUADRATURE_ERROR_SEED = 3273534616666675981


def test_arithmetic_error_in_a_check_is_a_failure(monkeypatch):
    monkeypatch.setitem(moments.QUAD_NODES, 3, 384)
    alone = harness.CHECKS["qwhittaker-n1"](seed=QUADRATURE_ERROR_SEED)
    assert not alone.passed and alone.statistic == math.inf
    assert alone.details["error"].startswith(
        "QuadratureError: grid doubling moved the value by 1.0011"
    )
    # the suite goes on past the failed check
    code, results = run_suite(["qwhittaker-n1", "formal-identity"], seed=QUADRATURE_ERROR_SEED)
    assert code == 1 and [r.passed for r in results] == [False, True]
    assert results[0].payload() == alone.payload()


@pytest.mark.parametrize("seed", [QUADRATURE_ERROR_SEED, 961710])
def test_qwhittaker_n1_passes_where_384_nodes_missed_the_doubling_bound(seed):
    # at 384 nodes for three variables, doubling moved these draws by
    # 1.0011e-10 and 1.067e-10, over the 1e-10 bound
    res = harness.CHECKS["qwhittaker-n1"](seed=seed)
    assert res.passed and "error" not in res.details, res.details


def test_reports_are_strict_json(tmp_path, monkeypatch):
    # an infinite statistic and NaN or infinite details used to be written
    # as the non-JSON literals Infinity and NaN
    monkeypatch.setattr(harness, "CHECKS", dict(harness.CHECKS))

    @harness.check("no-evidence", 1.0, budget=None)
    def no_evidence(seed, tol):
        return False, math.inf, {"p": math.nan, "z": [-math.inf, 1.5], "n": 3}

    code, _ = run_suite(["no-evidence"], out_dir=tmp_path)
    assert code == 1
    doc = json.loads((tmp_path / "no-evidence.json").read_text(),
                     parse_constant=pytest.fail)
    assert doc["statistic"] is None
    assert doc["details"] == {"p": None, "z": [None, 1.5], "n": 3}


def test_check_turns_only_arithmetic_errors_into_failures(monkeypatch):
    monkeypatch.setattr(harness, "CHECKS", dict(harness.CHECKS))

    @harness.check("divides-by-seed", 1.0, budget=None)
    def divides(seed, tol):
        return 1 / seed <= tol, 1 / seed

    @harness.check("rejects-input", 1.0, budget=None)
    def rejects(seed, tol):
        raise ValueError("not an arithmetic error")

    assert divides(seed=2).passed
    r = divides(seed=0)
    assert (r.passed, r.statistic) == (False, math.inf)
    assert r.details == {"error": "ZeroDivisionError: division by zero"}
    with pytest.raises(ValueError, match="not an arithmetic error"):
        rejects()


def test_reports_reproducible():
    _, r1 = run_suite(["stochasticity", "sum-to-one"], seed=7)
    _, r2 = run_suite(["stochasticity", "sum-to-one"], seed=7)
    assert [r.payload() for r in r1] == [r.payload() for r in r2]


def test_checks_sample_each_window_and_path_once(monkeypatch):
    # distribution-equality reads its 16 cells from one quadrant window and
    # one X(P) run per N, schur-matching its 9 cells from one window; neither
    # reruns a prefix it already ran, as one sample_mixed_batch run per T would
    calls = []

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(qtasep, "sample_mixed_batch")
    count(qtasep, "sample_mixed_path")
    count(vertex, "sample_quadrant_batch")
    per_check = {}
    for cid in ("distribution-equality", "schur-matching"):
        calls.clear()
        run_suite([cid], seed=0, budget_scale=0.01)
        per_check[cid] = dict(collections.Counter(calls))
    assert per_check["distribution-equality"] == {
        "sample_mixed_path": 4, "sample_quadrant_batch": 1
    }
    assert per_check["schur-matching"] == {"sample_quadrant_batch": 1}


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
    assert sampler_stream(top).random() == sampler_stream(top).random()
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=f"seed {seed} "):
            sampler_stream(seed)


def test_stream_keys_keep_every_bit_of_large_seeds():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stream(2**63, 5).random() != stream(2**63 + 1, 5).random()
        assert stream(2**64 - 1, 12).random() != stream(2**64 - 2, 12).random()
        assert sampler_stream(2**63).random() != sampler_stream(2**63 + 1).random()


def test_parameter_streams_are_pinned():
    # the first draws of stream(seed, k): the checks' parameter draws read
    # these bits, and so do the known-defect seeds of route-triangle
    # (957061, stream 5) and sum-to-one (1080, 1089 and 1368, stream 2)
    pinned = {
        (0, 0): [0.011546754286331562, 0.24154919656271812, 0.11142585551493822],
        (0, 1): [0.8133540609793564, 0.7513314251083365, 0.6716490436969984],
        (0, 12): [0.5969388834036607, 0.45590154311006625, 0.17954184423114494],
        (957061, 5): [0.6805491730924647, 0.6090098404807494, 0.7296523279040492],
        (1080, 2): [0.5917146929613212, 0.3973780484362325, 0.11738566357446922],
        (1089, 2): [0.16995112776301236, 0.2911593286289865, 0.7521177393022208],
        (1368, 2): [0.08627195210505267, 0.9203417259416056, 0.18764723125422977],
        (2**64 - 1, 2**64 - 1): [0.4268615279451663, 0.5715123063997486,
                                 0.9912623766802293],
    }
    for (seed, stream_id), first in pinned.items():
        assert stream(seed, stream_id).random(3).tolist() == first


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_rows_reader_reads_the_stream_by_position(seed):
    def block(start, rows, width, skip=0):
        """rows x width uniforms read in order from position skip + start."""
        ref = sampler_stream(seed)
        for _ in range(skip // 2**39):
            ref.bit_generator.advance(2**39)
        return ref.random(start + rows * width)[start:].reshape(rows, width)

    # (block start, rows, width, chunk rows [r0, r1))
    cases = [(0, 5, 1, 0, 5), (3, 5, 1, 2, 4), (13, 7, 3, 3, 7), (0, 4, 6, 1, 2),
             (9, 7, 0, 2, 5), (11, 6, 4, 4, 4), (0, 3, 5, 3, 3),
             (4097, 40, 6, 17, 23), (100_003, 3, 5, 1, 3)]
    for start, rows, width, r0, r1 in cases:
        read = _rows_reader(seed, r0, r1)
        want = block(start, rows, width)[r0:r1]
        out = np.empty((r1 - r0, width))
        assert read(start, out) is out and np.array_equal(out, want)
        # a second read, of the block at 0, does not depend on the first
        assert np.array_equal(read(0, np.empty_like(out)), block(0, rows, width)[r0:r1])
    # far positions, up to 2**40 + 2**20 + 3, against two jumps of 2**39
    # and an in-order read
    for start, rows, width, r0, r1 in [(0, 1, 1, 0, 1), (3, 4, 1, 1, 4),
                                       (2**20, 2, 3, 1, 2)]:
        got = _rows_reader(seed, r0, r1)(2**40 + start, np.empty((r1 - r0, width)))
        assert np.array_equal(got, block(start, rows, width, 2**40)[r0:r1])
    # the sampler stream is not a parameter stream
    assert sampler_stream(seed).random() != stream(seed, 0).random()


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


def test_check_results_are_python_bool_and_float():
    # local-coupling and formal-identity compute numpy scalars; the wrapper
    # hands back Python values, so json.dumps takes them as they are
    for cid in ("local-coupling", "formal-identity"):
        _, (result,) = run_suite([cid], seed=0, budget_scale=0.2)
        assert type(result.passed) is bool and type(result.statistic) is float
        json.dumps([result.passed, result.statistic])


@pytest.mark.parametrize("seed", [1089, 1150, 1357])
def test_sum_to_one_seeds_the_permutation_loop_missed(seed):
    # the T!-term loop read 4.45e-10, 1.56e-10 and 1.28e-9 on these draws
    assert harness.CHECKS["sum-to-one"](seed=seed, budget=1).passed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the symmetrization "
                   "cancels near colliding u's past 1e-10")
@pytest.mark.parametrize("seed", [1080, 1368])
def test_sum_to_one_known_misses(seed):
    # statistic 2.07e-10 at seed 1080 and 2.73e-10 at seed 1368
    assert harness.CHECKS["sum-to-one"](seed=seed, budget=1).passed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: residue and product "
                   "moments of route-triangle disagree past 1e-9")
@pytest.mark.parametrize("seed", [957061, 144103])
def test_route_triangle_known_misses(seed):
    # statistic 9.81e-8 at seed 957061 and 6.06e-9 at seed 144103
    assert harness.CHECKS["route-triangle"](seed=seed).passed
