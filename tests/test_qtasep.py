import itertools
import json
import math
import os
import sys
import time

import numpy as np
import pytest

from vertexlab import harness, rng
from vertexlab.core import INFINITY, ModelParams
from vertexlab.qtasep import (
    EXACT_TAIL_CUT,
    GEOM_TAIL_CUT,
    _IndexedSearch,
    _gap_cap,
    _geom_cdf_rows,
    _jump_tables,
    ParticleConfig,
    TimeLikePath,
    bernoulli_move,
    box_configs,
    gaps,
    geometric_move,
    move_law,
    q_geom_law,
    q_geom_pmf,
    run_mixed,
    sample_mixed_batch,
    sample_mixed_path,
    transition_matrix,
)
from vertexlab.rng import stream


def test_q_geom_examples():
    assert q_geom_pmf(0, 0.3, 0.5, 0) == 1.0
    assert abs(q_geom_pmf(1, 0.3, 0.5, 0) - 0.7) < 1e-15
    assert abs(q_geom_pmf(1, 0.3, 0.5, 1) - 0.3) < 1e-15
    vals = [q_geom_pmf(2, 0.3, 0.5, j) for j in range(3)]
    assert np.allclose(vals, [0.595, 0.315, 0.09], atol=1e-15)
    assert abs(sum(vals) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        q_geom_pmf(2, 0.3, 0.5, 3)


def test_q_geom_small_q_is_truncated_geometric():
    # q -> 0: p_{m,alpha}(j) -> alpha^j (1-alpha) for j < m, alpha^m at j = m
    alpha, m, q = 0.4, 5, 1e-12
    for j in range(m):
        assert abs(q_geom_pmf(m, alpha, q, j) - alpha**j * (1 - alpha)) < 1e-9
    assert abs(q_geom_pmf(m, alpha, q, m) - alpha**m) < 1e-9


def test_q_geom_infinite_law_normalizes():
    pairs, deficit = q_geom_law(INFINITY, 0.45, 0.5)
    assert deficit <= 1e-14
    assert abs(sum(w for _, w in pairs) + deficit - 1.0) < 1e-13


def test_particle_config():
    cfg = ParticleConfig.step(3)
    assert cfg.x == (-1, -2, -3)
    assert gaps(cfg.x) == [INFINITY, 0, 0]
    with pytest.raises(ValueError):
        ParticleConfig((0, 0))


def test_geometric_move_blocking_and_rate():
    rng = stream(0, 0)
    cfg = ParticleConfig((0, -1))
    # gap 0 between particles: the second never moves
    for _ in range(50):
        out = geometric_move(cfg, (1.0, 1.0), 0.4, 0.5, rng)
        assert out.x[1] == -1
        assert out.x[0] > out.x[1]
    with pytest.raises(ValueError):
        geometric_move(cfg, (1.0, 1.0), 1.1, 0.5, rng)


def test_bernoulli_move_examples():
    rng = stream(1, 0)
    # L=1, a=1, beta=1: jump probability 1/2
    hits = 0
    n = 40_000
    for _ in range(n):
        out = bernoulli_move(ParticleConfig((0,)), (1.0,), 1.0, 0.5, rng)
        hits += out.x[0] == 1
    assert abs(hits / n - 0.5) < 5 * math.sqrt(0.25 / n)
    # gap 0 and predecessor stays: blocked surely
    law, _ = move_law("BER", {((0, -1), None): 1.0}, (1.0, 1.0), 1.0, 0.5)
    assert ((0, 0), None) not in law  # x2 cannot jump onto x1


def test_moves_preserve_order_property():
    rng = stream(2, 0)
    cfg = ParticleConfig.step(5)
    a = (1.1, 0.9, 1.0, 1.05, 0.95)
    for _ in range(200):
        cfg = geometric_move(cfg, a, 0.3, 0.5, rng)
        cfg = bernoulli_move(cfg, a, 0.8, 0.5, rng)
        assert all(cfg.x[i] > cfg.x[i + 1] for i in range(4))


def test_time_like_path():
    path = TimeLikePath.from_moves("NTN")
    assert path.points == ((1, 0), (2, 0), (2, 1), (3, 1))
    with pytest.raises(ValueError):
        TimeLikePath(((0, 0),))
    with pytest.raises(ValueError):
        TimeLikePath(((1, 0), (2, 1)))


def _params():
    return ModelParams(
        q=0.5,
        u=(-1.0, -0.8, -1.2),
        a=(1.0, 0.9, 1.1),
        nu=(0.3, 0.25, 0.4),
    )


def test_run_mixed_start_and_pure_bernoulli():
    p = _params()
    traj = run_mixed(TimeLikePath.from_moves(""), p, seed=0)
    assert traj.x_values == (0,)  # step start: x_1 + 1 = 0
    # pure T-increments: particle 1 performs Bernoulli jumps
    traj = run_mixed(TimeLikePath.from_moves("TTT"), p, seed=0, L=1)
    assert all(
        b - a in (0, 1) for a, b in zip(traj.x_values, traj.x_values[1:])
    )


def test_path_steps_schedule_the_moves():
    p = ModelParams(q=0.5, u=(-0.9, -1.1), a=(1.0, 0.8, 1.2), nu=(0.0, 0.4, 0.0))
    path = TimeLikePath.from_moves("TNT")
    assert list(path.steps(p)) == [
        (1, 1, "BER", 0.9), (2, 1, "GEOM", 0.5), (2, 2, "BER", 1.1)
    ]
    # the order-r coupling reads alpha = c_{N'+r-1}
    with pytest.raises(ValueError, match=r"nu_3 > 0 \(alpha = 0.0\)"):
        list(path.steps(p, 2))
    with pytest.raises(ValueError, match=r"nu_3 > 0"):
        run_mixed(TimeLikePath.from_moves("NN"), p, 0)


def test_run_mixed_two_move_law():
    # (N,T) = (2,1): matches brute-force enumeration of the 2-move law
    p = ModelParams(q=0.5, u=(-0.9,), a=(1.0, 1.0), nu=(0.35, 0.3))
    law, _ = move_law("GEOM", {((-1, -2), None): 1.0}, p.a, p.c[1], p.q)
    law, _ = move_law("BER", law, p.a, 0.9, p.q)
    exact: dict = {}
    for (cfg, _), pr in law.items():
        exact[cfg[1] + 2] = exact.get(cfg[1] + 2, 0.0) + pr
    n = 60_000
    counts: dict = {}
    for s in range(n):
        traj = run_mixed(TimeLikePath.from_moves("NT"), p, seed=s)
        counts[traj.x_values[-1]] = counts.get(traj.x_values[-1], 0) + 1
    for k, want in exact.items():
        got = counts.get(k, 0) / n
        assert abs(got - want) < 5 * math.sqrt(want * (1 - want) / n) + 1e-9


def test_trajectory_jsonl():
    p = _params()
    traj = run_mixed(TimeLikePath.from_moves("TN"), p, seed=4)
    lines = traj.to_jsonl().strip().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[1])
    assert set(rec) == {"t", "N", "T", "move", "x", "X_value"}
    assert rec["move"].startswith("BER")


def test_transition_matrix_row_sums():
    a = (1.0, 0.9)
    B = transition_matrix("BER", a, 2, (-5, 5), beta=0.8, q=0.5)
    # interior rows are exactly stochastic; only the top boundary leaks
    for r, s in enumerate(B.states):
        if s[0] < 5:
            assert abs(B.matrix[r].sum() - 1.0) < 1e-14
    G = transition_matrix("GEOM", a, 2, (-5, 5), alpha=0.3, q=0.5)
    for r in range(len(G.states)):
        assert G.matrix[r].sum() <= 1.0 + 1e-12
        assert abs(G.matrix[r].sum() + G.row_deficit[r] - 1.0) < 1e-11


def test_transition_matrix_names_a_missing_move_parameter():
    with pytest.raises(ValueError, match="alpha"):
        transition_matrix("GEOM", (1.0,), 1, (-2, 2), beta=0.8, q=0.5)
    with pytest.raises(ValueError, match="beta"):
        transition_matrix("BER", (1.0,), 1, (-2, 2), alpha=0.3, q=0.5)
    with pytest.raises(TypeError, match="'q'"):  # no default picks a model
        transition_matrix("BER", (1.0,), 1, (-2, 2), beta=0.8)


def test_move_law():
    # the tag rides along; an empty configuration moves nowhere
    x, a, q = (0, -2), (1.0, 0.9), 0.5
    for move in ("BER", "GEOM"):
        law, _ = move_law(move, {(x, ("seen", 3)): 1.0}, a, 0.3, q)
        assert {tag for _, tag in law} == {("seen", 3)}
        assert move_law(move, {((), "t"): 0.5}, a, 0.3, q) == ({((), "t"): 0.5}, 0.0)
    with pytest.raises(ValueError, match="unknown move 'HOP'"):
        move_law("HOP", {(x, None): 1.0}, a, 0.3, q)


def test_move_law_bernoulli_is_the_product_of_particle_factors():
    # before the move particle 2 sits at gap 0 and particle 3 at gap 1
    x, a, beta, q = (0, -1, -3), (1.0, 0.9, 1.2), 0.8, 0.5
    free = [ai * beta / (1.0 + ai * beta) for ai in a]
    want = {}
    for d in itertools.product((0, 1), repeat=3):
        p = (free[0], free[1] if d[0] else 0.0, free[2] if d[1] else free[2] * (1 - q))
        w = math.prod(pi if di else 1.0 - pi for pi, di in zip(p, d))
        if w:
            want[tuple(xi + di for xi, di in zip(x, d)), "s"] = w
    law, deficit = move_law("BER", {(x, "s"): 1.0}, a, beta, q)
    assert ((0, 0, -3), "s") not in law  # blocked: particle 1 stayed
    assert deficit == 0.0 and law.keys() == want.keys()
    assert all(math.isclose(law[k], w, rel_tol=1e-15) for k, w in want.items())


def test_move_law_geometric_is_the_product_of_particle_factors():
    # gaps: infinite for particle 1, 0 for particle 2, 1 for particle 3
    x, a, alpha, q = (0, -1, -3), (1.0, 0.9, 1.2), 0.4, 0.5
    pairs, cut = q_geom_law(INFINITY, a[0] * alpha, q, EXACT_TAIL_CUT)
    want = {}
    for j1, w1 in pairs:
        for j3 in (0, 1):
            w = w1 * q_geom_pmf(0, a[1] * alpha, q, 0) * q_geom_pmf(1, a[2] * alpha, q, j3)
            want[(x[0] + j1, x[1], x[2] + j3), None] = w
    law, deficit = move_law("GEOM", {(x, None): 1.0}, a, alpha, q)
    assert cut > 0.0 and math.isclose(deficit, cut, rel_tol=1e-15)
    assert law.keys() == want.keys()
    assert all(math.isclose(law[k], w, rel_tol=1e-15) for k, w in want.items())


@pytest.mark.parametrize("move,param", [("BER", 0.8), ("GEOM", 0.3)])
def test_move_law_merges_sources_by_weight(move, param):
    a, q = (1.0, 0.9), 0.5
    one = {((0, -2), "t"): 0.25, ((1, -2), "t"): 0.75}
    law, deficit = move_law(move, one, a, param, q)
    want: dict = {}
    for key, w in one.items():
        single, _ = move_law(move, {key: 1.0}, a, param, q)
        for k, pr in single.items():
            want[k] = want.get(k, 0.0) + w * pr
    assert law.keys() == want.keys()
    assert len(law) < 2 * len(single)  # the two sources share targets
    assert all(abs(law[k] - w) <= 1e-16 for k, w in want.items())


@pytest.mark.parametrize("move,param", [("BER", 0.05), ("GEOM", 0.3)])
def test_move_law_drops_weights_at_the_floor_into_the_deficit(move, param):
    a, q = (1.0, 0.9, 1.1), 0.5
    states = {((0, -1, -3), "a"): 0.6, ((2, -1, -2), "b"): 0.3, ((2, 0, -2), "a"): 0.1}
    law, deficit = move_law(move, states, a, param, q, floor=1e-3)
    assert deficit > 0.0 and min(law.values()) > 1e-3
    assert abs(sum(law.values()) + deficit - sum(states.values())) <= 1e-15


def test_commutation_example():
    a = (1.0, 0.9)
    q = 0.5
    B = transition_matrix("BER", a, 2, (-5, 5), beta=0.8, q=q)
    G = transition_matrix("GEOM", a, 2, (-5, 5), alpha=0.3, q=q)
    assert np.abs(B.matrix @ G.matrix - G.matrix @ B.matrix).max() <= 1e-10


def test_path_independence_endpoint_law():
    # law of x_3(3,2) agrees between two distinct time-like paths
    p = ModelParams(
        q=0.5, u=(-0.7, -1.1), a=(1.0, 0.95, 1.05), nu=(0.2, 0.25, 0.15)
    )
    L, box = 3, (-3, 14)
    mats = {}
    for t in range(2):
        mats[f"B{t}"] = transition_matrix("BER", p.a, L, box, beta=-p.u[t], q=p.q)
    for n in (2, 3):
        mats[f"G{n}"] = transition_matrix(
            "GEOM", p.a, L, box, alpha=p.c[n - 1], q=p.q
        )
    idx = mats["B0"].index[(-1, -2, -3)]
    v0 = np.zeros(len(mats["B0"].states))
    v0[idx] = 1.0
    law = {}
    for order in (["G2", "G3", "B0", "B1"], ["B0", "G2", "B1", "G3"]):
        v = v0.copy()
        for mv in order:
            v = v @ mats[mv].matrix
        marg: dict = {}
        for i, s in enumerate(mats["B0"].states):
            marg[s[2]] = marg.get(s[2], 0.0) + v[i]
        law[tuple(order)] = marg
    laws = list(law.values())
    keys = set(laws[0]) | set(laws[1])
    tv = 0.5 * sum(abs(laws[0].get(k, 0) - laws[1].get(k, 0)) for k in keys)
    assert tv <= 1e-10


def test_box_configs_lexicographic():
    states = box_configs(2, (-2, 1))
    assert states[0] == (1, 0)
    assert all(
        states[i] > states[i + 1] or True for i in range(len(states) - 1)
    )
    assert len(states) == 6  # C(4, 2)


def test_sample_mixed_batch_matches_exact():
    p = ModelParams(q=0.5, u=(-0.9, -1.1), a=(1.1, 0.9, 1.0), nu=(0.0, 0.3, 0.25))
    N, T = 3, 2
    dist = {((-1, -2, -3), None): 1.0}
    for n in range(2, N + 1):
        dist, _ = move_law("GEOM", dist, p.a, p.c[n - 1], p.q)
    for t in range(T):
        dist, _ = move_law("BER", dist, p.a, -p.u[t], p.q)
    exact: dict = {}
    for (cfg, _), pr in dist.items():
        exact[cfg[N - 1]] = exact.get(cfg[N - 1], 0.0) + pr
    S = 200_000
    X = sample_mixed_batch(p, N, T, S, seed=3)
    emp = {v: c / S for v, c in zip(*np.unique(X[:, N - 1], return_counts=True))}
    for k, want in exact.items():
        se = math.sqrt(max(want * (1 - want), 1e-12) / S)
        assert abs(emp.get(k, 0.0) - want) < 5 * se + 1e-9


def test_sample_mixed_batch_first_jump_not_capped():
    # a_1 * c_2 = 0.95: this law has 3.9% of its mass beyond jump 64
    p = ModelParams(q=0.5, u=(-1.0,), a=(1.9, 1.0), nu=(0.0, 0.5))
    S = 200_000
    jumps = sample_mixed_batch(p, 2, 0, S, seed=11)[:, 0] + 1
    pairs, _ = q_geom_law(INFINITY, 0.95, 0.5)
    mean = sum(j * w for j, w in pairs)
    var = sum(j * j * w for j, w in pairs) - mean**2
    z = (jumps.mean() - mean) / math.sqrt(var / S)
    assert abs(z) < 4.0


def test_sample_mixed_batch_bernoulli_only_with_spectators():
    # N = 1 builds no jump table; the blocking factor q^gap still applies
    p = ModelParams(q=0.6, u=(-0.8, -1.3), a=(1.2, 0.9, 1.0), nu=(0.0, 0.3, 0.4))
    dist = {((-1, -2, -3), None): 1.0}
    for t in range(2):
        dist, _ = move_law("BER", dist, p.a, -p.u[t], p.q)
    S = 200_000
    X = sample_mixed_batch(p, 1, 2, S, seed=5, L=3)
    emp = {tuple(r): c / S for r, c in zip(*np.unique(X, axis=0, return_counts=True))}
    for (cfg, _), want in dist.items():
        se = math.sqrt(max(want * (1 - want), 1e-12) / S)
        assert abs(emp.get(cfg, 0.0) - want) < 5 * se + 1e-9


def test_sample_mixed_batch_checks_the_path_as_run_mixed_does():
    p = ModelParams(q=0.5, u=(-1.0, -0.8), a=(1.0, 0.9, 1.1), nu=(0.2, 0.3, 0.4))
    with pytest.raises(ValueError, match="L too small for the path"):
        sample_mixed_batch(p, 3, 1, 5, 0, L=2)
    with pytest.raises(ValueError, match="L too small for the path"):
        run_mixed(TimeLikePath.from_moves("NNT"), p, 0, L=2)
    # the path reader runs the path's own window, which p must hold
    with pytest.raises(ValueError, match="window exceeds available parameters"):
        run_mixed(TimeLikePath.from_moves("NNNT"), p, 0)
    with pytest.raises(ValueError, match="window exceeds available parameters"):
        sample_mixed_path(TimeLikePath.from_moves("NNNT"), p, 5, 0)
    with pytest.raises(ValueError, match="need N >= 1 and T >= 0"):
        sample_mixed_batch(p, 0, 1, 5, 0)
    # nu_2 = 0 leaves the geometric move to N = 2 without a rate
    p0 = ModelParams(q=0.5, u=(-1.0,), a=(1.0, 0.9), nu=(0.2, 0.0))
    message = r"geometric move needs nu_2 > 0 \(alpha = 0.0\)"
    with pytest.raises(ValueError, match=message):
        sample_mixed_batch(p0, 2, 1, 5, 0)
    with pytest.raises(ValueError, match=message):
        run_mixed(TimeLikePath.from_moves("NT"), p0, 0)
    with pytest.raises(ValueError, match=message):
        sample_mixed_path(TimeLikePath.from_moves("TN"), p0, 5, 0)


# a_2 beta is small, so particle 2 falls far behind particle 1 under
# Bernoulli moves and its gap passes _gap_cap(0.05) = 11, where the kernel
# reads q^gap as q^11
_FAR_BEHIND = ModelParams(q=0.05, u=(-20.0,) * 40, a=(1.0, 0.05, 1.0), nu=(0.0, 0.5, 0.5))


def test_sample_mixed_batch_bits_do_not_depend_on_chunking(monkeypatch):
    pools = []

    class RecordingPool(rng.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    def chunked(cpus, chunk_uniforms, p, N, T, R, seed, L):
        """sample_mixed_batch, or sample_mixed_path where N is a path."""
        monkeypatch.setattr(rng, "_chunk_count", lambda: cpus)
        monkeypatch.setattr(rng, "_CHUNK_UNIFORMS", max(chunk_uniforms, 1))
        if isinstance(N, str):
            return sample_mixed_path(TimeLikePath.from_moves(N), p, R, seed)
        return sample_mixed_batch(p, N, T, R, seed, L=L)

    monkeypatch.setattr(rng, "ThreadPoolExecutor", RecordingPool)
    distinct = harness.draw_params(stream(8, 0), 6, 4, bernoulli=True)
    repeated = ModelParams(q=0.45, u=(-1.1,) * 5, a=(1.0, 0.8) * 3,
                           nu=(0.0,) + (0.32, 0.4) * 2 + (0.32,))
    tw = ModelParams(q=0.5, u=(-1.0,) * 12, a=(1.0,) * 6, nu=(0.0,) + (0.5,) * 5)
    cases = [  # (params, N, T, R, seed, L)
        (distinct, 4, 4, 5, 1, None),  # fewer replicas than 7 chunks
        (distinct, 3, 2, 0, 2, 5),  # no replica
        (distinct, 1, 4, 40, 3, 6),  # N = 1: Bernoulli moves only, L > N
        (distinct, 5, 0, 41, 2**64 - 1, None),  # T = 0: geometric moves only
        (repeated, 6, 5, 30, 5, None),
        (tw, 6, 12, 23, 6, None),  # the Tracy-Widom parameters at M = 6
        (_FAR_BEHIND, 1, 40, 50, 7, 1),  # one particle a row
        (_FAR_BEHIND, 1, 40, 50, 8, 3),  # gaps past _gap_cap
        # X(P) along a path: (params, moves, None, R, seed, None)
        (distinct, "NTNNT", None, 37, 9, None),
        (distinct, "TTNTNN", None, 5, 10, None),  # fewer replicas than 7 chunks
        (repeated, "NNTNTTNNTT", None, 30, 11, None),
        (tw, "NT" * 5 + "T" * 2, None, 23, 12, None),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter lock far more often
    try:
        for p, N, T, R, seed, L in cases:
            if isinstance(N, str):
                path = TimeLikePath.from_moves(N)
                width, shape = path.window(p, None), (R, len(path.points))
            else:
                width, shape = L or N, (R, L or N)
            size = R * width  # uniforms a move
            want = chunked(1, size, p, N, T, R, seed, L)  # one chunk, no thread
            assert want.shape == shape
            # min(R, cpus) chunks, then about 4 chunks on one CPU
            for cpus, chunk_uniforms in ((2, size - 1), (3, size - 1), (7, size - 1),
                                         (1, size // 4)):
                got = chunked(cpus, chunk_uniforms, p, N, T, R, seed, L)
                assert got.dtype == want.dtype and np.array_equal(got, want)
    finally:
        sys.setswitchinterval(interval)
    # never more threads than CPUs
    assert pools and max(pools) <= len(os.sched_getaffinity(0))
    # a rate a_i * alpha outside (0, 1) is rejected by q_geom_pmf while the
    # jump tables are built, before any worker starts: a_1 * c_2 = 1.5, and
    # then a_2 * c_3 = 1.0 at particle 2 only (a_1 * c_3 = 0.5)
    bad_first = ModelParams(q=0.5, u=(-1.0,), a=(3.0, 1.0), nu=(0.0, 0.5))
    bad_bulk = ModelParams(q=0.5, u=(-1.0,), a=(1.0, 2.0, 1.0), nu=(0.0, 0.3, 0.5))
    for bad, N, rate in ((bad_first, 2, "1.5"), (bad_bulk, 3, "1.0")):
        for cpus in (1, 2, 7):
            pools.clear()
            with pytest.raises(ValueError, match=rf"alpha must lie in \(0,1\), got {rate}$"):
                chunked(cpus, 1, bad, N, 1, 50, 0, None)
            assert pools == []


def test_sample_mixed_path_passes_through_every_prefix():
    # move m reads stream positions m * R * L onward, so column t of X(P) is
    # the run of the path's first t moves with the same seed and L, bit for
    # bit; the path runs L = its largest N particles, so the prefix runs to
    # points with n < N carry L - n > 0 spectators
    distinct = harness.draw_params(stream(8, 0), 6, 4, bernoulli=True)
    repeated = ModelParams(q=0.45, u=(-1.1,) * 5, a=(1.0, 0.8) * 3,
                           nu=(0.0,) + (0.32, 0.4) * 2 + (0.32,))
    cases = [  # (params, N, T, R, seed) of the path N^{N-1} T^T
        (distinct, 4, 4, 300, 1),
        (distinct, 1, 4, 200, 2),  # N = 1: Bernoulli moves only
        (distinct, 5, 0, 200, 3),  # T = 0: geometric moves only
        (distinct, 1, 0, 50, 4),  # the start point alone
        (repeated, 6, 5, 250, 6),  # repeated rates
    ]
    for p, N, T, R, seed in cases:
        path = TimeLikePath.from_moves("N" * (N - 1) + "T" * T)
        xp = sample_mixed_path(path, p, R, seed)
        assert xp.shape == (R, N + T) and xp.dtype == np.int64
        for t, (n, tt) in enumerate(path.points):
            x = sample_mixed_batch(p, n, tt, R, seed, L=N)
            assert np.array_equal(xp[:, t], x[:, n - 1] + n), (N, T, t)
    # a mixed path: a prefix that reaches N = 4 runs the same L = 4 particles,
    # so its run is the first columns of the whole run
    path = TimeLikePath.from_moves("NTNNT")
    xp = sample_mixed_path(path, distinct, 400, 7)
    assert not xp[:, 0].any()  # X(P) = x_1 + 1 = 0 at the start (1, 0)
    prefix = TimeLikePath(path.points[:5])  # NTNN
    assert np.array_equal(sample_mixed_path(prefix, distinct, 400, 7), xp[:, :5])
    # the one prefix of the form N^{N-1} T^T past the start
    x = sample_mixed_batch(distinct, 2, 0, 400, 7, L=4)
    assert np.array_equal(xp[:, 1], x[:, 1] + 2)


def test_bernoulli_scan_matches_run_mixed_at_the_edges():
    # one replica of a Bernoulli-only path reads its uniforms in the order of
    # run_mixed, at one particle and past the gap cap
    path = TimeLikePath.from_moves("T" * 40)
    widest = 0
    for L in (1, 3):
        for seed in range(10):
            traj = run_mixed(path, _FAR_BEHIND, seed, L=L)
            configs = traj.configs
            got = sample_mixed_batch(_FAR_BEHIND, 1, 40, 1, seed, L=L)
            assert got.shape == (1, L) and tuple(got[0]) == configs[-1].x
            if L == 1:  # and X(P) at every point of the path
                xp = sample_mixed_path(path, _FAR_BEHIND, 1, seed)
                assert xp.shape == (1, 41) and tuple(xp[0]) == traj.x_values
            widest = max([widest] + [g for c in configs[:-1] for g in gaps(c.x)[1:]])
    assert widest > _gap_cap(_FAR_BEHIND.q)


_TABLES = [(0.5, 0.5), (0.95, 0.5), (0.05, 0.95), (0.83, 0.3)]


@pytest.mark.parametrize("alpha,q", _TABLES)
def test_geom_cdf_rows_exact_and_cut_at_tail(alpha, q):
    cdf, rows = _geom_cdf_rows(alpha, q)
    # rows lays row m of cdf out on [m, m + 1), sorted for one searchsorted
    assert rows.shape == (cdf.size,) and np.all(np.diff(rows) >= 0)
    m_cap, j_cap = cdf.shape[0] - 1, cdf.shape[1] - 1
    for m in (0, 1, j_cap // 2, j_cap, m_cap - 1):
        row = [q_geom_pmf(m, alpha, q, j) for j in range(min(m, j_cap) + 1)]
        assert np.array_equal(cdf[m, : len(row)], np.cumsum(row))
    pairs, deficit = q_geom_law(INFINITY, alpha, q)
    assert np.array_equal(cdf[m_cap], np.cumsum([w for _, w in pairs]))
    assert deficit <= GEOM_TAIL_CUT
    # the infinite-gap row stands in for every gap >= m_cap
    inf = dict(pairs)
    for m in (m_cap, m_cap + 7, 2 * m_cap):
        tv = 0.5 * sum(abs(q_geom_pmf(m, alpha, q, j) - inf.get(j, 0.0)) for j in range(m + 1))
        assert tv <= GEOM_TAIL_CUT


@pytest.mark.parametrize("alpha,q", _TABLES + [(0.95, 0.95)])
def test_indexed_search_equals_searchsorted(alpha, q):
    cdf, rows = _geom_cdf_rows(alpha, q)
    u_edges = np.array([0.0, 2.0**-53, 1.0 - 2.0**-53])
    rng = np.random.default_rng(0)
    # the lifted table, searched at m + u, and the unlifted infinite-gap row
    for table, row_starts in ((rows, np.arange(cdf.shape[0])), (cdf[-1], np.zeros(1))):
        search = _IndexedSearch(table)
        span = math.ceil(table[-1])
        keys = np.concatenate([
            np.arange(search.guide.size) / search.K,  # every bucket edge t/K
            table,
            np.nextafter(table, -np.inf),
            np.nextafter(table, np.inf),
            (row_starts[:, None] + u_edges).ravel(),
            rng.random(10**5) * span,
        ])
        keys = keys[(keys >= 0.0) & (keys <= span)]
        got = search(keys)
        assert np.array_equal(got, np.searchsorted(table, keys))
        assert got.dtype == search.guide.dtype == np.int32
        assert (search.guide < 0).any()  # the fallback is taken too


@pytest.mark.parametrize("alpha,q", _TABLES)
def test_bulk_jump_is_never_negative(alpha, q):
    # where m + u rounds to m, the left search on the lifted table lands on
    # row m - 1's last entries, lifted to exactly m: before the jump was held
    # at 0, u = 0.0 at gap 1 of (0.5, 0.5) gave the jump -48
    cdf, _ = _geom_cdf_rows(alpha, q)
    m_cap, j_cap = cdf.shape[0] - 1, cdf.shape[1] - 1
    bulk, _ = _jump_tables(alpha, q)
    g = np.arange(1, m_cap + 2)
    for u in (0.0, 2.0**-53):
        assert not bulk(g, np.full(g.size, u)).any()
    for u in (1.0 - 2.0**-53, *np.random.default_rng(1).random(5)):
        j = bulk(g, np.full(g.size, u))
        assert (j >= 0).all() and (j <= np.minimum(g, j_cap)).all()


def test_q_geom_law_is_memoized_and_read_only():
    law = q_geom_law(3, 0.4, 0.5)
    assert q_geom_law(3, 0.4, 0.5) is law
    pairs, deficit = law
    assert type(pairs) is tuple and deficit == 0.0
    assert pairs == tuple((j, q_geom_pmf(3, 0.4, 0.5, j)) for j in range(4))


@pytest.mark.parametrize("alpha", [0.999, 0.9999])
@pytest.mark.parametrize("q", [0.5, 0.9])
@pytest.mark.parametrize("tail", [GEOM_TAIL_CUT, EXACT_TAIL_CUT])
def test_q_geom_law_near_rate_one_ends(alpha, q, tail):
    # near rate 1 the summed weights can stall short of 1 - tail; the cut
    # used to add zero weights forever there, and recomputed (q; q)_j for
    # every term
    t0 = time.perf_counter()
    try:
        pairs, deficit = q_geom_law(INFINITY, alpha, q, tail)
        assert deficit <= tail and len(pairs) > 1
    except ValueError as exc:
        assert f"rate {alpha}, q = {q}:" in str(exc) and f"< 1 - {tail}" in str(exc)
    assert time.perf_counter() - t0 < 1.0


def test_q_geom_law_stall_raises_only_at_the_sampler_cut():
    with pytest.raises(ValueError, match=r"rate 0.999, q = 0.5: jump law stalls at 0\.9999"):
        q_geom_law(INFINITY, 0.999, 0.5)
    pairs, deficit = q_geom_law(INFINITY, 0.999, 0.5, EXACT_TAIL_CUT)
    assert deficit <= EXACT_TAIL_CUT
    assert pairs[:50] == tuple((j, q_geom_pmf(INFINITY, 0.999, 0.5, j)) for j in range(50))
    near_one = ModelParams(q=0.5, u=(-1.0,), a=(1.0, 1.0), nu=(0.0, 0.999))
    with pytest.raises(ValueError, match="rate 0.999"):
        sample_mixed_batch(near_one, 2, 0, 10, 0)


# a_1 = 3 with alpha = c_2 = 0.5: particle 1 jumps at rate 1.5
_TOO_FAST = ModelParams(q=0.5, u=(-1.0,), a=(3.0, 1.0), nu=(0.0, 0.5))


@pytest.mark.parametrize(
    "call,message",
    [(lambda: q_geom_pmf(3, 1.0, 0.5, 0), r"alpha must lie in \(0,1\), got 1.0"),
     (lambda: q_geom_pmf(INFINITY, 0.0, 0.5, 0), r"alpha must lie in \(0,1\), got 0.0"),
     (lambda: q_geom_pmf(3, 0.3, 0.5, -1), "j must be >= 0"),
     (lambda: geometric_move(ParticleConfig.step(2), _TOO_FAST.a, 0.5, 0.5, stream(0)),
      r"alpha must lie in \(0,1\), got 1.5"),
     (lambda: run_mixed(TimeLikePath.from_moves("N"), _TOO_FAST, seed=0),
      r"alpha must lie in \(0,1\), got 1.5"),
     (lambda: bernoulli_move(ParticleConfig.step(2), (1.0, 1.0), 0.0, 0.5, stream(0)),
      "beta must be > 0"),
     (lambda: TimeLikePath.from_moves("NX"), "unknown move 'X'")],
    ids=["pmf-alpha-one", "pmf-alpha-zero", "pmf-j", "geometric-move-rate",
         "run-mixed-rate", "bernoulli-beta", "path-move"],
)
def test_guards_name_the_violated_condition(call, message):
    with pytest.raises(ValueError, match=message):
        call()
