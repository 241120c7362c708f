import json
import math

import numpy as np
import pytest

from vertexlab.core import INFINITY, ModelParams
from vertexlab.qtasep import (
    GEOM_TAIL_CUT,
    _geom_cdf_rows,
    ParticleConfig,
    TimeLikePath,
    bernoulli_law,
    bernoulli_move,
    box_configs,
    geometric_law,
    geometric_move,
    q_geom_law,
    q_geom_pmf,
    run_mixed,
    sample_mixed_batch,
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
    assert cfg.gaps() == [INFINITY, 0, 0]
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
    law = dict(bernoulli_law((0, -1), (1.0, 1.0), 1.0, 0.5))
    assert (0, 0) not in law  # x2 cannot jump onto x1


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


def test_run_mixed_two_move_law():
    # (N,T) = (2,1): matches brute-force enumeration of the 2-move law
    p = ModelParams(q=0.5, u=(-0.9,), a=(1.0, 1.0), nu=(0.35, 0.3))
    exact: dict = {}
    for cfg0, pr0 in geometric_law((-1, -2), p.a, p.c[1], p.q, 1e-14)[0]:
        for cfg1, pr1 in bernoulli_law(cfg0, p.a, 0.9, p.q):
            k = cfg1[1] + 2
            exact[k] = exact.get(k, 0.0) + pr0 * pr1
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
    dist = {(-1, -2, -3): 1.0}
    for n in range(2, N + 1):
        new: dict = {}
        for cfg, pr in dist.items():
            for tgt, w in geometric_law(cfg, p.a, p.c[n - 1], p.q, 1e-14)[0]:
                new[tgt] = new.get(tgt, 0.0) + pr * w
        dist = new
    for t in range(T):
        new = {}
        for cfg, pr in dist.items():
            for tgt, w in bernoulli_law(cfg, p.a, -p.u[t], p.q):
                new[tgt] = new.get(tgt, 0.0) + pr * w
        dist = new
    exact: dict = {}
    for cfg, pr in dist.items():
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
    dist = {(-1, -2, -3): 1.0}
    for t in range(2):
        new: dict = {}
        for cfg, pr in dist.items():
            for tgt, w in bernoulli_law(cfg, p.a, -p.u[t], p.q):
                new[tgt] = new.get(tgt, 0.0) + pr * w
        dist = new
    S = 200_000
    X = sample_mixed_batch(p, 1, 2, S, seed=5, L=3)
    emp = {tuple(r): c / S for r, c in zip(*np.unique(X, axis=0, return_counts=True))}
    for cfg, want in dist.items():
        se = math.sqrt(max(want * (1 - want), 1e-12) / S)
        assert abs(emp.get(cfg, 0.0) - want) < 5 * se + 1e-9


@pytest.mark.parametrize("alpha,q", [(0.5, 0.5), (0.95, 0.5), (0.05, 0.95), (0.83, 0.3)])
def test_geom_cdf_rows_exact_and_cut_at_tail(alpha, q):
    cdf = _geom_cdf_rows(alpha, q)
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
