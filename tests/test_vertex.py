import itertools
import math
import os
import sys
import time
from collections import Counter

import mpmath
import numpy as np
import pytest

from vertexlab.core import INFINITY, ModelParams
from vertexlab.harness import chi2_two_sample, draw_params
from vertexlab import qtasep, rng, schur
from vertexlab.rng import stream
from vertexlab.vertex import (
    STEP,
    STEP_BERNOULLI,
    _f_tilde_arrays,
    check_boundary,
    f_stoch,
    row_partitions,
    sample_quadrant,
    sample_quadrant_batch,
    sum_f_stoch_truncated,
    vertex_weight_row,
)


def _params(n_cols=10, t=4, bernoulli=False):
    rng = np.random.default_rng(7)
    nu = rng.uniform(0.1, 0.5, n_cols)
    if bernoulli:
        nu[0] = 0.0
    return ModelParams(
        q=0.5,
        u=tuple(-rng.uniform(0.4, 1.6, t)),
        a=tuple(rng.uniform(0.8, 1.2, n_cols)),
        nu=tuple(nu),
    )


def test_weights_example():
    outs = vertex_weight_row(-1.0, 1.0, 0.5, 1, 1, 0.5)
    d = {(o.i2, o.j2): o.weight for o in outs}
    assert abs(d[(1, 1)] - 0.625) < 1e-15
    assert abs(d[(2, 0)] - 0.375) < 1e-15


def test_weights_empty_vertex():
    outs = vertex_weight_row(-0.8, 1.1, 0.3, 0, 0, 0.5)
    assert len(outs) == 1 and outs[0].weight == 1.0 and (outs[0].i2, outs[0].j2) == (0, 0)


def test_weights_six_vertex_degeneration():
    # nu = 1/q, g = 1: the (g+1, 0) outcome has weight 1 - nu*q = 0
    q = 0.5
    outs = vertex_weight_row(-1.0, 1.0, 1.0 / q, 1, 1, q)
    d = {(o.i2, o.j2): o.weight for o in outs}
    assert abs(d[(2, 0)]) < 1e-15


def test_weights_infinite_sentinel():
    # g = infinity: q^g -> 0, Bernoulli-type weights
    beta = 0.8
    outs = vertex_weight_row(-beta, 1.0, 0.24, INFINITY, 0, 0.5)
    d = {o.j2: o.weight for o in outs}
    assert abs(d[1] - beta / (1 + beta)) < 1e-14
    assert abs(d[0] - 1 / (1 + beta)) < 1e-14


def test_weights_negative_rejected():
    with pytest.raises(ValueError):
        vertex_weight_row(0.5, 1.0, 0.5, 1, 0, 0.5)  # u > 0 breaks the regime
    with pytest.raises(ValueError, match="singular"):
        vertex_weight_row(1.0, 1.0, 0.5, 1, 0, 0.5)


def test_stochasticity_sweep():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        q = rng.uniform(0.05, 0.95)
        u = -rng.uniform(0.01, 4.0)
        a = rng.uniform(0.05, 2.5)
        nu = rng.uniform(0.0, 0.99)
        g = int(rng.integers(0, 41))
        for j1 in (0, 1):
            outs = vertex_weight_row(u, a, nu, g, j1, q)
            assert abs(sum(o.weight for o in outs) - 1.0) <= 1e-12


def test_sampler_step_boundary_and_monotonicity():
    p = _params()
    hf = sample_quadrant(p, STEP, (10, 4), seed=5)
    for T in range(5):
        assert hf.h(1, T) == T  # step boundary
        for N in range(1, 10):
            assert hf.h(N, T) >= hf.h(N + 1, T)  # nonincreasing in N
    for N in range(1, 11):
        for T in range(4):
            assert hf.h(N, T) <= hf.h(N, T + 1)  # nondecreasing in T
    assert all(hf.values[0, N] == 0 for N in range(11))


def test_sampler_bit_identical():
    p = _params()
    h1 = sample_quadrant(p, STEP, (8, 3), seed=123)
    h2 = sample_quadrant(p, STEP, (8, 3), seed=123)
    assert np.array_equal(h1.values, h2.values)
    h3 = sample_quadrant(p, STEP, (8, 3), seed=124)
    assert not np.array_equal(h1.values, h3.values)


def test_boundary_validation():
    p = _params()
    check_boundary(p, STEP)
    with pytest.raises(ValueError, match=r"order r=1 requires nu_1..nu_1 = 0"):
        sample_quadrant(p, STEP_BERNOULLI, (8, 3), seed=0)  # nu_1 != 0
    with pytest.raises(ValueError, match=r"order r=2 requires nu_1..nu_2 = 0"):
        sample_quadrant_batch(_params(bernoulli=True), 2, (8, 3), 5, seed=0)
    zeros = ModelParams(q=0.5, u=(-1.0,), a=(1.0,) * 3, nu=(0.0,) * 3)
    check_boundary(zeros, 3)
    with pytest.raises(ValueError, match="order r=4 exceeds the 3 columns"):
        check_boundary(zeros, 4)
    with pytest.raises(ValueError, match="order must be >= 0, got r=-1"):
        sample_quadrant(zeros, -1, (3, 1), seed=0)


def test_scalar_sampler_equals_batch_at_one_replica():
    # the scalar sweep is the reference of the vectorized one: at one replica
    # both read the same uniforms in the same order and return the same heights
    for k in range(60):
        rng = stream(4321, k)
        r = k % 3
        n_cols, n_rows = int(rng.integers(r + 1, 17)), int(rng.integers(1, 13))
        p = draw_params(rng, n_cols, n_rows)
        p = ModelParams(q=p.q, u=p.u, a=p.a, nu=(0.0,) * r + p.nu[r:])
        window = (int(rng.integers(1, n_cols + 1)), int(rng.integers(0, n_rows + 1)))
        seed = int(rng.integers(2**63))
        batch = sample_quadrant_batch(p, r, window, 1, seed)[0]
        assert np.array_equal(sample_quadrant(p, r, window, seed).values, batch), k


def test_sample_quadrant_batch_bits_do_not_depend_on_chunking(monkeypatch):
    pools = []

    class RecordingPool(rng.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    def chunked(cpus, chunk_uniforms, p, boundary, window, S, seed):
        monkeypatch.setattr(rng, "_chunk_count", lambda: cpus)
        monkeypatch.setattr(rng, "_CHUNK_UNIFORMS", max(chunk_uniforms, 1))
        return sample_quadrant_batch(p, boundary, window, S, seed)

    monkeypatch.setattr(rng, "ThreadPoolExecutor", RecordingPool)
    step = draw_params(stream(9, 0), 7, 5)
    bernoulli = draw_params(stream(9, 1), 7, 5, bernoulli=True)
    deep = ModelParams(q=0.9, u=(-0.2,) * 30, a=(1.0,) * 4, nu=(0.9,) * 4)
    cases = [  # (params, boundary, window, S, seed)
        (step, STEP, (7, 5), 5, 1),  # fewer replicas than 7 chunks
        (step, STEP, (3, 4), 0, 2),  # no replica
        (bernoulli, STEP_BERNOULLI, (6, 5), 1, 3),  # one replica
        (bernoulli, STEP_BERNOULLI, (5, 3), 41, 2**64 - 1),
        (step, STEP, (7, 0), 23, 4),  # T = 0: no vertex
        (step, STEP, (1, 5), 30, 5),  # N = 1
        (bernoulli, STEP_BERNOULLI, (7, 5), 2000, 6),
        # up to 19 paths a column: at 17 to 29 of the 30 rows, the chunks'
        # largest counts, and so their threshold tables' extents, differ
        (deep, STEP, (4, 30), 50, 7),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter lock far more often
    try:
        for p, boundary, (n_max, t_max), S, seed in cases:
            window = (n_max, t_max)
            want = chunked(1, S, p, boundary, window, S, seed)  # one chunk, no thread
            assert want.shape == (S, t_max + 1, n_max + 1)
            # 2, 3 and 7 chunks (at most S), then about 4 on one CPU, at a
            # bound S // 4 + 1 that divides none of the replica counts above 1
            for cpus, chunk_uniforms in ((2, S - 1), (3, S - 1), (7, S - 1), (1, S // 4 + 1)):
                got = chunked(cpus, chunk_uniforms, p, boundary, window, S, seed)
                assert got.shape == want.shape
                assert got.dtype == want.dtype and np.array_equal(got, want)
    finally:
        sys.setswitchinterval(interval)
    # never more threads than CPUs
    assert pools and max(pools) <= len(os.sched_getaffinity(0))


def test_vertex_sweep_matches_qtasep_far_past_row_4():
    # the paper's identity h^Ber(M+1, T) = x_M(M, T) + M in law, read at
    # (M+1, 2M) under the special parameters, gated as distribution-equality
    # gates its (6, 4) window
    M, R = 100, 2000
    p = schur.special_params(0.5, -1.0, 1.0, M, 2 * M)
    hv = sample_quadrant_batch(p, STEP_BERNOULLI, (M, 2 * M), R, 0)[:, 2 * M, M]
    xs = qtasep.sample_mixed_batch(p, M, 2 * M, R, 1)[:, M - 1] + M
    cells = int(max(hv.max(), xs.max())) + 1
    c1, c2 = (np.bincount(v.astype(np.int64), minlength=cells) for v in (hv, xs))
    _, pval = chi2_two_sample(c1, c2)
    assert pval > 1e-4


def test_step_bernoulli_boundary_law():
    # h(2, T) is a sum of independent Bernoulli(-a1 u_t / (1 - a1 u_t))
    p = _params(bernoulli=True)
    S = 200_000
    H = sample_quadrant_batch(p, STEP_BERNOULLI, (6, 3), S, seed=11)
    for T in (1, 2, 3):
        mean = H[:, T, 1].mean()
        expect = sum(
            -p.a[0] * p.u[t] / (1 - p.a[0] * p.u[t]) for t in range(T)
        )
        assert abs(mean - expect) < 5 * math.sqrt(T / S)


def test_height_csv_format():
    p = _params()
    hf = sample_quadrant(p, STEP, (3, 2), seed=1)
    lines = hf.to_csv().splitlines()
    assert lines[0] == "N,T,h"
    assert len(lines) == 1 + 4 * 3  # N = 1..4, T = 0..2, T outer
    assert lines[1] == "1,0,0"
    n, t, h = lines[-1].split(",")
    assert (n, t) == ("4", "2")


def test_f_stoch_single_row_formula():
    # T=1: P(mu = (c)) = (1-nu_c)/(1-a_c u) * prod_{j<c} (nu_j - a_j u)/(1 - a_j u)
    p = _params()
    u = p.u[0]
    for c in (1, 2, 4):
        expect = (1 - p.nu[c - 1]) / (1 - p.a[c - 1] * u)
        for j in range(c - 1):
            expect *= (p.nu[j] - p.a[j] * u) / (1 - p.a[j] * u)
        assert abs(f_stoch((c,), p, 1) - expect) < 1e-13


def test_f_stoch_matches_sampler():
    p = _params(25, 2)
    S = 300_000
    H = sample_quadrant_batch(p, STEP, (25, 2), S, seed=21)
    m = H[:, 2, :25] - H[:, 2, 1:]
    for kappa in [(1, 1), (2, 1), (3, 2), (2, 2)]:
        want = np.zeros(25, dtype=m.dtype)
        for x in kappa:
            want[x - 1] += 1
        emp = np.mean((m == want).all(axis=1))
        exact = f_stoch(kappa, p, 2)
        se = math.sqrt(exact * (1 - exact) / S)
        assert abs(emp - exact) < 5 * se + 1e-9, (kappa, emp, exact)


def test_sum_to_one():
    p = _params(6)
    for T in (1, 2, 3, 4):
        for N in (1, 2, 3, 4):
            assert abs(sum_f_stoch_truncated(p, T, N) - 1.0) < 1e-10


def _f_stoch_mp(kappa, p, T):
    """f_stoch at 50 digits by the T!-term permutation sum over orderings
    sigma of prod_{al<be} (u_sa - q u_sb) / (u_sa - u_sb) times
    prod_i slot(kappa_i, u_{sigma(i)}), with the multiplicity prefactor."""
    with mpmath.workdps(50):
        q = mpmath.mpf(p.q)
        u = [mpmath.mpf(x) for x in p.u[:T]]
        a = [mpmath.mpf(x) for x in p.a]
        nu = [mpmath.mpf(x) for x in p.nu]

        def slot(r, us):
            return (1 - q) / (1 - a[r - 1] * us) * mpmath.fprod(
                (nu[j] - a[j] * us) / (1 - a[j] * us) for j in range(r - 1))

        slots = [[slot(r, us) for us in u] for r in kappa]
        cross = {(s, r): (u[s] - q * u[r]) / (u[s] - u[r])
                 for s, r in itertools.permutations(range(T), 2)}
        total = mpmath.mpf(0)
        for sigma in itertools.permutations(range(T)):
            term = mpmath.fprod(slots[i][s] for i, s in enumerate(sigma))
            for al, be in itertools.combinations(range(T), 2):
                term *= cross[sigma[al], sigma[be]]
            total += term
        for r, k in Counter(kappa).items():
            total *= mpmath.qp(nu[r - 1], q, k) / mpmath.qp(q, q, k)
        return float(total)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_f_stoch_matches_a_50_digit_permutation_sum(seed):
    p = draw_params(stream(seed, 2), 6, 6)
    for T in (5, 6):
        for kappa in [*row_partitions(T, 2), tuple(range(T, 0, -1))]:
            assert abs(f_stoch(kappa, p, T) - _f_stoch_mp(kappa, p, T)) < 1e-12, kappa


def test_sum_to_one_at_eight_rows():
    p = draw_params(stream(0, 2), 10, 8)
    start = time.perf_counter()
    err = abs(sum_f_stoch_truncated(p, 8, 1) - 1.0)
    # the subset recursion takes about 10 ms here, the T! loop over 1 s
    assert time.perf_counter() - start < 1.0
    assert err < 1e-10


def test_u_collision_rejected():
    p = ModelParams(q=0.5, u=(-1.0, -1.0), a=(1.0, 0.9), nu=(0.2, 0.3))
    with pytest.raises(ValueError, match="collision"):
        f_stoch((2, 1), p, 2)


def test_f_tilde():
    p = _params(6, 3)

    def f_tilde(kappa, T, M):
        return _f_tilde_arrays(kappa, p.u[:T], p.a, p.nu, p.q, M)

    # T=1, kappa=(1), M=1 -> (1 - nu_1)
    assert abs(f_tilde((1,), 1, 1) - (1 - p.nu[0])) < 1e-14
    # ratio f_tilde / f_stoch = Phi_M
    rng = np.random.default_rng(5)
    for _ in range(100):
        T = int(rng.integers(1, 4))
        kappa = tuple(sorted(rng.integers(1, 5, T), reverse=True))
        M = int(rng.integers(kappa[0], 7))
        phi = math.prod(
            (1 - p.a[j] * p.u[i]) for i in range(T) for j in range(M)
        )
        fs = f_stoch(kappa, p, T)
        ft = f_tilde(kappa, T, M)
        assert abs(ft - phi * fs) < 1e-11 * max(1.0, abs(phi * fs))


def test_f_stoch_matches_exact_row_dp():
    # exact-vs-exact: the symmetrization formula against the sequential
    # row dynamic program (machine precision, no Monte Carlo noise)
    from vertexlab.coupling import _advance_row

    p = _params(8, 3)
    n_win = 8
    states = {(((0,) * n_win, 0), ()): 1.0}
    for T in (1, 2, 3):
        states = _advance_row(states, p.u[T - 1], p, n_win)
        law = {}
        for ((m, exited), _), pr in states.items():
            law[(m, exited)] = law.get((m, exited), 0.0) + pr
        for parts in row_partitions(T, 5):
            mvec = [0] * n_win
            for x in parts:
                mvec[x - 1] += 1
            dp = law.get((tuple(mvec), 0), 0.0)
            assert abs(dp - f_stoch(parts, p, T)) < 1e-12


def test_step_bernoulli_is_step_with_zero_nu():
    # the two boundaries share the sampler: identical seeds give identical
    # fields once nu_1 = 0, which is the law statement made pathwise
    p = _params(bernoulli=True)
    h1 = sample_quadrant(p, STEP, (6, 3), seed=9)
    h2 = sample_quadrant(p, STEP_BERNOULLI, (6, 3), seed=9)
    assert np.array_equal(h1.values, h2.values)


def test_row_partitions():
    assert list(row_partitions(0, 3)) == [()]
    parts = list(row_partitions(2, 3))
    assert parts == [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (3, 3)]


def test_batch_heights_do_not_wrap_past_int16():
    t_max = 2**15 + 10
    p = ModelParams(q=0.5, u=(-1e6,) * t_max, a=(1.0,), nu=(0.5,))
    h = sample_quadrant_batch(p, STEP, (1, t_max), 2, seed=0)
    assert (np.diff(h, axis=1) >= 0).all()
    assert h[:, -1, 0].min() > 2**15


def test_height_field_rejects_indices_outside_window():
    hf = sample_quadrant(_params(), STEP, (3, 2), seed=1)
    assert hf.h(4, 2) == hf.values[2, 3] and hf.h(1, 0) == 0
    for N, T in [(0, 2), (5, 0), (1, -1), (1, 3)]:
        with pytest.raises(ValueError, match="outside the window"):
            hf.h(N, T)


@pytest.mark.parametrize(
    "call,message",
    [(lambda p: vertex_weight_row(-1.0, 1.0, 0.5, 0, 2, 0.5), "j1 must be 0 or 1"),
     (lambda p: vertex_weight_row(-1.0, 1.0, 0.5, -1, 0, 0.5), "i1 must be a nonnegative"),
     (lambda p: vertex_weight_row(-1.0, 1.0, 0.5, 1.5, 1, 0.5), "i1 must be a nonnegative"),
     (lambda p: sample_quadrant(p, STEP, (0, 2), 0), r"window too small: \(0, 2\)"),
     (lambda p: sample_quadrant_batch(p, STEP, (3, -1), 5, 0), "window too small"),
     (lambda p: f_stoch((2, 1), p, 3), "exactly T parts"),
     (lambda p: f_stoch((2, 0), p, 2), "all >= 1"),
     (lambda p: f_stoch((11,), p, 1), "exceeds available columns"),
     (lambda p: f_stoch((1, 1, 1), ModelParams(q=0.5, u=(-1.0, -2.0), a=(1.0,), nu=(0.2,)), 3),
      "window exceeds available parameters"),
     (lambda p: f_stoch((1, 1), ModelParams(q=0.5, u=(-1.0, -1.0), a=(1.0,), nu=(0.2,)), 2),
      r"u collision: u\[0\] ~ u\[1\]")],
    ids=["j1", "i1-negative", "i1-fractional", "window-columns", "window-rows",
         "kappa-length", "kappa-zero-part", "kappa-columns", "kappa-rows", "u-collision"],
)
def test_guards_name_the_violated_condition(call, message):
    with pytest.raises(ValueError, match=message):
        call(_params())
