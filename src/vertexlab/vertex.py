"""Vertex weights, quadrant sampler, height function, and the exact
symmetrization probabilities of the row partition law.

The sampler always runs the step-boundary model on the full quadrant; the
step-Bernoulli and generalized step-Bernoulli boundaries are the same model
with the leading nu parameters pinned to zero, read off at shifted columns.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import INFINITY, ModelParams, Partition, check_separated, check_window
from .core import inv_cdf, q_pochhammer, replica_count
from .rng import _run_chunks, sampler_stream

U_COLLISION_TOL = 1e-12


@dataclass(frozen=True)
class VertexOutcome:
    """One admissible output (i2, j2) of a vertex with its weight."""

    i2: float
    j2: int
    weight: float


def vertex_weight_row(u: float, a: float, nu: float, i1, j1: int, q: float):
    """Admissible outcomes of a single vertex with inputs (i1, j1).

    i1 may be the INFINITY sentinel (q^g -> 0 analytically), used by the
    coupling construction.  Weights follow the four-entry table of the
    stochastic model and sum to one; a negative weight means the parameters
    are outside the stochastic regime and is rejected.
    """
    if j1 not in (0, 1):
        raise ValueError(f"j1 must be 0 or 1, got {j1}")
    if i1 != INFINITY and (i1 < 0 or i1 != int(i1)):
        raise ValueError(f"i1 must be a nonnegative integer or INFINITY, got {i1}")
    qg = 0.0 if i1 == INFINITY else q ** int(i1)
    denom = 1.0 - a * u
    if denom == 0.0:
        raise ValueError(f"singular vertex weight: a*u = 1 for a={a}, u={u}")
    if j1 == 0:
        outcomes = [VertexOutcome(i1, 0, (1.0 - a * u * qg) / denom)]
        if i1 == INFINITY or i1 > 0:
            down = INFINITY if i1 == INFINITY else i1 - 1
            outcomes.append(VertexOutcome(down, 1, -a * u * (1.0 - qg) / denom))
    else:
        up = INFINITY if i1 == INFINITY else i1 + 1
        outcomes = [
            VertexOutcome(i1, 1, (nu * qg - a * u) / denom),
            VertexOutcome(up, 0, (1.0 - nu * qg) / denom),
        ]
    for o in outcomes:
        if o.weight < -1e-14:
            raise ValueError(
                f"negative vertex weight {o.weight} at (i1,j1)=({i1},{j1}) "
                f"for u={u}, a={a}, nu={nu}: outside the stochastic regime"
            )
    return outcomes


# Boundary orders: r leading nu parameters pinned to zero.  r=0 is the step
# boundary, r=1 step-Bernoulli, r>=2 the generalized step-Bernoulli of order r.
STEP = 0
STEP_BERNOULLI = 1


def check_boundary(p: ModelParams, r: int):
    """Raise ValueError unless the boundary of order r fits p: 0 <= r <= the
    column count and nu_1..nu_r = 0."""
    if r < 0:
        raise ValueError(f"boundary order must be >= 0, got r={r}")
    if r > len(p.nu):
        raise ValueError(f"boundary of order r={r} exceeds the {len(p.nu)} columns")
    if any(p.nu[i] != 0.0 for i in range(r)):
        raise ValueError(f"boundary of order r={r} requires nu_1..nu_{r} = 0")


@dataclass
class HeightField:
    """Height values h(N, T) on 1 <= N <= n_max+1, 0 <= T <= t_max.

    values[T, N-1] = h(N, T).  Paths that leave the right edge of the window
    while horizontal are counted in every h(N, T') with T' at or above their
    exit row, so heights inside the window are exact.
    """

    n_max: int
    t_max: int
    values: np.ndarray

    def h(self, N: int, T: int) -> int:
        if not (1 <= N <= self.n_max + 1 and 0 <= T <= self.t_max):
            raise ValueError(
                f"h({N}, {T}) is outside the window 1 <= N <= {self.n_max + 1}, "
                f"0 <= T <= {self.t_max}"
            )
        return int(self.values[T, N - 1])

    def to_csv(self) -> str:
        lines = ["N,T,h"]
        for T in range(self.t_max + 1):
            for N in range(1, self.n_max + 2):
                lines.append(f"{N},{T},{int(self.values[T, N - 1])}")
        return "\n".join(lines) + "\n"


def _window_check(p: ModelParams, window):
    n_max, t_max = window
    if n_max < 1 or t_max < 0:
        raise ValueError(f"window too small: {window}")
    check_window(p, n_max, t_max)
    return n_max, t_max


def sample_quadrant(p: ModelParams, boundary: int, window, seed: int) -> HeightField:
    """Markovian sweep sampler of the quadrant model on the given window, for
    the boundary of order `boundary` (see check_boundary).

    Identical seed, parameters, and window give a bit-identical HeightField,
    and the same heights as sample_quadrant_batch(..., 1, seed)[0].
    """
    check_boundary(p, boundary)
    n_max, t_max = _window_check(p, window)
    rng = sampler_stream(seed)
    m = [0] * n_max
    values = np.zeros((t_max + 1, n_max + 1), dtype=np.int64)
    exited = 0
    for T in range(1, t_max + 1):
        u = p.u[T - 1]
        j = 1
        for N in range(1, n_max + 1):
            outcomes = vertex_weight_row(u, p.a[N - 1], p.nu[N - 1], m[N - 1], j, p.q)
            pick = inv_cdf([(o, o.weight) for o in outcomes], rng.random())
            m[N - 1] = int(pick.i2)
            j = pick.j2
        exited += j
        suffix = 0
        values[T, n_max] = exited
        for N in range(n_max, 0, -1):
            suffix += m[N - 1]
            values[T, N - 1] = suffix + exited
    return HeightField(n_max, t_max, values)


def sample_quadrant_batch(
    p: ModelParams, boundary: int, window, n_samples: int, seed: int
) -> np.ndarray:
    """Vectorized sampler: returns heights of shape (n_samples, t_max+1, n_max+1)
    with heights[s, T, N-1] = h(N, T).  Used by the Monte Carlo checks.

    Vertex k = (T-1) * n_max + (N-1) reads the block of S = n_samples
    uniforms, one per replica, that starts at position k * S of
    sampler_stream(seed).  Each chunk of replicas (rng._run_chunks) sweeps
    the whole window on its own, and the split moves no bit.  The heights
    are stored replica-last, so heights[:, T, N] is contiguous; the returned
    array is a view of that storage with replicas first."""
    S = replica_count(n_samples)
    check_boundary(p, boundary)
    n_max, t_max = _window_check(p, window)
    # heights are at most t_max; int16 halves the memory of large batches
    dtype = np.int16 if t_max < 2**15 else np.int32
    heights = np.zeros((t_max + 1, n_max + 1, S), dtype=dtype)
    qpow = p.q ** np.arange(t_max + 1)
    a = np.array(p.a[:n_max])[:, None]
    nu = np.array(p.nu[:n_max])[:, None]

    def _sweep(s0: int, s1: int, read):
        """Sweep the window on replicas [s0, s1).  It calls only numpy and
        private helpers, so it may run on a worker thread."""
        n = s1 - s0
        # m[N-1] counts the paths in column N, m[n_max] those that left the window
        m = np.zeros((n_max + 1, n), dtype=np.int32)
        j = np.empty(n, dtype=bool)
        first = np.empty(n, dtype=bool)
        draws, cut = np.empty(n), np.empty(n)
        at = np.empty(n, dtype=np.intp)
        k = 0
        for T in range(1, t_max + 1):
            au = a * p.u[T - 1]
            # a column's g is read before its update, so g < G all row; the
            # paths that left the window, m[n_max], are never looked up
            G = int(m[:n_max].max(initial=0)) + 1
            # cuts[N-1, j * G + g]: acceptance threshold of the first outcome
            # of column N at inputs (g, j)
            cuts = np.hstack((1.0 - au * qpow[:G], nu * qpow[:G] - au)) / (1.0 - au)
            j.fill(True)
            for g, row in zip(m, cuts):  # m[n_max] has no row of cuts
                np.multiply(j, G, out=at)
                at += g
                np.take(row, at, out=cut)
                np.less(read(k * S, draws), cut, out=first)
                # unless first: g rises by one if j = 1, falls by one if
                # j = 0, and j flips
                g += j
                np.equal(j, first, out=j)
                g -= j
                k += 1
            m[n_max] += j
            # h(N, T) = m[N-1] + ... + m[n_max]
            np.cumsum(m[::-1], axis=0, dtype=dtype, out=heights[T, ::-1, s0:s1])

    _run_chunks(_sweep, S, 1, seed)
    return np.moveaxis(heights, -1, 0)


def row_partitions(t: int, cap: int):
    """All partitions with exactly t parts, each in [1, cap], as tuples."""
    for combo in itertools.combinations_with_replacement(range(1, cap + 1), t):
        yield combo[::-1]


def _symmetrize(parts, u, nu, q: float, slot) -> float:
    """The sum over permutations sigma of prod_{al<be} (u_sa - q u_sb) / (u_sa - u_sb)
    times prod_i slot(parts[i], u_{sigma(i)}), times prod_r (nu_r; q)_k / (q; q)_k:
    F^stoch and Phi_M * F^stoch.  It is summed over subsets of the u's by shared
    suffixes, in 2^T * T^2 steps (Bellman 1962; Held-Karp 1962)."""
    t = len(parts)
    check_separated("u", u, U_COLLISION_TOL)
    pref = 1.0
    for r, k in Counter(parts).items():
        pref *= q_pochhammer(nu[r - 1], q, k) / q_pochhammer(q, q, k)
    # slot_factor[i][s]: slot i at u_s; cross[s][r]: u_s placed before u_r
    slot_factor = [[slot(parts[i], u[s]) for s in range(t)] for i in range(t)]
    cross = [[(u[s] - q * u[r]) / (u[s] - u[r]) if r != s else 1.0 for r in range(t)]
             for s in range(t)]
    # D[S]: the orderings of {u_s : s in S} over the last |S| slots, summed
    D = [1.0] * (1 << t)
    for S in range(1, 1 << t):
        members = [s for s in range(t) if S >> s & 1]
        D[S] = 0.0
        for s in members:
            term = slot_factor[t - len(members)][s] * D[S ^ (1 << s)]
            for r in members:
                term *= cross[s][r]
            D[S] += term
    return pref * D[-1]


def _f_stoch_arrays(parts, u, a, nu, q: float) -> float:
    def slot(r, us):
        return (
            (1.0 - q)
            / (1.0 - a[r - 1] * us)
            * math.prod((nu[j] - a[j] * us) / (1.0 - a[j] * us) for j in range(r - 1))
        )

    return _symmetrize(parts, u, nu, q, slot)


def f_stoch(kappa, p: ModelParams, T: int) -> float:
    """Probability P(mu^(T) = kappa) under the step boundary, by the exact
    symmetrized formula in 2^T * T^2 steps (see _symmetrize)."""
    parts = tuple(Partition(tuple(kappa)).parts)
    if len(parts) != T or (parts and parts[-1] < 1):
        raise ValueError("kappa must have exactly T parts, all >= 1")
    if parts and parts[0] > len(p.a):
        raise ValueError("kappa exceeds available columns")
    check_window(p, parts[0] if parts else 0, T)
    return _f_stoch_arrays(parts, p.u[:T], p.a, p.nu, p.q)


def _f_tilde_arrays(parts, u, a, nu, q: float, M: int) -> float:
    """Denominator-cleared weight Phi_M * F^stoch, with the (1 - a_j u) factors
    cancelled inside the symmetrand so the result is finite even at
    a_j u_i = 1: a polynomial in the (a, nu) once M >= kappa_1."""

    def slot(r, us):
        return (
            (1.0 - q)
            * math.prod((nu[j] - a[j] * us) for j in range(r - 1))
            * math.prod((1.0 - a[j] * us) for j in range(r, M))
        )

    return _symmetrize(parts, u, nu, q, slot)


def sum_f_stoch_truncated(p: ModelParams, T: int, N: int) -> float:
    """Sum of f_stoch over kappa_1 <= N+1 with the column N+1 parameters
    replaced by a=nu=0, which pins all paths inside the first N+1 columns;
    the result is exactly 1."""
    check_window(p, N, T)
    a = p.a[:N] + (0.0,) + p.a[N + 1 :]
    nu = p.nu[:N] + (0.0,) + p.nu[N + 1 :]
    total = 0.0
    for parts in row_partitions(T, N + 1):
        total += _f_stoch_arrays(parts, p.u[:T], a, nu, p.q)
    return total
