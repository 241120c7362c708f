"""Discrete-time geometric and Bernoulli q-TASEPs: jump laws, Markov moves,
mixed evolution along time-like paths, and truncated transition matrices for
the exact commutation and path-independence checks.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import INFINITY, ModelParams, check_window, inv_cdf, q_pochhammer, replica_count
from .rng import _run_chunks, sampler_stream

# Inverse-CDF sampling of the infinite-gap jump law is cut once the
# cumulative mass reaches 1 - GEOM_TAIL_CUT; the cut is certified by the
# geometric decay alpha^j of the weights.
GEOM_TAIL_CUT = 1e-14

def q_geom_pmf(m, alpha: float, q: float, j: int) -> float:
    """q-deformed truncated geometric weight p_{m,alpha}(j), 0 <= j <= m.

    m may be the INFINITY sentinel (first-particle law).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if m == INFINITY:
        return alpha**j * q_pochhammer(alpha, q, INFINITY) / q_pochhammer(q, q, j)
    m = int(m)
    if j > m:
        raise ValueError(f"j = {j} exceeds m = {m}")
    return (
        alpha**j
        * q_pochhammer(alpha, q, m - j)
        * q_pochhammer(q, q, m)
        / (q_pochhammer(q, q, j) * q_pochhammer(q, q, m - j))
    )


@functools.cache
def q_geom_law(m, alpha: float, q: float, tail: float = GEOM_TAIL_CUT):
    """Jump law as a tuple of (j, weight); infinite support cut at cumulative
    1 - tail, ValueError where rounding stalls the sum short of 1 - tail.
    Returns (pairs, deficit), memoized: callers share the pairs."""
    if m != INFINITY:
        return tuple((j, q_geom_pmf(m, alpha, q, j)) for j in range(int(m) + 1)), 0.0
    # q_geom_pmf's weights bit for bit, (q; q)_j carried forward as q_pochhammer forms it
    head = q_geom_pmf(INFINITY, alpha, q, 0)  # (alpha; q)_inf
    pairs, acc, poch_q, qk = [], 0.0, 1.0, q
    while acc < 1.0 - tail:
        w = alpha ** len(pairs) * head / poch_q
        if acc + w == acc:
            raise ValueError(f"rate {alpha}, q = {q}: jump law stalls at {acc!r} < 1 - {tail}")
        pairs.append((len(pairs), w))
        acc += w
        poch_q, qk = poch_q * (1.0 - qk), qk * q
    return tuple(pairs), max(0.0, 1.0 - acc)


@dataclass(frozen=True)
class ParticleConfig:
    """Strictly decreasing particle positions; virtual x_0 = +infinity."""

    x: tuple

    def __post_init__(self):
        x = tuple(int(v) for v in self.x)
        object.__setattr__(self, "x", x)
        if any(x[i] <= x[i + 1] for i in range(len(x) - 1)):
            raise ValueError(f"positions not strictly decreasing: {x}")

    @classmethod
    def step(cls, L: int) -> "ParticleConfig":
        return cls(tuple(-i for i in range(1, L + 1)))


def gaps(x) -> list:
    """Pre-move gaps m_i = x_{i-1} - x_i - 1, with m_1 = INFINITY."""
    return [INFINITY] + [x[i - 1] - x[i] - 1 for i in range(1, len(x))]


def _jump_probs(x, a, beta: float, q: float) -> list:
    """Bernoulli jump probability of each particle as a pair (free, blocked):
    p_i = a_i beta / (1 + a_i beta) when particle i-1 jumped, and
    p_i (1 - q^{m_i}) when it stayed."""
    free = [a[i] * beta / (1.0 + a[i] * beta) for i in range(len(x))]
    return [(f, f * (1.0 - q**m)) for f, m in zip(free, gaps(x))]


def geometric_move(
    cfg: ParticleConfig, a, alpha: float, q: float, rng
) -> ParticleConfig:
    """Parallel geometric update: particle i jumps by j ~ p_{gap_i, a_i*alpha},
    all gaps taken from the pre-move configuration (parallel update).
    q_geom_pmf rejects a rate a_i*alpha outside (0, 1)."""
    new = []
    for xi, ai, m in zip(cfg.x, a, gaps(cfg.x)):
        pairs, _ = q_geom_law(m, ai * alpha, q)
        new.append(xi + inv_cdf(pairs, rng.random()))
    return ParticleConfig(tuple(new))


def bernoulli_move(
    cfg: ParticleConfig, a, beta: float, q: float, rng
) -> ParticleConfig:
    """Sequential Bernoulli update, interaction propagating right to left;
    the i-th decision uses the pre-move gap even though x_{i-1} has already
    been updated."""
    if beta <= 0.0:
        raise ValueError(f"beta must be > 0, got {beta}")
    new = []
    jumped = True  # virtual x_0 at +infinity never blocks
    for xi, (free, blocked) in zip(cfg.x, _jump_probs(cfg.x, a, beta, q)):
        jumped = rng.random() < (free if jumped else blocked)
        new.append(xi + (1 if jumped else 0))
    return ParticleConfig(tuple(new))


@dataclass(frozen=True)
class TimeLikePath:
    """Lattice path from (1, 0), each step incrementing exactly one of N, T."""

    points: tuple

    def __post_init__(self):
        pts = tuple((int(n), int(t)) for n, t in self.points)
        object.__setattr__(self, "points", pts)
        if not pts or pts[0] != (1, 0):
            raise ValueError("time-like path must start at (1, 0)")
        for (n0, t0), (n1, t1) in zip(pts, pts[1:]):
            if (n1 - n0, t1 - t0) not in ((1, 0), (0, 1)):
                raise ValueError(f"invalid path step {(n0, t0)} -> {(n1, t1)}")

    @classmethod
    def from_moves(cls, moves: str) -> "TimeLikePath":
        """Build from a string of moves, 'N' and 'T'."""
        pts = [(1, 0)]
        for mv in moves:
            n, t = pts[-1]
            if mv == "N":
                pts.append((n + 1, t))
            elif mv == "T":
                pts.append((n, t + 1))
            else:
                raise ValueError(f"unknown move {mv!r}")
        return cls(tuple(pts))

    def window(self, p: ModelParams, L: int | None) -> int:
        """Particle count L, by default the path's largest N; ValueError if L
        is smaller or the path leaves p's parameter window."""
        n_end = max(n for n, _ in self.points)
        if L is not None and L < n_end:
            raise ValueError("L too small for the path")
        check_window(p, L or n_end, max(t for _, t in self.points))
        return L or n_end

    def steps(self, p: ModelParams, r: int = 1):
        """The move of each path step, as (N', T', move, parameter): a
        T-step to T' is "BER" with beta = -u_{T'}, an N-step to N' is "GEOM"
        with alpha = c_{N'+r-1} (the particles of the order-r coupling are
        shifted by r - 1)."""
        c = p.c
        for (_, t0), (n1, t1) in zip(self.points, self.points[1:]):
            if t1 > t0:
                yield n1, t1, "BER", -p.u[t1 - 1]
                continue
            k = n1 + r - 1
            alpha = c[k - 1]
            if alpha <= 0.0:
                raise ValueError(f"geometric move needs nu_{k} > 0 (alpha = {alpha})")
            yield n1, t1, "GEOM", alpha


@dataclass
class Trajectory:
    """Mixed q-TASEP evolution recorded along a time-like path."""

    points: tuple
    moves: tuple  # move label per step ("start", "GEOM(alpha)", "BER(beta)")
    configs: tuple
    x_values: tuple  # X(P) entries x_{N_t}(N_t, T_t) + N_t

    def to_jsonl(self) -> str:
        lines = []
        for t, ((n, tt), move, cfg, xv) in enumerate(
            zip(self.points, self.moves, self.configs, self.x_values)
        ):
            lines.append(
                json.dumps(
                    {
                        "t": t,
                        "N": n,
                        "T": tt,
                        "move": move,
                        "x": list(cfg.x),
                        "X_value": xv,
                    }
                )
            )
        return "\n".join(lines) + "\n"


def run_mixed(
    path: TimeLikePath,
    p: ModelParams,
    seed: int,
    L: int | None = None,
) -> Trajectory:
    """Evolve the mixed geometric/Bernoulli q-TASEP along `path`, with the
    moves of `TimeLikePath.steps`, recording x_{N_t}(N_t, T_t) + N_t."""
    rng = sampler_stream(seed)
    cfg = ParticleConfig.step(path.window(p, L))
    moves = ["start"]
    configs = [cfg]
    xvals = [cfg.x[0] + 1]
    for n1, _, move, param in path.steps(p):
        mover = bernoulli_move if move == "BER" else geometric_move
        cfg = mover(cfg, p.a, param, p.q, rng)
        moves.append(f"{move}({param})")
        configs.append(cfg)
        xvals.append(cfg.x[n1 - 1] + n1)
    return Trajectory(path.points, tuple(moves), tuple(configs), tuple(xvals))


def _gap_cap(q: float) -> int:
    """Smallest K with q^K / (1 - q) < GEOM_TAIL_CUT.  From gap K on, the
    Bernoulli blocking factor q^gap is below the cut, and so is the distance
    from one of the finite-gap factors (1 - q^k), (1 - alpha q^k), k >= K,
    of the jump law."""
    return math.ceil(math.log(GEOM_TAIL_CUT * (1.0 - q)) / math.log(q))


def _geom_cdf_rows(alpha: float, q: float):
    """Cumulative jump tables (cdf, rows) for one rate alpha.  Columns j = 0..J
    of cdf end where the infinite-gap law reaches 1 - GEOM_TAIL_CUT; rows
    m = 0..m_cap-1 are the finite-gap laws and row m_cap = J + _gap_cap(q) is
    the infinite-gap law, which stands in for every gap >= m_cap.  rows is
    cdf flattened with row m lifted onto [m, m + 1), searched at m + u."""
    pairs, _ = q_geom_law(INFINITY, alpha, q)
    j_cap = len(pairs) - 1
    m_cap = j_cap + _gap_cap(q)
    # q_geom_pmf's formula, with (q; q)_k and (alpha; q)_k formed by the same
    # sequential products as q_pochhammer: each entry equals a q_geom_pmf call
    poch_q, poch_a = (
        np.r_[1.0, np.cumprod(1.0 - np.cumprod(np.r_[z, np.full(m_cap - 1, q)]))]
        for z in (q, alpha)
    )
    m = np.arange(m_cap)[:, None]
    j = np.arange(j_cap + 1)[None, :]
    k = np.maximum(m - j, 0)
    apow = np.array([alpha**i for i in range(j_cap + 1)])
    table = np.zeros((m_cap + 1, j_cap + 1))
    table[:m_cap] = np.where(
        j <= m, apow * poch_a[k] * poch_q[m] / (poch_q[j] * poch_q[k]), 0.0
    )
    table[m_cap] = [w for _, w in pairs]
    cdf = np.cumsum(table, axis=1)
    return cdf, (cdf + np.arange(m_cap + 1)[:, None]).ravel()


class _IndexedSearch:
    """np.searchsorted(table, keys) for keys in [0, ceil(table[-1])], O(1) a
    key (Chen & Asau 1974): bucket floor(key * K), K the power of two at or
    above the entries per unit, holds #{table < its left edge}, and two
    `table[i] < key` steps end the search; fuller buckets and the table's
    end hold -1 and take np.searchsorted."""

    def __init__(self, table: np.ndarray):
        span = math.ceil(table[-1])
        self.table, self.K = table, 1 << (-(-table.size // span) - 1).bit_length()
        lo = np.searchsorted(table, np.arange(span * self.K + 2) / self.K).astype(np.int32)
        self.guide = lo[:-1]
        self.guide[(np.diff(lo) > 2) | (self.guide > table.size - 2)] = -1

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        i = self.guide.take((keys * self.K).astype(np.intp))
        crowded = i < 0
        i += self.table.take(i) < keys
        i += self.table.take(i) < keys
        if crowded.any():
            i[crowded] = np.searchsorted(self.table, keys[crowded])
        return i


def _jump_tables(alpha: float, q: float):
    """(bulk(g, u), infinite-gap row) for one rate alpha: the jump at gap
    g > 0 is the first lifted entry of _geom_cdf_rows >= min(g, m_cap) + u,
    held in [0, min(g, J)].  The first particle's jump, the first entry >= u
    of the row, keeps np.searchsorted: it has one key a replica row, too few
    to pay for the indexed search's dozen numpy calls."""
    cdf, rows = _geom_cdf_rows(alpha, q)
    m_cap, width = cdf.shape[0] - 1, cdf.shape[1]
    search_rows = _IndexedSearch(rows)

    def bulk(g: np.ndarray, u: np.ndarray) -> np.ndarray:
        # where m + u rounds to m, the search can land on row m - 1's last
        # entries, lifted to exactly m: a jump < 0, held at 0
        m = np.minimum(g, m_cap)
        return np.clip(search_rows(m + u) - m * width, 0, np.minimum(g, width - 1))

    return bulk, cdf[-1]


def sample_mixed_batch(
    p: ModelParams,
    N: int,
    T: int,
    n_samples: int,
    seed: int,
    L: int | None = None,
) -> np.ndarray:
    """Vectorized mixed q-TASEP from the step configuration along the path
    N^{N-1} T^T, with the moves of `TimeLikePath.steps`.  Jump laws and q^gap
    are cut at GEOM_TAIL_CUT (see _geom_cdf_rows and _gap_cap).  Returns
    positions of shape (n_samples, L).  `sample_mixed_path` runs the same
    kernel along any time-like path and returns X(P) at every path point.

    Each move draws one uniform per replica and particle.  Only the first k
    gaps can be positive (k = 0 at the start, +1 per geometric move, all
    after a Bernoulli move), and only positive gaps get a table lookup (see
    _jump_tables and README, Numerical conventions).  In
    a Bernoulli move the latest particle at or before i that jumps even when
    blocked (code 2i+1) or stays even when pushed (code 2i) decides i's
    move: i jumps iff the running maximum of the codes is odd.

    Move m reads blocks of sampler_stream(seed), one row per replica: an
    R x L block at m * R * L for a Bernoulli move; R x (L - 1) for
    particles 2..L at m * R * L, then R for particle 1 at
    m * R * L + R * (L - 1), for a geometric move.  The rows run in chunks
    (rng._run_chunks), and the split moves no bit."""
    if N < 1 or T < 0:
        raise ValueError(f"need N >= 1 and T >= 0, got N = {N}, T = {T}")
    path = TimeLikePath.from_moves("N" * (N - 1) + "T" * T)
    return _mixed_kernel(path, p, replica_count(n_samples), seed, path.window(p, L))


def sample_mixed_path(
    path: TimeLikePath,
    p: ModelParams,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """X(P) = x_{N_t}(N_t, T_t) + N_t of the batch mixed q-TASEP at every
    point of `path`, shape (n_samples, len(path.points)); column 0 is the
    start (1, 0), where X(P) = 0.  It runs L = the path's largest N
    particles: a particle sees only the one ahead of it, so more would not
    change X(P).  The kernel and its stream positions are those of
    `sample_mixed_batch`, and move m reads only positions m * R * L onward,
    so a run passes through every shorter run with the same seed and L:
    where the first t moves are N^{N-1} T^T, column t equals
    sample_mixed_batch(p, N, T, n_samples, seed, L)[:, N - 1] + N bit for
    bit."""
    R = replica_count(n_samples)
    L = path.window(p, None)
    xp = np.empty((R, len(path.points)), dtype=np.int64)
    _mixed_kernel(path, p, R, seed, L, xp)
    return xp


def _mixed_kernel(
    path: TimeLikePath, p: ModelParams, R: int, seed: int, L: int, xp=None
) -> np.ndarray:
    """Run R replicas of L particles along `path` (see sample_mixed_batch)
    and return their final positions.  Given xp of shape (R, len(path.points)),
    each chunk also writes X(P) of its rows into it, point by point."""
    a = np.array(p.a[:L])
    bulk = set(p.a[1:L])
    # _jump_tables per rate a_i * alpha of a geometric move, built before any
    # worker starts; q_geom_pmf rejects a rate outside (0, 1)
    rates = {ai * alpha for *_, move, alpha in path.steps(p) if move == "GEOM"
             for ai in p.a[:L]}
    tables = {rate: _jump_tables(rate, p.q) for rate in rates}
    X = np.tile(-np.arange(1, L + 1, dtype=np.int64), (R, 1))
    k_cap = _gap_cap(p.q)
    # 1 - q^gap indexed by the distance x_{i-1} - x_i = gap + 1, cut at
    # k_cap + 1; distance 0 stands for the virtual x_0, which never blocks
    unblocked = np.r_[1.0, 1.0 - p.q ** np.arange(k_cap + 1, dtype=np.float64)]

    def _advance_rows(r0: int, r1: int, read):
        """Run every move on rows [r0, r1) of X.  It calls only numpy and
        private helpers, so it may run on a worker thread."""
        n = r1 - r0
        Xr = X[r0:r1]
        Xf = Xr.reshape(-1)
        V, P = np.empty((n, L)), np.empty((n, L))
        A, B = np.empty((n, L), dtype=bool), np.empty((n, L), dtype=bool)
        dist = np.zeros((n, L), dtype=np.int64)
        dist_f = dist.reshape(-1)
        # code 2i (stays even when pushed) or 2i + 1 (jumps even when blocked)
        # of particle i, lifted by r * (2L + 2) in row r: particle 1 always
        # decides (code >= 2), so one running maximum over the flattened
        # chunk never carries a code from one row into the next, and the
        # even lift keeps the parity
        lift = np.arange(n, dtype=np.int32)[:, None] * (2 * L + 2)
        lift = lift + np.arange(2, 2 * L + 1, 2, dtype=np.int32)
        code = np.empty((n, L), dtype=np.int32)
        flat = code.reshape(-1)
        U, first = np.empty((n, L - 1)), np.empty(n)
        k = 0
        if xp is not None:
            xp[r0:r1, 0] = Xr[:, 0] + 1
        for m, (n1, _, move, param) in enumerate(path.steps(p)):
            start = m * R * L
            if move == "BER":
                p_jump = a * param / (1.0 + a * param)
                read(start, V)
                # distances within each row, in one pass over the flattened
                # rows; column 0 gets the virtual x_0's distance 0
                np.subtract(Xf[:-1], Xf[1:], out=dist_f[1:])
                dist[:, 0] = 0
                # clip mode cuts distances past k_cap + 1 to the last entry
                np.take(unblocked, dist, out=P, mode="clip")
                P *= p_jump
                np.less(V, P, out=A)
                np.greater_equal(V, p_jump, out=B)
                B |= A
                np.multiply(B, lift, out=code)
                code += A
                np.maximum.accumulate(flat, out=flat)
                code &= 1
                Xr += code
                k = L - 1
            else:
                read(start, U)
                gaps = Xr[:, :k] - Xr[:, 1 : k + 1] - 1
                for ai in bulk:
                    free = (gaps > 0) & (a[1 : k + 1] == ai)
                    Xr[:, 1 : k + 1][free] += tables[ai * param][0](gaps[free], U[:, :k][free])
                read(start + R * (L - 1), first)
                Xr[:, 0] += np.searchsorted(tables[p.a[0] * param][1], first)
                k = min(k + 1, L - 1)
            if xp is not None:
                xp[r0:r1, m + 1] = Xr[:, n1 - 1] + n1

    _run_chunks(_advance_rows, R, L, seed)
    return X


# ---------------------------------------------------------------------------
# Exact move laws and truncated transition matrices

# cut of the exact laws' infinite-support jump law, returned as a deficit
EXACT_TAIL_CUT = 1e-12


def move_law(move: str, states: dict, a, param: float, q: float, floor: float = 0.0):
    """Exact law of one move from the weighted configurations `states`,
    {(x, tag): weight}, all x of one length; tag rides along unchanged.
    move is "BER" (param = beta) or "GEOM" (param = alpha).  Returns
    ({(x', tag): weight}, deficit).

    The particles move one at a time, and equal keys merge after each.  A
    Bernoulli move runs from particle 1 on, and each key carries whether
    the particle before stayed, so a blocked particle reads its pre-move
    gap.  A geometric move runs from the last particle back, so each jump
    law reads an unmoved predecessor.  A weight that a particle's step takes
    to `floor` or below (a zero at floor 0) goes into the deficit, as does
    the mass cut from the first particle's jump law at 1 - EXACT_TAIL_CUT.
    With one source per tag and floor 0, each weight is the exact product
    of the particles' factors."""
    if move not in ("BER", "GEOM"):
        raise ValueError(f"unknown move {move!r}")
    L = len(next(iter(states))[0]) if states else 0
    ber = move == "BER"
    # key (x, tag, stayed); the virtual x_0 before particle 1 never blocks
    layer = {(x, tag, False): w for (x, tag), w in states.items()}
    deficit = 0.0
    for i in range(L) if ber else range(L - 1, -1, -1):
        rate = a[i] * param
        free = rate / (1.0 + rate)
        moved: dict = {}
        for (x, tag, stayed), w in layer.items():
            if ber:  # a predecessor that stayed is unmoved: x[i - 1] is pre-move
                p = free * (1.0 - q ** (x[i - 1] - x[i] - 1)) if stayed else free
                steps = ((1, p), (0, 1.0 - p))
            else:
                gap = INFINITY if i == 0 else x[i - 1] - x[i] - 1
                steps, cut = q_geom_law(gap, rate, q, EXACT_TAIL_CUT)
                deficit += w * cut
            for j, pj in steps:
                wj = w * pj
                if wj <= floor:
                    deficit += wj
                    continue
                key = (x[:i] + (x[i] + j,) + x[i + 1 :] if j else x, tag, ber and not j)
                moved[key] = moved.get(key, 0.0) + wj
        layer = moved
    law: dict = {}
    for (x, tag, _), w in layer.items():
        law[x, tag] = law.get((x, tag), 0.0) + w
    return law, deficit


@dataclass
class TransitionMatrix:
    """Row-stochastic (up to recorded deficits) matrix over all strictly
    decreasing L-particle configurations inside box = (lo, hi), indexed
    lexicographically."""

    states: list
    index: dict
    matrix: np.ndarray
    row_deficit: np.ndarray


def box_configs(L: int, box) -> list:
    """All strictly decreasing L-tuples with entries in [lo, hi], in
    lexicographic order."""
    lo, hi = box
    return list(itertools.combinations(range(hi, lo - 1, -1), L))


def transition_matrix(
    move: str,
    a,
    L: int,
    box,
    *,
    alpha: float | None = None,
    beta: float | None = None,
    q: float,
) -> TransitionMatrix:
    """Explicit transition matrix of one move over the truncated state space.

    move is "GEOM" (requires alpha) or "BER" (requires beta).  Mass leaving
    the box is dropped and recorded per row in row_deficit; entries between
    in-box states are exact, so products of these matrices agree entrywise
    with the untruncated operators wherever row and column are in the box.
    """
    if move == "BER" and beta is None:
        raise ValueError("BER move requires beta")
    if move == "GEOM" and alpha is None:
        raise ValueError("GEOM move requires alpha")
    states = box_configs(L, box)
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    mat = np.zeros((n, n))
    row_deficit = np.zeros(n)
    param = beta if move == "BER" else alpha
    for r, s in enumerate(states):
        law, deficit = move_law(move, {(s, None): 1.0}, a, param, q)
        for (target, _), prob in law.items():
            col = index.get(target)
            if col is None:
                deficit += prob
            else:
                mat[r, col] = prob
        row_deficit[r] = deficit
    return TransitionMatrix(states, index, mat, row_deficit)
