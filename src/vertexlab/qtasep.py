"""Discrete-time geometric and Bernoulli q-TASEPs: jump laws, Markov moves,
mixed evolution along time-like paths, and truncated transition matrices for
the exact commutation and path-independence checks.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import INFINITY, ModelParams, check_window, q_pochhammer
from .rng import stream

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


def q_geom_law(m, alpha: float, q: float, tail: float = GEOM_TAIL_CUT):
    """Jump law as a list of (j, weight); infinite support cut at cumulative
    1 - tail. Returns (pairs, deficit)."""
    if m != INFINITY:
        return [(j, q_geom_pmf(m, alpha, q, j)) for j in range(int(m) + 1)], 0.0
    pairs = []
    acc = 0.0
    j = 0
    while acc < 1.0 - tail:
        w = q_geom_pmf(INFINITY, alpha, q, j)
        pairs.append((j, w))
        acc += w
        j += 1
    return pairs, max(0.0, 1.0 - acc)


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

    def gaps(self) -> list:
        """Pre-move gaps m_i = x_{i-1} - x_i - 1, with m_1 = INFINITY."""
        out = [INFINITY]
        for i in range(1, len(self.x)):
            out.append(self.x[i - 1] - self.x[i] - 1)
        return out

    def __len__(self) -> int:
        return len(self.x)


def _inv_cdf(pairs, draw: float) -> int:
    acc = 0.0
    val = pairs[-1][0]
    for j, w in pairs:
        acc += w
        if draw < acc:
            val = j
            break
    return val


def geometric_move(
    cfg: ParticleConfig, a, alpha: float, q: float, rng
) -> ParticleConfig:
    """Parallel geometric update: particle i jumps by j ~ p_{gap_i, a_i*alpha},
    all gaps taken from the pre-move configuration (parallel update)."""
    gaps = cfg.gaps()
    for i in range(len(cfg)):
        if a[i] * alpha >= 1.0:
            raise ValueError(f"rate violation: a_{i+1} * alpha = {a[i] * alpha} >= 1")
    new = []
    for i in range(len(cfg)):
        pairs, _ = q_geom_law(gaps[i], a[i] * alpha, q)
        new.append(cfg.x[i] + _inv_cdf(pairs, rng.random()))
    return ParticleConfig(tuple(new))


def bernoulli_move(
    cfg: ParticleConfig, a, beta: float, q: float, rng
) -> ParticleConfig:
    """Sequential Bernoulli update, interaction propagating right to left;
    the i-th decision uses the pre-move gap even though x_{i-1} has already
    been updated."""
    if beta <= 0.0:
        raise ValueError(f"beta must be > 0, got {beta}")
    old = cfg.x
    new = []
    prev_jumped = True  # virtual x_0 at +infinity never blocks
    for i in range(len(cfg)):
        p_jump = a[i] * beta / (1.0 + a[i] * beta)
        if i > 0 and not prev_jumped:
            gap = old[i - 1] - old[i] - 1
            p_jump *= 1.0 - q**gap
        jumped = rng.random() < p_jump
        new.append(old[i] + (1 if jumped else 0))
        prev_jumped = jumped
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

    def __len__(self) -> int:
        return len(self.points)


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
    """Evolve the mixed geometric/Bernoulli q-TASEP along `path`.

    A T-increment applies the Bernoulli move with beta = -u_{T'}; an
    N-increment to N' applies the geometric move with alpha = c_{N'}.  The
    recorded values are x_{N_t}(N_t, T_t) + N_t.
    """
    rng = stream(seed, 0)
    n_end = max(n for n, _ in path.points)
    if L is None:
        L = n_end
    if L < n_end:
        raise ValueError("L too small for the path")
    check_window(p, L, max(t for _, t in path.points))
    c = p.c
    cfg = ParticleConfig.step(L)
    moves = ["start"]
    configs = [cfg]
    xvals = [cfg.x[0] + 1]
    for (n0, t0), (n1, t1) in zip(path.points, path.points[1:]):
        if t1 == t0 + 1:
            beta = -p.u[t1 - 1]
            cfg = bernoulli_move(cfg, p.a, beta, p.q, rng)
            moves.append(f"BER({beta})")
        else:
            alpha = c[n1 - 1]
            if alpha <= 0.0:
                raise ValueError(f"geometric move needs nu_{n1} > 0 (alpha = {alpha})")
            cfg = geometric_move(cfg, p.a, alpha, p.q, rng)
            moves.append(f"GEOM({alpha})")
        configs.append(cfg)
        xvals.append(cfg.x[n1 - 1] + n1)
    return Trajectory(path.points, tuple(moves), tuple(configs), tuple(xvals))


def _gap_cap(q: float) -> int:
    """Smallest K with q^K / (1 - q) < GEOM_TAIL_CUT.  From gap K on, the
    Bernoulli blocking factor q^gap is below the cut, and so is the distance
    from one of the finite-gap factors (1 - q^k), (1 - alpha q^k), k >= K,
    of the jump law."""
    return math.ceil(math.log(GEOM_TAIL_CUT * (1.0 - q)) / math.log(q))


def _geom_cdf_rows(alpha: float, q: float) -> np.ndarray:
    """Cumulative jump tables for one rate alpha.  Columns j = 0..J end where
    the infinite-gap law reaches 1 - GEOM_TAIL_CUT; rows m = 0..m_cap-1 are
    the finite-gap laws and row m_cap = J + _gap_cap(q) is the infinite-gap
    law, which stands in for every gap >= m_cap."""
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
    return np.cumsum(table, axis=1)


def sample_mixed_batch(
    p: ModelParams,
    N: int,
    T: int,
    n_samples: int,
    seed: int,
    L: int | None = None,
) -> np.ndarray:
    """Vectorized mixed q-TASEP: N-1 geometric moves (alpha = c_2..c_N) and
    T Bernoulli moves (beta = -u_1..-u_T) from the step configuration.
    Jump laws and the blocking factor q^gap are cut at GEOM_TAIL_CUT (see
    _geom_cdf_rows and _gap_cap).  Returns positions of shape (n_samples, L).

    Each move draws one uniform per replica and particle, also for gap-0
    particles, whose geometric jump is 0 without a table lookup.  In a
    Bernoulli move the latest particle at or before i that jumps even when
    blocked (code 2i+1) or stays even when pushed (code 2i) decides i's move:
    i jumps iff the running maximum of the codes is odd."""
    if L is None:
        L = N
    check_window(p, max(N, L), T)
    rng = stream(seed, 0)
    R = int(n_samples)
    a = np.array(p.a[:L])
    c = p.c
    rates, bulk = set(p.a[:L]), set(p.a[1:L])
    X = np.tile(-np.arange(1, L + 1, dtype=np.int64), (R, 1))
    tables = {}  # rate a_i * alpha -> (cdf table, rows laid out on [m, m+1))
    U = np.empty((R, L - 1))
    for n in range(2, N + 1):
        alpha = c[n - 1]
        if alpha <= 0.0:
            raise ValueError(f"geometric move needs nu_{n} > 0")
        for ai in rates:
            if ai * alpha >= 1.0:
                raise ValueError(f"rate violation: a*alpha = {ai * alpha} >= 1")
            if ai * alpha not in tables:
                cdf = _geom_cdf_rows(ai * alpha, p.q)
                tables[ai * alpha] = (cdf, (cdf + np.arange(len(cdf))[:, None]).ravel())
        rng.random(out=U)
        # from the step configuration only the first n-2 gaps can be positive
        k = min(n - 2, L - 1)
        gaps = X[:, :k] - X[:, 1 : k + 1] - 1
        for ai in bulk:
            free = (gaps > 0) & (a[1 : k + 1] == ai)
            cdf, flat = tables[ai * alpha]
            m_cap, width = cdf.shape[0] - 1, cdf.shape[1]
            g = gaps[free]
            rows = np.minimum(g, m_cap)
            u_draw = np.minimum(U[:, :k][free], 1 - 1e-16)
            j = np.searchsorted(flat, rows + u_draw) - rows * width
            X[:, 1 : k + 1][free] += np.minimum(j, np.minimum(g, width - 1))
        X[:, 0] += np.searchsorted(tables[a[0] * alpha][0][-1], rng.random(R))
    k_cap = _gap_cap(p.q)
    qpow = p.q ** np.arange(k_cap + 1, dtype=np.float64)
    idx2 = np.arange(2, 2 * L + 1, 2, dtype=np.int32)
    V, A = np.empty((R, L)), np.empty((R, L), dtype=bool)
    for t in range(T):
        beta = -p.u[t]
        p_jump = a * beta / (1.0 + a * beta)
        rng.random(out=V)
        gaps = np.minimum(X[:, :-1] - X[:, 1:] - 1, k_cap)
        np.less(V[:, 0], p_jump[0], out=A[:, 0])
        np.less(V[:, 1:], p_jump[1:] * (1.0 - qpow[gaps]), out=A[:, 1:])
        code = ((V >= p_jump) | A) * idx2 + A
        X += np.maximum.accumulate(code, axis=1) & 1
    return X


# ---------------------------------------------------------------------------
# Exact move laws and truncated transition matrices

# cut of the first particle's infinite-support jump law in transition_matrix
TRANSITION_TAIL_TOL = 1e-12


def bernoulli_law(cfg_x: tuple, a, beta: float, q: float):
    """Exact law of one Bernoulli move from cfg_x: list of (new_x, prob)."""
    L = len(cfg_x)
    out = []
    for pattern in itertools.product((0, 1), repeat=L):
        prob = 1.0
        prev = True
        for i in range(L):
            p_jump = a[i] * beta / (1.0 + a[i] * beta)
            if i > 0 and not prev:
                gap = cfg_x[i - 1] - cfg_x[i] - 1
                p_jump *= 1.0 - q**gap
            prob *= p_jump if pattern[i] else 1.0 - p_jump
            prev = bool(pattern[i])
        if prob > 0.0:
            out.append((tuple(x + d for x, d in zip(cfg_x, pattern)), prob))
    return out


def geometric_law(cfg_x: tuple, a, alpha: float, q: float, tail: float = GEOM_TAIL_CUT):
    """Exact law of one geometric move: list of (new_x, prob) plus the
    truncation deficit of the first particle's infinite-support jump."""
    L = len(cfg_x)
    per_particle = []
    deficit = 0.0
    gaps = [INFINITY] + [cfg_x[i - 1] - cfg_x[i] - 1 for i in range(1, L)]
    for i in range(L):
        pairs, d = q_geom_law(gaps[i], a[i] * alpha, q, tail)
        per_particle.append(pairs)
        deficit += d
    out = []
    for joint in itertools.product(*per_particle):
        prob = 1.0
        for _, w in joint:
            prob *= w
        if prob > 0.0:
            out.append((tuple(x + j for x, (j, _) in zip(cfg_x, joint)), prob))
    return out, deficit


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
    return [
        tuple(sorted(c, reverse=True))
        for c in itertools.combinations(range(hi, lo - 1, -1), L)
    ]


def transition_matrix(
    move: str,
    a,
    L: int,
    box,
    *,
    alpha: float | None = None,
    beta: float | None = None,
    q: float = 0.5,
) -> TransitionMatrix:
    """Explicit transition matrix of one move over the truncated state space.

    move is "GEOM" (requires alpha) or "BER" (requires beta).  Mass leaving
    the box is dropped and recorded per row in row_deficit; entries between
    in-box states are exact, so products of these matrices agree entrywise
    with the untruncated operators wherever row and column are in the box.
    """
    states = box_configs(L, box)
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    mat = np.zeros((n, n))
    row_deficit = np.zeros(n)
    for r, s in enumerate(states):
        if move == "BER":
            law = bernoulli_law(s, a, beta, q)
            deficit = 0.0
        elif move == "GEOM":
            law, deficit = geometric_law(s, a, alpha, q, TRANSITION_TAIL_TOL)
        else:
            raise ValueError(f"unknown move {move!r}")
        for target, prob in law:
            col = index.get(target)
            if col is None:
                deficit += prob
            else:
                mat[r, col] += prob
        row_deficit[r] = deficit
    return TransitionMatrix(states, index, mat, row_deficit)
