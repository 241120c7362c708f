"""Local coupling of the Bernoulli/geometric q-TASEP moves through vertex
weights, and exact verification of the coupling propositions and the
time-like-path theorem.

All checks here are exact enumeration or dynamic programming over finite
state spaces (after certified geometric-tail cuts); nothing is Monte Carlo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import INFINITY, ModelParams, params_digest
from .qtasep import TimeLikePath, q_geom_law
from .vertex import vertex_weight_row


@dataclass(frozen=True)
class CouplingInputs:
    """Inputs of the local vertex-weight sampling step.

    x_prev and y_prev are the pre- and post-Bernoulli positions of particle
    m-1 (both +infinity when m = 1); xp_m is the post-geometric position of
    particle m.
    """

    x_prev: float
    y_prev: float
    xp_m: int
    a_m: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.x_prev == INFINITY:
            if self.y_prev != INFINITY:
                raise ValueError("x_prev and y_prev must both be infinite for m=1")
        else:
            if self.y_prev - self.x_prev not in (0, 1):
                raise ValueError("y_prev - x_prev must be 0 or 1")
            if self.x_prev <= self.xp_m:
                raise ValueError("need x_prev > xp_m")


def y_dagger_law(inp: CouplingInputs, q: float) -> dict:
    """Two-atom law of y-dagger in {xp_m, xp_m + 1} from the vertex weights
    with spectral parameter -beta and column parameters (a_m, alpha a_m)."""
    if inp.x_prev == INFINITY:
        i1, j1 = INFINITY, 0  # the weights do not depend on j1 in this limit
    else:
        i1 = int(inp.x_prev - inp.xp_m - 1)
        j1 = int(inp.y_prev - inp.x_prev)
    outcomes = vertex_weight_row(-inp.beta, inp.a_m, inp.alpha * inp.a_m, i1, j1, q)
    law: dict = {}
    for o in outcomes:
        law[inp.xp_m + o.j2] = law.get(inp.xp_m + o.j2, 0.0) + o.weight
    return law


def sample_y_dagger(inp: CouplingInputs, q: float, rng) -> int:
    law = sorted(y_dagger_law(inp, q).items())
    draw = rng.random()
    acc = 0.0
    for val, w in law:
        acc += w
        if draw < acc:
            return val
    return law[-1][0]


def _bernoulli_patterns(x, a, beta: float, q: float, upto: int):
    """All jump patterns of the first `upto` particles under one Bernoulli
    move from configuration x, with exact probabilities."""
    results = []

    def rec(i, jumps, prob, prev_jumped):
        if i == upto:
            results.append((tuple(jumps), prob))
            return
        p_jump = a[i] * beta / (1.0 + a[i] * beta)
        if i > 0 and not prev_jumped:
            gap = x[i - 1] - x[i] - 1
            p_jump *= 1.0 - q**gap
        if p_jump > 0.0:
            rec(i + 1, jumps + (1,), prob * p_jump, True)
        if p_jump < 1.0:
            rec(i + 1, jumps + (0,), prob * (1.0 - p_jump), False)

    rec(0, (), 1.0, True)
    return results


@dataclass
class CouplingReport:
    check: str
    digest: str
    tv_distance: float
    truncation_deficit: float
    passed: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "check": self.check,
                "params_digest": self.digest,
                "tv_distance": self.tv_distance,
                "truncation_deficit": self.truncation_deficit,
                "pass": self.passed,
            }
        )


def _tv(p1: dict, p2: dict) -> float:
    keys = set(p1) | set(p2)
    return 0.5 * sum(abs(p1.get(k, 0.0) - p2.get(k, 0.0)) for k in keys)


def joint_law_check_prop_A(
    x,
    m: int,
    a,
    alpha: float,
    beta: float,
    q: float,
    tail: float = 1e-12,
    tol: float = 1e-8,
) -> CouplingReport:
    """Exact joint pmf of (y_{m-1}, y-dagger_m) vs (y_{m-1}, y^{BG}_m)."""
    x = tuple(x)
    if not 1 <= m <= len(x):
        raise ValueError("m out of range")
    deficit = 0.0
    dagger: dict = {}
    gap_m = INFINITY if m == 1 else x[m - 2] - x[m - 1] - 1
    geom_pairs, d = q_geom_law(gap_m, a[m - 1] * alpha, q, tail)
    for pattern, pb in _bernoulli_patterns(x, a, beta, q, m - 1):
        y_prev = INFINITY if m == 1 else x[m - 2] + pattern[m - 2]
        x_prev = INFINITY if m == 1 else x[m - 2]
        deficit += pb * d
        for j, pg in geom_pairs:
            xp = x[m - 1] + j
            inp = CouplingInputs(x_prev, y_prev, xp, a[m - 1], alpha, beta)
            for yd, pd in y_dagger_law(inp, q).items():
                key = (y_prev, yd)
                dagger[key] = dagger.get(key, 0.0) + pb * pg * pd
    composed: dict = {}
    for pattern, pb in _bernoulli_patterns(x, a, beta, q, m):
        y_prev = INFINITY if m == 1 else x[m - 2] + pattern[m - 2]
        y_m = x[m - 1] + pattern[m - 1]
        gap = INFINITY if m == 1 else y_prev - y_m - 1
        pairs, d2 = q_geom_law(gap, a[m - 1] * alpha, q, tail)
        deficit += pb * d2
        for j, pg in pairs:
            key = (y_prev, y_m + j)
            composed[key] = composed.get(key, 0.0) + pb * pg
    tv = _tv(dagger, composed)
    return CouplingReport(
        f"prop_A(m={m})", "", tv, deficit, tv + deficit <= tol
    )


def joint_law_check_prop_B(
    x,
    m: int,
    a,
    alpha: float,
    beta: float,
    q: float,
    tail: float = 1e-12,
    tol: float = 1e-8,
) -> CouplingReport:
    """Exact joint pmf of (x'_m, y-dagger_m) vs (x'_m, y^{GB}_m)."""
    x = tuple(x)
    if not 1 <= m <= len(x):
        raise ValueError("m out of range")
    deficit = 0.0
    dagger: dict = {}
    gap_m = INFINITY if m == 1 else x[m - 2] - x[m - 1] - 1
    geom_pairs, d = q_geom_law(gap_m, a[m - 1] * alpha, q, tail)
    for pattern, pb in _bernoulli_patterns(x, a, beta, q, m - 1):
        y_prev = INFINITY if m == 1 else x[m - 2] + pattern[m - 2]
        x_prev = INFINITY if m == 1 else x[m - 2]
        deficit += pb * d
        for j, pg in geom_pairs:
            xp = x[m - 1] + j
            inp = CouplingInputs(x_prev, y_prev, xp, a[m - 1], alpha, beta)
            for yd, pd in y_dagger_law(inp, q).items():
                key = (xp, yd)
                dagger[key] = dagger.get(key, 0.0) + pb * pg * pd
    # GB route: independent geometric jumps of particles 1..m, then a
    # Bernoulli move on the jumped configuration down to particle m.
    composed: dict = {}

    def geom_prefix(i, xs, prob):
        nonlocal deficit
        if i == m:
            for pattern, pb in _bernoulli_patterns(xs, a, beta, q, m):
                key = (xs[m - 1], xs[m - 1] + pattern[m - 1])
                composed[key] = composed.get(key, 0.0) + prob * pb
            return
        gap = INFINITY if i == 0 else x[i - 1] - x[i] - 1
        pairs, d2 = q_geom_law(gap, a[i] * alpha, q, tail)
        deficit += prob * d2
        for j, pg in pairs:
            geom_prefix(i + 1, xs + (x[i] + j,), prob * pg)

    geom_prefix(0, (), 1.0)
    tv = _tv(dagger, composed)
    return CouplingReport(
        f"prop_B(m={m})", "", tv, deficit, tv + deficit <= tol
    )


# ---------------------------------------------------------------------------
# Time-like-path theorem: exact joint laws by double dynamic programming


def _advance_row(states: dict, u: float, p: ModelParams, n_win: int) -> dict:
    """One horizontal slice of the vertex model: push every (m, exited)
    state through the column sweep with an entering left arrow."""
    out: dict = {}
    for ((m, exited), vals), prob in states.items():
        frontier = [(m, 1, prob)]
        for col in range(n_win):
            new_frontier = []
            for mm, j, pr in frontier:
                for o in vertex_weight_row(
                    u, p.a[col], p.nu[col], mm[col], j, p.q
                ):
                    if o.weight <= 0.0:
                        continue
                    m2 = mm[:col] + (int(o.i2),) + mm[col + 1 :]
                    new_frontier.append((m2, o.j2, pr * o.weight))
            frontier = new_frontier
        for mm, j, pr in frontier:
            key = ((mm, exited + j), vals)
            out[key] = out.get(key, 0.0) + pr
    return out


def _vertex_joint_law(path: TimeLikePath, p: ModelParams, r: int) -> dict:
    """Exact joint law of h(N_t + r, T_t) along the path, by DP over row
    states in a window wide enough that exits are tracked, not truncated."""
    n_win = max(n for n, _ in path.points) + r
    if n_win > len(p.a):
        raise ValueError("path needs more columns than available")

    def observe(state, n):
        m, exited = state
        return sum(m[n + r - 1 :]) + exited

    init_state = ((0,) * n_win, 0)
    states = {(init_state, (observe(init_state, 1),)): 1.0}
    cur_t = 0
    for (n0, t0), (n1, t1) in zip(path.points, path.points[1:]):
        if t1 == t0 + 1:
            states = _advance_row(states, p.u[t1 - 1], p, n_win)
            cur_t = t1
        new: dict = {}
        for (state, vals), prob in states.items():
            key = (state, vals + (observe(state, n1),))
            new[key] = new.get(key, 0.0) + prob
        states = new
    law: dict = {}
    for (state, vals), prob in states.items():
        law[vals] = law.get(vals, 0.0) + prob
    return law


def _tasep_joint_law(
    path: TimeLikePath,
    p: ModelParams,
    r: int,
    tail: float,
    prune: float,
):
    """Exact joint law of x_{N_t+r-1}(N_t,T_t) + N_t + r - 1 along the path
    by DP over truncated particle configurations; returns (law, deficit)."""
    from .qtasep import bernoulli_law, geometric_law

    L = max(n for n, _ in path.points) + r - 1
    c = p.c
    deficit = 0.0
    x0 = tuple(-i for i in range(1, L + 1))
    states = {(x0, (x0[r - 1] + r,)): 1.0}
    for (n0, t0), (n1, t1) in zip(path.points, path.points[1:]):
        moved: dict = {}
        for (cfg, vals), prob in states.items():
            if t1 == t0 + 1:
                law = bernoulli_law(cfg, p.a, -p.u[t1 - 1], p.q)
            else:
                alpha = c[n1 + r - 2]
                if alpha <= 0.0:
                    raise ValueError(f"geometric move needs nu_{n1 + r - 1} > 0")
                law, d = geometric_law(cfg, p.a, alpha, p.q, tail)
                deficit += prob * d
            for target, pr in law:
                w = prob * pr
                if w < prune:
                    deficit += w
                    continue
                key = (target, vals + (target[n1 + r - 2] + n1 + r - 1,))
                moved[key] = moved.get(key, 0.0) + w
        states = moved
    law: dict = {}
    for (cfg, vals), prob in states.items():
        law[vals] = law.get(vals, 0.0) + prob
    return law, deficit


def theorem_coupling_check(
    path: TimeLikePath,
    p: ModelParams,
    r: int = 1,
    tail: float = 1e-12,
    prune: float = 1e-16,
    tol: float = 1e-8,
) -> CouplingReport:
    """TV distance between the exact joint law of the height values
    h(N_t + r, T_t) along the path (step-Bernoulli of order r) and the exact
    joint law of the shifted mixed q-TASEP particles X(P)."""
    if any(p.nu[i] != 0.0 for i in range(r)):
        raise ValueError(f"order-{r} boundary requires nu_1..nu_{r} = 0")
    vertex_law = _vertex_joint_law(path, p, r)
    tasep_law, deficit = _tasep_joint_law(path, p, r, tail, prune)
    tv = _tv(vertex_law, tasep_law)
    return CouplingReport(
        f"coupling_theorem(r={r},path={path.points})",
        params_digest(p),
        tv,
        deficit,
        tv + deficit <= tol,
    )
