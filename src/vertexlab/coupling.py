"""Local coupling of the Bernoulli/geometric q-TASEP moves through vertex
weights, and exact verification of the coupling propositions and the
time-like-path theorem.

All checks here are exact enumeration or dynamic programming over finite
state spaces (after certified geometric-tail cuts); nothing is Monte Carlo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import INFINITY, ModelParams, check_window, params_digest
from .qtasep import EXACT_TAIL_CUT, ParticleConfig, TimeLikePath, gaps, move_law, q_geom_law
from .vertex import check_boundary, vertex_weight_row

# Infinite-support jump laws are cut at cumulative 1 - qtasep.EXACT_TAIL_CUT,
# the DP drops weights at or below PRUNE_FLOOR after each particle's step, and
# a check passes when TV + truncation deficit <= TV_TOL; cut and dropped mass
# is counted in the deficit.
PRUNE_FLOOR = 1e-16
TV_TOL = 1e-8


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


def _dagger_law(x, m: int, a, alpha: float, beta: float, q: float, keep: tuple):
    """Exact joint law of (y_{m-1}, x'_m, y-dagger_m), marginalized onto the
    coordinates listed in `keep`: a Bernoulli move of particles 1..m-1, an
    independent geometric jump of particle m, then the local vertex-weight
    step.  Returns (law, truncation deficit); y_{m-1} is +infinity when
    m = 1."""
    x = tuple(x)
    if not 1 <= m <= len(x):
        raise ValueError("m out of range")
    law: dict = {}
    deficit = 0.0
    x_prev = INFINITY if m == 1 else x[m - 2]
    geom_pairs, d = q_geom_law(gaps(x)[m - 1], a[m - 1] * alpha, q, EXACT_TAIL_CUT)
    moved, _ = move_law("BER", {(x[: m - 1], None): 1.0}, a, beta, q)
    for (y, _), pb in moved.items():
        y_prev = INFINITY if m == 1 else y[m - 2]
        deficit += pb * d
        for j, pg in geom_pairs:
            xp = x[m - 1] + j
            inp = CouplingInputs(x_prev, y_prev, xp, a[m - 1], alpha, beta)
            for yd, pd in y_dagger_law(inp, q).items():
                coords = (y_prev, xp, yd)
                key = tuple(coords[i] for i in keep)
                law[key] = law.get(key, 0.0) + pb * pg * pd
    return law, deficit


def joint_law_check_prop_A(x, m: int, a, alpha: float, beta: float, q: float):
    """Exact joint pmf of (y_{m-1}, y-dagger_m) vs (y_{m-1}, y^{BG}_m);
    returns (TV distance, truncation deficit)."""
    dagger, deficit = _dagger_law(x, m, a, alpha, beta, q, keep=(0, 2))
    # BG route: a Bernoulli move of particles 1..m, then the geometric jump
    # of particle m against the moved particle m-1.
    composed: dict = {}
    moved, _ = move_law("BER", {(tuple(x[:m]), None): 1.0}, a, beta, q)
    for (y, _), pb in moved.items():
        y_prev = INFINITY if m == 1 else y[m - 2]
        pairs, d2 = q_geom_law(gaps(y)[m - 1], a[m - 1] * alpha, q, EXACT_TAIL_CUT)
        deficit += pb * d2
        for j, pg in pairs:
            key = (y_prev, y[m - 1] + j)
            composed[key] = composed.get(key, 0.0) + pb * pg
    return _tv(dagger, composed), deficit


def joint_law_check_prop_B(x, m: int, a, alpha: float, beta: float, q: float):
    """Exact joint pmf of (x'_m, y-dagger_m) vs (x'_m, y^{GB}_m);
    returns (TV distance, truncation deficit)."""
    dagger, deficit = _dagger_law(x, m, a, alpha, beta, q, keep=(1, 2))
    # GB route: independent geometric jumps of particles 1..m, then a
    # Bernoulli move on the jumped configuration down to particle m, with
    # x'_m as the tag.
    jumped, d2 = move_law("GEOM", {(tuple(x[:m]), None): 1.0}, a, alpha, q)
    deficit += d2
    tagged = {(xs, xs[m - 1]): pg for (xs, _), pg in jumped.items()}
    composed: dict = {}
    for (y, xm), w in move_law("BER", tagged, a, beta, q)[0].items():
        composed[xm, y[m - 1]] = composed.get((xm, y[m - 1]), 0.0) + w
    return _tv(dagger, composed), deficit


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
                for o in vertex_weight_row(u, p.a[col], p.nu[col], mm[col], j, p.q):
                    m2 = mm[:col] + (int(o.i2),) + mm[col + 1 :]
                    new_frontier.append((m2, o.j2, pr * o.weight))
            frontier = new_frontier
        for mm, j, pr in frontier:
            key = ((mm, exited + j), vals)
            out[key] = out.get(key, 0.0) + pr
    return out


def _observed_law(states: dict) -> dict:
    """Marginal law of the observed values of (state, values) DP keys."""
    law: dict = {}
    for (_, vals), prob in states.items():
        law[vals] = law.get(vals, 0.0) + prob
    return law


def _vertex_joint_law(path: TimeLikePath, p: ModelParams, r: int) -> dict:
    """Exact joint law of h(N_t + r, T_t) along the path, by DP over row
    states in a window wide enough that exits are tracked, not truncated."""
    n_win = max(n for n, _ in path.points) + r

    def observe(state, n):
        m, exited = state
        return sum(m[n + r - 1 :]) + exited

    init_state = ((0,) * n_win, 0)
    states = {(init_state, (observe(init_state, 1),)): 1.0}
    for n1, _, move, param in path.steps(p, r):
        if move == "BER":
            states = _advance_row(states, -param, p, n_win)
        # re-keying is exact: the keys are unique, so no probabilities add
        states = {(s, v + (observe(s, n1),)): pr for (s, v), pr in states.items()}
    return _observed_law(states)


def _tasep_joint_law(path: TimeLikePath, p: ModelParams, r: int):
    """Exact joint law of x_{N_t+r-1}(N_t,T_t) + N_t + r - 1 along the path
    by DP over truncated particle configurations; returns (law, deficit)."""
    L = max(n for n, _ in path.points) + r - 1
    deficit = 0.0
    x0 = ParticleConfig.step(L).x
    states = {(x0, (x0[r - 1] + r,)): 1.0}
    for n1, _, move, param in path.steps(p, r):
        states, d = move_law(move, states, p.a, param, p.q, PRUNE_FLOOR)
        deficit += d
        # re-keying is exact: the keys are unique, so no probabilities add
        k = n1 + r - 1
        states = {(x, vals + (x[k - 1] + k,)): w for (x, vals), w in states.items()}
    return _observed_law(states), deficit


def theorem_coupling_check(
    path: TimeLikePath, p: ModelParams, r: int = 1
) -> CouplingReport:
    """TV distance between the exact joint law of the height values
    h(N_t + r, T_t) along the path (step-Bernoulli of order r) and the exact
    joint law of the shifted mixed q-TASEP particles X(P).  The theorem needs
    r >= 1: at r = 0 the observed particle x_{N_t - 1} would be x_0."""
    if r < 1:
        raise ValueError(f"coupling theorem needs a boundary order r >= 1, got r={r}")
    check_window(p, max(n for n, _ in path.points) + r, max(t for _, t in path.points))
    check_boundary(p, r)
    vertex_law = _vertex_joint_law(path, p, r)
    tasep_law, deficit = _tasep_joint_law(path, p, r)
    tv = _tv(vertex_law, tasep_law)
    return CouplingReport(
        f"coupling_theorem(r={r},path={path.points})",
        params_digest(p),
        tv,
        deficit,
        tv + deficit <= TV_TOL,
    )
