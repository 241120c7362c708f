"""The probe battery of a traced run.

After the workload pass, every traced run runs the same battery: unit-cost
probes and the exact and scalar reference routes (sum-to-one at T = 6, 7, 8,
couple-check TTNNTN and NTNTNT through ``cli.main``, the route triangle at
ell = 3, Fredholm against brute force at N = T = 4, commutation at L = 3,
small ``sample_quadrant`` and ``run_mixed`` runs).  So each per-layer metric
is measured on every workload, and a difference between workloads comes from
the workload pass.  Then two microbenchmarks run with the tracer removed.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

from workloads import Op, asymptotics_op, require, sub_seed, suite_op

# Centre of the couple-check parameter box: harness.draw_params(stream(0, 11),
# 7, 5, bernoulli=True) rounded.  The double DP's state count grows steeply
# with q and nu (TTNNTN takes 5 s here and 35-140 s at other regime draws,
# and 3.4-5.1 s under a 1% jitter), so the seed jitters these values by 0.2%
# instead of drawing a new regime.
COUPLE_BASE = {
    "q": 0.31,
    "u": [-1.633, -0.398, -1.069, -1.773, -1.586],
    "a": [0.885, 1.114, 1.032, 1.037, 1.125, 1.091, 1.047],
    "nu": [0.0, 0.104, 0.138, 0.137, 0.121, 0.174, 0.300],
}
COUPLE_PATHS = ("TTNNTN", "NTNTNT")
SUM_TOL = 1e-10  # sum-to-one, vertex.py docstrings and check_sum_to_one
ROUTE_TOL = 1e-9  # route triangle, check_route_triangle
FREDHOLM_TOL = 1e-6  # check_fredholm_bruteforce
COMMUTE_TOL = 1e-10  # check_commutation


def oracle_params(vl, rng, n_cols: int, n_rows: int):
    """Regime draw with u spread over [0.4, 2.4]: the symmetrization sums stay
    inside their 1e-10 tolerance up to T = 7 (the T! cancellation of
    ROADMAP item 3 grows as u values approach each other)."""
    q = rng.uniform(0.3, 0.5)
    a = rng.uniform(0.8, 1.2, n_cols)
    nu = rng.uniform(0.1, 0.4, n_cols)
    u = -np.linspace(0.4, 2.4, n_rows) * rng.uniform(0.97, 1.03, n_rows)
    return vl.core.ModelParams(q=q, u=tuple(u), a=tuple(a), nu=tuple(nu))


def route_params(vl, rng):
    """Draw for the ell = 3 route triangle.  q stays at or above 0.4: the
    ell = 3 product quadrature fails its 1e-10 grid-doubling check on about
    half of the harness.draw_params draws, all of them with q < 0.35."""
    q = rng.uniform(0.4, 0.55)
    a = rng.uniform(0.8, 1.2, 4)
    nu = rng.uniform(0.1, 0.4, 4)
    u = -rng.uniform(0.3, 2.5, 3)
    return vl.core.ModelParams(q=q, u=tuple(u), a=tuple(a), nu=tuple(nu))


def couple_params(vl, rng):
    def jitter(v):
        return [float(x * rng.uniform(0.998, 1.002)) for x in v]

    b = COUPLE_BASE
    return vl.core.ModelParams(
        q=b["q"] * rng.uniform(0.998, 1.002), u=tuple(jitter(b["u"])),
        a=tuple(jitter(b["a"])), nu=tuple(jitter(b["nu"])),
    )


def sum_to_one_op(vl, p, T: int, N: int, gate: bool, name: str) -> Op:
    def fn():
        s = vl.vertex.sum_f_stoch_truncated(p, T, N)
        err = abs(s - 1.0)
        if gate:
            require(err <= SUM_TOL, f"sum-to-one T={T}: |sum-1| = {err:.3g} > {SUM_TOL}")
        return {"err": err, "T": T, "partitions": math.comb(T + N, T)}

    return Op(name, f"q={p.q!r} u={p.u!r}", fn)


def sum_to_one_check_op(vl, seed: int, draws: int) -> Op:
    """`verify default`'s sum-to-one check (T, N <= 4, draw_params draws) at
    a seed drawn from the workload seed.  Its worst |sum - 1| is recorded,
    not gated: about 1% of the draws miss 1e-10 (see NOTES.md)."""

    def fn():
        check = vl.harness.CHECKS["sum-to-one"]
        return {"err": float(check(seed=seed, budget=draws).statistic)}

    return Op("probe:sum-to-one-check", f"seed={seed} draws={draws}", fn)


def couple_check_op(vl, config_path, out_dir, path: str) -> Op:
    def fn():
        argv = ["couple-check", "--config", str(config_path), "--path", path,
                "--out", str(out_dir)]
        try:
            rc = vl.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit instead of returning
            rc = exc.code
        require(rc == 0, f"couple-check {path} exited {rc}")
        rep = json.loads((out_dir / "couple_check.json").read_text())
        return {"tv": rep.get("tv_distance")}

    return Op(f"probe:couple-check:{path}", f"{config_path.name} {path}", fn)


def write_config(vl, p, path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(vl.core.params_to_config(p))


def route_triangle_op(vl, p, tiny: bool) -> Op:
    """Operator, quadrature and residue routes at ell = 3 agree pairwise."""
    n_lists = [(1, 1, 1)] if tiny else [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1)]
    cases = [(nl, t) for nl in n_lists for t in (1, 2, 3)]

    def fn():
        worst = 0.0
        for nl, t in cases:
            op = vl.diffops.operator_expectation(nl, t, max(nl), p)
            quad, _ = vl.moments.moment_product_quadrature(nl, t, p)
            res = vl.moments.product_moment_residues(nl, t, p)
            worst = max(worst, abs(op - quad), abs(quad - res), abs(op - res))
        require(worst <= ROUTE_TOL, f"route triangle spread {worst:.3g} > {ROUTE_TOL}")
        return {"worst": worst}

    return Op("probe:route-triangle:l3", f"q={p.q!r} cases={len(cases)}", fn)


def fredholm_op(vl, u: float, a1: float, tiny: bool) -> Op:
    """Fredholm length cdf against brute-force enumeration.  N = T = 4 at
    part cutoff 25 (the enumerated mass still passes its 1e-10 check)."""
    n = 2 if tiny else 4

    def fn():
        s = vl.schur.SchurSetup(q=0.5, u=u, a1=a1, N=n, T=n)
        pmf = vl.schur.schur_length_pmf(s, part_cutoff=25)
        cdf = vl.schur.fredholm_length_cdf(s, range(n + 1), cutoff=25)
        acc, worst = 0.0, 0.0
        for k in range(n + 1):
            acc += pmf[k]
            worst = max(worst, abs(cdf[k] - acc))
        require(worst <= FREDHOLM_TOL, f"Fredholm vs brute force {worst:.3g} > {FREDHOLM_TOL}")
        return {"worst": worst}

    return Op(f"probe:fredholm:N{n}T{n}", f"u={u!r} a1={a1!r}", fn)


def commutation_op(vl, rng, L: int) -> Op:
    """Truncated transition matrices commute entrywise (check_commutation at
    one L)."""
    a = tuple(rng.uniform(0.7, 1.3, L))
    q = float(rng.uniform(0.3, 0.6))
    al1, al2 = rng.uniform(0.15, 0.4, 2) / max(a)
    be = float(rng.uniform(0.3, 1.5))

    def fn():
        tm = vl.qtasep.transition_matrix
        G1 = tm("GEOM", a, L, (-5, 5), alpha=float(al1), q=q).matrix
        G2 = tm("GEOM", a, L, (-5, 5), alpha=float(al2), q=q).matrix
        B = tm("BER", a, L, (-5, 5), beta=be, q=q).matrix
        worst = max(
            float(np.abs(B @ G1 - G1 @ B).max()), float(np.abs(G1 @ G2 - G2 @ G1).max())
        )
        require(worst <= COMMUTE_TOL, f"commutator {worst:.3g} > {COMMUTE_TOL}")
        return {"worst": worst}

    return Op(f"probe:commutation:L{L}", f"a={a!r} q={q!r}", fn)


def sample_quadrant_op(vl, p, seeds) -> Op:
    """Scalar sweep sampler: each row adds one path (step boundary), so
    h(N, T) - h(N, T-1) is 0 or 1, and h is nonincreasing in N."""
    window = (12, 6)

    def fn():
        for s in seeds:
            h = vl.vertex.sample_quadrant(p, vl.vertex.STEP, window, s).values
            dt = np.diff(h, axis=0)
            require(not h[0].any(), "row T=0 is not empty")
            require(((dt == 0) | (dt == 1)).all(), "a row added more than one path")
            require((np.diff(h, axis=1) <= 0).all(), "height increases in N")
        return {"runs": len(seeds)}

    return Op("probe:sample-quadrant", f"window={window} seeds={seeds[:3]}...", fn)


def run_mixed_op(vl, p, seeds) -> Op:
    """Scalar mixed q-TASEP: particles stay strictly ordered and only move
    right, and the recorded X values match the configurations."""
    moves = "TNTNTT"
    path = vl.qtasep.TimeLikePath.from_moves(moves)

    def fn():
        for s in seeds:
            traj = vl.qtasep.run_mixed(path, p, s)
            xs = [np.asarray(c.x) for c in traj.configs]
            for before, after in zip(xs, xs[1:]):
                require((np.diff(after) < 0).all(), "particles out of order")
                require((after >= before).all(), "a particle moved left")
            for (n, _), cfg, xv in zip(traj.points, traj.configs, traj.x_values):
                require(xv == cfg.x[n - 1] + n, "X value does not match config")
        return {"runs": len(seeds)}

    return Op("probe:run-mixed", f"path={moves} seeds={seeds[:3]}...", fn)


# q-TASEP unit-cost probe: special parameters (alpha = q, a_i = 1) at a size
# the general kernel handles in about a second; its CDF tables are rebuilt
# on every geometric move, which the tw size (N = 500) would make a 12 s probe.
SPLIT = {"N": 40, "T": 80, "replicas": 2000}
SPLIT_TINY = {"N": 6, "T": 12, "replicas": 200}
SCHUR_PROBE = {"q": 0.5, "u": -1.0, "a1": 1.0, "eta": 1.0, "tau": 2.0, "M": 200, "replicas": 100}


def probe_ops(vl, seed: int, work_dir, tiny: bool = False) -> list:
    """The fixed battery run after the workload pass in every traced run:
    unit-cost probes plus the exact and scalar reference routes."""
    rng = np.random.default_rng(sub_seed(seed, 9))
    s = sub_seed(seed, 9, 1) % 10**6
    p = oracle_params(vl, rng, 12, 8)
    ops = [suite_op(vl, ("stochasticity", "formal-identity", "operator-lemma"), s,
                    1.0, "probe:harness")]

    def vertex_batch():
        h = vl.vertex.sample_quadrant_batch(p, vl.vertex.STEP, (10, 4), 2000 if tiny else 50_000, s)
        require(not h[:, 0, :].any() and (np.diff(h, axis=1) >= 0).all(), "batch heights malformed")
        return {}

    ops.append(Op("probe:vertex-batch", "", vertex_batch))
    seeds = [int(x) for x in rng.integers(0, 2**31, 5 if tiny else 40)]
    ops += [sample_quadrant_op(vl, p, seeds), run_mixed_op(vl, p, seeds)]
    for T in (6, 7, 8):
        # N = 1 keeps T+1 partitions; T = 8 costs about 3 s per sum.  Only
        # T = 6 is held to the 1e-10 tolerance (see NOTES.md).
        ops.append(sum_to_one_op(vl, p, 3 if tiny else T, 1, gate=T == 6,
                                 name=f"probe:f_stoch:T{T}"))
    ops.append(sum_to_one_check_op(vl, sub_seed(seed, 9, 2) % 10**6, 10 if tiny else 100))

    split = SPLIT_TINY if tiny else SPLIT
    N, R = split["N"], split["replicas"]
    special = vl.core.ModelParams(
        q=0.5, u=(-1.0,) * split["T"], a=(1.0,) * N, nu=(0.0,) + (0.5,) * (N - 1)
    )
    # geometric moves alone (T = 0), then the same moves plus T Bernoulli ones
    for label, T in (("geom", 0), ("mixed", split["T"])):
        def mixed(T=T):
            X = vl.qtasep.sample_mixed_batch(special, N, T, R, s)
            require((np.diff(X, axis=1) < 0).all(), "batch particles out of order")
            return {"geom_moves": R * N * (N - 1), "ber_moves": R * N * T}

        ops.append(Op(f"probe:qtasep-{label}", f"N={N} T={T} R={R}", mixed))

    ops.append(commutation_op(vl, rng, 2 if tiny else 3))
    ops.append(asymptotics_op(vl, dict(SCHUR_PROBE, replicas=20) if tiny else SCHUR_PROBE, s, "probe:"))
    ops.append(fredholm_op(vl, -rng.uniform(1.9, 2.1), rng.uniform(1.15, 1.25), tiny))
    ops.append(route_triangle_op(vl, route_params(vl, rng), tiny))
    cfg = work_dir / "probe-couple.json"
    write_config(vl, couple_params(vl, rng), cfg)
    for path in ("TN",) if tiny else COUPLE_PATHS:
        ops.append(couple_check_op(vl, cfg, work_dir / "probe-couple-out", path))
    return ops


def floors(vl, seed: int, tiny: bool = False) -> dict:
    """Microbenchmarks of the two primitives every sampler pays for, run with
    the tracer removed: median of 5 repeats."""
    n_calls, n_draws = (500, 10**4) if tiny else (5000, 10**6)
    poch, draw = [], []
    g = vl.rng.stream(seed, 0)
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for _ in range(n_calls):
            vl.core.q_pochhammer(0.3, 0.5)
        poch.append((time.perf_counter_ns() - t0) / n_calls)
        t0 = time.perf_counter_ns()
        g.random(n_draws)
        draw.append((time.perf_counter_ns() - t0) / n_draws)
    return {"core.q_pochhammer_ns": statistics.median(poch),
            "rng.ns_per_draw": statistics.median(draw)}
