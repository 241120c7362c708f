"""Experiment orchestration: the registry of verification checks, one check
id per acceptance criterion, and the suite runner.

The ``@check`` decorator registers each ``check_<id>`` function in CHECKS
and owns its tolerance, default budget, timing and CheckResult.  The Monte
Carlo checks share the z-score and chi-square helpers below; total variation
is ``coupling._tv`` and the continuous Kolmogorov distance is
``schur.ks_distance_to_tw``.

Every check is deterministic given its seed: random streams come from the
counter-based generator in rng, so reports are byte-identical across runs
with the same seed (runtimes excluded).  Batch samplers draw all replicas
from one stream, so their output also depends on the replica count.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc

from . import coupling, diffops, moments, qtasep, schur, vertex
from .core import INFINITY, ModelParams, Specialization, q_pochhammer
from .rng import offset_seed, stream


# ---------------------------------------------------------------------------
# Parameter draws used across checks: the ranges keep every regime flag
# satisfied by construction (a*c < 1, min a > q max a, margins off endpoints)


def draw_params(rng, n_cols: int, n_rows: int, bernoulli: bool = False) -> ModelParams:
    q = rng.uniform(0.25, 0.55)
    a = rng.uniform(0.75, 1.25, n_cols)
    nu = rng.uniform(0.05, 0.5, n_cols)
    if bernoulli:
        nu[0] = 0.0
    u = -rng.uniform(0.3, 2.5, n_rows)
    return ModelParams(q=q, u=tuple(u), a=tuple(a), nu=tuple(nu))


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    statistic: float
    tolerance: float
    runtime: float
    details: dict = field(default_factory=dict)

    def payload(self) -> dict:
        """Reproducible part of the report (runtime excluded)."""
        return {
            "check": self.check_id,
            "pass": bool(self.passed),
            "statistic": float(self.statistic),
            "tolerance": float(self.tolerance),
            "details": json.loads(json.dumps(self.details, default=float)),
        }


# ---------------------------------------------------------------------------
# Monte Carlo statistics.  A sample too small or too uniform to estimate its
# spread is no evidence for the identity, so it fails the check and names
# itself in details["no_evidence"].


def _z_score(samples: np.ndarray, exact: float, details: dict, key: str) -> float:
    """|mean - exact| / se of the samples' mean, recorded in details[key] to
    three decimals.  A zero or NaN standard error (NaN for a single sample)
    counts as an infinite deviation unless mean == exact."""
    n = len(samples)
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    if se > 0:
        dev = abs(mean - exact) / se
    else:
        dev = 0.0 if mean == exact else math.inf
        details.setdefault("no_evidence", []).append(f"{key}: standard error {se}")
    details[key] = round(dev, 3)
    return dev


def _min_p(worst: float, p: float, details: dict, key: str) -> float:
    """Running minimum of chi-square p-values.  A NaN p-value (fewer than two
    cells, so no degree of freedom) counts as 0."""
    if math.isnan(p):
        details.setdefault("no_evidence", []).append(f"{key}: fewer than two cells")
        return 0.0
    return min(worst, p)


def _chi2_sf(chi2: float, df: int) -> float:
    """Chi-square survival function; NaN without a degree of freedom.
    (chdtrc itself gives 0 at df = 0, and _min_p relies on the NaN.)"""
    return float(chdtrc(df, chi2)) if df >= 1 else math.nan


def chi2_gof(counts: dict, oracle: dict):
    """Chi-square goodness of fit of empirical counts against an oracle pmf;
    returns (chi2, p).  Atoms are taken in decreasing oracle probability
    while their expected count is at least 5 and the rest keeps more than 5;
    everything else is pooled into one tail cell.
    With a single cell left there is no degree of freedom and p is NaN."""
    n = sum(counts.values())
    keys = sorted(oracle, key=lambda k: -oracle[k])
    pooled_obs, pooled_exp = [], []
    tail_obs = n
    tail_exp = float(n)
    for k in keys:
        e = n * oracle[k]
        if e >= 5.0 and tail_exp - e > 5.0:
            pooled_obs.append(counts.get(k, 0))
            pooled_exp.append(e)
            tail_obs -= counts.get(k, 0)
            tail_exp -= e
        else:
            break
    pooled_obs.append(tail_obs)
    pooled_exp.append(tail_exp)
    chi2 = sum((o - e) ** 2 / e for o, e in zip(pooled_obs, pooled_exp))
    return chi2, _chi2_sf(chi2, len(pooled_obs) - 1)


def chi2_two_sample(c1, c2):
    """Two-sample chi-square over the same cells; returns (chi2, p).  Cells with
    under 10 counts in all pool into one tail cell, which counts only if non-empty."""
    keep = (c1 + c2) >= 10
    o1 = np.append(c1[keep], c1[~keep].sum())
    o2 = np.append(c2[keep], c2[~keep].sum())
    n1, n2 = o1.sum(), o2.sum()
    pooled = (o1 + o2) / (n1 + n2)
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.nansum(
            (o1 - n1 * pooled) ** 2 / (n1 * pooled)
            + (o2 - n2 * pooled) ** 2 / (n2 * pooled)
        )
    return chi2, _chi2_sf(chi2, int((pooled > 0).sum()) - 1)


# ---------------------------------------------------------------------------
# The check registry

CHECKS: dict = {}


def check(check_id: str, tolerance: float, budget: int | None):
    """Register the decorated body as check `check_id` in CHECKS.

    The body takes (seed, budget, tolerance), gates on that tolerance and
    returns (passed, statistic[, details]).  The registered function is
    called as (seed=0, budget=<default>); it times the body and returns a
    CheckResult.  Its `default_budget` attribute is the budget run_suite
    scales.  A fixed-size check registers budget=None: its body takes
    (seed, tolerance), and an explicit budget raises ValueError."""

    def register(body):
        @functools.wraps(body)
        def run(seed: int = 0, budget: int | None = budget) -> CheckResult:
            if run.default_budget is None and budget is not None:
                raise ValueError(f"check {check_id!r} has a fixed size: no budget")
            t0 = time.perf_counter()
            args = (seed, tolerance) if budget is None else (seed, budget, tolerance)
            passed, statistic, *details = body(*args)
            runtime = time.perf_counter() - t0
            return CheckResult(check_id, passed, statistic, tolerance, runtime, *details)

        run.default_budget = budget
        CHECKS[check_id] = run
        return run

    return register


# --- the sixteen checks ----------------------------------------------------


@check("stochasticity", 1e-12, budget=1000)
def check_stochasticity(seed, budget, tol):
    """Vertex outcome weights sum to one for random admissible parameters."""
    rng = stream(seed, 1)
    worst = 0.0
    for _ in range(budget):
        q = rng.uniform(0.05, 0.95)
        u = -rng.uniform(0.01, 5.0)
        a = rng.uniform(0.05, 3.0)
        nu = rng.uniform(0.0, 0.999)
        g = int(rng.integers(0, 41))
        for j1 in (0, 1):
            outs = vertex.vertex_weight_row(u, a, nu, g, j1, q)
            worst = max(worst, abs(sum(o.weight for o in outs) - 1.0))
    return worst <= tol, worst


@check("sum-to-one", 1e-10, budget=10)
def check_sum_to_one(seed, budget, tol):
    """Finite sum of symmetrization weights with a zero column equals one."""
    rng = stream(seed, 2)
    worst = 0.0
    for _ in range(budget):
        p = draw_params(rng, 6, 4)
        for T in range(1, 5):
            for N in range(1, 5):
                s = vertex.sum_f_stoch_truncated(p, T, N)
                worst = max(worst, abs(s - 1.0))
    return worst <= tol, worst


@check("sampler-pmf", 1e-4, budget=10**6)
def check_sampler_pmf(seed, budget, tol):
    """Empirical row-partition pmf against the symmetrization formula."""
    rng = stream(seed, 3)
    p = draw_params(rng, 40, 3)
    n_win = 40
    details = {}
    worst_p = 1.0
    heights = vertex.sample_quadrant_batch(p, vertex.STEP, (n_win, 3), budget, seed)
    key_max = 12
    for T in (1, 2, 3):
        m = heights[:, T, :n_win] - heights[:, T, 1:]
        enumerated = {
            parts: vertex.f_stoch(parts, p, T)
            for parts in vertex.row_partitions(T, key_max)
        }
        # code each sample's partition by its per-column multiplicities in
        # base T+1; samples with any part beyond key_max get code -1 and
        # fall into the pooled tail cell (matched by the oracle's deficit)
        weight = (T + 1) ** np.arange(key_max)
        code = np.where(m[:, key_max:].any(axis=1), -1, m[:, :key_max] @ weight)
        lookup = dict(zip(*(v.tolist() for v in np.unique(code, return_counts=True))))
        counts = {
            parts: lookup.get(int(sum(weight[x - 1] for x in parts)), 0)
            for parts in enumerated
        }
        counts["__tail__"] = budget - sum(counts.values())
        chi2, pval = chi2_gof(counts, enumerated)
        details[f"T={T}"] = {"chi2": chi2, "p": pval}
        worst_p = _min_p(worst_p, pval, details, f"T={T}")
    return worst_p > tol, worst_p, details


@check("operator-lemma", 1e-9, budget=20)
def check_operator_lemma(seed, budget, tol):
    """Action of the conjugated operator on the truncated weight sums."""
    rng = stream(seed, 4)
    worst = 0.0
    for draw in range(budget):
        p = draw_params(rng, 4, 3)
        N = int(rng.integers(1, 4))
        T = int(rng.integers(1, 4))
        M = N
        u = p.u[:T]

        def partial_sum(pt):
            return sum(
                vertex._f_tilde_arrays(parts, u, pt.a, pt.nu, p.q, M)
                for parts in vertex.row_partitions(T, N)
            )

        base = diffops.EvaluablePoint(p.a[:M], p.nu[:M])
        lhs = diffops.apply_D(partial_sum, N, base, p.q)
        rhs = (1.0 - p.q**T * math.prod(p.nu[:N])) * partial_sum(base)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
        # multilevel version at ell = 2: D_{N2} D_{N1} applied to the sum
        # multiplies each weight by the two-factor product observable
        N1 = int(rng.integers(1, N + 1))
        N2 = int(rng.integers(1, N1 + 1))
        lhs2 = diffops.apply_D(
            lambda pt: diffops.apply_D(partial_sum, N1, pt, p.q), N2, base, p.q
        )
        rhs2 = 0.0
        for parts in vertex.row_partitions(T, N):
            w = vertex._f_tilde_arrays(parts, u, base.a, base.nu, p.q, M)
            for j, Nj in enumerate((N1, N2), start=1):
                h = sum(1 for x in parts if x >= Nj + 1)
                w *= p.q**h - p.q ** (T + 2 - j) * math.prod(p.nu[:Nj])
            rhs2 += w
        worst = max(worst, abs(lhs2 - rhs2) / max(abs(rhs2), 1e-30))
    return worst <= tol, worst


@check("route-triangle", 1e-9, budget=1)
def check_route_triangle(seed, budget, tol):
    """Operator, quadrature, and residue evaluations of the moment formulas
    agree pairwise."""
    rng = stream(seed, 5)
    worst = 0.0
    for _ in range(budget):
        p = draw_params(rng, 4, 3)
        cases = [((n,), t) for n in (1, 2, 3) for t in (1, 2, 3)]
        cases += [
            ((n1, n2), t)
            for n1 in (1, 2, 3)
            for n2 in range(1, n1 + 1)
            for t in (1, 2, 3)
        ]
        for N_list, T in cases:
            op = diffops.operator_expectation(N_list, T, max(N_list), p)
            quad, _ = moments.moment_product_quadrature(N_list, T, p)
            res = moments.product_moment_residues(N_list, T, p)
            worst = max(worst, abs(op - quad), abs(quad - res))
            if all(n >= 1 for n in N_list):
                hres = moments.moment_height_residues(N_list, T, p)
                hrec = moments.height_moment_from_products(
                    N_list, T, p, lambda sub: (
                        1.0 if not sub else moments.moment_product_quadrature(sub, T, p)[0]
                    )
                )
                worst = max(worst, abs(hres - hrec))
    return worst <= tol, worst


@check("moment-closure", 4.0, budget=10**6)
def check_moment_closure(seed, budget, tol):
    """Residue-route joint q-moments against big Monte Carlo."""
    rng = stream(seed, 6)
    p = draw_params(rng, 10, 4)
    heights = vertex.sample_quadrant_batch(p, vertex.STEP, (10, 4), budget, seed)
    worst_dev = 0.0
    details = {}
    n_lists = [(n,) for n in (1, 2, 3, 4)]
    n_lists += [(n1, n2) for n1 in (1, 2, 3, 4) for n2 in range(1, n1 + 1)]
    for T in (1, 2, 3, 4):
        for N_list in n_lists:
            obs = np.ones(budget)
            for N in N_list:
                obs = obs * p.q ** heights[:, T, N].astype(float)
            exact = moments.moment_height_residues(N_list, T, p)
            dev = _z_score(obs, exact, details, f"T={T},N={N_list}")
            worst_dev = max(worst_dev, dev)
    return worst_dev <= tol, worst_dev, details


@check("formal-identity", 1e-12, budget=100)
def check_formal_identity(seed, budget, tol):
    rng = stream(seed, 7)
    worst = 0.0
    for _ in range(budget):
        ell = int(rng.integers(1, 6))
        X = rng.uniform(-2, 2, ell)
        b = rng.uniform(-2, 2, ell)
        q = rng.uniform(0.05, 0.95)
        worst = max(worst, moments.formal_identity_check(ell, X, b, q))
    return worst <= tol, worst


@check("qwhittaker-n1", 1e-8, budget=None)
def check_qwhittaker_n1(seed, tol):
    """Nested-integral q-Whittaker moments against the series oracle, N=1."""
    rng = stream(seed, 8)
    worst = 0.0
    specs = [
        Specialization(alphas=(0.25,)),
        Specialization(betas=(0.7, 0.4)),
        Specialization(gamma=0.5),
        Specialization(alphas=(0.2, 0.1), betas=(0.5,), gamma=0.3),
    ]
    for rho in specs:
        a1 = float(rng.uniform(0.7, 1.2))
        q = float(rng.uniform(0.3, 0.6))
        pmf = moments.qwhittaker_n1_pmf(rho, a1, q, 250)
        for k in (1, 2, 3):
            oracle = sum(q ** (k * n) * w for n, w in enumerate(pmf))
            quad = moments.moment_qwhittaker(k, 1, rho, (a1,), q, method="quadrature")
            res = moments.moment_qwhittaker(k, 1, rho, (a1,), q, method="residues")
            worst = max(worst, abs(oracle - quad), abs(oracle - res))
    return worst <= tol, worst


@check("commutation", 1e-10, budget=None)
def check_commutation(seed, tol):
    """Truncated transition matrices commute entrywise."""
    rng = stream(seed, 9)
    worst = 0.0
    for L in (1, 2, 3):
        a = tuple(rng.uniform(0.7, 1.3, L))
        q = float(rng.uniform(0.3, 0.6))
        al1, al2 = rng.uniform(0.15, 0.4, 2) / max(a)
        be = float(rng.uniform(0.3, 1.5))
        box = (-5, 5)
        G1 = qtasep.transition_matrix("GEOM", a, L, box, alpha=float(al1), q=q)
        G2 = qtasep.transition_matrix("GEOM", a, L, box, alpha=float(al2), q=q)
        B = qtasep.transition_matrix("BER", a, L, box, beta=be, q=q)
        bg = B.matrix @ G1.matrix
        gb = G1.matrix @ B.matrix
        worst = max(worst, float(np.abs(bg - gb).max()))
        gg = G1.matrix @ G2.matrix - G2.matrix @ G1.matrix
        worst = max(worst, float(np.abs(gg).max()))
    return worst <= tol, worst


@check("local-coupling", coupling.TV_TOL, budget=50)
def check_local_coupling(seed, budget, tol):
    """Enumeration TV for the two local coupling propositions."""
    rng = stream(seed, 10)
    worst = 0.0
    for _ in range(budget):
        L = int(rng.integers(1, 4))
        a = tuple(rng.uniform(0.7, 1.3, L))
        q = float(rng.uniform(0.3, 0.6))
        alpha = float(rng.uniform(0.1, 0.5) / max(a))
        beta = float(rng.uniform(0.3, 1.5))
        x = []
        pos = int(rng.integers(-2, 3))
        for i in range(L):
            x.append(pos)
            pos -= int(rng.integers(1, 4))
        m = int(rng.integers(1, L + 1))
        tv_a, deficit_a = coupling.joint_law_check_prop_A(tuple(x), m, a, alpha, beta, q)
        tv_b, deficit_b = coupling.joint_law_check_prop_B(tuple(x), m, a, alpha, beta, q)
        worst = max(worst, tv_a + deficit_a, tv_b + deficit_b)
    return worst <= tol, worst


def _all_paths(n_steps: int):
    for moves in itertools.product("NT", repeat=n_steps):
        yield qtasep.TimeLikePath.from_moves("".join(moves))


@check("coupling-theorem", coupling.TV_TOL, budget=10)
def check_coupling_theorem(seed, budget, tol):
    """Double-DP TV for the time-like-path theorem, all short paths plus
    random longer ones and one generalized step-Bernoulli instance."""
    rng = stream(seed, 11)
    p = draw_params(rng, 7, 5, bernoulli=True)
    worst = 0.0
    details = {}
    for n_steps in (0, 1, 2, 3):
        for path in _all_paths(n_steps):
            rep = coupling.theorem_coupling_check(path, p)
            worst = max(worst, rep.tv_distance + rep.truncation_deficit)
    for _ in range(budget):
        moves = "".join(rng.choice(["N", "T"], 4))
        rep = coupling.theorem_coupling_check(qtasep.TimeLikePath.from_moves(moves), p)
        worst = max(worst, rep.tv_distance + rep.truncation_deficit)
        details[moves] = rep.tv_distance
    # generalized step-Bernoulli, order 2
    nu2 = (0.0, 0.0) + p.nu[2:]
    p2 = ModelParams(q=p.q, u=p.u, a=p.a, nu=nu2)
    rep = coupling.theorem_coupling_check(
        qtasep.TimeLikePath.from_moves("TNT"), p2, r=2
    )
    worst = max(worst, rep.tv_distance + rep.truncation_deficit)
    details["gen-r2"] = rep.tv_distance
    return worst <= tol, worst, details


@check("distribution-equality", 1e-4, budget=10**6)
def check_distribution_equality(seed, budget, tol):
    """Two-sample chi-square between h^Ber(N+1,T) and x_N(N,T)+N."""
    rng = stream(seed, 12)
    p = draw_params(rng, 6, 4, bernoulli=True)
    worst_p = 1.0
    details = {}
    heights = vertex.sample_quadrant_batch(
        p, vertex.STEP_BERNOULLI, (6, 4), budget, seed
    )
    for N, T in itertools.product((1, 2, 3, 4), (1, 2, 3, 4)):
        hv = heights[:, T, N]
        xv = qtasep.sample_mixed_batch(
            p, N, T, budget, offset_seed(seed, 77 + N + 10 * T)
        )
        xs = xv[:, N - 1] + N
        cells = int(max(hv.max(), xs.max())) + 1
        c1, c2 = (np.bincount(v.astype(np.int64), minlength=cells) for v in (hv, xs))
        _, pval = chi2_two_sample(c1, c2)
        details[f"N={N},T={T}"] = round(pval, 6)
        worst_p = _min_p(worst_p, pval, details, f"N={N},T={T}")
    return worst_p > tol, worst_p, details


@check("schur-matching", 4.0, budget=10**6)
def check_schur_matching(seed, budget, tol):
    """Vertex Monte Carlo of the infinite-product observable vs brute-force
    Schur expectation, special parameters nu_i = q."""
    worst_dev = 0.0
    details = {}
    for N, T in itertools.product((1, 2, 3), (1, 2, 3)):
        q = 0.5
        u = -2.0
        a1 = 1.3
        s = schur.SchurSetup(q=q, u=u, a1=a1, N=N, T=T)
        p = schur.special_params(q, u, a1, N + 2, T)
        heights = vertex.sample_quadrant_batch(
            p, vertex.STEP_BERNOULLI, (N + 2, T), budget, offset_seed(seed, N + 10 * T)
        )
        hv = heights[:, T, N]
        for zeta in (0.3, 1.0):
            vals = moments.q_laplace_observable(hv, -zeta, q)

            # product over all j >= 0: the lambda-dependent numerators stop
            # at j = T-1 but the (1 + zeta q^j) denominators continue
            denom = q_pochhammer(-zeta, q, INFINITY)

            def rhs_obs(lam):
                out = 1.0 / denom
                for j in range(T):
                    out *= 1.0 + zeta * q ** (lam[T - 1 - j] + j)
                return out

            exact = schur.schur_bruteforce_expectation(s, rhs_obs, part_cutoff=38)
            dev = _z_score(vals, exact, details, f"N={N},T={T},zeta={zeta}")
            worst_dev = max(worst_dev, dev)
    return worst_dev <= tol, worst_dev, details


@check("fredholm-bruteforce", 1e-6, budget=None)
def check_fredholm_bruteforce(seed, tol):
    """Fredholm determinant length law against partition enumeration."""
    worst = 0.0
    cases = [(N, T, -2.0) for N in (1, 2, 3) for T in (1, 2, 3)]
    cases += [(3, 3, -1.0), (2, 3, -1.5)]
    for N, T, u in cases:
        s = schur.SchurSetup(q=0.5, u=u, a1=1.2, N=N, T=T)
        pmf = schur.schur_length_pmf(s, part_cutoff=40)
        cdf = schur.fredholm_length_cdf(s, range(T + 1), cutoff=25)
        acc = 0.0
        for k in range(T + 1):
            acc += pmf[k]
            worst = max(worst, abs(cdf[k] - acc))
    return worst <= tol, worst


@check("lln", 0.05, budget=200)
def check_lln(seed, budget, tol):
    """Law of large numbers at u=-1, eta=1, tau=2, M=400."""
    rep = schur.asymptotics_experiment(0.5, -1.0, 1.0, 1.0, 2.0, [400], budget, seed)
    err = rep.mean_err
    return err <= tol, err, {"X_theory": rep.x_theory}


@check("tracy-widom", 0.15, budget=500)
def check_tracy_widom(seed, budget, tol):
    """Tracy-Widom surrogate at M=2000 plus distribution-function sanity."""
    grid = np.linspace(-8, 5, 100)
    F = [schur.tracy_widom_cdf(r) for r in grid]
    mono = all(F[i] <= F[i + 1] + 1e-12 for i in range(len(F) - 1))
    tails = F[0] < 1e-4 and F[-1] > 1 - 1e-6
    stab = abs(schur.tracy_widom_cdf(-1.0, 48) - schur.tracy_widom_cdf(-1.0, 96))
    rep = schur.asymptotics_experiment(0.5, -1.0, 1.0, 1.0, 2.0, [2000], budget, seed)
    ks = rep.ks_stat
    passed = mono and tails and stab <= 1e-8 and ks <= tol
    return passed, ks, {"monotone": mono, "tails": tails, "quad_stability": stab,
                        "mean_err": rep.mean_err}


DEFAULT_SUITE = [c for c in CHECKS if c != "tracy-widom"]
FULL_SUITE = list(CHECKS)


def run_suite(spec, out_dir=None, seed: int = 0, budget_scale: float = 1.0):
    """Run a list of checks (suite name, list of ids, or a JSON suite file
    {"checks": [...]}); returns (exit_code, results).  Writes per-check JSON
    and a summary CSV when out_dir is given.  ValueError, before any check
    runs, unless budget_scale > 0 and every scaled budget is finite, or if
    the suite file is not an object whose one key "checks" lists check ids."""
    import pathlib

    if isinstance(spec, str):
        if spec == "default":
            check_ids = DEFAULT_SUITE
        elif spec == "full":
            check_ids = FULL_SUITE
        else:
            doc = json.loads(pathlib.Path(spec).read_text())
            if not isinstance(doc, dict) or "checks" not in doc:
                raise ValueError(f'suite file must be {{"checks": [...]}}, got {doc!r}')
            unknown = sorted(set(doc) - {"checks"})
            if unknown:
                raise ValueError(f"unknown suite-file key(s) {unknown}: use checks")
            check_ids = doc["checks"]
            if type(check_ids) is not list or any(type(c) is not str for c in check_ids):
                raise ValueError(f"'checks' must list check ids, got {check_ids!r}")
    else:
        check_ids = list(spec)
    if not budget_scale > 0:
        raise ValueError(f"budget_scale must be > 0, got {budget_scale}")
    calls = []
    for cid in check_ids:
        if cid not in CHECKS:
            raise KeyError(f"unknown check id {cid!r}")
        fn = CHECKS[cid]
        kwargs = {"seed": seed}
        if budget_scale != 1.0 and fn.default_budget is not None:
            budget = fn.default_budget * budget_scale
            if not math.isfinite(budget):
                raise ValueError(
                    f"budget_scale {budget_scale} makes the {cid} budget infinite"
                )
            kwargs["budget"] = max(int(budget), 1)
        calls.append((fn, kwargs))
    results = [fn(**kwargs) for fn, kwargs in calls]
    if out_dir is not None:
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for r in results:
            doc = r.payload()
            doc["runtime_s"] = round(r.runtime, 3)
            (out / f"{r.check_id}.json").write_text(json.dumps(doc, indent=2))
        lines = ["check,pass,statistic,tolerance,runtime_s"]
        for r in results:
            lines.append(
                f"{r.check_id},{int(r.passed)},{r.statistic},{r.tolerance},"
                f"{round(r.runtime, 3)}"
            )
        (out / "summary.csv").write_text("\n".join(lines) + "\n")
    exit_code = 0 if all(r.passed for r in results) else 1
    return exit_code, results
