"""Workload definitions: inputs drawn from the workload seed, one op list per
pass, and the check each op applies to its output.

An op raises ``OpFailed`` (or any exception) when its output misses the
tolerance the repository states for that identity; the runner counts it as a
failed op and goes on.  Ops call only entry points that the ROADMAP keeps:
check ids through ``harness.run_suite`` and ``schur.asymptotics_experiment``
for the large simulation (probes.py adds ``cli.main`` for couple-check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# The 15 checks of `vertexlab verify default`.
SUITE_IDS = (
    "stochasticity",
    "sum-to-one",
    "sampler-pmf",
    "operator-lemma",
    "route-triangle",
    "moment-closure",
    "formal-identity",
    "qwhittaker-n1",
    "commutation",
    "local-coupling",
    "coupling-theorem",
    "distribution-equality",
    "schur-matching",
    "fredholm-bruteforce",
    "lln",
)
# A fifth of the default budgets (10^6 -> 200k replicas) keeps one suite
# pass at 16-24 s on 2 cores, so two or three passes fit in a 55-s run; the
# exact-oracle parts of the checks do not scale with the budget.
SUITE_BUDGET_SCALE = 0.2
# These checks keep the seed `verify default` uses (0) in every pass; every
# other check gets a seed drawn from the workload seed.
#  - coupling-theorem: its double-DP state count varies about 100-fold across
#    the regime draws (0.5 s at seed 0, minutes at some others).
#  - sum-to-one: misses its 1e-10 tolerance on some draw_params draws (the T!
#    cancellation of ROADMAP item 3).  The traced run still measures the
#    check at the workload seed, ungated, as vertex.sum_to_one_err_T4.
#  - the Monte Carlo hypothesis tests: their gates (chi-square p > 1e-4,
#    |z| <= 4) reject a correct sampler in up to one pass of 150, too often
#    for a benchmark that must see no failed op.
FIXED_CHECK_SEEDS = {
    cid: 0
    for cid in ("coupling-theorem", "sum-to-one", "sampler-pmf", "moment-closure",
                "distribution-equality", "schur-matching")
}

# Tracy-Widom long pole at a repeatable size: N = M particles, T = 2M.  A
# pass simulates 100 replicas (about 4.5 s), so a 55-s run times about
# eleven passes and reports their median.
TW = {"q": 0.5, "u": -1.0, "a1": 1.0, "eta": 1.0, "tau": 2.0, "M": 500, "replicas": 100}
TW_TINY = dict(TW, M=200, replicas=40)  # mean_err needs M >= 200 to pass


LLN_TOL = 0.05  # mean_err, check_lln and check_tracy_widom

MAX_PASSES = 24


class OpFailed(Exception):
    """An op's output missed its stated tolerance."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise OpFailed(msg)


@dataclass
class Op:
    """One closed-loop operation: `fn` does the work, checks the output and
    returns a dict of recorded values.  `desc` names the generated inputs."""

    name: str
    desc: str
    fn: Callable[[], dict]


def sub_seed(seed: int, *salt: int) -> int:
    """Deterministic 32-bit seed derived from the workload seed."""
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *salt])
    return int(ss.generate_state(1)[0])


# --- ops ----------------------------------------------------------------


def asymptotics_op(vl, cfg: dict, seed: int, prefix: str = "") -> Op:
    def fn():
        rep = vl.schur.asymptotics_experiment(
            cfg["q"], cfg["u"], cfg["a1"], cfg["eta"], cfg["tau"], [cfg["M"]],
            cfg["replicas"], seed,
        )
        require(rep.mean_err <= LLN_TOL, f"mean_err {rep.mean_err:.4g} > {LLN_TOL}")
        # KS against Tracy-Widom is recorded, not gated, below M = 2000.
        return {"M": cfg["M"], "mean_err": float(rep.mean_err), "ks_stat": float(rep.ks_stat)}

    return Op(f"{prefix}asymptotics:M{cfg['M']}", f"M={cfg['M']} R={cfg['replicas']} seed={seed}", fn)


def suite_op(vl, ids, seed: int, scale: float, name: str) -> Op:
    def fn():
        code, results = vl.harness.run_suite(list(ids), seed=seed, budget_scale=scale)
        bad = [r.check_id for r in results if not r.passed]
        require(code == 0 and not bad, f"checks failed: {bad}")
        return {r.check_id: float(r.statistic) for r in results}

    return Op(name, f"seed={seed} scale={scale}", fn)


# --- the workloads ----------------------------------------------------------


def suite_pass(vl, seed: int, k: int, tiny: bool) -> list:
    ids = ("stochasticity", "formal-identity", "operator-lemma") if tiny else SUITE_IDS
    scale = 0.1 if tiny else SUITE_BUDGET_SCALE
    check_seed = sub_seed(seed, 1, k) % 10**6
    return [
        suite_op(vl, (cid,), FIXED_CHECK_SEEDS.get(cid, check_seed), scale, f"check:{cid}")
        for cid in ids
    ]


def tw_pass(vl, seed: int, k: int, tiny: bool) -> list:
    return [asymptotics_op(vl, TW_TINY if tiny else TW, sub_seed(seed, 2, k) % 10**6)]


WORKLOADS = {
    "suite-default": suite_pass,
    "tw-large-m": tw_pass,
}


def build(vl, workload: str, seed: int, tiny: bool = False) -> list:
    """Op lists for up to MAX_PASSES passes, generated from the seed."""
    make = WORKLOADS[workload]
    return [make(vl, seed, k, tiny) for k in range(MAX_PASSES)]
