"""Per-layer metrics of the traced run: what the tracer groups and counts,
and how the metrics are computed from it (the probe battery is probes.py).
"""

from __future__ import annotations

from probes import COUPLE_PATHS

LAYERS = ("harness", "vertex", "qtasep", "schur", "moments", "diffops",
          "coupling", "cli", "core", "rng")

# Inclusive time of a group counts only its outermost active member.
GROUPS = {
    "vertex.batch": {"vertex.sample_quadrant_batch"},
    "vertex.scalar": {"vertex.sample_quadrant"},
    "vertex.sum_to_one": {"vertex.sum_f_stoch_truncated"},
    "qtasep.batch": {"qtasep.sample_mixed_batch"},
    "qtasep.exact_law": {
        "qtasep.bernoulli_law", "qtasep.geometric_law", "qtasep.q_geom_law",
        "qtasep.q_hahn_pmf", "qtasep.transition_matrix",
    },
    "schur.asymptotics": {"schur.asymptotics_experiment"},
    "schur.ks": {"schur.ks_distance_to_tw"},
    "schur.tw_cdf": {"schur.tracy_widom_cdf"},
    "schur.bruteforce": {"schur.schur_bruteforce_expectation", "schur.schur_length_pmf"},
    "schur.fredholm_det": {"schur.prob_length_exceeds"},
    "moments.quadrature": {"moments.moment_product_quadrature", "moments.nested_contour_quadrature"},
    "moments.residues": {"moments.product_moment_residues", "moments.moment_height_residues"},
    "diffops.operator": {"diffops.operator_expectation", "diffops.apply_D", "diffops.apply_W"},
    # the second name is the spelling ROADMAP item 4 moves to
    "coupling.dp": {"coupling.theorem_capling_check", "coupling.theorem_coupling_check"},
}


def _window_updates(args) -> int:
    n_max, t_max = args["window"]
    return int(n_max) * int(t_max)


def _mixed_moves(args) -> dict:
    R, N, T = int(args["n_samples"]), int(args["N"]), int(args["T"])
    L = int(args.get("L") or N)
    return {"qtasep.batch_moves": R * L * (N - 1 + T)}


def _asymptotics_moves(args) -> dict:
    total = 0
    for M in args["m_list"]:
        N, T = int(args["eta"] * M), int(args["tau"] * M)
        total += int(args["replicas"]) * N * (N - 1 + T)
    return {"schur.sim_moves": total}


# Work counts taken from the arguments of a call: particle or vertex updates.
WORK_HOOKS = {
    "vertex.sample_quadrant_batch": lambda a: {
        "vertex.batch_updates": int(a["n_samples"]) * _window_updates(a)
    },
    "vertex.sample_quadrant": lambda a: {"vertex.scalar_updates": _window_updates(a)},
    "qtasep.sample_mixed_batch": _mixed_moves,
    "schur.asymptotics_experiment": _asymptotics_moves,
}

PER_LAYER = [
    ("harness.self_s", "s"),
    ("harness.slowest_check_s", "s"),
    ("vertex.self_s", "s"),
    ("vertex.batch_s", "s"),
    ("vertex.batch_updates", "count"),
    ("vertex.batch_ns_per_update", "ns"),
    ("vertex.scalar_ns_per_update", "ns"),
    ("vertex.weight_row_calls", "count"),
    ("vertex.f_stoch_ms_T6", "ms"),
    ("vertex.f_stoch_ms_T7", "ms"),
    ("vertex.f_stoch_ms_T8", "ms"),
    ("vertex.sum_to_one_err_T7", "1"),
    ("vertex.sum_to_one_err_T8", "1"),
    ("vertex.sum_to_one_err_T4", "1"),
    ("qtasep.self_s", "s"),
    ("qtasep.batch_s", "s"),
    ("qtasep.batch_moves", "count"),
    ("qtasep.batch_ns_per_move", "ns"),
    ("qtasep.geom_ns_per_move", "ns"),
    ("qtasep.ber_ns_per_move", "ns"),
    ("qtasep.exact_law_s", "s"),
    ("qtasep.geom_pmf_calls", "count"),
    ("schur.self_s", "s"),
    ("schur.sim_s", "s"),
    ("schur.sim_ns_per_move", "ns"),
    ("schur.tw_cdf_s", "s"),
    ("schur.bruteforce_s", "s"),
    ("schur.jacobi_trudi_calls", "count"),
    ("schur.fredholm_ms_per_det", "ms"),
    ("schur.ks_stat", "1"),
    ("schur.mean_err", "1"),
    ("moments.self_s", "s"),
    ("moments.quadrature_s", "s"),
    ("moments.quadrature_calls", "count"),
    ("moments.residues_s", "s"),
    ("diffops.self_s", "s"),
    ("diffops.operator_s", "s"),
    ("coupling.self_s", "s"),
    ("coupling.dp_s_TTNNTN", "s"),
    ("coupling.dp_s_NTNTNT", "s"),
    ("cli.self_s", "s"),
    ("core.self_s", "s"),
    ("core.q_pochhammer_calls", "count"),
    ("core.q_pochhammer_ns", "ns"),
    ("rng.self_s", "s"),
    ("rng.ns_per_draw", "ns"),
    ("tracing_overhead_s", "s"),
]

def _per(num_s: float, den: float, scale: float) -> float:
    return num_s * scale / den if den else 0.0


def layer_metrics(tr, records: list, overhead_s: float, floor: dict) -> dict:
    """Per-layer metric values from a finished tracer and the op records
    [(op name, record dict)] of the traced phase."""
    g = {k: v / 1e9 for k, v in tr.group_ns.items()}
    layer = tr.layer_self_s()
    c = tr.counts
    m = {f"{name}.self_s": layer.get(name, 0.0) for name in LAYERS}
    m["harness.slowest_check_s"] = max(
        (ns / 1e9 for name, ns in tr.max_ns.items() if name.startswith("harness.check_")),
        default=0.0,
    )
    m["vertex.batch_s"] = g.get("vertex.batch", 0.0)
    m["vertex.batch_updates"] = c["vertex.batch_updates"]
    m["vertex.batch_ns_per_update"] = _per(m["vertex.batch_s"], c["vertex.batch_updates"], 1e9)
    m["vertex.scalar_ns_per_update"] = _per(g.get("vertex.scalar", 0.0), c["vertex.scalar_updates"], 1e9)
    m["vertex.weight_row_calls"] = c["vertex.vertex_weight_row"]

    by_name = dict(records)
    for T in (6, 7, 8):
        rec = by_name.get(f"probe:f_stoch:T{T}", {})
        t = tr.op_group_ns.get((f"probe:f_stoch:T{T}", "vertex.sum_to_one"), 0) / 1e9
        m[f"vertex.f_stoch_ms_T{T}"] = _per(t, rec.get("partitions", 0), 1e3)
        if T in (7, 8):
            m[f"vertex.sum_to_one_err_T{T}"] = rec.get("err", 0.0)
    m["vertex.sum_to_one_err_T4"] = by_name.get("probe:sum-to-one-check", {}).get("err", 0.0)

    m["qtasep.batch_s"] = g.get("qtasep.batch", 0.0)
    m["qtasep.batch_moves"] = c["qtasep.batch_moves"]
    m["qtasep.batch_ns_per_move"] = _per(m["qtasep.batch_s"], c["qtasep.batch_moves"], 1e9)
    t_geo = tr.op_group_ns.get(("probe:qtasep-geom", "qtasep.batch"), 0) / 1e9
    t_mix = tr.op_group_ns.get(("probe:qtasep-mixed", "qtasep.batch"), 0) / 1e9
    mixed = by_name.get("probe:qtasep-mixed", {})
    m["qtasep.geom_ns_per_move"] = _per(t_geo, mixed.get("geom_moves", 0), 1e9)
    m["qtasep.ber_ns_per_move"] = _per(t_mix - t_geo, mixed.get("ber_moves", 0), 1e9)
    m["qtasep.exact_law_s"] = g.get("qtasep.exact_law", 0.0)
    m["qtasep.geom_pmf_calls"] = c["qtasep.q_geom_pmf"]

    m["schur.sim_s"] = g.get("schur.asymptotics", 0.0) - g.get("schur.ks", 0.0)
    m["schur.sim_ns_per_move"] = _per(m["schur.sim_s"], c["schur.sim_moves"], 1e9)
    m["schur.tw_cdf_s"] = g.get("schur.tw_cdf", 0.0)
    m["schur.bruteforce_s"] = g.get("schur.bruteforce", 0.0)
    m["schur.jacobi_trudi_calls"] = c["schur.schur_jacobi_trudi"]
    m["schur.fredholm_ms_per_det"] = _per(
        g.get("schur.fredholm_det", 0.0), tr.calls.get("schur.prob_length_exceeds", 0), 1e3)
    tw = max((r for _, r in records if "ks_stat" in r), key=lambda r: r["M"], default={})
    m["schur.ks_stat"] = tw.get("ks_stat", 0.0)
    m["schur.mean_err"] = tw.get("mean_err", 0.0)

    m["moments.quadrature_s"] = g.get("moments.quadrature", 0.0)
    m["moments.quadrature_calls"] = tr.calls.get("moments.nested_contour_quadrature", 0)
    m["moments.residues_s"] = g.get("moments.residues", 0.0)
    m["diffops.operator_s"] = g.get("diffops.operator", 0.0)
    for path in COUPLE_PATHS:
        m[f"coupling.dp_s_{path}"] = tr.op_group_ns.get(
            (f"probe:couple-check:{path}", "coupling.dp"), 0) / 1e9
    m["core.q_pochhammer_calls"] = c["core.q_pochhammer"]
    m.update(floor)
    m["tracing_overhead_s"] = overhead_s
    return m
