"""Command-line surface.

Subcommands: sample-vertex, sample-qtasep, couple-check, moments,
diffops-check, schur, asymptotics, verify.  Each takes only the flags it
reads, so an unread flag is a usage error.  The environment variable
VERTEXLAB_SEED overrides --seed.  Exit codes: 0 pass, 1 check failure
(including an ArithmeticError inside a check), 2 any other error (usage,
input or output, numerical evaluation), printed as `error: ...`.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from . import coupling, diffops, harness, moments, qtasep, schur, vertex
from .core import ModelParams, params_from_config


def _load_params(args) -> ModelParams:
    if not args.config:
        raise ValueError(f"{args.command} requires --config")
    return params_from_config(pathlib.Path(args.config).read_text())


def _seed(args) -> int:
    env = os.environ.get("VERTEXLAB_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"VERTEXLAB_SEED must be an integer, got {env!r}") from None


def _int_list(text: str) -> tuple:
    """argparse type of the comma-separated integer flags."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _replicas(text: str) -> int:
    """argparse type of --replicas: an integer >= 1."""
    try:
        replicas = int(text)
    except ValueError:
        replicas = 0
    if replicas < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return replicas


def _window(text: str) -> tuple:
    """argparse type of --window: N_max,T_max."""
    window = _int_list(text)
    if len(window) != 2:
        raise argparse.ArgumentTypeError(f"expected N_max,T_max, got {text!r}")
    return window


def _emit(args, default_name: str, text: str):
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / default_name).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_boundary(spec: str) -> int:
    if spec == "step":
        return vertex.STEP
    if spec == "step-bernoulli":
        return vertex.STEP_BERNOULLI
    if spec.startswith("gen-step-bernoulli:"):
        try:
            r = int(spec.split(":", 1)[1])
            if r < 1:
                raise ValueError("generalized step-Bernoulli order must be >= 1")
        except ValueError as exc:
            raise ValueError(f"--boundary {spec!r}: {exc}") from None
        return r
    raise ValueError(
        f"unknown --boundary {spec!r}: use step, step-bernoulli or "
        "gen-step-bernoulli:R"
    )


def cmd_sample_vertex(args) -> int:
    p = _load_params(args)
    hf = vertex.sample_quadrant(p, _parse_boundary(args.boundary), args.window, _seed(args))
    _emit(args, "heights.csv", hf.to_csv())
    return 0


def cmd_sample_qtasep(args) -> int:
    p = _load_params(args)
    path = qtasep.TimeLikePath.from_moves(args.path)
    traj = qtasep.run_mixed(path, p, _seed(args), L=args.particles)
    _emit(args, "trajectory.jsonl", traj.to_jsonl())
    return 0


def cmd_couple_check(args) -> int:
    p = _load_params(args)
    path = qtasep.TimeLikePath.from_moves(args.path)
    rep = coupling.theorem_coupling_check(path, p, r=args.order)
    _emit(args, "couple_check.json", rep.to_json() + "\n")
    return 0 if rep.passed else 1


def cmd_moments(args) -> int:
    p = _load_params(args)
    records = []
    if args.route in ("residues", "all"):
        v = moments.moment_height_residues(args.n_list, args.T, p)
        records.append(moments.moment_record("height-moment", p, v, "residues", None))
    if args.route in ("quadrature", "all"):
        v, err = moments.moment_product_quadrature(args.n_list, args.T, p)
        records.append(moments.moment_record("product-moment", p, v, "quadrature", err))
    if args.route in ("operator", "all"):
        v = diffops.operator_expectation(args.n_list, args.T, max(args.n_list), p)
        records.append(moments.moment_record("product-moment", p, v, "operator", None))
    _emit(args, "moments.jsonl", "\n".join(records) + "\n")
    return 0


def cmd_diffops_check(args) -> int:
    res = harness.check_operator_lemma(seed=_seed(args))
    _emit(args, "diffops_check.json", json.dumps(res.payload(), indent=2) + "\n")
    return 0 if res.passed else 1


_SCHUR_SETUP = {"q": 0.5, "u": -2.0, "a1": 1.0, "N": 3, "T": 3}


def cmd_schur(args) -> int:
    if args.cutoff is not None and args.mode != "length-pmf":
        raise ValueError("--cutoff applies only to --mode length-pmf")
    if args.r is not None and args.mode != "tracy-widom":
        raise ValueError("--r applies only to --mode tracy-widom")
    # the setup flags default to SUPPRESS: only the given ones are set
    given = {k: getattr(args, k) for k in _SCHUR_SETUP if hasattr(args, k)}
    if args.mode == "tracy-widom":
        if given:
            raise ValueError(f"--{next(iter(given))} does not apply to --mode tracy-widom")
        r = 0.0 if args.r is None else args.r
        text = json.dumps({"r": r, "F": schur.tracy_widom_cdf(r)}) + "\n"
    else:
        s = schur.SchurSetup(**{**_SCHUR_SETUP, **given})
        if args.mode == "length-pmf":
            cutoff = 40 if args.cutoff is None else args.cutoff
            law = schur.schur_length_pmf(s, part_cutoff=cutoff)
        else:
            law = schur.fredholm_length_cdf(s, range(s.T + 1))
        text = json.dumps({str(k): v for k, v in law.items()}, indent=2) + "\n"
    _emit(args, f"schur_{args.mode}.json", text)
    return 0


def cmd_asymptotics(args) -> int:
    rep = schur.asymptotics_experiment(
        args.q, args.u, args.a1, args.eta, args.tau, args.m_list, args.replicas, _seed(args)
    )
    _emit(args, "asymptotics.csv", rep.to_csv())
    _emit(args, "asymptotics_summary.json", json.dumps(rep.summary(), indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    code, results = harness.run_suite(
        args.suite, out_dir=args.out, seed=_seed(args), budget_scale=args.budget_scale
    )
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status} {r.check_id}: statistic={r.statistic:.3g} "
            f"tolerance={r.tolerance:.3g} ({r.runtime:.1f}s)"
        )
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vertexlab",
        description="Stochastic higher spin six vertex model / q-TASEP toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, config: bool, seed: bool):
        if config:
            sp.add_argument("--config", help="JSON parameter config")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", help="output directory")

    sp = sub.add_parser("sample-vertex", help="sample the quadrant model")
    common(sp, config=True, seed=True)
    sp.add_argument("--window", type=_window, default="8,4", help="N_max,T_max")
    sp.add_argument("--boundary", default="step")
    sp.set_defaults(fn=cmd_sample_vertex)

    sp = sub.add_parser("sample-qtasep", help="run a mixed q-TASEP trajectory")
    common(sp, config=True, seed=True)
    sp.add_argument("--path", default="TNT", help="time-like path moves, e.g. NTNT")
    sp.add_argument("--particles", type=int, default=None)
    sp.set_defaults(fn=cmd_sample_qtasep)

    sp = sub.add_parser("couple-check", help="exact coupling theorem check")
    common(sp, config=True, seed=False)
    sp.add_argument("--path", default="TNT")
    sp.add_argument("--order", type=int, default=1)
    sp.set_defaults(fn=cmd_couple_check)

    sp = sub.add_parser("moments", help="evaluate moment formulas")
    common(sp, config=True, seed=False)
    sp.add_argument("--n-list", type=_int_list, default="1",
                    help="comma-separated N values")
    sp.add_argument("--T", type=int, default=1)
    sp.add_argument("--route", choices=("residues", "quadrature", "operator", "all"),
                    default="all")
    sp.set_defaults(fn=cmd_moments)

    sp = sub.add_parser("diffops-check", help="difference-operator lemma check")
    common(sp, config=False, seed=True)
    sp.set_defaults(fn=cmd_diffops_check)

    sp = sub.add_parser("schur", help="Schur measure computations")
    common(sp, config=False, seed=False)
    sp.add_argument("--mode", default="length-pmf",
                    choices=("length-pmf", "fredholm", "tracy-widom"))
    for name, default in _SCHUR_SETUP.items():
        sp.add_argument(f"--{name}", type=type(default), default=argparse.SUPPRESS,
                        help=f"length-pmf and fredholm (default {default})")
    sp.add_argument("--cutoff", type=int, default=None,
                    help="part cutoff of --mode length-pmf (default 40)")
    sp.add_argument("--r", type=float, default=None,
                    help="argument of --mode tracy-widom (default 0)")
    sp.set_defaults(fn=cmd_schur)

    sp = sub.add_parser("asymptotics", help="law of large numbers / fluctuations")
    common(sp, config=False, seed=True)
    sp.add_argument("--q", type=float, default=0.5)
    sp.add_argument("--u", type=float, default=-1.0)
    sp.add_argument("--a1", type=float, default=1.0)
    sp.add_argument("--eta", type=float, default=1.0)
    sp.add_argument("--tau", type=float, default=2.0)
    sp.add_argument("--m-list", type=_int_list, default="400")
    sp.add_argument("--replicas", type=_replicas, default=200)
    sp.set_defaults(fn=cmd_asymptotics)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp, config=False, seed=True)
    sp.add_argument("suite", help="'default', 'full', or a JSON suite file")
    sp.add_argument("--budget-scale", type=float, default=1.0)
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
