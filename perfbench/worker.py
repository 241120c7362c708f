"""One workload process: imports vertexlab from the checkout, generates the
inputs from the seed, then runs the closed loop (one op after the previous
one ends, passes until the time budget is used) and prints one JSON line.

Started by run.py; not meant to be called directly.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True

import workloads  # noqa: E402

MIN_PASSES = 2
MODULES = ("core", "rng", "vertex", "qtasep", "coupling", "diffops", "moments",
           "schur", "harness", "cli")


class VertexLab:
    """The vertexlab modules, imported from <root>/src and nowhere else."""

    def __init__(self, root: Path):
        src = (root / "src").resolve()
        sys.path.insert(0, str(src))
        for name in MODULES:
            mod = importlib.import_module(f"vertexlab.{name}")
            if not Path(mod.__file__).resolve().is_relative_to(src):
                raise ImportError(f"vertexlab.{name} imported from {mod.__file__}, not {src}")
            setattr(self, name, mod)


def run_ops(ops, stats, tracer=None) -> None:
    """Run one pass; a failing op is counted and reported, never fatal."""
    for op in ops:
        stats["attempted"] += 1
        t0 = time.perf_counter()
        try:
            rec = tracer.run_op(op.name, op.fn) if tracer else op.fn()
            stats["records"].append([op.name, rec])
        except Exception as exc:  # the op boundary: record it and go on
            stats["failed"] += 1
            stats["failures"].append(f"{op.name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        stats["op_s"].append([op.name, time.perf_counter() - t0])


def new_stats() -> dict:
    return {"attempted": 0, "failed": 0, "failures": [], "records": [], "op_s": [],
            "walls": [], "cpus": []}


def timed_pass(ops, stats, tracer=None) -> None:
    w0, c0 = time.perf_counter(), time.process_time()
    run_ops(ops, stats, tracer)
    stats["walls"].append(time.perf_counter() - w0)
    stats["cpus"].append(time.process_time() - c0)


def closed_loop(passes, seconds: float) -> dict:
    """Passes back to back; a pass starts only if the median pass so far
    still fits in the budget, and the first MIN_PASSES passes always run (so
    a slower host does not change the pass count, and with it the peak RSS)."""
    stats = new_stats()
    t0 = time.perf_counter()
    for ops in passes:
        if len(stats["walls"]) >= MIN_PASSES and (
                time.perf_counter() - t0 + statistics.median(stats["walls"]) > seconds):
            break
        timed_pass(ops, stats)
    return stats


def traced_run(vl, passes, args, work_dir: Path, out_dir: Path) -> dict:
    """A warm-up pass, one untraced pass, the same pass traced, then the
    probe battery; returns the stats with the per-layer metrics added."""
    import layers
    import probes
    from tracer import Tracer

    stats = new_stats()
    # The first pass of a process pays one-time costs (the sampler-pmf check
    # runs about 0.5 s slower on its first call), which would bias the
    # tracing overhead low.
    timed_pass(passes[0], stats)
    timed_pass(passes[0], stats)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tr = Tracer(run_id, groups=layers.GROUPS, work_hooks=layers.WORK_HOOKS)
    n_first = len(stats["records"])
    battery = probes.probe_ops(vl, args.seed, work_dir, args.tiny)
    tr.install("vertexlab", layers.LAYERS)
    try:
        timed_pass(passes[0], stats, tr)
        run_ops(battery, stats, tr)
    finally:
        tr.uninstall()
    floor = probes.floors(vl, args.seed, args.tiny)
    overhead = stats["walls"][2] - stats["walls"][1]
    stats["per_layer"] = layers.layer_metrics(tr, stats["records"][n_first:], overhead, floor)
    stats["check_s"] = {
        name.removeprefix("op:check:"): tr.max_ns[name] / 1e9
        for name in tr.calls if name.startswith("op:check:")
    }
    stats["profile"] = tr.profile()
    stats["layer_self_s"] = tr.layer_self_s()
    stats["span_problems"] = tr.check_nesting()[:20]
    stats["spans_stored"], stats["spans_dropped"] = len(tr.spans), tr.dropped
    stats["work_hook_errors"] = tr.hook_errors
    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tr.write_jsonl(spans_file)
    stats["spans_file"] = str(spans_file)
    return stats


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*.so*")):
        so = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(so, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    root, out_dir = Path(args.root), Path(args.out)
    work_dir = out_dir / f"work-{os.getpid()}"
    try:
        vl = VertexLab(root)
        passes = workloads.build(vl, args.workload, args.seed, args.tiny)
        setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            if args.trace:
                result = traced_run(vl, passes, args, work_dir, out_dir)
            else:
                result = closed_loop(passes, args.seconds)
            result["setup_s"] = setup_s
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["inputs"] = [[op.name, op.desc] for op in passes[0]]
            result["environment"] = environment()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
