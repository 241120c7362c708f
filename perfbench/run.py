"""vertexlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a fresh worker process (closed loop, one op at a time,
numpy's BLAS at its default thread count), checks every output, and prints
as its last line one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 a separate traced run reports the per-layer ones.  Set-up time is
the median of SETUP_SAMPLES interpreter spawns.  A run record, and for a
traced run the spans as JSONL, are written under perfbench_out/.

Workloads: suite-default and tw-large-m (see workloads.py and NOTES.md).
Exits with 2, printing no result, if the vertexlab sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
OUT = ROOT / "perfbench_out"
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170  # every run must end within 180 s

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "1"),
]


def spawn(args, deadline: float, *extra) -> dict:
    """Start a worker, wait for it, and return its JSON result line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--out", str(OUT),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawn-ns", str(time.monotonic_ns()), *extra,
    ]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def sizes(workload: str, tiny: bool) -> dict:
    if workload == "suite-default":
        return {"checks": list(workloads.SUITE_IDS), "budget_scale": workloads.SUITE_BUDGET_SCALE}
    return workloads.TW_TINY if tiny else workloads.TW


def metrics_of(res: dict, setups: list, trace: int) -> dict:
    if trace:
        return {name: {"value": res["per_layer"][name], "unit": unit}
                for name, unit in layers.PER_LAYER}
    values = {
        "wall_s": statistics.median(res["walls"]),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(res["cpus"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "vertexlab" / "__init__.py").is_file():
        print(f"error: no vertexlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    try:
        setups = [spawn(args, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = spawn(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    metrics = metrics_of(res, setups, args.trace)
    for failure in res["failures"]:
        print(f"failed op: {failure}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(), **res["environment"],
        "sizes": sizes(args.workload, args.tiny), "setup_samples_s": setups,
        "metrics": metrics, "attempted": res["attempted"], "failed": res["failed"],
        "failures": res["failures"], "inputs": res["inputs"], "pass_wall_s": res["walls"],
        "pass_cpu_s": res["cpus"], "op_wall_s": res["op_s"],
    }
    for key in ("check_s", "layer_self_s", "profile", "spans_file", "spans_stored",
                "spans_dropped", "span_problems", "work_hook_errors"):
        if key in res:
            record[key] = res[key]
    rec_file = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    rec_file.write_text(json.dumps(record, indent=2, default=float) + "\n")
    if args.trace:
        print("per-check seconds:", json.dumps(res.get("check_s", {})))
    print(f"run record: {rec_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
