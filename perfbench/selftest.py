"""Self-tests of the benchmark at tiny sizes (about a minute on 2 cores):

    python3 perfbench/selftest.py

Named so that the repository's pytest run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def tiny_run(workload: str, seed: int, trace: int) -> tuple:
    """Run the benchmark at tiny sizes; returns (result line, run record)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (run.OUT / f"record-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {
            (w, s, t): tiny_run(w, s, t)
            for w in workloads.WORKLOADS for s, t in ((1, 0), (2, 0), (1, 1))
        }

    def test_benchmark_json_matches_emitted_names(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], layers.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))

    def test_every_metric_emitted_with_unit(self):
        for (w, s, t), (result, _) in self.runs.items():
            with self.subTest(workload=w, seed=s, trace=t):
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], result)
                self.assertGreaterEqual(result["attempted"], 1)
                expected = layers.PER_LAYER if t else run.END_TO_END
                got = [(k, v["unit"]) for k, v in result["metrics"].items()]
                self.assertEqual(got, expected)
                for name, v in result["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), name)

    def test_spans_nest_and_parents_resolve(self):
        for w in workloads.WORKLOADS:
            _, record = self.runs[(w, 1, 1)]
            with self.subTest(workload=w):
                self.assertEqual(record["span_problems"], [])
                spans = [json.loads(line) for line in Path(record["spans_file"]).read_text().splitlines()]
                self.assertGreater(len(spans), 10)
                by_id = {sp["id"]: sp for sp in spans}
                for sp in spans:
                    self.assertLessEqual(sp["start_ns"], sp["end_ns"])
                    if sp["parent"] is None:
                        self.assertTrue(sp["name"].startswith("op:"), sp)
                        continue
                    parent = by_id[sp["parent"]]
                    self.assertLessEqual(parent["start_ns"], sp["start_ns"])
                    self.assertLessEqual(sp["end_ns"], parent["end_ns"])
                layer_names = {sp["name"].split(".")[0] for sp in spans}
                self.assertTrue({"vertex", "qtasep", "schur", "harness", "cli"} <= layer_names)

    def test_seed_changes_inputs_not_metric_names(self):
        for w in workloads.WORKLOADS:
            (r1, rec1), (r2, rec2) = self.runs[(w, 1, 0)], self.runs[(w, 2, 0)]
            with self.subTest(workload=w):
                self.assertNotEqual(rec1["inputs"], rec2["inputs"])
                self.assertEqual(list(r1["metrics"]), list(r2["metrics"]))

    def test_injected_failing_op_is_counted_not_fatal(self):
        def boom():
            raise RuntimeError("injected")

        ran = []
        ops = [workloads.Op("boom", "", boom), workloads.Op("after", "", lambda: ran.append(1) or {})]
        stats = worker.closed_loop([ops, ops], seconds=60)
        self.assertEqual((stats["attempted"], stats["failed"]), (4, 2))
        self.assertEqual(len(ran), 2)
        self.assertTrue(stats["failures"][0].startswith("boom: RuntimeError"))

    def test_missing_sources_exit_nonzero_without_result(self):
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copytree(HERE, Path(bare) / HERE.name)
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, str(Path(HERE.name, "run.py")), "--workload", "tw-large-m",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
