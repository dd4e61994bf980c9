"""Tiny-size smoke test of the benchmark itself.

Run from the checkout root:
    python3 -m unittest perfbench/test_smoke.py

It runs every workload at ``--size tiny`` untraced and traced, checks that
every metric declared in BENCHMARK.json is emitted with its unit, that a
predicted span that never fires fails the traced run, and that corrupted
artifacts trip the output check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("pipeline-default", "ablation-grids", "large-split-staged")


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsTest(unittest.TestCase):
    def test_every_declared_metric_is_emitted_with_its_unit(self):
        e2e, layers = run.declared_metrics()
        nonzero = set()
        for workload in WORKLOADS:
            for trace, units in ((0, e2e), (1, layers)):
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), set(units))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], units[name], name)
                        self.assertIsInstance(metric["value"], (int, float), name)
                        if metric["value"] != 0:
                            nonzero.add(name)
        # every layer metric is reached by some workload; degenerate features do not occur
        self.assertEqual(set(layers) - nonzero, {"network.degenerate_feature_events"})
        self.assertEqual(set(e2e) - nonzero, set())

    def test_predictions_cover_each_layer_metric_once(self):
        _, layers = run.declared_metrics()
        predictions = run.load_predictions()
        listed = [m for p in predictions for m in p["metrics"]]
        self.assertEqual(sorted(listed), sorted(layers))
        spans = {name for _, _, name, _ in worker.PROBES if isinstance(name, str)}
        spans |= {f"network.backward.{kind}" for kind in ("hard", "soft", "entropy")}
        spans.add("datasets.split_views")
        for p in predictions:
            self.assertLessEqual(set(p["spans"]), spans)
            self.assertLessEqual(set(p["on"]), set(WORKLOADS))


class TracedRunTest(unittest.TestCase):
    def test_predicted_span_that_never_fires_fails_loudly(self):
        workload = run.make_workload("pipeline-default", 3, run.SIZES["tiny"])
        predictions = [{"spans": ["network.load_checkpoint"], "on": ["pipeline-default"]}]
        with mock.patch.object(run, "load_predictions", return_value=predictions):
            with self.assertRaisesRegex(RuntimeError, "never fired.*network.load_checkpoint"):
                run.traced_run(workload, run.fresh_dir(run.WORK / "smoke-trace"), {})


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        workload = run.make_workload("pipeline-default", 3, run.SIZES["tiny"])
        cls.work = run.fresh_dir(run.WORK / "smoke")
        run.fresh_dir(cls.work / "splits")
        run.run_worker(cls.work, [], workload.setup, False, "setup", reference_samples=0)
        cls.clean = run.run_worker(cls.work, [], workload.sequence, False, "rep")
        run.check_repeat(cls.clean, cls.work)

    def recheck(self) -> run.Repeat:
        rep = run.Repeat(record=self.clean.record, process_s=0.0, peak_rss_mb=0.0)
        run.check_repeat(rep, self.work)
        return rep

    def corrupt(self, relpath: str, edit) -> None:
        path = self.work / relpath
        original = path.read_text(encoding="utf-8")
        path.write_text(edit(original), encoding="utf-8")
        self.addCleanup(path.write_text, original, encoding="utf-8")

    def test_clean_outputs_pass(self):
        self.assertEqual(self.clean.problems, [])
        self.assertEqual(self.recheck().digests, self.clean.digests)

    def test_bad_report_header_fails(self):
        (full,) = [p for p in self.clean.digests if p.endswith("full/final_report.csv")]
        self.corrupt(full, lambda text: text.replace("reliability", "reliabilty", 1))
        rep = self.recheck()
        self.assertEqual(rep.failed, 1)
        self.assertIn("header", rep.problems[0])

    def test_duplicate_selected_index_fails(self):
        (selection,) = [p for p in self.clean.digests if p.endswith("selection.json")]

        def duplicate(text: str) -> str:
            dump = json.loads(text)
            entries = next(e for e in dump["selected_by_class"].values() if e)
            entries.append(dict(entries[0]))
            return json.dumps(dump)

        self.corrupt(selection, duplicate)
        rep = self.recheck()
        self.assertEqual(rep.failed, 1)
        self.assertTrue(any("unique" in p for p in rep.problems), rep.problems)

    def test_changed_artifact_changes_its_digest(self):
        (st,) = [p for p in self.clean.digests if p.endswith("st/baseline_report.csv")]
        self.corrupt(st, lambda text: text + "\n")
        rep = self.recheck()
        self.assertEqual(rep.problems, [])
        self.assertNotEqual(rep.digests[st], self.clean.digests[st])

    def test_out_of_range_accuracy_fails(self):
        (report,) = [p for p in self.clean.digests if p.endswith("st/baseline_report.csv")]
        path = report.replace(".csv", ".json")
        self.corrupt(path, lambda text: json.dumps({**json.loads(text), "final_test_acc": 1.5}))
        rep = self.recheck()
        self.assertEqual(rep.failed, 1)


if __name__ == "__main__":
    unittest.main()
