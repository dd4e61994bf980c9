"""Smoke runs of the scripts under ``scripts/`` that no other test runs, each at its smallest settings."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the microbenchmark's batch mixes, keyed by name
STEP_MIXES = runpy.run_path(str(ROOT / "scripts" / "microbench.py"))["STEP_MIXES"]


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300, check=False)


def test_full_study_writes_its_directories(tmp_path):
    out = tmp_path / "study"
    proc = run_script("run_full_study.py", "--out", str(out), "--seeds", "0,1", "--t-max", "100", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == ["noise_ablation", "pipeline", "ru_sweep", "split"]
    for table in ("ru_sweep/ru_sweep.csv", "ru_sweep/ru_summary.csv", "noise_ablation/noise_ablation.csv"):
        assert (out / table).is_file(), table
    # run-pipeline's manifest is the study's one record of selection reliability
    manifest = json.loads((out / "pipeline" / "manifest.json").read_text())
    assert all(0.0 <= manifest[key] <= 1.0 for key in ("reliability_before", "reliability_after"))
    assert "reliability before/after selection: " in proc.stdout
    assert not list(out.rglob("reliability.csv"))


def test_microbench_prints_one_json_line(tmp_path):
    # --repeats 1 takes about 2 s against a 5 s target; wall time is not asserted, since it
    # swings with the machine's load, and the timeout only catches a hang
    proc = run_script("microbench.py", "--repeats", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert set(result) == {"backward_us", "minimax_step_us", "stage2_us", "stage2_peak_mb", "evaluate_peak_mb",
                           "refresh_us", "validation_us", "checkpoint_us", "split_us", "selection_us", "settings"}
    assert set(result["backward_us"]) == {"hard", "soft", "entropy"}
    assert set(result["minimax_step_us"]) == set(STEP_MIXES)
    assert set(result["stage2_us"]) == {"infer_pseudo+select", "selection_dump", "selected_set_from_dump"}
    assert set(result["checkpoint_us"]) == set(result["split_us"]) == set(result["selection_us"]) == {"save", "load"}
    assert all(v > 0 for key in ("backward_us", "minimax_step_us", "stage2_us", "checkpoint_us", "split_us",
                                 "selection_us") for v in result[key].values())
    assert all(result[key] > 0 for key in ("refresh_us", "validation_us", "stage2_peak_mb", "evaluate_peak_mb"))
    assert (result["settings"]["repeats"], result["settings"]["OPENBLAS_NUM_THREADS"]) == (1, "1")


def test_microbench_against_prints_both_sides_of_every_figure(tmp_path):
    proc = run_script("microbench.py", "--against", str(ROOT / "src"), "--repeats", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    paired = json.loads(lines[0])
    assert set(paired) == {"this", "against", "wins", "settings"}
    names = {"backward_us.hard", "backward_us.soft", "backward_us.entropy", "stage2_us.infer_pseudo+select",
             "stage2_us.selection_dump", "stage2_us.selected_set_from_dump", "stage2_peak_mb", "evaluate_peak_mb",
             "refresh_us", "validation_us", "checkpoint_us.save", "checkpoint_us.load", "split_us.save",
             "split_us.load", "selection_us.save", "selection_us.load"}
    assert names < set(paired["this"]) == set(paired["against"]) == set(paired["wins"])
    assert len([n for n in paired["this"] if n.startswith("minimax_step_us.")]) == 4
    assert all(paired[side][n] > 0 for side in ("this", "against") for n in paired["this"])
    assert all(wins in (0, 1) for wins in paired["wins"].values())
    assert paired["settings"]["against"] == str(ROOT / "src")


def test_microbench_against_refuses_a_tree_without_the_package(tmp_path):
    proc = run_script("microbench.py", "--against", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "holds no ssda_lab package" in proc.stderr


def test_microbench_refuses_fewer_than_one_repeat(tmp_path):
    proc = run_script("microbench.py", "--repeats", "0", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--repeats must be at least 1, got 0" in proc.stderr


def test_pair_bench_pairs_this_checkout_with_itself(tmp_path):
    """One tiny pair against this checkout: every end-to-end metric is summarized, and the artifacts agree."""
    bench = tmp_path / "BENCH.json"
    bench.write_text(json.dumps({"about": "kept", "summary": {"other-workload": {}}}))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "pair_bench.py"), "--against", str(ROOT),
                           "--workload", "large-split-staged", "--pairs", "1", "--seed", "1", "--seconds", "0",
                           "--size", "tiny", "--out", str(bench)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    summary = json.loads(lines[0])
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert (summary["pairs"], summary["seeds"], summary["first"]) == (1, [1], ["parent"])
    assert summary["all_correct"] and summary["failed"] == {"parent": 0, "change": 0}
    assert summary["combined_sha256_equal_every_pair"] and summary["test_acc_mean_equal_every_pair"]
    assert summary["env"]["change"]["OPENBLAS_NUM_THREADS"] == "1"
    for name in metrics:
        entry = summary[name]
        assert len(entry["parent"]) == len(entry["change"]) == 1, name
        assert entry["change_wins"] + entry["ties"] <= 1 and entry["sign_test_p"] == 1.0, name
    written = json.loads(bench.read_text())
    assert written["about"] == "kept" and set(written["summary"]) == {"other-workload", "large-split-staged"}
    assert written["summary"]["large-split-staged"] == summary


def test_pair_bench_sign_test_is_exact():
    sign_test_p = runpy.run_path(str(ROOT / "scripts" / "pair_bench.py"))["sign_test_p"]
    assert sign_test_p(10, 0) == 2 / 2**10
    assert sign_test_p(9, 1) == 2 * 11 / 2**10
    assert sign_test_p(5, 5) == 1.0 and sign_test_p(0, 0) == 1.0
