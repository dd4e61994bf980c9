"""Smoke runs of the scripts under ``scripts/`` that no other test runs, each at its smallest settings."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    proc = run_script("microbench.py", "--repeats", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"backward_us", "minimax_step_us", "stage2_ms", "refresh_us", "settings"}


def test_microbench_against_prints_both_sides_of_every_figure(tmp_path):
    proc = run_script("microbench.py", "--against", str(ROOT / "src"), "--repeats", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    paired = json.loads(lines[0])
    assert set(paired) == {"this", "against", "wins", "settings"}
    names = {"backward_us.hard", "backward_us.soft", "backward_us.entropy", "stage2_ms.infer_pseudo+select",
             "stage2_ms.selected_set_from_dump", "refresh_us"}
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
