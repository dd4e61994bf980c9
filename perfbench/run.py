"""Closed-loop benchmark of the ssda-lab CLI.

Usage (from the checkout root):
    python3 perfbench/run.py --workload pipeline-default --seed 1 --seconds 30 --trace 0

One client issues one ssda-lab command at a time and sends the next only
after the previous one returns.  Every repeat of a workload's command
sequence runs in a fresh worker process (``worker.py``) with
``OPENBLAS_NUM_THREADS=1`` and ``SSDA_LAB_THREADS=1``; the machine this was
tuned on has 2 shared cores, so ablation grids run their cells in-process
and parallel scaling is not measured.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Set-up is
repeated ``SETUP_REPEATS`` times and the command sequence as often as
``--seconds`` allows (at least ``MIN_REPEATS``).  ``wall_s`` sums each
command's median time over the repeats; the other metrics are medians.
Every time is scaled to a nominal machine speed by a reference loop timed
alongside it (``worker.SpeedClock``).  ``--trace 1`` sets up and runs the
sequence once untraced and once traced, each in one worker, and reports the
per-layer metrics, including the tracing overhead.

Every command's exit code and outputs are checked, and the sha256 of every
deterministic artifact must be identical across the repeats of one run.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Per-layer predictions live in ``predictions.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 7
MIN_REPEATS = 3
WORKER_TIMEOUT_S = 100
REPORT_HEADER = "iter,val_acc,L_l,L_pl,H,reliability"
RU_GRID = "0.01,0.05,0.2,0.5,1.0"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "SSDA_LAB_THREADS": "1"}


# -- workloads --


@dataclass(frozen=True)
class Size:
    """How much work one repeat does; ``tiny`` exists for the smoke test."""

    pipeline_splits: int
    ru_seeds: int
    noise_seeds: int
    # Early stopping cannot fire before iteration 550 with the default t_val and
    # patience.  A grid cap below that gives every grid stage the same iteration
    # count; the pipeline cap keeps early stopping but bounds each stage to
    # 550-650 iterations (550-900 uncapped), so wall time swings less with the
    # seeds' stopping points.
    grid_t_max: int
    large_target: int
    large_t_max: int
    pipeline_t_max: int


SIZES = {
    "full": Size(pipeline_splits=6, ru_seeds=2, noise_seeds=2, grid_t_max=300, large_target=20000,
                 large_t_max=200, pipeline_t_max=650),
    "tiny": Size(pipeline_splits=1, ru_seeds=1, noise_seeds=2, grid_t_max=100, large_target=600,
                 large_t_max=100, pipeline_t_max=100),
}


@dataclass
class Workload:
    name: str
    setup: list  # gen-data commands; their splits go under "splits/"
    sequence: list  # measured commands; they write under "out/"


def split_seeds(seed: int, count: int) -> list[int]:
    """Distinct split seeds derived from the workload seed."""
    return random.Random(seed).sample(range(1_000_000), count)


def make_workload(name: str, seed: int, size: Size) -> Workload:
    if name == "pipeline-default":
        cap = ["--t-max", str(size.pipeline_t_max)]
        seeds = split_seeds(seed, size.pipeline_splits)
        sequence = []
        for s in seeds:
            sequence.append(["run-pipeline", "--split", f"splits/s{s}", "--out", f"out/s{s}/full",
                             "--seed", str(s), *cap])
            sequence.append(["run-pipeline", "--split", f"splits/s{s}", "--out", f"out/s{s}/st",
                             "--seed", str(s), "--lambda", "0", "--no-pseudo", *cap])
        return Workload(
            name,
            setup=[["gen-data", "--out", f"splits/s{s}", "--seed", str(s)] for s in seeds],
            sequence=sequence,
        )
    if name == "ablation-grids":
        seeds = split_seeds(seed, size.ru_seeds + size.noise_seeds)
        ru, noise = seeds[: size.ru_seeds], seeds[size.ru_seeds:]
        cap = ["--t-max", str(size.grid_t_max)]
        return Workload(
            name,
            setup=[["gen-data", "--out", "splits/base", "--seed", str(seeds[0])]],
            # one ablate-ru call per seed keeps each command short enough for the
            # reference timings around it to follow the machine's speed
            sequence=[
                ["ablate-ru", "--split", "splits/base", "--out", f"out/ru{s}", "--grid", RU_GRID,
                 "--seeds", str(s), "--regen", *cap]
                for s in ru
            ] + [
                ["ablate-noise", "--split", "splits/base", "--out", "out/noise",
                 "--seeds", ",".join(map(str, noise)), "--regen", *cap],
            ],
        )
    if name == "large-split-staged":
        (s,) = split_seeds(seed, 1)
        large = "splits/large"
        t_max = ["--t-max", str(size.large_t_max)]
        return Workload(
            name,
            setup=[["gen-data", "--out", large, "--classes", "10", "--dim", "8", "--n-source", "1000",
                    "--n-target", str(size.large_target), "--separation", "8", "--rotation", "10",
                    "--shots", "1", "--translation", "1,1,0.5,0.5,0,0,0,0", "--seed", str(s)]],
            sequence=[
                ["train-baseline", "--split", large, "--out", "out/stage1", "--seed", str(s), *t_max],
                ["pseudo-label", "--split", large, "--checkpoint", "out/stage1/baseline_checkpoint.json",
                 "--out", "out/stage2", "--seed", str(s)],
                ["self-train", "--split", large, "--checkpoint", "out/stage1/baseline_checkpoint.json",
                 "--selection", "out/stage2/selection.json", "--out", "out/stage3", "--seed", str(s), *t_max],
                ["evaluate", "--split", large, "--checkpoint", "out/stage3/final_checkpoint.json"],
            ],
        )
    raise SystemExit(f"unknown workload: {name!r}")


# -- output checks --


def _flag(argv: list, name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _accuracy_ok(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def _csv_rows(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def _check_report(out: Path, stem: str, problems: list, digests: list) -> float | None:
    csv_path, json_path = out / f"{stem}_report.csv", out / f"{stem}_report.json"
    header, rows = _csv_rows(csv_path)
    if header != REPORT_HEADER:
        problems.append(f"{csv_path}: header {header!r}")
    if not rows:
        problems.append(f"{csv_path}: no validation rows")
    digests.append(csv_path)
    acc = json.loads(json_path.read_text(encoding="utf-8"))["final_test_acc"]
    if not _accuracy_ok(acc):
        problems.append(f"{json_path}: final_test_acc {acc!r}")
    return acc


def _check_selection(path: Path, problems: list, digests: list) -> None:
    dump = json.loads(path.read_text(encoding="utf-8"))
    quota = dump["per_class_quota"]
    chosen = []
    for cls, entries in dump["selected_by_class"].items():
        if len(entries) > quota:
            problems.append(f"{path}: class {cls} keeps {len(entries)} > quota {quota}")
        chosen += [e["index"] for e in entries]
    if len(set(chosen)) != len(chosen):
        problems.append(f"{path}: selected indices are not unique")
    if len(chosen) != dump["n_selected"]:
        problems.append(f"{path}: n_selected {dump['n_selected']} != {len(chosen)} listed")
    digests.append(path)


def check_command(argv: list, stdout: str, cwd: Path) -> tuple[list, list, list]:
    """Check one finished command's outputs: (problems, cell accuracies, files to digest)."""
    problems: list = []
    cells: list = []
    digests: list = []
    out = cwd / _flag(argv, "--out") if "--out" in argv else None
    command = argv[0]
    if command == "gen-data":
        if not (out / "manifest.json").is_file():
            problems.append(f"{out}: no split manifest")
    elif command == "run-pipeline":
        acc = _check_report(out, "baseline", problems, digests)
        if "--no-pseudo" not in argv:
            _check_selection(out / "selection.json", problems, digests)
            acc = _check_report(out, "final", problems, digests)
        cells.append(acc)
    elif command == "train-baseline":
        _check_report(out, "baseline", problems, digests)
    elif command == "pseudo-label":
        _check_selection(out / "selection.json", problems, digests)
    elif command == "self-train":
        _check_report(out, "final", problems, digests)
    elif command == "evaluate":
        prefix = "accuracy on unlabeled target: "
        lines = [line for line in stdout.splitlines() if line.startswith(prefix)]
        acc = float(lines[-1][len(prefix):]) if lines else None
        if not _accuracy_ok(acc):
            problems.append(f"evaluate printed no accuracy in [0, 1]: {stdout!r}")
        cells.append(acc)
    elif command == "ablate-ru":
        path = out / "ru_sweep.csv"
        header, rows = _csv_rows(path)
        expected = len(_flag(argv, "--grid").split(",")) * len(_flag(argv, "--seeds").split(","))
        if header != "r_u,seed,accuracy" or len(rows) != expected:
            problems.append(f"{path}: header {header!r}, {len(rows)} rows, expected {expected}")
        cells += [float(r[2]) for r in rows]
        digests.append(path)
    elif command == "ablate-noise":
        path = out / "noise_ablation.csv"
        header, rows = _csv_rows(path)
        expected = len(_flag(argv, "--seeds").split(","))
        if not header.startswith("seed,progressive_accuracy,vanilla_accuracy") or len(rows) != expected:
            problems.append(f"{path}: header {header!r}, {len(rows)} rows, expected {expected}")
        cells += [float(v) for r in rows for v in r[1:3]]
        digests.append(path)
    else:
        problems.append(f"no output check for command {command!r}")
    for acc in cells:
        if not _accuracy_ok(acc):
            problems.append(f"{command}: accuracy {acc!r} outside [0, 1]")
    return problems, cells, digests


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- worker processes --


@dataclass
class Repeat:
    """One worker run: its record, its process wall time and its peak RSS."""

    record: dict
    process_s: float
    peak_rss_mb: float
    problems: list = field(default_factory=list)
    failed: int = 0
    cells: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)


def run_worker(cwd: Path, pre: list, commands: list, trace: bool, tag: str,
               reference_samples: int = worker.REFERENCE_SAMPLES) -> Repeat:
    """Start worker.py in a fresh process, wait for it, and collect its rusage."""
    job = {
        "root": str(ROOT), "cwd": str(cwd), "pre": pre, "commands": commands, "trace": trace,
        "reference_samples": reference_samples,
        "result": str(cwd / f"{tag}.result.json"), "spans": str(cwd / f"{tag}.spans.jsonl"),
    }
    job_path = cwd / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = {**os.environ, **THREAD_ENV}
    env.pop("PYTHONPATH", None)
    with (cwd / f"{tag}.log").open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (cwd / f"{tag}.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}:\n{tail}")
    record = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    return Repeat(record=record, process_s=elapsed, peak_rss_mb=usage.ru_maxrss / 1024.0)


def check_repeat(rep: Repeat, cwd: Path) -> None:
    """Fill in problems, failed commands, accuracy cells and artifact digests."""
    for result in rep.record["results"]:
        problems = []
        if result["exit"] != 0:
            problems.append(f"{' '.join(result['argv'])}: exit {result['exit']}")
        else:
            try:
                problems, cells, files = check_command(result["argv"], result["stdout"], cwd)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
                problems = [f"{' '.join(result['argv'])}: unreadable output ({type(err).__name__}: {err})"]
            else:
                rep.cells += cells
                rep.digests.update({str(p.relative_to(cwd)): sha256(p) for p in files})
        rep.problems += problems
        rep.failed += bool(problems)


# -- the run --


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                               env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = probe.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        **THREAD_ENV,
        "git_commit": commit,
    }


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_predictions() -> list[dict]:
    return json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))["predictions"]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup(workload: Workload, work: Path) -> list[float]:
    """Set up SETUP_REPEATS times in fresh processes; all must write identical splits.

    Each set-up is timed from process start to exit and scaled by the
    reference loop timed just before and just after it.
    """
    times, manifests = [], set()
    before = worker.reference_seconds()
    for i in range(SETUP_REPEATS):
        fresh_dir(work / "splits")
        rep = run_worker(work, [], workload.setup, False, f"setup{i}", reference_samples=0)
        after = worker.reference_seconds()
        times.append(worker.scale_to_reference(rep.process_s, before, after))
        before = after
        check_repeat(rep, work)
        if rep.problems:
            raise RuntimeError("set-up failed: " + "; ".join(rep.problems))
        manifests.add(tuple(sha256(p) for p in sorted((work / "splits").glob("*/manifest.json"))))
    if len(manifests) != 1:
        raise RuntimeError("set-up wrote different splits for the same seed")
    return times


def measure(workload: Workload, work: Path, seconds: float) -> list[Repeat]:
    reps: list[Repeat] = []
    start = time.perf_counter()
    while len(reps) < MIN_REPEATS or time.perf_counter() - start + reps[-1].process_s <= seconds:
        fresh_dir(work / "out")
        rep = run_worker(work, [], workload.sequence, False, f"rep{len(reps)}")
        check_repeat(rep, work)
        reps.append(rep)
    return reps


def stage_times(out: Path) -> dict:
    """cli.stage{1,2,3}_s summed over the manifests the commands wrote."""
    totals = {"cli.stage1_s": 0.0, "cli.stage2_s": 0.0, "cli.stage3_s": 0.0}
    stage_of = {"train-baseline": "cli.stage1_s", "self-train": "cli.stage3_s"}
    for path in out.rglob("manifest.json"):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        for key, value in manifest.get("timings_s", {}).items():
            name = f"cli.{key}_s" if key.startswith("stage") else stage_of.get(manifest["command"])
            if name in totals:
                totals[name] += value
    return totals


def traced_run(workload: Workload, work: Path, units: dict) -> tuple[list[Repeat], dict]:
    """One untraced and one traced repeat, each setting up in-process first (untimed)."""
    plain_dir, traced_dir = fresh_dir(work / "plain"), fresh_dir(work / "traced")
    plain = run_worker(plain_dir, workload.setup, workload.sequence, False, "plain")
    check_repeat(plain, plain_dir)
    traced = run_worker(traced_dir, workload.setup, workload.sequence, True, "traced")
    check_repeat(traced, traced_dir)
    layers = traced.record["layers"]
    predicted = {span for p in load_predictions() if workload.name in p["on"] for span in p["spans"]}
    missing = sorted(name for name in predicted if layers.get(name + ".calls", 0) == 0)
    if missing:
        raise RuntimeError(f"traced run on {workload.name}: predicted spans never fired: {missing}")
    kept, annotated = layers.get("pseudolabel.select.kept", 0), layers.get("pseudolabel.select.annotated", 0)
    layers["pseudolabel.select.kept_ratio"] = kept / annotated if annotated else 0.0
    layers.update(stage_times(traced_dir / "out"))

    # span times scale by the traced worker's speed over the whole sequence
    speed = traced.record["scaled_wall_s"] / traced.record["wall_s"]
    # a layer this workload never reaches reads 0; predictions.json names the ones it must reach
    values = {name: layers.get(name, 0) * (speed if unit == "s" else 1) for name, unit in units.items()}
    values["trace.wall_s"] = traced.record["scaled_wall_s"]
    values["trace.untraced_wall_s"] = plain.record["scaled_wall_s"]
    values["trace.overhead_s"] = traced.record["scaled_wall_s"] - plain.record["scaled_wall_s"]
    return [plain, traced], values


def end_to_end(reps: list[Repeat], setups: list[float]) -> dict:
    """Medians over repeats; wall_s sums each command's median scaled time."""
    commands = range(len(reps[0].record["results"]))
    wall = sum(statistics.median(r.record["results"][c]["scaled_s"] for r in reps) for c in commands)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "iters_per_s": reps[0].record["iterations"] / wall,
        "test_acc_mean": statistics.fmean(reps[0].cells) if reps[0].cells else 0.0,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: Size) -> dict:
    e2e_units, layer_units = declared_metrics()
    workload = make_workload(workload_name, seed, size)
    work = fresh_dir(WORK / workload_name)

    if trace:
        units = layer_units
        reps, values = traced_run(workload, work, units)
    else:
        units = e2e_units
        setups = setup(workload, work)
        reps = measure(workload, work, seconds)
        values = end_to_end(reps, setups)

    attempted = sum(len(r.record["results"]) for r in reps)
    failed = sum(r.failed for r in reps)
    identical = all(r.digests == reps[0].digests for r in reps)
    problems = [p for r in reps for p in r.problems]
    if not identical:
        problems.append("artifact digests differ between repeats of one run")
    combined = hashlib.sha256(json.dumps(reps[0].digests, sort_keys=True).encode()).hexdigest()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print("check failed: " + problem)
    print(f"workload {workload_name} seed {seed}: {len(reps)} repeats, {attempted} commands, "
          f"error_rate {failed}/{attempted} = {failed / attempted:.4f} failed/attempted")
    print(f"artifacts: {len(reps[0].digests)} files, identical across repeats: {identical}, "
          f"combined sha256 {combined}")
    samples = {"setup_s": SETUP_REPEATS, "test_acc_mean": len(reps[0].cells)}
    for name, unit in units.items():
        count = 1 if trace else samples.get(name, len(reps))
        print(f"{name} = {values[name]:.6g} {unit} (n={count})")

    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {**result, "workload": workload_name, "seed": seed, "trace": trace, "env": env,
              "repeats": len(reps), "samples": {"raw_wall_s": [r.record["wall_s"] for r in reps],
                                                  "scaled_wall_s": [r.record["scaled_wall_s"] for r in reps]},
              "all_values": values, "digests": reps[0].digests, "problems": problems}
    (work / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline-default", "ablation-grids", "large-split-staged"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), SIZES[args.size])
    except (RuntimeError, OSError, KeyError, ValueError) as err:
        print(f"perfbench: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
