#!/usr/bin/env python3
"""Paired A/B runs of perfbench: this checkout against another, alternating which side runs first.

Pair i runs ``perfbench/run.py --workload W --seed S+i --seconds T --trace 0 --size Z`` in the other checkout
(``--against``, the parent side) and in this one (the change side), one after the other, each from its own root:
``perfbench/run.py`` measures the checkout that holds it and works in that checkout's ``.perfbench_work``, so the
two sides share no files. The parent side runs first in even pairs and the change side in odd ones.

Each run's last stdout line is its result (``correct``, ``attempted``, ``failed`` and the end-to-end metrics of
``BENCHMARK.json``); its ``artifacts:`` line gives the combined sha256 of its artifacts and its ``env`` line the
BLAS and thread settings. The summary of the workload is one JSON object in the layout of ``BENCH_30.json``'s
``summary`` entries: the seeds, which side ran first, whether every run was correct, the failed operations per
side, whether the combined sha256 and ``test_acc_mean`` were equal in every pair, and per metric each side's
values, medians and quartiles (``statistics.quantiles(n=4)``, the exclusive method), the parent's quartile
distance, the change's wins and the ties (by the metric's ``better`` direction), the relative change of the
medians, the metric's bound and whether the change is worse than the parent by more than it, and the exact
two-sided sign-test p-value of the wins against the losses. It prints that object as one JSON line; ``--out``
also writes it into a BENCH file under ``summary``, keeping the file's other workloads and keys.

    python3 scripts/pair_bench.py --against PARENT_ROOT --workload large-split-staged --pairs 10 --seed 3531 \\
        [--seconds 30] [--size full] [--out BENCH.json]
"""

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("pipeline-default", "ablation-grids", "large-split-staged")


def end_to_end_metrics() -> dict:
    """name -> (better, bound) for every end-to-end metric ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def run_side(root: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """One untraced perfbench run in ``root``: its result line plus the combined sha256 and environment."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "0", "--size", size]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench in {root} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    combined = re.search(r"combined sha256 ([0-9a-f]+)", proc.stdout)
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {**json.loads(lines[-1]), "combined_sha256": combined and combined.group(1), "env": env}


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``, ties left out."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def quartiles(values: list) -> list:
    """The first and third quartiles; one value is both."""
    return [statistics.quantiles(values, n=4)[i] for i in (0, 2)] if len(values) > 1 else [values[0]] * 2


def metric_summary(parent: list, change: list, better: str, bound: float) -> dict:
    sign = 1 if better == "higher" else -1  # > 0 where the change is better
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_median, c_median = statistics.median(parent), statistics.median(change)
    p_quartiles = quartiles(parent)
    relative = (c_median - p_median) / p_median if p_median else 0.0
    return {"parent_median": p_median, "change_median": c_median, "parent_quartiles": p_quartiles,
            "change_quartiles": quartiles(change), "parent_quartile_distance": p_quartiles[1] - p_quartiles[0],
            "change_wins": wins, "ties": ties, "relative_change": relative, "bound": bound,
            "worse_by_more_than_bound": -sign * relative > bound,
            "sign_test_p": sign_test_p(wins, len(parent) - wins - ties), "parent": parent, "change": change}


def pair_runs(against: Path, workload: str, pairs: int, seed: int, seconds: float, size: str) -> dict:
    metrics = end_to_end_metrics()
    seeds = [seed + i for i in range(pairs)]
    first = ["parent" if i % 2 == 0 else "change" for i in range(pairs)]
    runs: dict = {"parent": [], "change": []}
    roots = {"parent": against, "change": ROOT}
    for s, lead in zip(seeds, first):
        for side in (lead, "change" if lead == "parent" else "parent"):
            runs[side].append(run_side(roots[side], workload, s, seconds, size))
    value = lambda run, name: run["metrics"][name]["value"]  # noqa: E731
    both = list(zip(runs["parent"], runs["change"]))
    return {
        "pairs": pairs, "seeds": seeds, "first": first,
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "combined_sha256_equal_every_pair": all(p["combined_sha256"] == c["combined_sha256"] for p, c in both),
        "test_acc_mean_equal_every_pair": all(value(p, "test_acc_mean") == value(c, "test_acc_mean")
                                              for p, c in both),
        "env": {side: runs[side][0]["env"] for side in runs},
        **{name: metric_summary([value(r, name) for r in runs["parent"]], [value(r, name) for r in runs["change"]],
                                better, bound) for name, (better, bound) in metrics.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True, help="the other checkout's root (the parent side)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="pair i runs at seed SEED + i")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, help="a BENCH file whose summary gets this workload's entry")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if not (args.against / "perfbench" / "run.py").is_file():
        parser.error(f"--against {args.against} holds no perfbench/run.py")
    summary = pair_runs(args.against.resolve(), args.workload, args.pairs, args.seed, args.seconds, args.size)
    if args.out is not None:
        bench = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        bench["command"] = (f"python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds {args.seconds:g} "
                            f"--trace 0 --size {args.size}")
        bench.setdefault("summary", {})[args.workload] = summary
        args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
