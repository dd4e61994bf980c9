#!/usr/bin/env python3
"""Per-call cost of the training step and of stage 2, timed in process on fixed inputs.

``backward`` per loss kind and ``minimax_step`` per batch mix on the default 5-class 2-D network, then
``infer_pseudo`` plus ``select``, and ``selected_set_from_dump``, on a 19 960-row 8-D pool (10 classes), and
the validation phase's label refresh (``momentum_update_labels``) over the 4 000 rows that r_u 0.2 keeps of
that pool. Each figure is the median of ``--repeats`` x 500 step or refresh calls (x 10 stage-2 calls), each
timed alone, so a burst of load on a shared machine moves it little. One JSON line prints them.

With ``--against SRC`` the figures are paired instead: each of ``--repeats`` rounds times every figure once
(one ``--repeats 1`` run in a fresh interpreter) on this checkout's ``src`` and once on ``SRC``, the side that
goes first switching every round. The JSON line then holds each side's median per figure and, per figure,
``wins``: the rounds in which this checkout's figure was the lower. Figures swing between runs minutes apart
by more than a few-microsecond change, so only paired rounds compare two trees.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/microbench.py [--repeats 7] [--against OTHER/src]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ssda_lab import trainer
from ssda_lab.coremath import seeded_rng
from ssda_lab.network import backward, forward_features, init_params, zero_grads
from ssda_lab.pseudolabel import infer_pseudo, per_class_quota, select, selected_set_from_dump, selection_dump

# name: (lambda, whether the step takes a pseudo batch), as the loops run them; the lambda-0
# mixes are the S+T arm (stage 1) and stage 3 under --lambda 0
STEP_MIXES = {"hard+entropy": (0.1, False), "hard+soft+entropy": (0.1, True),
              "hard+entropy_lambda_0": (0.0, False), "hard+soft+entropy_lambda_0": (0.0, True)}
POOL_ROWS, POOL_DIM, POOL_CLASSES = 19_960, 8, 10
TRUSTED_ROWS = per_class_quota(0.2, POOL_ROWS, POOL_CLASSES) * POOL_CLASSES  # 4 000
STEP_CALLS, STAGE2_CALLS = 500, 10  # per repeat


def net(input_dim: int, n_classes: int):
    """The pipeline's layout with a small random classifier, so predictions are not uniform."""
    params = init_params(input_dim, trainer.HIDDEN_DIMS, trainer.FEATURE_DIM, n_classes, trainer.TEMPERATURE,
                         seeded_rng(0, "init"))
    params.classifier_weights[:] = 0.1 * seeded_rng(0, "classifier").standard_normal(params.classifier_weights.shape)
    return params


def per_call(fn, calls: int) -> float:
    """Median seconds of one of ``calls`` calls of ``fn``, each timed alone."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def step_costs(calls: int) -> dict:
    rng, params, t = seeded_rng(1, "microbench"), net(2, 5), trainer
    lx, ly = rng.standard_normal((t.BATCH_LABELED, 2)), rng.integers(0, 5, t.BATCH_LABELED)
    px, soft = rng.standard_normal((t.BATCH_PSEUDO, 2)), rng.dirichlet(np.ones(5), t.BATCH_PSEUDO)
    ux, out = rng.standard_normal((t.BATCH_UNLABELED, 2)), zero_grads(params)
    us = lambda fn: round(1e6 * per_call(fn, calls), 1)  # noqa: E731
    costs = {"backward_us": {kind: us(lambda: backward(x, params, kind, targets, out=out))
                             for kind, x, targets in (("hard", lx, ly), ("soft", px, soft), ("entropy", ux, None))},
             "minimax_step_us": {}}
    for mix, (lam, with_pseudo) in STEP_MIXES.items():
        config, pseudo = t.TrainConfig(lambda_=lam), (px, soft) if with_pseudo else None
        step, velocities, grads, term = params.copy(), *(zero_grads(params) for _ in range(3))
        costs["minimax_step_us"][mix] = us(lambda: t.minimax_step(
            step, velocities, 1e-4, config, (lx, ly), pseudo, ux, grads, term))
    return costs


def stage2_costs(calls: int) -> dict:
    rng, params = seeded_rng(2, "microbench"), net(POOL_DIM, POOL_CLASSES)
    pool = rng.standard_normal((POOL_ROWS, POOL_DIM))
    anchors = {c: forward_features(rng.standard_normal((1, POOL_DIM)), params) for c in range(POOL_CLASSES)}
    stage2 = lambda annotations: select(annotations, anchors, 0.2, POOL_ROWS, POOL_CLASSES)  # noqa: E731
    annotations = infer_pseudo(params, pool)
    dump = selection_dump(stage2(annotations), annotations)
    return {name: round(1e3 * per_call(fn, calls), 2) for name, fn in (
        ("infer_pseudo+select", lambda: stage2(infer_pseudo(params, pool))),
        ("selected_set_from_dump", lambda: selected_set_from_dump(dump)))}


def refresh_cost(calls: int) -> float:
    """Microseconds of one label refresh: Dirichlet live labels blended toward Dirichlet predictions."""
    rng = seeded_rng(3, "microbench")
    live, fresh = (rng.dirichlet(np.ones(POOL_CLASSES), TRUSTED_ROWS) for _ in range(2))
    return round(1e6 * per_call(lambda: trainer.momentum_update_labels(live, fresh, 0.9), calls), 1)


def one_run(src: Path) -> dict:
    """The figures of one ``--repeats 1`` run in a fresh interpreter importing ``ssda_lab`` from ``src``, keyed
    by dotted name (``backward_us.hard``, ``refresh_us``)."""
    proc = subprocess.run([sys.executable, __file__, "--repeats", "1"], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"microbench on {src} failed:\n{proc.stderr}")
    run = json.loads(proc.stdout)
    del run["settings"]
    figures = {}
    for group, value in run.items():
        figures.update({f"{group}.{name}": v for name, v in value.items()} if isinstance(value, dict)
                       else {group: value})
    return figures


def paired(against: Path, rounds: int) -> dict:
    """Each side's median per figure over ``rounds`` alternating rounds, and this checkout's wins per figure."""
    sides = {"this": Path(__file__).resolve().parents[1] / "src", "against": against}
    runs = {side: [] for side in sides}
    for r in range(rounds):
        for side in ("this", "against") if r % 2 == 0 else ("against", "this"):
            runs[side].append(one_run(sides[side]))
    names = runs["this"][0]
    return {**{side: {n: round(statistics.median(run[n] for run in runs[side]), 2) for n in names} for side in sides},
            "wins": {n: sum(a[n] < b[n] for a, b in zip(runs["this"], runs["against"])) for n in names}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--against", type=Path, help="another checkout's src directory to pair this one's with")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    if args.against is not None and not (args.against / "ssda_lab").is_dir():
        parser.error(f"--against {args.against} holds no ssda_lab package")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    settings = {**vars(args), "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
                "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    if args.against is not None:
        settings["against"] = str(args.against.resolve())
        print(json.dumps({**paired(args.against, args.repeats), "settings": settings}))
        return
    print(json.dumps({**step_costs(args.repeats * STEP_CALLS), "stage2_ms": stage2_costs(args.repeats * STAGE2_CALLS),
                      "refresh_us": refresh_cost(args.repeats * STEP_CALLS), "settings": settings}))


if __name__ == "__main__":
    main()
