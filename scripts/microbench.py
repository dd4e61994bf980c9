#!/usr/bin/env python3
"""Per-call cost of the training step, of stage 2 and of checkpoint, split and selection I/O, timed in process on
fixed inputs.

``backward`` per loss kind and ``minimax_step`` per batch mix on the default 5-class 2-D network, then
``infer_pseudo`` plus ``select``, ``selection_dump`` and ``selected_set_from_dump`` on a 19 960-row 8-D pool
(10 classes), the validation phase's label refresh (``momentum_update_labels``) over the 4 000 rows that r_u 0.2
keeps of that pool, the whole validation phase of stage 3 on the pool's network (``evaluate`` on 30 validation
rows, then the refresh's ``forward`` over the 4 000 rows and ``momentum_update_labels``), ``save_checkpoint`` and
``load_checkpoint`` of the default network, ``save_split`` and ``load_split`` of a 19 960-row 10-class 8-D split
(the large-split-staged recipe), and ``save_selection`` and ``load_selection`` of the pool's selection dump. The
files are written to and read from a temporary directory with a warm page cache: they are rewritten on every
call, and the cache is not dropped, since that would change the machine's settings. Each figure is the median of
``--repeats`` x 500 step, refresh or checkpoint calls (x 50 split, selection or validation calls, x 10 stage-2
calls), each timed alone, so a burst of load on a shared machine moves it little.
Every timing is in microseconds. ``stage2_peak_mb`` is stage 2's memory: the ``tracemalloc`` peak, in MB, of one
``infer_pseudo`` + ``select`` + ``selection_dump`` on that pool; ``evaluate_peak_mb`` is that of one ``evaluate``
over the pool. Neither varies between runs of one tree. One JSON line prints the figures.

``--group NAME`` times one figure group (a top-level key, such as ``minimax_step_us``) alone.

With ``--against SRC`` the figures are paired instead: in each of ``--repeats`` rounds, each figure group is
timed alone (one ``--repeats 1 --group`` run in a fresh interpreter) on this checkout's ``src`` and on ``SRC``
back to back, the side that goes first switching from group to group and from round to round, so a burst of
load lands on both sides of one group's round. The JSON line then holds each side's median per figure and, per
figure, ``wins``: the rounds in which this checkout's figure was the lower. Figures swing between runs minutes
apart by more than a few-microsecond change, so only paired rounds compare two trees. Both sides run this
script, so ``SRC`` must have this checkout's ``init_params`` and ``infer_pseudo`` signatures; to pair trees whose
signatures differ, pair their end-to-end runs with ``scripts/pair_bench.py``, where each side runs its own
perfbench.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/microbench.py [--repeats 7] [--group NAME]
        [--against OTHER/src]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from ssda_lab import trainer
from ssda_lab.coremath import seeded_rng
from ssda_lab.datasets import DomainPairSpec, ShiftSpec, gen_split, load_split, save_split
from ssda_lab.network import (backward, forward, forward_features, init_params, load_checkpoint, save_checkpoint,
                              zero_grads)
from ssda_lab.pseudolabel import (infer_pseudo, load_selection, per_class_quota, save_selection, select,
                                  selected_set_from_dump, selection_dump)

# name: (lambda, whether the step takes a pseudo batch), as the loops run them; the lambda-0
# mixes are the S+T arm (stage 1) and stage 3 under --lambda 0
STEP_MIXES = {"hard+entropy": (0.1, False), "hard+soft+entropy": (0.1, True),
              "hard+entropy_lambda_0": (0.0, False), "hard+soft+entropy_lambda_0": (0.0, True)}
POOL_ROWS, POOL_DIM, POOL_CLASSES = 19_960, 8, 10
TRUSTED_ROWS = per_class_quota(0.2, POOL_ROWS, POOL_CLASSES) * POOL_CLASSES  # 4 000
VALIDATION_ROWS = 3 * POOL_CLASSES
STEP_CALLS, IO_CALLS, VALIDATION_CALLS, STAGE2_CALLS = 500, 50, 50, 10  # per repeat


def net(input_dim: int, n_classes: int):
    """The pipeline's layout with a small random classifier, so predictions are not uniform."""
    params = init_params(input_dim, trainer.HIDDEN_DIMS, trainer.FEATURE_DIM, n_classes, seeded_rng(0, "init"))
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


def step_inputs() -> tuple:
    """The default network and one labeled, pseudo-labeled and unlabeled training batch."""
    rng, params, t = seeded_rng(1, "microbench"), net(2, 5), trainer
    lx, ly = rng.standard_normal((t.BATCH_LABELED, 2)), rng.integers(0, 5, t.BATCH_LABELED)
    px, soft = rng.standard_normal((t.BATCH_PSEUDO, 2)), rng.dirichlet(np.ones(5), t.BATCH_PSEUDO)
    return params, (lx, ly), (px, soft), rng.standard_normal((t.BATCH_UNLABELED, 2))


def backward_costs(calls: int) -> dict:
    params, (lx, ly), (px, soft), ux = step_inputs()
    out = zero_grads(params)
    return {kind: round(1e6 * per_call(lambda: backward(x, params, kind, targets, out=out), calls), 1)
            for kind, x, targets in (("hard", lx, ly), ("soft", px, soft), ("entropy", ux, None))}


def minimax_costs(calls: int) -> dict:
    params, labeled, pseudo_batch, ux = step_inputs()
    costs = {}
    for mix, (lam, with_pseudo) in STEP_MIXES.items():
        config, pseudo = trainer.TrainConfig(lambda_=lam), pseudo_batch if with_pseudo else None
        step, velocities, grads, term = params.copy(), *(zero_grads(params) for _ in range(3))
        costs[mix] = round(1e6 * per_call(lambda: trainer.minimax_step(
            step, velocities, 1e-4, config, labeled, pseudo, ux, grads, term), calls), 1)
    return costs


def stage2_inputs() -> tuple:
    """The network, the 19 960-row pool and one anchor per class."""
    rng, params = seeded_rng(2, "microbench"), net(POOL_DIM, POOL_CLASSES)
    pool = rng.standard_normal((POOL_ROWS, POOL_DIM))
    anchors = {c: forward_features(rng.standard_normal((1, POOL_DIM)), params) for c in range(POOL_CLASSES)}
    return params, pool, anchors


def stage2(params, pool, anchors) -> tuple:
    """``infer_pseudo`` + ``select`` at r_u 0.2: the pool and its selected set."""
    annotations = infer_pseudo(params, pool, anchors)
    return annotations, select(annotations, 0.2, POOL_ROWS, POOL_CLASSES)


def stage2_costs(calls: int) -> dict:
    params, pool, anchors = stage2_inputs()
    annotations, selected = stage2(params, pool, anchors)
    dump = selection_dump(selected, annotations)
    return {name: round(1e6 * per_call(fn, calls), 1) for name, fn in (
        ("infer_pseudo+select", lambda: stage2(params, pool, anchors)),
        ("selection_dump", lambda: selection_dump(selected, annotations)),
        ("selected_set_from_dump", lambda: selected_set_from_dump(dump)))}


def peak_mb(fn) -> float:
    """Megabytes at the ``tracemalloc`` peak of one ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round(peak / 1e6, 2)


def stage2_peak_mb() -> float:
    """The peak of one ``infer_pseudo`` + ``select`` + ``selection_dump``."""
    params, pool, anchors = stage2_inputs()

    def run():
        annotations, selected = stage2(params, pool, anchors)
        selection_dump(selected, annotations)
    return peak_mb(run)


def evaluate_peak_mb() -> float:
    """The peak of one ``evaluate`` over the pool, its truth made beforehand, after a first call."""
    params, pool, _ = stage2_inputs()
    truth = np.zeros(POOL_ROWS, dtype=np.int64)
    trainer.evaluate(params, pool, truth)
    return peak_mb(lambda: trainer.evaluate(params, pool, truth))


def refresh_cost(calls: int) -> float:
    """Microseconds of one label refresh: Dirichlet live labels blended toward Dirichlet predictions."""
    rng = seeded_rng(3, "microbench")
    live, fresh = (rng.dirichlet(np.ones(POOL_CLASSES), TRUSTED_ROWS) for _ in range(2))
    return round(1e6 * per_call(lambda: trainer.momentum_update_labels(live, fresh, 0.9), calls), 1)


def validation_cost(calls: int) -> float:
    """Microseconds of one stage-3 validation phase on the pool's network: ``evaluate`` on ``VALIDATION_ROWS``
    rows, then the label refresh over the trusted rows, ``forward`` and ``momentum_update_labels``."""
    rng, params = seeded_rng(4, "microbench"), net(POOL_DIM, POOL_CLASSES)
    val_x, val_y = rng.standard_normal((VALIDATION_ROWS, POOL_DIM)), np.arange(VALIDATION_ROWS) % POOL_CLASSES
    trusted, live = rng.standard_normal((TRUSTED_ROWS, POOL_DIM)), rng.dirichlet(np.ones(POOL_CLASSES), TRUSTED_ROWS)

    def phase():
        trainer.evaluate(params, val_x, val_y)
        trainer.momentum_update_labels(live, forward(trusted, params), 0.9)
    return round(1e6 * per_call(phase, calls), 1)


def checkpoint_costs(calls: int) -> dict:
    """Microseconds of one ``save_checkpoint`` and of one ``load_checkpoint`` of the default network."""
    params = net(2, 5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        save = per_call(lambda: save_checkpoint(path, params, extra={"stage": "baseline"}), calls)
        load = per_call(lambda: load_checkpoint(path), calls)
    return {"save": round(1e6 * save, 1), "load": round(1e6 * load, 1)}


def split_costs(calls: int) -> dict:
    """Microseconds of one save and of one load of the large-split-staged split."""
    spec = DomainPairSpec(n_classes=POOL_CLASSES, input_dim=POOL_DIM, n_source=1000, n_target=20_000,
                          class_separation=8.0,
                          shift=ShiftSpec(rotation_degrees=10.0, translation=(1, 1, 0.5, 0.5, 0, 0, 0, 0)))
    split = gen_split(spec, n_t_per_class=1)
    with tempfile.TemporaryDirectory() as tmp:
        split_dir = Path(tmp) / "split"
        costs = {"save": per_call(lambda: save_split(split, split_dir), calls),
                 "load": per_call(lambda: load_split(split_dir), calls)}
    return {k: round(1e6 * v, 1) for k, v in costs.items()}


def selection_costs(calls: int) -> dict:
    """Microseconds of one save and of one load of the pool's selection."""
    annotations, selected = stage2(*stage2_inputs())
    dump = selection_dump(selected, annotations)
    with tempfile.TemporaryDirectory() as tmp:
        selection = Path(tmp) / "selection.json"
        save = lambda: save_selection(selection, dump, split_checksum="split", checkpoint_sha256="ckpt")  # noqa: E731
        costs = {"save": per_call(save, calls), "load": per_call(lambda: load_selection(selection), calls)}
    return {k: round(1e6 * v, 1) for k, v in costs.items()}


# each figure group, in the order the JSON line prints them: the figures of --repeats repeats
GROUPS = {
    "backward_us": lambda repeats: backward_costs(repeats * STEP_CALLS),
    "minimax_step_us": lambda repeats: minimax_costs(repeats * STEP_CALLS),
    "stage2_us": lambda repeats: stage2_costs(repeats * STAGE2_CALLS),
    "stage2_peak_mb": lambda repeats: stage2_peak_mb(),
    "evaluate_peak_mb": lambda repeats: evaluate_peak_mb(),
    "refresh_us": lambda repeats: refresh_cost(repeats * STEP_CALLS),
    "validation_us": lambda repeats: validation_cost(repeats * VALIDATION_CALLS),
    "checkpoint_us": lambda repeats: checkpoint_costs(repeats * STEP_CALLS),
    "split_us": lambda repeats: split_costs(repeats * IO_CALLS),
    "selection_us": lambda repeats: selection_costs(repeats * IO_CALLS),
}


def one_run(src: Path, group: str) -> dict:
    """The figures of one ``--repeats 1`` run of ``group`` in a fresh interpreter importing ``ssda_lab`` from
    ``src``, keyed by dotted name (``backward_us.hard``, ``refresh_us``)."""
    proc = subprocess.run([sys.executable, __file__, "--repeats", "1", "--group", group],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"microbench on {src} failed:\n{proc.stderr}")
    run = json.loads(proc.stdout)
    del run["settings"]
    figures = {}
    for group, value in run.items():
        figures.update({f"{group}.{name}": v for name, v in value.items()} if isinstance(value, dict)
                       else {group: value})
    return figures


def paired(against: Path, rounds: int, groups: list[str]) -> dict:
    """Each side's median per figure over ``rounds`` rounds of ``groups``, each group's two sides back to back in
    alternating order, and this checkout's wins per figure."""
    sides = {"this": Path(__file__).resolve().parents[1] / "src", "against": against}
    runs = {side: [{} for _ in range(rounds)] for side in sides}
    for r in range(rounds):
        for g, group in enumerate(groups):
            for side in ("this", "against") if (r + g) % 2 == 0 else ("against", "this"):
                runs[side][r].update(one_run(sides[side], group))
    names = runs["this"][0]
    return {**{side: {n: round(statistics.median(run[n] for run in runs[side]), 2) for n in names} for side in sides},
            "wins": {n: sum(a[n] < b[n] for a, b in zip(runs["this"], runs["against"])) for n in names}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--group", choices=GROUPS, help="time this figure group alone")
    parser.add_argument("--against", type=Path, help="another checkout's src directory to pair this one's with")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    if args.against is not None and not (args.against / "ssda_lab").is_dir():
        parser.error(f"--against {args.against} holds no ssda_lab package")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    settings = {**vars(args), "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
                "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    groups = [args.group] if args.group else list(GROUPS)
    if args.against is not None:
        settings["against"] = str(args.against.resolve())
        print(json.dumps({**paired(args.against, args.repeats, groups), "settings": settings}))
        return
    print(json.dumps({**{group: GROUPS[group](args.repeats) for group in groups}, "settings": settings}))


if __name__ == "__main__":
    main()
