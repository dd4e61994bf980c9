"""Command-line orchestration for data generation, training stages, and ablations.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime error.
Each command returns its summary lines, which ``main`` prints once the command has written every file.
A command that writes builds its files in a hidden directory inside ``--out`` and moves them up into ``--out``
after the last one, so a run that fails leaves no new ``--out`` and an existing empty one empty.
A run's config is the built-in defaults with its flags applied; flags are the only source, but for the ``r_u`` of
``self-train``, which is its selection dump's.
Stage 3 trains on ``select``'s set after an in-process stage 2, and ``self-train`` on the one its dump rebuilds.
The ablation grids run every cell in this process, one seed at a time.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .artifacts import DataError, sha256
from .coremath import SEED_LIMIT
from .datasets import (DomainPairSpec, ShiftSpec, SSDASplit, default_benchmark_spec, gen_split, load_split, save_split,
                       split_checksum)
from .network import NetworkParams, forward_features, load_checkpoint, save_checkpoint
from .pseudolabel import (check_selection, infer_pseudo, load_selection, reliability, save_selection, select,
                          selected_set_from_dump, selection_dump)
from .trainer import TrainConfig, evaluate, progressive_self_train, save_report, train_baseline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


class ConfigError(Exception):
    pass


# -- config assembly --

_CONFIG_FIELDS = {f.name for f in fields(TrainConfig)}


def _config_flags(parser: argparse.ArgumentParser, r_u: bool = True) -> None:
    parser.add_argument("--lambda", dest="lambda_", type=float, help="entropy weight")
    if r_u:
        parser.add_argument("--r-u", dest="r_u", type=float, help="pseudo-label selection ratio")
    parser.add_argument("--label-momentum", dest="label_momentum", type=float)
    parser.add_argument("--hard-labels", dest="use_hard_labels", action="store_true", default=None)
    parser.add_argument("--t-max", dest="t_max", type=int)
    parser.add_argument("--seed", type=int)


def build_config(args: argparse.Namespace) -> TrainConfig:
    """The defaults with the given flags applied; validated before use."""
    config = TrainConfig(**{k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS and v is not None})
    try:
        config.validate()
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return config


def _output_path(raw: str) -> Path:
    """``raw`` as a Path, a config error unless it is an empty directory or can be made one: one run per output
    directory, so no file of another run, or of a split, sits beside a run's own."""
    path = Path(raw)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot write {path}: {existing} is not a directory")
    if existing == path and any(path.iterdir()):
        left = ", ".join(sorted(p.name for p in path.glob(".staging.*")))  # _staged's, which only a killed run leaves
        why = (f"a killed run left {left} in it; remove it, or pick another --out" if left
               else "each run writes into a new or empty directory")
        raise ConfigError(f"--out {path} is not empty: {why}")
    return path


# -- artifacts checked against their split --


def _load_params(path: str, split: SSDASplit, baseline: bool = False) -> NetworkParams:
    """A checkpoint's params, refused unless their input dim and class count match ``split`` and, where
    ``baseline`` is set, unless its ``extra`` is an object whose ``stage`` is ``"baseline"``."""
    checkpoint = load_checkpoint(path)
    params = checkpoint["params"]
    if (params.input_dim, params.n_classes) != (split.spec.input_dim, split.n_classes):
        raise DataError(f"checkpoint {path} has input dim {params.input_dim} and {params.n_classes} classes, "
                        f"the split has {split.spec.input_dim} and {split.n_classes}")
    stage = checkpoint["extra"].get("stage") if isinstance(checkpoint["extra"], dict) else None
    if baseline and stage != "baseline":
        raise DataError(f"checkpoint {path} records stage {stage!r}: stages 2 and 3 start from a train-baseline "
                        "checkpoint, whose stage is 'baseline'")
    return params


def _load_dump(args: argparse.Namespace, split: SSDASplit) -> dict:
    """``--selection``, checked against ``split``; it must name the ``--split`` and ``--checkpoint`` it was made
    from."""
    dump = load_selection(args.selection)
    check_selection(dump, len(split.unlabeled_target), split.n_classes)
    for key, flag, actual in (("split_checksum", "--split", split_checksum(args.split)),
                              ("checkpoint_sha256", "--checkpoint", sha256(args.checkpoint))):
        if dump[key] != actual:
            raise DataError(f"{args.selection} records {key} {dump[key]}, but {flag} has {actual}")
    return dump


# -- manifest --


def _recorded(args: argparse.Namespace, config: TrainConfig, per_cell: frozenset) -> dict:
    """The config a run prints and records: stage 2 alone reads only ``r_u``, and a grid leaves out its
    ``per_cell`` fields, which no one config holds."""
    if getattr(args, "stages", None) == (2,):
        return {"r_u": config.r_u}
    return {k: v for k, v in asdict(config).items() if k not in per_cell}


def _write_manifest(args: argparse.Namespace, work: Path, config: TrainConfig,
                    artifacts: dict, timings: dict, per_cell: frozenset = frozenset(), **extra) -> None:
    """Write ``manifest.json`` into ``work``; ``artifacts`` maps keys to file names, which it records as paths
    in ``--out``.  The grids add the ``seeds`` that ran, stage 2 its ``reliability_before`` and
    ``reliability_after``."""
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "config": _recorded(args, config, per_cell),
        **extra,
        "split_checksum": split_checksum(args.split),
        "artifacts": {k: str(Path(args.out) / name) for k, name in artifacts.items()},
        "timings_s": timings,
    }
    (work / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


@contextmanager
def _staged(out: Path):
    """A hidden directory inside ``out`` to write a run's files into; when the block ends its entries move up
    into ``out``.  A new ``out`` is made as ``mkdir`` makes it, and an existing empty one keeps its inode and
    mode.  Any exception removes what the run wrote, and ``out`` too if the run made it; ``_output_path`` has
    checked that ``out`` is new or empty."""
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    moved = []
    try:
        with tempfile.TemporaryDirectory(prefix=".staging.", dir=out) as work:
            yield Path(work)
            for entry in sorted(Path(work).iterdir()):
                moved.append(entry.rename(out / entry.name))
    except BaseException:
        for path in moved:
            path.unlink()
        if made:
            out.rmdir()
        raise


# -- the three stages, shared by the stage commands and the ablation grids --


@contextmanager
def _timed(timings: dict, key: str):
    """Add the seconds the block takes to ``timings[key]``."""
    t0 = time.perf_counter()
    yield
    timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0


def _stage1(split: SSDASplit, config: TrainConfig):
    """The minimax-entropy baseline: (params, report with its test accuracy)."""
    params, report = train_baseline(split, config)
    report.final_test_acc = evaluate(params, split.unlabeled_x(), split.unlabeled_truth)
    return params, report


def _stage2_pool(split: SSDASplit, params: NetworkParams):
    """Stage 2's pool, which no ``r_u`` enters: the unlabeled rows' pseudo labels and anchor distances."""
    anchors = {c: forward_features(x, params) for c, x in split.labeled_target_by_class().items()}
    return infer_pseudo(params, split.unlabeled_x(), anchors)


def _stage3(split: SSDASplit, selected, params: NetworkParams, config: TrainConfig):
    """Progressive self-training from ``params``: (params, report with reliability and test accuracy).

    Training never sees the hidden truth; each row's reliability scores that phase's live hard labels against it.
    """
    final, report = progressive_self_train(split, selected, params, config)
    truth = split.unlabeled_truth[selected.index_set]
    for row, hard in zip(report.history, report.live_hard, strict=True):
        row.reliability = reliability(hard, truth)
    report.final_test_acc = evaluate(final, split.unlabeled_x(), split.unlabeled_truth)
    return final, report


def _stage_inputs(args: argparse.Namespace, per_cell: frozenset = frozenset()):
    """config (printed as recorded), split, checkpoint params, selected set (None where not taken), then ``--out``.

    A grid sets its ``per_cell`` fields itself, so a flag for one would go unused and is refused; ``self-train``
    has no ``--r-u`` and takes the ``r_u`` its dump's set was selected with.
    Every input is checked before any work, so a bad one leaves no output directory; ``--out`` must be new or
    empty, so it is never the directory of an input.
    """
    flagged = sorted(name for name in per_cell if getattr(args, name, None) is not None)
    if flagged:
        raise ConfigError(f"{args.command} sets these fields itself, so their flags would go unused: "
                          f"{', '.join(flagged)}")
    config = build_config(args)
    out = _output_path(args.out)
    split = load_split(args.split)
    params = _load_params(args.checkpoint, split, baseline=True) if "checkpoint" in args else None
    selected = selected_set_from_dump(_load_dump(args, split)) if "selection" in args else None
    if selected is not None:
        config = replace(config, r_u=float(selected.r_u))
    print("effective config: " + json.dumps(_recorded(args, config, per_cell), sort_keys=True))
    return config, split, params, selected, out


def _write_trained(work: Path, prefix: str, params: NetworkParams, report, config: TrainConfig,
                   artifacts: dict) -> str:
    """Write ``{prefix}_checkpoint.json`` and ``{prefix}_report.{json,csv}``, record them, return the stage line."""
    ckpt = artifacts[f"{prefix}_checkpoint"] = f"{prefix}_checkpoint.json"
    csv = artifacts[f"{prefix}_report_csv"] = f"{prefix}_report.csv"
    save_checkpoint(work / ckpt, params, extra={"stage": report.stage, "config": asdict(config)})
    save_report(report, work / f"{prefix}_report.json", work / csv)
    return (f"{prefix} accuracy: {report.final_test_acc:.4f} "
            f"(stop={report.stop_reason}, best_val={report.best_val_acc:.4f})")


# -- commands --


def cmd_gen_data(args) -> list[str]:
    try:
        translation = tuple(float(v) for v in args.translation.split(",")) if args.translation else ()
    except ValueError as err:
        raise ConfigError(f"bad --translation list: {args.translation!r}") from err
    out = _output_path(args.out)
    spec = DomainPairSpec(
        n_classes=args.classes,
        input_dim=args.dim,
        n_source=args.n_source,
        n_target=args.n_target,
        class_separation=args.separation,
        shift=ShiftSpec(
            rotation_degrees=args.rotation,
            translation=translation,
            scale=args.scale,
            label_skew=args.skew,
        ),
        seed=args.seed,
    )
    try:
        split = gen_split(spec, n_t_per_class=args.shots, n_val_per_class=args.val_per_class)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    with _staged(out) as work:
        save_split(split, work)
        checksum = split_checksum(work)
    return [f"wrote split to {args.out} ({len(split.labeled_target[0])} labeled target, "
            f"{len(split.unlabeled_target)} unlabeled, checksum {checksum[:12]})",
            f"manifest: {out / 'manifest.json'}"]


def cmd_stages(args) -> list[str]:
    """Run the stages ``args.stages`` names; each writes, records and prints the same whichever command runs it."""
    config, split, params, selected, out = _stage_inputs(args)
    artifacts: dict = {}
    timings: dict = {}
    extra: dict = {}  # stage 2's reliabilities, which the manifest holds beside its config
    lines = []
    checkpoint = getattr(args, "checkpoint", None)  # the stage-1 checkpoint a selection dump names
    with _staged(out) as work:
        for n in args.stages:
            with _timed(timings, f"stage{n}"):
                if n == 1:
                    params, report = _stage1(split, config)
                    lines.append(_write_trained(work, "baseline", params, report, config, artifacts))
                    checkpoint = work / artifacts["baseline_checkpoint"]
                elif n == 2:
                    pool = _stage2_pool(split, params)
                    selected = select(pool, config.r_u, len(pool), split.n_classes)
                    artifacts["selection"] = "selection.json"
                    save_selection(work / artifacts["selection"], selection_dump(selected, pool),
                                   split_checksum=split_checksum(args.split), checkpoint_sha256=sha256(checkpoint))
                    # the share of right hard pseudo labels over every unlabeled row, then over the selected rows
                    hard, truth, index = pool.hard_label, split.unlabeled_truth, selected.index_set
                    before, after = reliability(hard, truth), reliability(hard[index], truth[index])
                    extra.update(reliability_before=before, reliability_after=after)
                    del pool, hard  # stage 3 needs only the selected set
                    lines += [f"selected {len(selected)} of {len(split.unlabeled_target)} "
                              f"(quota {selected.per_class_quota}/class, r_u={config.r_u})",
                              f"reliability before/after selection: {100 * before:.1f} -> {100 * after:.1f}"]
                else:
                    final, report = _stage3(split, selected, params, config)
                    lines.append(_write_trained(work, "final", final, report, config, artifacts))
        _write_manifest(args, work, config, artifacts, timings, **extra)
    return lines


def cmd_evaluate(args) -> list[str]:
    split = load_split(args.split)
    acc = evaluate(_load_params(args.checkpoint, split), split.unlabeled_x(), split.unlabeled_truth)
    return [f"accuracy on unlabeled target: {acc:.4f}"]


# -- ablation grids --


def _parse_list(raw: str, flag: str, kind: type) -> list:
    """A comma-separated list, distinct, since a repeat would weigh one cell twice in a mean."""
    try:
        values = [kind(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"bad {flag} list: {raw!r}") from err
    if not values:
        raise ConfigError(f"empty {flag} list")
    if len(set(values)) < len(values):
        raise ConfigError(f"repeated value in {flag} {raw!r}")
    return values


def _run_ablation(args: argparse.Namespace, arms: list[tuple[object, dict]], write_tables, min_seeds: int = 1) -> list:
    """Run every (arm, seed) cell, then ``write_tables(work, {(tag, seed): accuracy})``, which returns its tables'
    file names and its summary lines, and the manifest.

    Each cell runs at its ``--seeds`` value with its arm's fields, so a flag for
    ``seed`` or for a field that every arm sets is refused, and the manifest's
    ``config`` leaves those fields out. With ``--regen`` each seed's split is
    redrawn from its spec at that seed. Stage 1 reads none of the fields an arm
    overrides, so it is trained once per seed and every arm of that seed starts
    from the same baseline params; stage 2 infers that seed's pool once and
    selects from it once per distinct ``r_u``, so arms of one ``r_u`` share
    one selected set.
    """
    seeds = _parse_list(args.seeds, "--seeds", int)
    if not all(0 <= s < SEED_LIMIT for s in seeds):
        raise ConfigError(f"seeds must lie in [0, 2**64), got {args.seeds!r}")
    if len(seeds) < min_seeds:
        raise ConfigError(f"{args.command} needs at least {min_seeds} seeds")
    per_cell = frozenset.intersection(*(frozenset(arm) for _, arm in arms)) | {"seed"}
    config, split, _, _, out = _stage_inputs(args, per_cell)
    accuracy, timings = {}, {}
    for seed in seeds:
        data = (gen_split(replace(split.spec, seed=seed), split.n_t_per_class, split.n_val_per_class)
                if args.regen else split)
        with _timed(timings, "stage1"):
            params = _stage1(data, replace(config, seed=seed))[0]
        cells = [(tag, replace(config, **arm, seed=seed)) for tag, arm in arms]
        with _timed(timings, "stage2"):
            pool = _stage2_pool(data, params)
            selected = {r_u: select(pool, r_u, len(pool), data.n_classes)
                        for r_u in dict.fromkeys(cell.r_u for _, cell in cells)}
        for tag, cell in cells:
            with _timed(timings, "stage3"):
                accuracy[tag, seed] = _stage3(data, selected[cell.r_u], params, cell)[1].final_test_acc
    with _staged(out) as work:
        tables, lines = write_tables(work, accuracy)
        _write_manifest(args, work, config, tables, timings, per_cell, seeds=seeds)
    return lines


def _write_ru_tables(work: Path, accuracy: dict) -> tuple[dict, list[str]]:
    rows = sorted((r_u, seed, acc) for (r_u, seed), acc in accuracy.items())
    lines = ["r_u,seed,accuracy"] + [f"{r!r},{s},{a!r}" for r, s, a in rows]
    (work / "ru_sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    summary = []
    for r_u in sorted({r for r, _, _ in rows}):
        accs = [a for r, _, a in rows if r == r_u]
        summary.append((r_u, float(np.mean(accs)), float(np.std(accs))))
    best = max(summary, key=lambda t: t[1])[0]
    slines = ["r_u,mean_accuracy,std_accuracy,best"]
    for r_u, mean, std in summary:
        slines.append(f"{r_u!r},{mean!r},{std!r},{'*' if r_u == best else ''}")
    (work / "ru_summary.csv").write_text("\n".join(slines) + "\n", encoding="utf-8")

    return ({"sweep": "ru_sweep.csv", "summary": "ru_summary.csv"},
            [f"r_u={r_u}: mean={mean:.4f} std={std:.4f}{'  <- best' if r_u == best else ''}"
             for r_u, mean, std in summary])


def cmd_ablate_ru(args) -> list[str]:
    grid = _parse_list(args.grid, "--grid", float)
    if any(not 0.0 < r <= 1.0 for r in grid):
        raise ConfigError("grid values must lie in (0, 1]")
    return _run_ablation(args, [(r_u, {"r_u": r_u}) for r_u in grid], _write_ru_tables)


def _write_noise_table(work: Path, accuracy: dict) -> tuple[dict, list[str]]:
    seeds = sorted({seed for _, seed in accuracy})
    pairs = [(accuracy["progressive", s], accuracy["vanilla", s]) for s in seeds]
    lines = ["seed,progressive_accuracy,vanilla_accuracy,paired_difference"]
    lines += [f"{s},{p!r},{v!r},{p - v!r}" for s, (p, v) in zip(seeds, pairs)]
    (work / "noise_ablation.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    mean_diff = float(np.mean([p - v for p, v in pairs]))
    return ({"table": "noise_ablation.csv"},
            [f"paired mean difference (progressive - vanilla): {mean_diff:+.4f} over {len(seeds)} seeds"])


def cmd_ablate_noise(args) -> list[str]:
    arms = [("progressive", {"use_hard_labels": False}),
            ("vanilla", {"use_hard_labels": True, "label_momentum": 1.0})]
    return _run_ablation(args, arms, _write_noise_table, min_seeds=2)


# -- parser --


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssda-lab",
        description="Three-stage semi-supervised domain adaptation on synthetic benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec = default_benchmark_spec()
    p = sub.add_parser("gen-data", help="generate and serialize a benchmark split")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=spec.n_classes)
    p.add_argument("--dim", type=int, default=spec.input_dim)
    p.add_argument("--n-source", dest="n_source", type=int, default=spec.n_source)
    p.add_argument("--n-target", dest="n_target", type=int, default=spec.n_target)
    p.add_argument("--separation", type=float, default=spec.class_separation)
    p.add_argument("--rotation", type=float, default=spec.shift.rotation_degrees)
    p.add_argument("--translation", default=",".join(map(repr, spec.shift.translation)))
    p.add_argument("--scale", type=float, default=spec.shift.scale)
    p.add_argument("--skew", type=float, default=spec.shift.label_skew)
    p.add_argument("--shots", type=int, choices=(1, 3), default=3)
    p.add_argument("--val-per-class", dest="val_per_class", type=int, default=3)
    p.add_argument("--seed", type=int, default=spec.seed)
    p.set_defaults(func=cmd_gen_data)

    for name, help_, inputs, stages in (
        ("train-baseline", "stage 1: minimax-entropy baseline", (), (1,)),
        ("pseudo-label", "stage 2: infer and select pseudo labels", ("--checkpoint",), (2,)),
        ("self-train", "stage 3: progressive self-training", ("--checkpoint", "--selection"), (3,)),
        ("run-pipeline", "stages 1-3 end to end", (), (1, 2, 3)),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--split", required=True)
        for flag in inputs:
            p.add_argument(flag, required=True)
        p.add_argument("--out", required=True)
        _config_flags(p, r_u="--selection" not in inputs)
        p.set_defaults(func=cmd_stages, stages=stages)
    # p is run-pipeline's parser, the loop's last
    p.add_argument("--no-pseudo", dest="stages", action="store_const", const=(1,),
                   help="stop after stage 1 (with --lambda 0 this is the S+T arm)")

    p = sub.add_parser("evaluate", help="accuracy of a checkpoint on the unlabeled target")
    p.add_argument("--split", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate-ru", help="selection-ratio sweep")
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", default="0.01,0.05,0.2,0.5,1.0")
    p.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    p.add_argument("--regen", action="store_true",
                   help="regenerate the split per seed from its spec instead of reusing the data")
    _config_flags(p)
    p.set_defaults(func=cmd_ablate_ru)

    p = sub.add_parser("ablate-noise", help="progressive soft labels vs frozen hard labels")
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    p.add_argument("--regen", action="store_true")
    _config_flags(p)
    p.set_defaults(func=cmd_ablate_noise)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = make_parser().parse_args(argv)
    args.argv = argv  # what the manifest records, also for in-process callers
    try:
        for line in args.func(args):
            print(line)
        return EXIT_OK
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except Exception as err:  # noqa: BLE001 - map anything else to the runtime code
        print(f"runtime error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
