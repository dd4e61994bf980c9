#!/usr/bin/env python3
"""Digest the artifacts of a fixed set of CLI commands, to show a change keeps them byte-identical.

Runs, with ``OPENBLAS_NUM_THREADS=1`` and the ``ssda_lab`` package under
``--src``: gen-data; run-pipeline, default and with ``--lambda 0
--no-pseudo``; train-baseline, pseudo-label, self-train and evaluate;
and the ablate-ru --regen and ablate-noise grids. Then, in
``large_pool/``, the stages one by one on a 2 600-row target split with
``--r-u 1.0``: its pool (2 570 rows) and its
trusted set (2 118) are each more than two ``network.ROW_BLOCK``s, so
inference over the pool, the stage-3 label refresh and the test pass each
run in several row blocks.
Prints one ``sha256  path`` line per output file, sorted by path; evaluate
writes no file, so its stdout is digested as ``evaluate.stdout``. A
``manifest.json`` holds timings, so it gets only a ``sha256  path decoded``
line: the digest of its JSON, keys sorted, with ``timings_s`` removed. Each
``selection.json`` also gets a ``sha256  path decoded`` line: the digest of
the selected indices (int64) and their soft rows (float64) as the ``--src``
package's own ``load_selection`` and ``selected_set_from_dump`` read them,
then of the dump's ``hard_label`` (int64) and ``distance`` (float64)
columns over every unlabeled row, whether it holds them as lists or arrays.
Each split directory gets a ``sha256  dir decoded`` line in the same way: the
digest of the arrays that the ``--src`` package's ``load_split`` returns
(source, labeled target, validation target as float64 features and int64
labels, then the unlabeled features and their truth), each with its shape,
so splits stored in different file formats that decode alike match. Each
``*_checkpoint.json`` gets a ``sha256  path decoded`` line too: the digest of
its layer shapes, classifier shape and the ``repr`` of ``network.TEMPERATURE``
(which ``load_checkpoint`` requires the checkpoint to record), then of its
flat float64 weights, as the ``--src`` package's ``load_checkpoint`` returns
them.

    python scripts/artifact_digests.py > change.txt
    python scripts/artifact_digests.py --src /path/to/parent/src > parent.txt
    diff parent.txt change.txt
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SPLIT = ["--split", "split"]
T_MAX = ["--t-max", "1000"]
CKPT = ["--checkpoint", "base/baseline_checkpoint.json"]

COMMANDS = [
    ["gen-data", "--out", "split"],
    ["run-pipeline", *SPLIT, "--out", "pipeline", *T_MAX],
    ["run-pipeline", *SPLIT, "--out", "source_target", "--lambda", "0", "--no-pseudo", *T_MAX],
    ["train-baseline", *SPLIT, "--out", "base", *T_MAX],
    ["pseudo-label", *SPLIT, *CKPT, "--out", "sel"],
    ["self-train", *SPLIT, *CKPT, "--selection", "sel/selection.json", "--out", "st", *T_MAX],
    ["evaluate", *SPLIT, "--checkpoint", "st/final_checkpoint.json"],
    ["ablate-ru", *SPLIT, "--out", "ru", "--grid", "0.2,1.0", "--seeds", "0,1", "--regen", *T_MAX],
    ["ablate-noise", *SPLIT, "--out", "noise", "--seeds", "0,1", *T_MAX],
]
SHORT = ["--t-max", "200"]
LARGE_POOL_COMMANDS = [
    ["gen-data", "--out", "split", "--n-target", "2600"],
    ["train-baseline", *SPLIT, "--out", "base", *SHORT],
    ["pseudo-label", *SPLIT, *CKPT, "--out", "sel", "--r-u", "1.0"],
    ["self-train", *SPLIT, *CKPT, "--selection", "sel/selection.json", "--out", "st", *SHORT],
    ["evaluate", *SPLIT, "--checkpoint", "st/final_checkpoint.json"],
]
RUNS = [(".", COMMANDS), ("large_pool", LARGE_POOL_COMMANDS)]


def decoded_digest(path: Path) -> str:
    from ssda_lab.pseudolabel import load_selection, selected_set_from_dump

    dump = load_selection(path)
    rows = selected_set_from_dump(dump).annotations  # in index order
    digest = hashlib.sha256(np.asarray(rows.index, dtype=np.int64).tobytes())
    digest.update(np.asarray(rows.soft_label, dtype=np.float64).tobytes())
    digest.update(np.asarray(dump["hard_label"], dtype=np.int64).tobytes())
    digest.update(np.asarray(dump["distance"], dtype=np.float64).tobytes())
    return digest.hexdigest()


def decoded_split_digest(path: Path) -> str:
    from ssda_lab.datasets import load_split

    split = load_split(path)
    digest = hashlib.sha256()
    for x, y in (split.source, split.labeled_target, split.validation_target,
                 (split.unlabeled_target, split.unlabeled_truth)):
        for array in (np.asarray(x, dtype="<f8"), np.asarray(y, dtype="<i8")):
            digest.update(repr(array.shape).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def decoded_checkpoint_digest(path: Path) -> str:
    from ssda_lab.network import TEMPERATURE, load_checkpoint

    params = load_checkpoint(path)["params"]
    layout = ([(w.shape, b.shape) for w, b in params.extractor_layers], params.classifier_weights.shape)
    digest = hashlib.sha256(repr((*layout, repr(TEMPERATURE))).encode())
    digest.update(np.asarray(params.flat, dtype="<f8").tobytes())
    return digest.hexdigest()


def decoded_manifest_digest(path: Path) -> str:
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest.pop("timings_s", None)
    return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the ssda_lab package (default: this checkout's src/)")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve()), "OPENBLAS_NUM_THREADS": "1"}
        splits = []
        for subdir, commands in RUNS:
            cwd = work / subdir
            cwd.mkdir(exist_ok=True)
            for argv in commands:
                proc = subprocess.run([sys.executable, "-m", "ssda_lab.cli", *argv], cwd=cwd, env=env,
                                      capture_output=True, text=True, check=False)
                if proc.returncode != 0:
                    sys.exit(f"ssda-lab {' '.join(argv)} in {subdir} exited {proc.returncode}:\n{proc.stderr}")
                if argv[0] == "evaluate":
                    (cwd / "evaluate.stdout").write_text(proc.stdout, encoding="utf-8")
                if argv[0] == "gen-data":
                    splits.append(cwd / argv[argv.index("--out") + 1])
        for path in sorted([*splits, *(p for p in work.rglob("*") if p.is_file())]):
            if path in splits:
                print(f"{decoded_split_digest(path)}  {path.relative_to(work)} decoded")
                continue
            if path.name == "manifest.json":
                print(f"{decoded_manifest_digest(path)}  {path.relative_to(work)} decoded")
                continue
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(work)}")
            if path.name == "selection.json":
                print(f"{decoded_digest(path)}  {path.relative_to(work)} decoded")
            if path.name.endswith("_checkpoint.json"):
                print(f"{decoded_checkpoint_digest(path)}  {path.relative_to(work)} decoded")


if __name__ == "__main__":
    main()
