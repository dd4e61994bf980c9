import hashlib
import io
import json
import math
import re
import shutil
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import npy_bytes
from ssda_lab import cli
from ssda_lab.artifacts import DataError, table_path
from ssda_lab.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_RUNTIME, main
from ssda_lab.coremath import seeded_rng
from ssda_lab.datasets import default_benchmark_spec, load_split, split_checksum
from ssda_lab.network import forward_features, init_params, load_checkpoint, save_checkpoint
from ssda_lab.pseudolabel import check_selection, infer_pseudo, load_selection, select
from ssda_lab.trainer import TrainConfig, evaluate, progressive_self_train, train_baseline

FAST = ["--t-max", "200", "--t-val", "25", "--patience", "4"]
FAST_CONFIG = TrainConfig(t_max=200, t_val=25, patience=4)
COLUMNS = ("hard_label", "distance", "soft_label")
RELIABILITIES = ("reliability_before", "reliability_after")


def gen_args(out, seed=0, shots=3, extra=()):
    return [
        "gen-data", "--out", str(out), "--classes", "3", "--n-source", "90",
        "--n-target", "90", "--seed", str(seed), "--shots", str(shots), *extra,
    ]


@pytest.fixture(scope="module")
def split_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "split"
    assert main(gen_args(out)) == EXIT_OK
    return out


def _tree_digest(root: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.iterdir())}


def _copy_selection(good: Path, dest: Path) -> Path:
    """Copy a selection dump and its three tables to ``dest`` and the table names its stem gives."""
    for src, dst in [(good, dest), *((table_path(good, c), table_path(dest, c)) for c in COLUMNS)]:
        shutil.copyfile(src, dst)
    return dest


def _edit_split_table(split: Path, name: str, edit) -> None:
    """Apply ``edit`` to one table's rows and re-stamp its checksum, so only the checks of its content can object."""
    table = split / name
    rows = np.load(table)
    edit(rows)
    np.save(table, rows, allow_pickle=False)
    manifest = json.loads((split / "manifest.json").read_text())
    manifest["checksums"][name] = hashlib.sha256(table.read_bytes()).hexdigest()
    (split / "manifest.json").write_text(json.dumps(manifest))


def _split_with_spec(split_dir: Path, dest: Path, field: str, value) -> Path:
    """A copy with one spec or shift field rewritten in its manifest, which has no checksum."""
    shutil.copytree(split_dir, dest)
    manifest = json.loads((dest / "manifest.json").read_text())
    spec = manifest["spec"]
    (spec["shift"] if field in spec["shift"] else spec)[field] = value
    (dest / "manifest.json").write_text(json.dumps(manifest))
    return dest


class TestGenData:
    def test_default_flags_give_default_benchmark(self, tmp_path, capsys):
        assert main(["gen-data", "--out", str(tmp_path / "s")]) == EXIT_OK
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["counts"]["labeled_target"] == 15  # 3-shot, 5 classes
        # through JSON, which holds the translation tuple as a list
        assert manifest["spec"] == json.loads(json.dumps(asdict(default_benchmark_spec())))

    def test_one_shot_flag(self, tmp_path):
        assert main(gen_args(tmp_path / "s", shots=1)) == EXIT_OK
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["counts"]["labeled_target"] == 3  # 1 per class, 3 classes

    def test_same_seed_identical_bytes(self, tmp_path):
        main(gen_args(tmp_path / "a", seed=7))
        main(gen_args(tmp_path / "b", seed=7))
        assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")

    def test_invalid_spec_is_config_error(self, tmp_path, capsys):
        cases = [
            ["--classes", "1"],
            ["--val-per-class", "0"],        # training needs a validation set
            ["--n-target", "20"],            # 4 per class < 3 shots + 3 validation + 1
            ["--translation", "abc"],
            ["--separation", "nan"],         # non-finite spec numbers would write a nan split
            ["--rotation", "inf"],
            ["--translation", "nan,1"],
            ["--scale", "nan"],
            ["--skew", "inf"],
            ["--seed=-1"],                   # seeded_rng would draw what 2**64 - 1 draws
        ]
        for flags in cases:
            out = tmp_path / "s"
            assert main(["gen-data", "--out", str(out), *flags]) == EXIT_CONFIG, flags
            assert "config error:" in capsys.readouterr().err, flags
            assert not out.exists(), flags


class TestRunPipeline:
    def test_end_to_end_artifacts(self, split_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run-pipeline", "--split", str(split_dir), "--out", str(out), *FAST]) == EXIT_OK
        for name in [
            "baseline_checkpoint.json", "baseline_checkpoint.flat.npy", "baseline_report.csv", "selection.json",
            *(f"selection.{c}.npy" for c in COLUMNS),
            "final_checkpoint.json", "final_checkpoint.flat.npy", "final_report.csv", "manifest.json",
        ]:
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "reliability before/after selection" in stdout
        assert "final accuracy" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["split_checksum"]
        assert set(manifest["artifacts"]) >= {"baseline_checkpoint", "selection", "final_checkpoint"}
        for name in ("baseline_checkpoint.json", "final_checkpoint.json"):
            record = json.loads((out / name).read_text())
            assert set(record) == {"format_version", "params", "checksum", "extra"}, name

    @pytest.mark.parametrize("argv, cells", [(["run-pipeline"], 1),
                                             (["ablate-ru", "--grid", "0.2", "--seeds", "0"], 1),
                                             (["ablate-noise", "--seeds", "0,1"], 4)],
                             ids=["run_pipeline", "ablate_ru", "ablate_noise"])
    def test_stage3_rows_hold_only_the_kept_rows(self, tmp_path, monkeypatch, argv, cells):
        """Every stage 3 runs on the dump's set, so no pool-sized feature or prediction array stays alive
        through it."""
        split = tmp_path / "split"
        assert main(["gen-data", "--out", str(split), "--n-target", "2600"]) == EXIT_OK
        stage3, seen = cli._stage3, []
        monkeypatch.setattr(cli, "_stage3", lambda data, selected, *rest: stage3(data, seen.append(selected) or
                                                                                  selected, *rest))
        assert main([*argv, "--split", str(split), "--out", str(tmp_path / "run"), *FAST]) == EXIT_OK
        assert len(seen) == cells
        for selected in seen:
            assert len(load_split(split).unlabeled_target) > 2 * len(selected) > 0
            assert {a.soft_label.base.shape for a in selected.annotations} == {(len(selected), 5)}
            assert {a.feature.size for a in selected.annotations} == {0}

    def test_byte_identical_reports_for_identical_config(self, split_dir, tmp_path):
        for name in ("r1", "r2"):
            assert main(["run-pipeline", "--split", str(split_dir), "--out", str(tmp_path / name),
                         "--seed", "3", *FAST]) == EXIT_OK
        for csv in ("baseline_report.csv", "final_report.csv"):
            assert (tmp_path / "r1" / csv).read_bytes() == (tmp_path / "r2" / csv).read_bytes()

    def test_split_files_never_mutated(self, split_dir, tmp_path):
        before = _tree_digest(split_dir)
        main(["run-pipeline", "--split", str(split_dir), "--out", str(tmp_path / "run"), *FAST])
        assert _tree_digest(split_dir) == before

    def test_source_plus_target_arm_skips_pseudo_stages(self, split_dir, tmp_path, capsys):
        out = tmp_path / "st"
        assert main(["run-pipeline", "--split", str(split_dir), "--out", str(out),
                     "--lambda", "0", "--no-pseudo", *FAST]) == EXIT_OK
        assert not (out / "selection.json").exists()
        assert not (out / "final_checkpoint.json").exists() and not (out / "final_checkpoint.flat.npy").exists()
        stdout = capsys.readouterr().out
        assert "baseline accuracy: " in stdout
        assert "selected " not in stdout and "final accuracy" not in stdout

    def test_vanilla_arm_flags(self, split_dir, tmp_path):
        assert main(["run-pipeline", "--split", str(split_dir), "--out", str(tmp_path / "v"),
                     "--r-u", "1.0", "--hard-labels", "--label-momentum", "1.0", *FAST]) == EXIT_OK

    def test_missing_split_is_data_error(self, tmp_path):
        assert main(["run-pipeline", "--split", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == EXIT_DATA

    def test_bad_config_value_is_config_error(self, split_dir, tmp_path):
        assert main(["run-pipeline", "--split", str(split_dir), "--out", str(tmp_path / "o"),
                     "--lambda", "-2"]) == EXIT_CONFIG

    def test_non_finite_split_is_data_error(self, split_dir, tmp_path, capsys):
        bad = tmp_path / "nan_split"
        shutil.copytree(split_dir, bad)
        _edit_split_table(bad, "source.npy", lambda rows: rows["x"].__setitem__((0, 0), np.nan))
        assert main(["run-pipeline", "--split", str(bad), "--out", str(tmp_path / "o"), *FAST]) == EXIT_DATA
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train-baseline", "pseudo-label", "self-train", "run-pipeline",
                                         "ablate-ru", "ablate-noise"])
    @pytest.mark.parametrize("table", ["labeled_target.npy", "validation_target.npy"])
    def test_split_without_a_class_anchors_exits_3_before_out(self, split_dir, stage2, tmp_path, capsys, command,
                                                              table):
        """Every labeled target row filed under class 0 leaves classes 1 and 2 without anchors for stage 2, and
        every validation row so filed leaves them unmeasured; each command that reads a split refuses it."""
        bad = tmp_path / "no_anchors"
        shutil.copytree(split_dir, bad)
        _edit_split_table(bad, table, lambda rows: rows["y"].fill(0))
        if command == "self-train":
            argv = _self_train_argv(bad, stage2[0], stage2[1], tmp_path / "o")
        else:
            argv = [command, "--split", str(bad), "--out", str(tmp_path / "o"), *FAST]
            argv += ["--checkpoint", str(stage2[0])] if command == "pseudo-label" else []
        assert main(argv) == EXIT_DATA
        assert f"{table} holds [9, 0, 0] rows per class, not the 3 each" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train-baseline", "pseudo-label", "self-train", "run-pipeline",
                                         "ablate-ru", "ablate-noise", "evaluate"])
    def test_split_without_unlabeled_rows_exits_3_before_out(self, split_dir, stage2, tmp_path, capsys, command):
        """A split restamped for no unlabeled target rows leaves stage 2 nothing to label and every accuracy
        nothing to score, so it does not load."""
        empty = shutil.copytree(split_dir, tmp_path / "empty")
        manifest = json.loads((empty / "manifest.json").read_text())
        for name in ("unlabeled_target.npy", "unlabeled_truth.npy"):
            np.save(empty / name, np.load(empty / name)[:0], allow_pickle=False)
            manifest["checksums"][name] = hashlib.sha256((empty / name).read_bytes()).hexdigest()
        manifest["counts"]["unlabeled_target"] = 0
        (empty / "manifest.json").write_text(json.dumps(manifest))
        out = ["--out", str(tmp_path / "o"), *FAST]
        rest = {"pseudo-label": [*out, "--checkpoint", str(stage2[0])],
                "self-train": [*out, "--checkpoint", str(stage2[0]), "--selection", str(stage2[1])],
                "ablate-ru": [*out, "--grid", "0.2,1.0", "--seeds", "0"], "ablate-noise": [*out, "--seeds", "0,1"],
                "evaluate": ["--checkpoint", str(stage2[0])]}.get(command, out)
        assert main([command, "--split", str(empty), *rest]) == EXIT_DATA
        assert "holds no unlabeled target rows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_version_1_split_is_refused_before_out(self, tmp_path, capsys):
        """A CSV split of the previous format: regenerated by gen-data, never read."""
        old = tmp_path / "v1"
        old.mkdir()
        table = "x0,x1,y\n0.5,-1.25,0\n"
        stems = ("source", "labeled_target", "validation_target", "unlabeled_target", "unlabeled_truth")
        for stem in stems:
            (old / f"{stem}.csv").write_text(table)
        manifest = {
            "format_version": 1,
            "spec": {"n_classes": 3, "input_dim": 2, "n_source": 90, "n_target": 90, "class_separation": 4.0,
                     "seed": 0, "shift": {"rotation_degrees": 0.0, "translation": [], "scale": 1.0,
                                          "label_skew": 0.0}},
            "n_t_per_class": 3, "n_val_per_class": 3,
            "counts": {"source": 1, "labeled_target": 9, "unlabeled_target": 72, "validation_target": 9},
            "checksums": {"source.csv": hashlib.sha256(table.encode()).hexdigest()},
        }
        (old / "manifest.json").write_text(json.dumps(manifest))
        assert main(["run-pipeline", "--split", str(old), "--out", str(tmp_path / "o"), *FAST]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "version-1 (CSV) split" in err and "gen-data" in err
        assert not (tmp_path / "o").exists()
        assert main(gen_args(old)) == EXIT_OK
        assert sorted(p.name for p in old.iterdir()) == sorted(["manifest.json", *(f"{s}.npy" for s in stems)])

    def test_corrupt_checkpoint_is_data_error(self, split_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["evaluate", "--split", str(split_dir), "--checkpoint", str(bad)]) == EXIT_DATA


BAD_CONFIGS = [
    # (command, flags)
    pytest.param("run-pipeline", ["--t-val", "0"], id="t_val_0"),
    pytest.param("run-pipeline", ["--t-max", "0", "--t-val", "0"], id="t_max_0"),
    pytest.param("run-pipeline", ["--seed", str(2**64)], id="seed_2_64"),
    pytest.param("ablate-noise", ["--seeds", "3,3"], id="noise_one_distinct_seed"),
    pytest.param("ablate-noise", ["--seeds", "3,3,4"], id="noise_repeated_seed"),
    pytest.param("ablate-ru", ["--seeds", "3,3"], id="ru_repeated_seed"),
    pytest.param("ablate-ru", ["--grid", "0.2,0.2"], id="ru_repeated_grid_value"),
    # seeded_rng keeps a seed's low 64 bits, so 2**64 would rerun seed 0 as a second seed
    pytest.param("ablate-noise", ["--seeds", "0,18446744073709551616", *FAST], id="noise_seed_alias"),
    pytest.param("ablate-ru", ["--seeds=-1", *FAST], id="ru_negative_seed"),
    # every grid cell runs at its --seeds value, so --seed would be recorded and never used
    pytest.param("ablate-ru", ["--seeds", "0,1", "--seed", "7", *FAST], id="ru_seed_flag"),
    pytest.param("ablate-noise", ["--seeds", "0,1", "--seed", "7", *FAST], id="noise_seed_flag"),
    # every arm sets these fields, so their flags would be recorded and never used
    pytest.param("ablate-ru", ["--seeds", "0,1", "--r-u", "0.5", *FAST], id="ru_r_u_flag"),
    pytest.param("ablate-noise", ["--seeds", "0,1", "--hard-labels", *FAST], id="noise_hard_labels_flag"),
    pytest.param("run-pipeline", ["--label-momentum", "1.5"], id="label_momentum_above_1"),
    pytest.param("run-pipeline", ["--r-u", "0"], id="r_u_0"),
    pytest.param("run-pipeline", ["--t-max", "20", "--t-val", "25"], id="t_val_above_t_max"),
    pytest.param("run-pipeline", ["--patience", "0"], id="patience_0"),
    pytest.param("run-pipeline", ["--base-lr", "0"], id="base_lr_0"),
]


@pytest.mark.parametrize("command, flags", BAD_CONFIGS)
def test_bad_config_exits_2_before_any_work(split_dir, tmp_path, capsys, command, flags):
    assert main([command, "--split", str(split_dir), "--out", str(tmp_path / "o"), *flags]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _exits_unrecognized(argv: list, capsys, unrecognized: str) -> None:
    """argparse refuses ``argv`` with exit 2, naming ``unrecognized``."""
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {unrecognized}" in capsys.readouterr().err


def test_temperature_flag_is_unrecognized(split_dir, tmp_path, capsys):
    _exits_unrecognized(["run-pipeline", "--split", str(split_dir), "--out", str(tmp_path / "o"),
                         "--temperature", "0"], capsys, "--temperature 0")
    assert not (tmp_path / "o").exists()


# the network's layout, its SGD and its batch sizes are fixed, not config fields
FIXED_SETTINGS = {"hidden_dims": "64,64", "feature_dim": "32", "temperature": "0.05", "sgd_momentum": "0.9",
                  "weight_decay": "5e-4", "batch_labeled": "32", "batch_unlabeled": "32", "batch_pseudo": "64"}


@pytest.mark.parametrize("name", sorted(FIXED_SETTINGS))
def test_fixed_setting_flag_is_unrecognized(split_dir, tmp_path, capsys, name):
    """Even at the value the run uses, no flag names a fixed setting."""
    flag = "--" + name.replace("_", "-")
    _exits_unrecognized(["run-pipeline", "--split", str(split_dir), "--out", str(tmp_path / "o"),
                         flag, FIXED_SETTINGS[name]], capsys, f"{flag} {FIXED_SETTINGS[name]}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value", [("--t-max", "abc"), ("--t-val", "2.5"), ("--patience", "true"),
                                         ("--seed", "0x1"), ("--base-lr", "fast"), ("--lambda", "0.1.0"),
                                         ("--r-u", "20%"), ("--label-momentum", "")],
                         ids=lambda v: v.strip("-") or "empty")
def test_flag_of_wrong_type_exits_2_before_any_work(split_dir, tmp_path, capsys, flag, value):
    """argparse types each config flag, so a value that does not parse never reaches the config."""
    with pytest.raises(SystemExit) as exited:
        main(["run-pipeline", "--split", str(split_dir), "--out", str(tmp_path / "o"), flag, value])
    assert exited.value.code == EXIT_CONFIG
    assert f"argument {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, inputs", [
    ("train-baseline", []), ("pseudo-label", ["checkpoint"]), ("self-train", ["checkpoint", "selection"]),
    ("run-pipeline", []), ("ablate-ru", []), ("ablate-noise", []),
])
def test_config_file_flag_is_unrecognized(split_dir, stage2, tmp_path, capsys, command, inputs):
    """Flags are the only source of a run's config, so every stage and grid command refuses a config file."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_max": 200}))
    paths = {"checkpoint": stage2[0], "selection": stage2[1]}
    argv = [command, "--split", str(split_dir), "--out", str(tmp_path / "o"), "--config", str(cfg),
            *(arg for name in inputs for arg in (f"--{name}", str(paths[name])))]
    _exits_unrecognized(argv, capsys, f"--config {cfg}")
    assert not (tmp_path / "o").exists()


class TestUnusableOutput:
    """An output path that cannot be written exits 2 before any work: nothing is generated, loaded or printed."""

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below_file"])
    def test_gen_data_out(self, tmp_path, capsys, sub):
        blocker = tmp_path / "f"
        blocker.write_text("keep")
        assert main(gen_args(blocker / sub)) == EXIT_CONFIG  # blocker / "" is blocker
        stdout, err = capsys.readouterr()
        assert stdout == "" and f"config error: cannot write {blocker / sub}" in err
        assert blocker.read_text() == "keep"

    @pytest.mark.parametrize("command", ["train-baseline", "pseudo-label", "ablate-noise"])
    def test_stage_out_is_a_file(self, split_dir, stage2, tmp_path, capsys, command):
        blocker = tmp_path / "f"
        blocker.write_text("keep")
        argv = [command, "--split", str(split_dir), "--out", str(blocker), *FAST]
        if command == "pseudo-label":
            argv += ["--checkpoint", str(stage2[0])]
        assert main(argv) == EXIT_CONFIG
        stdout, err = capsys.readouterr()
        assert stdout == "" and f"{blocker} is not a directory" in err
        assert blocker.read_text() == "keep"

    @pytest.mark.parametrize("command", ["train-baseline", "pseudo-label", "self-train", "run-pipeline",
                                         "ablate-ru", "ablate-noise"])
    def test_output_into_the_split_directory(self, split_dir, stage2, tmp_path, capsys, command):
        """A run's manifest.json written into ``--split`` would leave a split the next command refuses."""
        split = shutil.copytree(split_dir, tmp_path / "split")
        manifest = split / "manifest.json"
        before = hashlib.sha256(manifest.read_bytes()).hexdigest()
        inputs = {"pseudo-label": ["--checkpoint", str(stage2[0])],
                  "self-train": ["--checkpoint", str(stage2[0]), "--selection", str(stage2[1])]}.get(command, [])
        # the same directory by another spelling
        assert main([command, "--split", str(split), "--out", str(split / ".." / "split"), *inputs,
                     *FAST]) == EXIT_CONFIG
        stdout, err = capsys.readouterr()
        assert stdout == "" and "config error:" in err and "the --split directory" in err
        assert hashlib.sha256(manifest.read_bytes()).hexdigest() == before
        assert main(["evaluate", "--split", str(split), "--checkpoint", str(stage2[0])]) == EXIT_OK


class TestConfigFromFlags:
    def test_flags_override_defaults(self, split_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train-baseline", "--split", str(split_dir), "--out", str(out),
                     "--t-max", "200", "--t-val", "25", "--patience", "3", "--base-lr", "0.006"]) == EXIT_OK
        stdout = capsys.readouterr().out
        effective = json.loads(stdout.split("effective config: ")[1].split("\n")[0])
        assert effective["t_max"] == 200      # from a flag
        assert effective["base_lr"] == 0.006  # from a flag
        assert effective["lambda_"] == 0.1    # default survives
        assert json.loads((out / "manifest.json").read_text())["config"] == effective


class TestStagedCommands:
    def test_stage_by_stage_matches_pipeline(self, split_dir, tmp_path, capsys):
        def run(argv) -> list:
            assert main(argv) == EXIT_OK
            return [line for line in capsys.readouterr().out.splitlines()
                    if not line.startswith("effective config: ")]

        pipe, base, sel, st = (tmp_path / name for name in ("pipe", "base", "sel", "st"))
        common = ["--split", str(split_dir), "--seed", "5", *FAST]
        ckpt = str(base / "baseline_checkpoint.json")
        pipe_lines = run(["run-pipeline", "--out", str(pipe), *common])
        staged_lines = (run(["train-baseline", "--out", str(base), *common])
                        + run(["pseudo-label", "--checkpoint", ckpt, "--out", str(sel), *common])
                        + run(["self-train", "--checkpoint", ckpt, "--selection", str(sel / "selection.json"),
                               "--out", str(st), *common]))
        assert staged_lines == pipe_lines

        staged = {
            base: ["baseline_checkpoint.json", "baseline_report.json", "baseline_report.csv"],
            sel: ["selection.json", *(f"selection.{c}.npy" for c in COLUMNS)],
            st: ["final_checkpoint.json", "final_report.json", "final_report.csv"],
        }
        for out, names in staged.items():
            for name in names:
                assert (pipe / name).read_bytes() == (out / name).read_bytes(), name
        manifests = [json.loads((out / "manifest.json").read_text()) for out in (pipe, base, sel, st)]
        for key in ("artifacts", "timings_s"):
            assert set(manifests[0][key]) == set().union(*(m[key] for m in manifests[1:])), key
        # stage 2 records its reliabilities; the stages that do not run it record none
        recorded = [{k: m[k] for k in RELIABILITIES if k in m} for m in manifests]
        assert set(recorded[0]) == set(RELIABILITIES) and recorded[0] == recorded[2]
        assert recorded[1] == recorded[3] == {}

    @pytest.mark.parametrize("command, flags", [("train-baseline", []),
                                                ("run-pipeline", ["--hard-labels", "--label-momentum", "1.0"]),
                                                ("self-train", [])])
    # the run diverges on purpose, and numpy warns as its values overflow and then turn NaN
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
    def test_diverged_stage_exits_4_before_writing(self, split_dir, stage2, tmp_path, capsys, command, flags):
        """Reported as diverged, also where the soft labels' refresh would first meet the NaN predictions."""
        out = tmp_path / "o"
        if command == "self-train":
            flags = ["--checkpoint", str(stage2[0]), "--selection", str(stage2[1])]
        assert main([command, "--split", str(split_dir), "--out", str(out),
                     "--base-lr", "1e10", "--t-max", "100", *flags]) == EXIT_RUNTIME
        assert "diverged" in capsys.readouterr().err
        assert not (out / "baseline_checkpoint.json").exists()
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, artifacts", [
        (["train-baseline"], {"baseline_checkpoint"}),
        (["pseudo-label", "--checkpoint", "{checkpoint}"], {"selection"}),
        (["self-train", "--checkpoint", "{checkpoint}", "--selection", "{selection}"], {"final_checkpoint"}),
        (["run-pipeline"], {"baseline_checkpoint", "selection", "final_checkpoint"}),
        (["ablate-ru", "--grid", "0.2,1.0", "--seeds", "0"], {"sweep", "summary"}),
        (["ablate-noise", "--seeds", "0,1"], {"table"}),
    ], ids=["train_baseline", "pseudo_label", "self_train", "run_pipeline", "ablate_ru", "ablate_noise"])
    def test_closed_stdout_keeps_the_manifest(self, split_dir, stage2, tmp_path, monkeypatch, argv, artifacts):
        """A reader that goes away after the ``effective config`` line costs the run its summary, not its record:
        every file is written before the summary."""
        class ClosedAfterConfigLine(io.StringIO):
            def write(self, text):
                if "\n" in self.getvalue() or not (self.getvalue() + text).startswith("effective config: "):
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        out = tmp_path / "run"
        argv = [arg.format(checkpoint=stage2[0], selection=stage2[1]) for arg in argv]
        monkeypatch.setattr(sys, "stdout", ClosedAfterConfigLine())
        assert main([*argv, "--split", str(split_dir), "--out", str(out), *FAST]) == EXIT_RUNTIME
        assert set(json.loads((out / "manifest.json").read_text())["artifacts"]) >= artifacts

    def test_evaluate_prints_accuracy(self, split_dir, tmp_path, capsys):
        base = tmp_path / "base"
        main(["train-baseline", "--split", str(split_dir), "--out", str(base), *FAST])
        assert main(["evaluate", "--split", str(split_dir),
                     "--checkpoint", str(base / "baseline_checkpoint.json")]) == EXIT_OK
        assert "accuracy on unlabeled target" in capsys.readouterr().out

    def test_pseudo_label_manifest_records_parsed_argv(self, split_dir, tmp_path, monkeypatch):
        base = tmp_path / "base"
        assert main(["train-baseline", "--split", str(split_dir), "--out", str(base), *FAST]) == EXIT_OK
        monkeypatch.setattr(sys, "argv", ["host-program", "host.job.json"])
        argv = ["pseudo-label", "--split", str(split_dir),
                "--checkpoint", str(base / "baseline_checkpoint.json"), "--out", str(tmp_path / "sel"), *FAST]
        assert main(argv) == EXIT_OK
        manifest = json.loads((tmp_path / "sel" / "manifest.json").read_text())
        assert manifest["argv"] == argv
        assert manifest["command"] == "pseudo-label"
        assert manifest["artifacts"] == {"selection": str(tmp_path / "sel" / "selection.json")}
        assert set(manifest["timings_s"]) == {"stage2"}

    def test_pseudo_label_records_only_r_u(self, split_dir, stage2, tmp_path, capsys):
        """Stage 2 reads only ``r_u``: training flags are accepted, change no byte, and are not recorded."""
        common = ["pseudo-label", "--split", str(split_dir), "--checkpoint", str(stage2[0]), "--r-u", "0.5"]
        assert main([*common, "--out", str(tmp_path / "plain")]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "flagged"
        assert main([*common, "--out", str(out), "--seed", "3", "--t-max", "70", "--lambda", "0.9"]) == EXIT_OK
        printed = capsys.readouterr().out.split("effective config: ")[1].split("\n")[0]
        assert json.loads(printed) == json.loads((out / "manifest.json").read_text())["config"] == {"r_u": 0.5}
        for name in ("selection.json", *(f"selection.{c}.npy" for c in COLUMNS)):
            assert (out / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name

    @pytest.mark.parametrize("flags", [["--seed", "3"], ["--t-max", "70"], ["--t-val", "5"], ["--patience", "1"],
                                       ["--base-lr", "0.5"], ["--lambda", "0.9"], ["--label-momentum", "0"],
                                       ["--hard-labels"]], ids=lambda flags: flags[0].strip("-"))
    def test_pseudo_label_ignores_each_training_flag(self, split_dir, stage2, tmp_path, capsys, flags):
        """Each flag that stage 2 does not read leaves the ``stage2`` fixture's dump and its tables unchanged."""
        out = tmp_path / "flagged"
        assert main(["pseudo-label", "--split", str(split_dir), "--checkpoint", str(stage2[0]),
                     "--out", str(out), *flags]) == EXIT_OK
        assert "effective config: {\"r_u\": 0.2}\n" in capsys.readouterr().out
        assert json.loads((out / "manifest.json").read_text())["config"] == {"r_u": 0.2}
        for name in ("selection.json", *(f"selection.{c}.npy" for c in COLUMNS)):
            assert (out / name).read_bytes() == stage2[1].with_name(name).read_bytes(), name

    def test_self_train_has_no_r_u_flag(self, split_dir, stage2, tmp_path, capsys):
        """Stage 3 keeps the set its dump selected, so an ``r_u`` flag would go unused."""
        _exits_unrecognized([*_self_train_argv(split_dir, *stage2, tmp_path / "o"), "--r-u", "0.5"], capsys,
                            "--r-u 0.5")
        assert not (tmp_path / "o").exists()

    def test_self_train_records_the_r_u_of_its_dump(self, split_dir, stage2, tmp_path, capsys):
        """Printed, in the run manifest and in the final checkpoint: the r_u its trusted set was selected with."""
        sel, st = tmp_path / "sel", tmp_path / "st"
        assert main(["pseudo-label", "--split", str(split_dir), "--checkpoint", str(stage2[0]), "--r-u", "1.0",
                     "--out", str(sel)]) == EXIT_OK
        capsys.readouterr()
        assert main(_self_train_argv(split_dir, stage2[0], sel / "selection.json", st)) == EXIT_OK
        printed = json.loads(capsys.readouterr().out.split("effective config: ")[1].split("\n")[0])
        recorded = (printed, json.loads((st / "manifest.json").read_text())["config"],
                    load_checkpoint(st / "final_checkpoint.json")["extra"]["config"])
        assert [config["r_u"] for config in recorded] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("field, value", [("scale", -1.0), ("input_dim", 3),
                                              ("seed", -1), ("seed", 2**64)])
    def test_bad_manifest_spec_is_data_error(self, split_dir, tmp_path, capsys, field, value):
        bad = _split_with_spec(split_dir, tmp_path / "bad", field, value)
        assert main(["train-baseline", "--split", str(bad), "--out", str(tmp_path / "o"), *FAST]) == EXIT_DATA
        assert "data error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def _count_stage1(monkeypatch) -> list:
    """Record the seed of every stage-1 run the ablation grids make."""
    seeds: list = []
    real = cli.train_baseline

    def counting(split, config, *args, **kwargs):
        seeds.append(config.seed)
        return real(split, config, *args, **kwargs)

    monkeypatch.setattr(cli, "train_baseline", counting)
    return seeds


def _explicit_cell(split_dir: Path, config: TrainConfig) -> float:
    """The three stages of one grid cell, called one by one through the public API."""
    split = load_split(split_dir)
    params, _ = train_baseline(split, config)
    anchors = {c: forward_features(x, params) for c, x in split.labeled_target_by_class().items()}
    selected = select(infer_pseudo(params, split.unlabeled_x()), anchors, config.r_u,
                      len(split.unlabeled_target), split.n_classes)
    final, _ = progressive_self_train(split, selected, params, config)
    return evaluate(final, split.unlabeled_x(), split.unlabeled_truth)


class TestAblationStageSharing:
    def test_ru_grid_trains_stage1_once_per_seed(self, split_dir, tmp_path, monkeypatch):
        seeds = _count_stage1(monkeypatch)
        out = tmp_path / "ru"
        assert main(["ablate-ru", "--split", str(split_dir), "--out", str(out),
                     "--grid", "0.2,1.0", "--seeds", "0,1", *FAST]) == EXIT_OK
        assert seeds == [0, 1]
        last = (out / "ru_sweep.csv").read_text().strip().split("\n")[-1]
        assert last.startswith("1.0,1,")
        expected = _explicit_cell(split_dir, replace(FAST_CONFIG, r_u=1.0, seed=1))
        assert last.split(",")[2] == repr(expected)

    def test_noise_grid_trains_stage1_once_per_seed(self, split_dir, tmp_path, monkeypatch):
        seeds = _count_stage1(monkeypatch)
        assert main(["ablate-noise", "--split", str(split_dir), "--out", str(tmp_path / "noise"),
                     "--seeds", "0,1", *FAST]) == EXIT_OK
        assert seeds == [0, 1]

    @pytest.mark.parametrize("command, flags", [("ablate-ru", ["--seeds", "0", "--regen"]),
                                                ("ablate-noise", ["--seeds", "0,1", "--regen"])])
    @pytest.mark.parametrize("broken", ["missing", "bad_scale"])
    def test_unusable_split_exits_3_before_out_exists(self, split_dir, tmp_path, capsys,
                                                      command, flags, broken):
        split = tmp_path / "nope" if broken == "missing" else _split_with_spec(split_dir, tmp_path / "bad",
                                                                               "scale", -1.0)
        assert main([command, "--split", str(split), "--out", str(tmp_path / "o"), *flags, *FAST]) == EXIT_DATA
        assert "data error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestAblations:
    def test_ru_sweep_row_count_and_best_marker(self, split_dir, tmp_path, capsys):
        out = tmp_path / "ru"
        assert main(["ablate-ru", "--split", str(split_dir), "--out", str(out),
                     "--grid", "0.2,1.0", "--seeds", "0,1", *FAST]) == EXIT_OK
        rows = (out / "ru_sweep.csv").read_text().strip().split("\n")
        assert rows[0] == "r_u,seed,accuracy"
        assert len(rows) - 1 == 2 * 2
        summary = (out / "ru_summary.csv").read_text().strip().split("\n")
        assert summary[0] == "r_u,mean_accuracy,std_accuracy,best"
        assert sum(1 for line in summary[1:] if line.endswith("*")) == 1
        assert "<- best" in capsys.readouterr().out

    def test_bad_grid_value_rejected(self, split_dir, tmp_path):
        assert main(["ablate-ru", "--split", str(split_dir), "--out", str(tmp_path / "o"),
                     "--grid", "0.0,0.2", "--seeds", "0,1"]) == EXIT_CONFIG

    def test_noise_ablation_pairs_and_difference(self, split_dir, tmp_path, capsys):
        out = tmp_path / "noise"
        assert main(["ablate-noise", "--split", str(split_dir), "--out", str(out),
                     "--seeds", "0,1", *FAST]) == EXIT_OK
        rows = (out / "noise_ablation.csv").read_text().strip().split("\n")
        assert rows[0] == "seed,progressive_accuracy,vanilla_accuracy,paired_difference"
        assert len(rows) - 1 == 2
        for line in rows[1:]:
            seed, prog, van, diff = line.split(",")
            assert float(prog) - float(van) == pytest.approx(float(diff), abs=1e-12)
        assert "paired mean difference" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [0, 1] and "seed" not in manifest["config"]

    @pytest.mark.parametrize("argv", [["ablate-ru", "--grid", "0.2,1.0", "--seeds", "0,1"],
                                      ["ablate-noise", "--seeds", "0,1"]], ids=["ru", "noise"])
    def test_grid_prints_the_config_it_records(self, split_dir, tmp_path, capsys, argv):
        """Neither leaves in the fields that each cell sets: ``seed``, and ``r_u`` or ``use_hard_labels``."""
        out = tmp_path / "grid"
        assert main([*argv, "--split", str(split_dir), "--out", str(out), *FAST]) == EXIT_OK
        printed = capsys.readouterr().out.split("effective config: ")[1].split("\n")[0]
        assert json.loads(printed) == json.loads((out / "manifest.json").read_text())["config"]

    @pytest.mark.parametrize("argv", [["ablate-ru", "--grid", "0.2,1.0", "--seeds", "0,1"],
                                      ["ablate-noise", "--seeds", "0,1"]], ids=["ru", "noise"])
    def test_grid_manifest_records_stage_seconds(self, split_dir, tmp_path, argv):
        """Each stage's seconds, summed over the grid's cells."""
        out = tmp_path / "grid"
        assert main([*argv, "--split", str(split_dir), "--out", str(out), *FAST]) == EXIT_OK
        timings = json.loads((out / "manifest.json").read_text())["timings_s"]
        assert set(timings) == {"stage1", "stage2", "stage3"}
        assert all(seconds > 0 for seconds in timings.values())

    def test_noise_ablation_needs_two_seeds(self, split_dir, tmp_path):
        assert main(["ablate-noise", "--split", str(split_dir), "--out", str(tmp_path / "o"),
                     "--seeds", "0"]) == EXIT_CONFIG


@pytest.fixture(scope="module")
def stage2(split_dir, tmp_path_factory):
    """A baseline checkpoint and its selection dump for ``split_dir``."""
    root = tmp_path_factory.mktemp("stage2")
    ckpt = root / "s1" / "baseline_checkpoint.json"
    assert main(["train-baseline", "--split", str(split_dir), "--out", str(root / "s1"), *FAST]) == EXIT_OK
    assert main(["pseudo-label", "--split", str(split_dir), "--checkpoint", str(ckpt),
                 "--out", str(root / "s2"), *FAST]) == EXIT_OK
    return ckpt, root / "s2" / "selection.json"


@pytest.fixture(scope="module")
def stage2_other(split_dir, tmp_path_factory):
    """The selection dump of another baseline (seed 1) on ``split_dir``."""
    root = tmp_path_factory.mktemp("stage2_other")
    ckpt = root / "s1" / "baseline_checkpoint.json"
    common = ["--split", str(split_dir), "--seed", "1", *FAST]
    assert main(["train-baseline", "--out", str(root / "s1"), *common]) == EXIT_OK
    assert main(["pseudo-label", "--checkpoint", str(ckpt), "--out", str(root / "s2"), *common]) == EXIT_OK
    return root / "s2" / "selection.json"


def _foreign_checkpoint(input_dim: int, n_classes: int):
    """A well-formed checkpoint for a network of another shape than the 2-D, 3-class test split."""
    def write(path: Path, good: Path) -> None:
        params = init_params(input_dim=input_dim, hidden_dims=(8,), feature_dim=4, n_classes=n_classes,
                             temperature=0.05, rng=seeded_rng(0, "init"))
        save_checkpoint(path, params, extra={"stage": "baseline"})
    return write


def _edited(edit):
    return lambda path, good: path.write_text(edit(good.read_text()))


def _edited_json(change):
    def edit(text: str) -> str:
        obj = json.loads(text)
        change(obj)
        return json.dumps(obj)
    return _edited(edit)


def _restamped(column: str, rewrite):
    """Rewrite one table's bytes as ``rewrite(array, bytes)`` gives them and restamp its checksum in the JSON,
    so that only the checks of the table's content can object.  A checkpoint's one table is ``flat``."""
    def write(path: Path, good: Path) -> None:
        table = table_path(path, column)
        data = table.read_bytes()
        table.write_bytes(rewrite(np.load(io.BytesIO(data)).copy(), data))
        record = json.loads(path.read_text())
        checksum = hashlib.sha256(table.read_bytes()).hexdigest()
        if column == "flat":
            record["checksum"] = checksum
        else:
            record["checksums"][column] = checksum
        path.write_text(json.dumps(record))
    return write


def _set(index, value):
    """A table rewrite that sets ``array[index] = value``."""
    def rewrite(array: np.ndarray, data: bytes) -> bytes:
        array[index] = value
        return npy_bytes(array)
    return rewrite


def _flipped(column: str):
    """Flip one bit of a table's last byte and leave its checksum as it was."""
    def write(path: Path, good: Path) -> None:
        data = bytearray(table_path(path, column).read_bytes())
        data[-1] ^= 1
        table_path(path, column).write_bytes(bytes(data))
    return write


def _missing(column: str):
    return lambda path, good: table_path(path, column).unlink()


def _directory(column: str):
    def write(path: Path, good: Path) -> None:
        table_path(path, column).unlink()
        table_path(path, column).mkdir()
    return write


def _drop_last_rows(path: Path, good: Path) -> None:
    """The hard_label and distance columns of a split one unlabeled row smaller."""
    for column in ("hard_label", "distance"):
        _restamped(column, lambda array, data: npy_bytes(array[:-1]))(path, good)


def _first_listed(dump: dict) -> dict:
    return next(entries for entries in dump["selected_by_class"].values() if entries)[0]


def _move_first_listed(dump: dict) -> None:
    """File the first listed row under the next class, whose key is then not its hard label."""
    key = next(k for k, entries in dump["selected_by_class"].items() if entries)
    entry = dump["selected_by_class"][key].pop(0)
    dump["selected_by_class"].setdefault(str((int(key) + 1) % 3), []).append(entry)


def _duplicate_first_listed(dump: dict) -> None:
    """List the first listed row a second time in place of its class's next row."""
    entries = next(entries for entries in dump["selected_by_class"].values() if len(entries) > 1)
    entries[1]["index"] = entries[0]["index"]


def _table_cases(column: str) -> list:
    """(case, edit, what the data error names) for one table: its bytes changed under the checksum, gone, or
    rewritten with a restamped checksum."""
    return [
        ("flipped_bit", _flipped(column), "checksum mismatch"),
        ("missing", _missing(column), "missing table"),
        ("directory", _directory(column), "missing table"),
        ("float32", _restamped(column, lambda a, d: npy_bytes(a.astype(np.float32))), "dtype"),
        ("extra_axis", _restamped(column, lambda a, d: npy_bytes(a[..., None])), "shape"),
        ("pickled_objects", _restamped(column, lambda a, d: npy_bytes(a.astype(object), allow_pickle=True)),
         "allow_pickle=False"),
        ("trailing_bytes", _restamped(column, lambda a, d: d + bytes(8)), "8 bytes after the array"),
    ]


def _copy_checkpoint(good: Path, dest: Path) -> Path:
    """Copy a checkpoint and its weight table to ``dest`` and the table name its stem gives."""
    for src, dst in [(good, dest), (table_path(good, "flat"), table_path(dest, "flat"))]:
        shutil.copyfile(src, dst)
    return dest


def _layout(change):
    """Edit the checkpoint's ``params`` layout, which the weight table's checksum does not cover."""
    return _edited_json(lambda d: change(d["params"]))


def _n_weights(layout: dict) -> int:
    return sum(math.prod(shape) for pair in layout["layer_shapes"] for shape in pair) + math.prod(layout["last_shape"])


def _version1_checkpoint(path: Path, good: Path) -> None:
    """The checkpoint in the version-1 layout: every weight as JSON text."""
    params = load_checkpoint(good)["params"]
    path.write_text(json.dumps({"format_version": 1, "extra": json.loads(good.read_text())["extra"], "params": {
        "extractor_layers": [[w.tolist(), b.tolist()] for w, b in params.extractor_layers],
        "classifier_weights": params.classifier_weights.tolist(), "temperature": params.temperature}}))


def _weight_plus_5(path: Path, good: Path) -> None:
    """Add 5.0 to the last classifier weight in the table and leave its checksum as it was."""
    flat = np.load(table_path(path, "flat"))
    flat[-1] += 5.0
    np.save(table_path(path, "flat"), flat, allow_pickle=False)


RETRAIN = "run train-baseline"
# (edit, what the data error names)
BAD_CHECKPOINTS = [
    pytest.param(_foreign_checkpoint(3, 3), "has input dim 3", id="input_dim_3"),
    pytest.param(_foreign_checkpoint(2, 5), "and 5 classes", id="classes_5"),
    pytest.param(_edited(lambda text: text[: len(text) // 2]), "not valid JSON", id="truncated"),
    # a later version than this reader writes is no checkpoint it knows: a selection dump also holds 3
    pytest.param(_edited_json(lambda d: d.update(format_version=3)), "is not a checkpoint", id="version_3"),
    pytest.param(_version1_checkpoint, RETRAIN, id="version_1"),
    pytest.param(_edited(lambda text: "[]"), "must be a JSON object", id="not_an_object"),
    pytest.param(_edited_json(lambda d: d.pop("checksum")), "missing keys ['checksum']", id="no_checksum"),
    pytest.param(_layout(lambda p: p["layer_shapes"][0].__setitem__(0, [2 * 64])), "needs a 2-D weight",
                 id="weight_1d"),
    pytest.param(_layout(lambda p: p.update(layer_shapes=[], last_shape=[_n_weights(p)])), "at least one layer",
                 id="no_extractor_layer"),
    pytest.param(_layout(lambda p: p.update(last_shape=[math.prod(p["last_shape"])])), "classifier must be 2-D",
                 id="classifier_1d"),
    pytest.param(_layout(lambda p: p.update(temperature=float("nan"))), "temperature must be finite",
                 id="temperature_nan"),
    pytest.param(_layout(lambda p: p.update(temperature=float("inf"))), "temperature must be finite",
                 id="temperature_inf"),
    pytest.param(_layout(lambda p: p.update(temperature="0.05")), "temperature must be a number",
                 id="temperature_str"),
    pytest.param(_layout(lambda p: p["layer_shapes"][0].__setitem__(0, [2.0, 64.0])), "integers >= 0",
                 id="shape_floats"),
    # a -1 would let numpy infer the width of a layer from the table
    pytest.param(_layout(lambda p: p["layer_shapes"][0].__setitem__(0, [-1, 64])), "integers >= 0",
                 id="shape_negative"),
    pytest.param(_restamped("flat", lambda a, d: npy_bytes(a[:-1])), "its table holds", id="flat_shorter_than_shapes"),
    # the edit that evaluate once scored as a checkpoint of its own
    pytest.param(_weight_plus_5, "checksum mismatch for checkpoint.flat.npy", id="classifier_weight_plus_5"),
    *(pytest.param(write, reason, id=f"flat_{case}") for case, write, reason in _table_cases("flat")),
]

# (edit, what the data error names)
BAD_SELECTIONS = [
    pytest.param(_edited(lambda text: text[: len(text) // 2]), "", id="truncated"),
    pytest.param(_edited_json(lambda d: d.pop("r_u")), "lacks the keys", id="missing_key"),
    pytest.param(_edited_json(lambda d: d.update(n_selected=d["n_selected"] + 1)), "n_selected",
                 id="n_selected_off_by_1"),
    pytest.param(_edited_json(lambda d: d.update(per_class_quota=1)), "per_class_quota", id="quota_not_from_r_u"),
    pytest.param(_edited_json(lambda d: d.update(r_u="0.2")), "must be a number in", id="r_u_str"),
    # ceil(0.01 * 72 / 3) = 1, so the quota fits r_u but every populated class keeps more
    pytest.param(_edited_json(lambda d: d.update(r_u=0.01, per_class_quota=1)), "more than its quota",
                 id="class_over_quota"),
    pytest.param(_edited_json(_move_first_listed), "hard label of its rows", id="class_key_not_hard_label"),
    pytest.param(_edited_json(lambda d: d.update(format_version=4)), "is not a selection dump",
                 id="format_version_4"),
    pytest.param(_edited_json(lambda d: d.pop("checksums")), "lacks its table checksums", id="no_checksums"),
    pytest.param(_edited_json(lambda d: _first_listed(d).pop("index")), "selected_by_class must map",
                 id="missing_entry_key"),
    pytest.param(_edited_json(lambda d: _first_listed(d).update(index=486)), "lie in [0, 72)",
                 id="index_from_larger_split"),
    pytest.param(_edited_json(_duplicate_first_listed), "unique", id="duplicate_index"),
    pytest.param(_edited_json(lambda d: _first_listed(d).update(index=[0, 1])), "selected_by_class must map",
                 id="index_list"),
    pytest.param(_edited_json(lambda d: [e.update(index=[e["index"]]) for es in d["selected_by_class"].values()
                                         for e in es]), "indices must be integers", id="indices_nested"),
    pytest.param(_restamped("hard_label", _set(0, 3)), "hard labels must lie in", id="hard_label_3"),
    pytest.param(_restamped("distance", _set(0, np.nan)), "distances must be numbers", id="nan_distance"),
    pytest.param(_restamped("distance", _set(0, -1.0)), "distances must be numbers", id="negative_distance"),
    pytest.param(_restamped("soft_label", lambda a, d: npy_bytes(np.hstack([a, np.zeros((len(a), 1))]))), "widths",
                 id="soft_width_4"),
    pytest.param(_edited_json(lambda d: d.update(selected_by_class={}, n_selected=0)), "selects no rows",
                 id="none_selected"),
    pytest.param(_restamped("soft_label", _set((0, 0), np.nan)), "sum to 1", id="soft_nan"),
    pytest.param(_restamped("soft_label", _set(0, [2.0, -1.0, 0.0])), "sum to 1", id="soft_outside_0_1"),
    pytest.param(_restamped("soft_label", _set(0, [1.0, 1.0, 0.0])), "sum to 1", id="soft_sum_2"),
    pytest.param(_restamped("soft_label", lambda a, d: npy_bytes(a.astype(str))), "dtype", id="soft_strings"),
    pytest.param(_restamped("soft_label", lambda a, d: npy_bytes(a[:-1])), "soft rows for", id="soft_row_missing"),
    pytest.param(_drop_last_rows, "one entry per unlabeled row", id="columns_of_smaller_split"),
    pytest.param(_edited_json(lambda d: d.update(split_checksum=5)), "must be strings", id="provenance_number"),
    pytest.param(_edited_json(lambda d: d.update(split_checksum=None)), "must be strings",
                 id="provenance_null_split"),
    pytest.param(_edited_json(lambda d: d.update(checkpoint_sha256=None)), "must be strings",
                 id="provenance_null_checkpoint"),
    # the dump edit that an unchecked reader once ran to "final accuracy"
    pytest.param(_edited_json(lambda d: d.update(n_selected=999, per_class_quota=1, selected_by_class={"0": []})),
                 "selects no rows", id="edited_counts"),
    *(pytest.param(write, reason, id=f"{column}_{case}")
      for column in COLUMNS for case, write, reason in _table_cases(column)),
]

@pytest.fixture(scope="module")
def stage2_v1(stage2, tmp_path_factory):
    """``stage2``'s selection without a ``format_version``, as the per-row layout was written, beside its tables."""
    path = _copy_selection(stage2[1], tmp_path_factory.mktemp("stage2_v1") / "selection.json")
    dump = json.loads(stage2[1].read_text())
    del dump["format_version"]
    path.write_text(json.dumps(dump))
    return path


@pytest.fixture(scope="module")
def stage2_v2(stage2, tmp_path_factory):
    """``stage2``'s selection in the version-2 layout (its columns as JSON lists), beside its version-3 tables."""
    path = _copy_selection(stage2[1], tmp_path_factory.mktemp("stage2_v2") / "selection.json")
    dump = load_selection(stage2[1])
    del dump["checksums"]
    path.write_text(json.dumps({**dump, "format_version": 2, **{c: dump[c].tolist() for c in COLUMNS}}))
    return path


def _self_train_argv(split_dir: Path, ckpt: Path, selection: Path, out: Path) -> list:
    return ["self-train", "--split", str(split_dir), "--checkpoint", str(ckpt), "--selection", str(selection),
            "--out", str(out), *FAST]


class TestArtifactChecks:
    """A checkpoint or selection dump that does not fit its split exits 3 before any work."""

    @pytest.mark.parametrize("command", ["pseudo-label", "self-train", "evaluate"])
    @pytest.mark.parametrize("write, reason", BAD_CHECKPOINTS)
    def test_unusable_checkpoint_exits_3_before_out_exists(self, split_dir, stage2, tmp_path, capsys,
                                                           command, write, reason):
        good_ckpt, selection = stage2
        bad = _copy_checkpoint(good_ckpt, tmp_path / "checkpoint.json")
        write(bad, good_ckpt)
        argv = [command, "--split", str(split_dir), "--checkpoint", str(bad)]
        if command == "self-train":
            argv += ["--selection", str(selection)]
        if command != "evaluate":
            argv += ["--out", str(tmp_path / "o"), *FAST]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error:" in err and reason in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("write, reason", BAD_SELECTIONS)
    def test_unusable_selection_exits_3_before_out_exists(self, split_dir, stage2, tmp_path, capsys, write, reason):
        ckpt, good_selection = stage2
        bad = _copy_selection(good_selection, tmp_path / "selection.json")
        write(bad, good_selection)
        assert main(_self_train_argv(split_dir, ckpt, bad, tmp_path / "o")) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error:" in err and reason in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("write, reason", BAD_SELECTIONS)
    def test_unusable_selection_is_refused_by_the_package_checks(self, stage2, tmp_path, write, reason):
        """A reader of the package, not only ``self-train``, gets the same data error from ``load_selection``
        and ``check_selection``: the checks that need neither the split's files nor the checkpoint."""
        bad = _copy_selection(stage2[1], tmp_path / "selection.json")
        write(bad, stage2[1])
        with pytest.raises(DataError, match=re.escape(reason) or None):  # "" names no message
            check_selection(load_selection(bad), 72, 3)

    @pytest.mark.parametrize("column", COLUMNS)
    def test_table_of_another_run_is_refused_by_load_selection(self, stage2, stage2_other, tmp_path, column):
        bad = _copy_selection(stage2[1], tmp_path / "selection.json")
        shutil.copyfile(table_path(stage2_other, column), table_path(bad, column))
        with pytest.raises(DataError, match=f"checksum mismatch for selection.{column}.npy"):
            load_selection(bad)

    @pytest.mark.parametrize("column", COLUMNS)
    def test_table_left_over_from_another_run_exits_3(self, split_dir, stage2, stage2_other, tmp_path, capsys,
                                                       column):
        ckpt, good_selection = stage2
        bad = _copy_selection(good_selection, tmp_path / "selection.json")
        assert table_path(stage2_other, column).read_bytes() != table_path(bad, column).read_bytes()
        shutil.copyfile(table_path(stage2_other, column), table_path(bad, column))
        assert main(_self_train_argv(split_dir, ckpt, bad, tmp_path / "o")) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error:" in err and f"checksum mismatch for selection.{column}.npy" in err
        assert not (tmp_path / "o").exists()

    def test_recomputed_reliability_equals_stored(self, split_dir, stage2, tmp_path, capsys):
        """Stage 2's manifest and its summary line hold the share of right hard pseudo labels over every
        unlabeled row and over the selected rows, recomputed here from the dump and the split's hidden truth."""
        out = tmp_path / "sel"
        assert main(["pseudo-label", "--split", str(split_dir), "--checkpoint", str(stage2[0]),
                     "--out", str(out)]) == EXIT_OK
        dump, truth = load_selection(out / "selection.json"), load_split(split_dir).unlabeled_truth
        index = [entry["index"] for entries in dump["selected_by_class"].values() for entry in entries]
        hard = dump["hard_label"]
        before, after = np.mean(hard == truth), np.mean(hard[index] == truth[index])
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["reliability_before"], manifest["reliability_after"]) == (before, after)
        assert (f"reliability before/after selection: {100 * before:.1f} -> {100 * after:.1f}\n"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("value", ["x", [0.5], True, 7.5, float("nan"), -1.0],
                             ids=["string", "list", "bool", "above_1", "nan", "negative"])
    def test_older_dump_with_stored_reliabilities(self, split_dir, stage2, tmp_path, value):
        """Dumps of the same format version written before stage 2 stopped storing its reliabilities carry them
        as two more keys. No reader reads them, so whatever they hold, such a dump loads and writes the same
        bytes as the dump without them."""
        dump = json.loads(stage2[1].read_text())
        assert not set(RELIABILITIES) & set(dump)
        dump.update(dict.fromkeys(RELIABILITIES, value))
        (tmp_path / "edited").mkdir()
        edited = _copy_selection(stage2[1], tmp_path / "edited" / "selection.json")
        edited.write_text(json.dumps(dump))
        for selection, out in ((stage2[1], tmp_path / "plain"), (edited, tmp_path / "read")):
            assert main(_self_train_argv(split_dir, stage2[0], selection, out)) == EXIT_OK
        for name in ("final_checkpoint.json", "final_report.csv"):
            assert (tmp_path / "read" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name


class TestSelectionVersions:
    """Stage 2 writes the version-3 layout, the only one that loads."""

    def test_version_3_keeps_its_columns_in_checksummed_tables(self, split_dir, stage2):
        ckpt, selection = stage2
        dump = json.loads(selection.read_text())
        assert dump["format_version"] == 3
        assert not set(COLUMNS) & set(dump)
        assert dump["checksums"] == {c: hashlib.sha256(table_path(selection, c).read_bytes()).hexdigest()
                                     for c in COLUMNS}
        tables = {c: np.load(table_path(selection, c), allow_pickle=False) for c in COLUMNS}
        assert (tables["hard_label"].dtype, tables["hard_label"].shape) == (np.dtype("<i8"), (72,))
        assert (tables["distance"].dtype, tables["distance"].shape) == (np.dtype("<f8"), (72,))
        assert (tables["soft_label"].dtype, tables["soft_label"].shape) == (np.dtype("<f8"), (dump["n_selected"], 3))
        assert dump["n_selected"] < 72
        assert dump["split_checksum"] == split_checksum(split_dir)
        assert dump["checkpoint_sha256"] == hashlib.sha256(ckpt.read_bytes()).hexdigest()

    @pytest.mark.parametrize("layout, reason", [("stage2_v1", "is not a selection dump: its format_version is None"),
                                                ("stage2_v2", "run pseudo-label again")],
                             ids=["version_1", "version_2"])
    def test_earlier_layout_exits_3(self, request, split_dir, stage2, tmp_path, capsys, layout, reason):
        """The per-row layout (no ``format_version``, so no version to be older than) and the JSON-column layout
        (version 2, which gets the remedy) are refused."""
        argv = _self_train_argv(split_dir, stage2[0], request.getfixturevalue(layout), tmp_path / "o")
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error:" in err and reason in err
        assert not (tmp_path / "o").exists()


class TestAnotherKindOfRecord:
    """A record of another kind is refused as not the artifact its flag takes, without an older version's remedy."""

    def test_run_directory_as_split(self, stage2, tmp_path, capsys):
        run_dir = stage2[0].parent  # train-baseline's --out: its manifest.json holds no format_version
        assert main(["train-baseline", "--split", str(run_dir), "--out", str(tmp_path / "o"), *FAST]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{run_dir / 'manifest.json'} is not a manifest: its format_version is None, not 2" in err
        assert "gen-data" not in err
        assert not (tmp_path / "o").exists()

    def test_selection_as_checkpoint(self, split_dir, stage2, capsys):
        assert main(["evaluate", "--split", str(split_dir), "--checkpoint", str(stage2[1])]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{stage2[1]} is not a checkpoint: its format_version is 3, not 2" in err
        assert RETRAIN not in err


class TestSelectionProvenance:
    """``self-train`` refuses a dump made from another split or checkpoint (exit 3 before ``--out`` exists)."""

    def test_dump_of_another_baseline(self, split_dir, stage2, stage2_other, tmp_path, capsys):
        assert main(["self-train", "--split", str(split_dir), "--checkpoint", str(stage2[0]),
                     "--selection", str(stage2_other), "--out", str(tmp_path / "o"), *FAST]) == EXIT_DATA
        assert "records checkpoint_sha256" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_dump_of_another_split_of_the_same_size(self, stage2, tmp_path, capsys):
        other = tmp_path / "other_split"
        assert main(gen_args(other, seed=1)) == EXIT_OK
        assert len(load_split(other).unlabeled_target) == 72
        capsys.readouterr()
        assert main(_self_train_argv(other, stage2[0], stage2[1], tmp_path / "o")) == EXIT_DATA
        assert "records split_checksum" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestCheckpointArchitecture:
    """Stages 2 and 3 run the network their checkpoint holds: no config field or flag describes one."""

    @pytest.mark.parametrize("command", ["pseudo-label", "self-train"])
    def test_temperature_flag_exits_2_before_out_exists(self, split_dir, stage2, tmp_path, capsys, command):
        ckpt, selection = stage2
        argv = [command, "--split", str(split_dir), "--checkpoint", str(ckpt), "--out", str(tmp_path / "o"),
                "--temperature", "0.5", *FAST]
        if command == "self-train":
            argv += ["--selection", str(selection)]
        _exits_unrecognized(argv, capsys, "--temperature 0.5")
        assert not (tmp_path / "o").exists()

    def test_checkpoint_without_hidden_layer_runs(self, split_dir, tmp_path, capsys):
        """A network that stage 1 never builds still runs through stages 2 and 3."""
        params = init_params(input_dim=2, hidden_dims=(), feature_dim=4, n_classes=3, temperature=0.05,
                             rng=seeded_rng(0, "init"))
        ckpt = tmp_path / "shallow.json"
        save_checkpoint(ckpt, params, extra={})
        common = ["--split", str(split_dir), "--checkpoint", str(ckpt), *FAST]
        assert main(["pseudo-label", *common, "--out", str(tmp_path / "sel")]) == EXIT_OK
        assert main(["self-train", *common, "--selection", str(tmp_path / "sel" / "selection.json"),
                     "--out", str(tmp_path / "st")]) == EXIT_OK
        final = load_checkpoint(tmp_path / "st" / "final_checkpoint.json")["params"]
        assert [w.shape for w, _ in final.extractor_layers] == [(2, 4)]
        assert "final accuracy:" in capsys.readouterr().out

