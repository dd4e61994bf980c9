"""Every name ``perfbench/worker.py`` traces or reads is still on the package, and the benchmark's own smoke
test passes, so a refactor that moves a name, or changes an argument or attribute that a traced run reads,
fails here rather than only in a benchmark run."""

import importlib
import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ssda_lab import network
from ssda_lab.coremath import seeded_rng
from ssda_lab.datasets import SSDASplit
from ssda_lab.pseudolabel import anchor_distances, pseudo_rows, select, selected_set_from_dump, selection_dump

ROOT = Path(__file__).resolve().parent.parent
WORKER_PATH = ROOT / "perfbench" / "worker.py"


def _load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER_PATH)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


WORKER = _load_worker()


@pytest.mark.parametrize("module, attr", [probe[:2] for probe in WORKER.PROBES],
                         ids=[".".join(probe[:2]) for probe in WORKER.PROBES])
def test_probe_is_a_callable_on_its_module(module, attr):
    assert callable(getattr(importlib.import_module(f"ssda_lab.{module}"), attr, None))


@pytest.mark.parametrize("name", WORKER.SPLIT_VIEWS)
def test_split_view_is_on_ssdasplit(name):
    assert callable(getattr(SSDASplit, name, None))


def test_degenerate_feature_events_can_be_reset_and_read():
    events = network.degenerate_feature_events
    assert callable(events.reset)
    assert isinstance(events.count, int)


def test_selection_counters_read_the_pool_and_the_kept_rows():
    """The worker counts the pool from ``select``'s first argument and the rebuilt set's soft rows."""
    rng, n, k = seeded_rng(29, "counters"), 60, 4
    soft, features = rng.dirichlet(np.ones(k), n), rng.standard_normal((n, 3))
    hard = soft.argmax(axis=1)
    distance = anchor_distances(features, hard, {c: rng.standard_normal((2, 3)) for c in range(k)})
    pool = pseudo_rows(soft, hard, distance=distance)
    args = (pool, 0.3, n, k)
    selected = select(*args)
    dump = selection_dump(selected, pool)
    counts = Counter()
    WORKER._count_selection(counts, "pseudolabel.select", args, {}, selected)
    WORKER._count_rebuilt_bytes(counts, "pseudolabel.selected_set_from_dump", (dump,), {},
                                selected_set_from_dump(dump))
    assert 0 < len(selected) < n
    assert counts == {"pseudolabel.select.annotated": n, "pseudolabel.select.kept": len(selected),
                      "pseudolabel.selected_set_from_dump.bytes": 8 * k * len(selected)}


def test_perfbench_smoke_passes():
    """``perfbench/test_smoke.py`` runs every workload at its tiny size, untraced and traced, from the checkout
    root as its docstring says."""
    proc = subprocess.run([sys.executable, "-m", "unittest", "perfbench/test_smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
