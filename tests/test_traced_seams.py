"""Every name ``perfbench/worker.py`` traces or reads is still on the package, so a refactor that moves one
fails here rather than only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ssda_lab import network
from ssda_lab.datasets import SSDASplit

WORKER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


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
