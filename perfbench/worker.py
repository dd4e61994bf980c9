"""Run ssda-lab CLI commands one at a time inside this single process.

Usage: python3 perfbench/worker.py JOB.json

The job file names the checkout root, the working directory, two command
lists, whether to trace, and how many reference timings to take between
commands (0 for set-up, which the parent times from outside).  ``pre``
commands run first and are not timed; ``commands`` are.  Each command is
one call of ``ssda_lab.cli.main(argv)`` with its stdout captured, so the
process pays the interpreter start and ``import ssda_lab`` once, like one
CLI call.

Untraced, the only probe is a counter on ``trainer.run_train_loop`` that
adds up the iterations and validations of every training stage (the
ablation commands write no report CSV to read them from); the same probe
lets ``SpeedClock`` take a reference timing inside long commands.  Traced,
every function listed in ``PROBES`` is wrapped on every ssda_lab module
that binds it, each call records a span (name, start, end, parent,
command), and the spans are written out when the job ends.

The result JSON holds per-command exit codes, stdout and durations (raw
and scaled to the nominal machine speed), the timed wall time (the sum of
the timed commands' durations), the iteration counts and, when traced,
the layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _rows(x) -> int:
    return len(x) if np.ndim(x) > 1 else 1


def _file_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return path.stat().st_size


# -- per-probe extras: counts recorded at the same boundary as the span --


def _backward_name(args, kwargs) -> str:
    return "network.backward." + _arg(args, kwargs, 2, "kind")


def _count_rows(position: int, name: str):
    def after(counts, label, args, kwargs, result):
        counts[label + ".rows"] += _rows(_arg(args, kwargs, position, name))
    return after


def _count_file_bytes(position: int, name: str):
    def after(counts, label, args, kwargs, result):
        counts[label + ".bytes"] += _file_bytes(_arg(args, kwargs, position, name))
    return after


def _count_loop(counts, label, args, kwargs, result):
    # CLI stages always enter the loop with a fresh state (t_iter 0, empty history)
    counts["trainer.iterations"] += result.t_iter
    counts["trainer.validations"] += len(result.history)


def _count_selection(counts, label, args, kwargs, result):
    counts["pseudolabel.select.kept"] += len(result)
    counts["pseudolabel.select.annotated"] += len(_arg(args, kwargs, 0, "annotations"))


def _count_rebuilt_bytes(counts, label, args, kwargs, result):
    # computed bytes of the rebuilt soft-label rows, not bytes read from disk
    counts[label + ".bytes"] += sum(a.soft_label.nbytes for a in result.annotations)


LOOP_PROBE = ("trainer", "run_train_loop", "trainer.run_train_loop", _count_loop)

# (module, function, span name or namer, extra counts)
PROBES = [
    LOOP_PROBE,
    ("network", "backward", _backward_name, _count_rows(0, "x")),
    ("trainer", "minimax_step", "trainer.minimax_step", None),
    ("network", "sgd_step", "network.sgd_step", None),
    ("trainer", "entropy_loss", "trainer.entropy_loss", None),
    ("trainer", "train_baseline", "trainer.train_baseline", None),
    ("trainer", "progressive_self_train", "trainer.progressive_self_train", None),
    ("trainer", "evaluate", "trainer.evaluate", None),
    ("trainer", "momentum_update_labels", "trainer.momentum_update_labels", _count_rows(0, "live")),
    ("network", "forward", "network.forward", _count_rows(0, "x")),
    ("network", "save_checkpoint", "network.save_checkpoint", _count_file_bytes(0, "path")),
    ("network", "load_checkpoint", "network.load_checkpoint", _count_file_bytes(0, "path")),
    ("pseudolabel", "infer_pseudo", "pseudolabel.infer_pseudo", _count_rows(1, "unlabeled_x")),
    ("pseudolabel", "select", "pseudolabel.select", _count_selection),
    ("pseudolabel", "save_selection", "pseudolabel.save_selection", _count_file_bytes(0, "path")),
    ("pseudolabel", "load_selection", "pseudolabel.load_selection", _count_file_bytes(0, "path")),
    ("pseudolabel", "selected_set_from_dump", "pseudolabel.selected_set_from_dump", _count_rebuilt_bytes),
    ("coremath", "l1_distance", "coremath.l1_distance", None),
    ("datasets", "gen_split", "datasets.gen_split", None),
    ("datasets", "save_split", "datasets.save_split", None),
    ("datasets", "load_split", "datasets.load_split", _count_file_bytes(0, "split_dir")),
]

# SSDASplit methods that re-stack per-row samples into arrays on every call
SPLIT_VIEWS = ("labeled_xy", "unlabeled_x", "validation_xy", "labeled_target_by_class")


class Tracer:
    """In-memory spans plus counters; ``timed=False`` keeps only the counters."""

    def __init__(self, timed: bool) -> None:
        self.timed = timed
        self.spans: list[list] = []  # [name, start, end, parent index, command index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.command = -1

    def wrap(self, fn, name, after):
        counts = self.counts
        if not self.timed:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(counts, name, args, kwargs, result)
                return result
            return counted

        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else None, self.command]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(counts, label, args, kwargs, result)
            return result
        return traced

    def install(self, probes) -> None:
        """Replace each probed function on every loaded ssda_lab module that binds it."""
        modules = [m for n, m in sys.modules.items() if n == "ssda_lab" or n.startswith("ssda_lab.")]
        for module_name, attr, name, after in probes:
            original = getattr(sys.modules["ssda_lab." + module_name], attr)
            wrapper = self.wrap(original, name, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def install_split_views(self, split_class) -> None:
        for attr in SPLIT_VIEWS:
            setattr(split_class, attr, self.wrap(getattr(split_class, attr), "datasets.split_views", None))

    def layer_metrics(self) -> dict:
        """Calls, inclusive seconds and self seconds per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(int)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            out[name + ".calls"] += 1
            out[name + ".s"] += end - start
            out[name + ".self_s"] += end - start - child[i]
            if parent is None:
                out["cli.self_s"] += end - start - child[i]
        out.update(self.counts)
        out["trace.spans"] = len(self.spans)
        return dict(out)

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


REFERENCE_ROUNDS = 1000
REFERENCE_NOMINAL_S = 0.07
REFERENCE_SAMPLES = 6  # per command list, spread over the gaps between commands
REFERENCE_EVERY_S = 1.0


def reference_seconds() -> float:
    """Time a fixed numpy loop shaped like one small training step.

    The machine's speed drifts by tens of percent within a minute (shared
    cores), so the worker times this loop between commands and within long
    ones and scales the time in between by it (``SpeedClock``).  It is the
    benchmark's own code: a change to ssda_lab cannot move it.
    """
    rng = np.random.default_rng(0)
    x, w1, w2 = rng.standard_normal((32, 2)), rng.standard_normal((2, 64)), rng.standard_normal((64, 64))
    w3, wc = rng.standard_normal((64, 32)), rng.standard_normal((5, 32))
    start = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        h1 = np.maximum(x @ w1, 0.0)
        h2 = np.maximum(h1 @ w2, 0.0)
        f = h2 @ w3
        g = f / np.linalg.norm(f, axis=1, keepdims=True)
        z = g @ wc.T
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        d = p @ wc
        _ = h1.T @ ((d @ w3.T) * (h2 > 0))
    return time.perf_counter() - start


def scale_to_reference(seconds: float, before: float, after: float) -> float:
    """Seconds at the nominal speed, where the reference loop takes REFERENCE_NOMINAL_S."""
    return seconds * 2.0 * REFERENCE_NOMINAL_S / (before + after)


class SpeedClock:
    """Times commands in segments, each scaled by reference timings at its two ends.

    ``tick`` closes the current segment and times the reference loop outside
    every segment.  Besides the ticks between commands, a long command is cut
    at training-stage boundaries once ``REFERENCE_EVERY_S`` has passed, so the
    scaling follows the machine's speed within the command too.
    """

    def __init__(self, samples: int) -> None:
        self.samples = samples
        self.last = self._reference(samples)
        self.begin()

    @staticmethod
    def _reference(samples: int) -> float:
        return statistics.median([reference_seconds() for _ in range(samples)])

    def begin(self) -> None:
        self.raw = self.scaled = 0.0
        self.start = time.perf_counter()

    def tick(self, samples: int = 1) -> None:
        segment = time.perf_counter() - self.start
        reference = self._reference(samples)
        self.raw += segment
        self.scaled += scale_to_reference(segment, self.last, reference)
        self.last = reference
        self.start = time.perf_counter()

    def tick_if_due(self) -> None:
        if time.perf_counter() - self.start >= REFERENCE_EVERY_S:
            self.tick()

    def end(self) -> tuple[float, float]:
        """Close the command; its raw and scaled seconds, reference timings excluded."""
        self.tick(self.samples)
        return self.raw, self.scaled


def run_commands(cli, commands: list, tracer: Tracer, offset: int, clock: SpeedClock | None) -> list:
    """Run each command through cli.main; ``clock`` adds its scaled time."""
    results = []
    for i, argv in enumerate(commands):
        tracer.command = offset + i
        buf = io.StringIO()
        start = time.perf_counter()
        if clock:
            clock.begin()
        with contextlib.redirect_stdout(buf):
            try:
                if tracer.timed:
                    code = tracer.wrap(cli.main, "cli." + argv[0], None)(argv)
                else:
                    code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code if isinstance(exc.code, int) else 2
        result = {"argv": argv, "exit": code, "s": time.perf_counter() - start, "stdout": buf.getvalue()}
        if clock:
            result["s"], result["scaled_s"] = clock.end()
        results.append(result)
    return results


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    package = Path(job["root"]) / "src" / "ssda_lab"
    if not (package / "__init__.py").is_file():
        print(f"worker: no ssda_lab sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(package.parent))
    from ssda_lab import cli, datasets, network

    if Path(cli.__file__).resolve().parent != package.resolve():
        print(f"worker: imported ssda_lab from {cli.__file__}, expected {package}", file=sys.stderr)
        return 2
    os.chdir(job["cwd"])

    # a short command list takes more reference timings between commands
    samples = -(-job["reference_samples"] // max(len(job["commands"]), 1))
    clock = SpeedClock(samples) if samples else None

    tracer = Tracer(timed=job["trace"])
    if job["trace"]:
        tracer.install(PROBES)
        tracer.install_split_views(datasets.SSDASplit)
    else:
        def count_and_tick(*args):
            _count_loop(*args)
            if clock:
                clock.tick_if_due()
        tracer.install([LOOP_PROBE[:3] + (count_and_tick,)])
    network.degenerate_feature_events.reset()

    results = run_commands(cli, job["pre"], tracer, 0, clock)
    tracer.counts.clear()  # iteration counts cover the timed commands only
    timed = run_commands(cli, job["commands"], tracer, len(job["pre"]), clock)

    record = {
        "results": results + timed,
        "wall_s": sum(r["s"] for r in timed),
        "iterations": tracer.counts["trainer.iterations"],
    }
    if clock:
        record["scaled_wall_s"] = sum(r["scaled_s"] for r in timed)
    if job["trace"]:
        layers = tracer.layer_metrics()
        layers["network.degenerate_feature_events"] = network.degenerate_feature_events.count
        record["layers"] = layers
        tracer.write_spans(Path(job["spans"]))
    Path(job["result"]).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
