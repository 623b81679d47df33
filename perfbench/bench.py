"""One benchmark run: prepare inputs, then train, set up and serve in turns.

A run drives mgtdetect only through its public API, from one process with
one client in a closed loop.  Its inputs (corpora generated from the seed,
written as TSV files, and an INI file) are made by ``prepare.py`` in a
child process, untimed.  The run then has three phases, each made of
identical units of work so that medians and exact counts can be taken:

* training: ``train_model`` + ``save_model``;
* set-up: what a serving client does before its first call, that is
  ``load_config``, ``load_tsv``/``merge_bilingual`` of every corpus file
  and ``load_model``;
* serving: one pass of ``predict_proba`` over fixed-size batches of unseen
  documents, with the model from the latest set-up.

Units of the three phases run in turns until ``--seconds`` is spent, each
phase keeping to its share of the time, and each phase runs at least
``MIN_UNITS`` times.  With tracing on, odd-numbered units of each phase
are traced and even-numbered ones are not, which gives the tracing
overhead from the same process.

Every timed call (a training cycle, a set-up, a ``predict_proba`` batch)
goes through ``clock.Clock``, and the end-to-end times are its times
scaled to a reference machine speed; the raw wall times are printed
beside them.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from mgtdetect import config, corpus, evaluation, pipeline
from mgtdetect.corpus import Corpus, Document, Language
from mgtdetect.errors import DataError

import spec
from clock import Clock, install_laps
from tracer import PATCHED_NAMES, Recorder, layer_metrics

MIN_UNITS = 3  # a warm-up, then (traced runs) one traced and one untraced unit
F1_FLOOR = 0.90  # the floor test_09 holds the end-to-end run to

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / ".work"


@dataclass(frozen=True)
class Workload:
    kind: str
    shares: tuple[float, float, float]  # of --seconds: training, set-up, serving
    batch_size: int


WORKLOADS = {
    "ensemble": Workload("ensemble", (0.7, 0.1, 0.2), 25),
    # One document per svm call: with batches of 5 the latency distribution
    # is lumpy enough that its median jumped between runs (quartile spread
    # 0.42 over eight seeds, against 0.17 for single documents in the same
    # runs).  svm scores each document on its own, so batching saves nothing.
    "svm-string-kernel": Workload("svm", (0.6, 0.1, 0.3), 1),
}
assert tuple(WORKLOADS) == spec.workload_names()


def _load_inputs(run_dir: Path):
    cfg = config.load_config(run_dir / "config.ini", environ={})
    parts = [
        corpus.merge_bilingual(
            corpus.load_tsv(run_dir / f"{part}-en.tsv", Language.EN),
            corpus.load_tsv(run_dir / f"{part}-es.tsv", Language.ES),
        )
        for part in ("fit", "stream")
    ]
    return cfg, parts[0], parts[1]


def _digest_path(path: Path) -> str:
    h = hashlib.sha256()
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _size(path: Path) -> int:
    if path.is_dir():
        return sum(f.stat().st_size for f in path.iterdir())
    return path.stat().st_size


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Units:
    """Runs a phase's units, traced or not, and times each one.

    ``body`` returns the unit's wall and scaled seconds spent in the
    program (see ``clock.py``); the wall time of the whole unit decides the
    phase's share of the run.  The first unit warms up caches and lazy
    set-up, and its times are not kept.
    """

    def __init__(
        self,
        recorder: Recorder | None,
        phase: str,
        share: float,
        body: Callable[[], tuple[float, float]],
    ):
        self.recorder = recorder
        self.phase = phase
        self.share = share
        self.body = body
        self.count = 0
        self.busy = 0.0
        self.seconds: dict[bool, list[float]] = {False: [], True: []}
        self.raw_seconds: list[float] = []  # of untraced units
        self.traced_units: list[str] = []

    def run(self) -> None:
        traced = self.recorder is not None and self.count % 2 == 1
        unit = f"{self.phase}.{self.count}"
        start = time.perf_counter()
        if traced:
            with self.recorder.unit(unit):
                raw, scaled = self.body()
            self.traced_units.append(unit)
        else:
            raw, scaled = self.body()
        if self.count > 0:
            self.seconds[traced].append(scaled)
            if not traced:
                self.raw_seconds.append(raw)
        self.busy += time.perf_counter() - start
        self.count += 1


def _interleave(phases: list[_Units], seconds: float) -> None:
    """Run the phases' units in turns until ``seconds`` have passed.

    Each turn goes to the phase furthest below its share of the time spent
    so far, so every phase's samples are spread over the whole run and a
    slow stretch of the machine falls on a minority of each phase's units,
    which the medians then ignore.  The phases run once in order first,
    because each needs the output of the one before.
    """
    start = time.perf_counter()
    for units in phases:
        units.run()
    while time.perf_counter() - start < seconds or min(u.count for u in phases) < MIN_UNITS:
        min(phases, key=lambda u: u.busy / u.share).run()


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns (result object, human-readable report lines)."""
    workload = WORKLOADS[name]
    run_dir = WORK_DIR / "runs" / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), name, str(seed), str(run_dir)],
            check=True,
        )
        return _run(name, workload, seed, seconds, traced, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(name, workload, seed, seconds, traced, run_dir):
    recorder = Recorder(uuid.uuid4().hex) if traced else None
    clock = Clock()
    if not traced:
        # Traced runs time whole calls only, so that no reference loop
        # runs inside a layer span.
        install_laps(clock, PATCHED_NAMES)
    problems: list[str] = []
    state: dict = {}
    ops = 0

    cfg, fit, _ = _load_inputs(run_dir)
    model_path = run_dir / "model"
    train_outputs: set[tuple[str, str]] = set()

    def train_and_save():
        model, log = pipeline.train_model(workload.kind, fit, cfg)
        pipeline.save_model(model, model_path)
        return log

    def train_cycle():
        nonlocal ops
        shutil.rmtree(model_path, ignore_errors=True)
        model_path.unlink(missing_ok=True)
        log, raw, scaled = clock.call(train_and_save)
        ops += 2
        log_text = json.dumps(log, sort_keys=True).encode()
        train_outputs.add((_digest_path(model_path), _sha(log_text)))
        return raw, scaled

    def load_all():
        state["cfg"], state["fit"], state["stream"] = _load_inputs(run_dir)
        state["model"] = pipeline.load_model(model_path)

    def set_up():
        nonlocal ops
        _, raw, scaled = clock.call(load_all)
        ops += 1
        return raw, scaled

    latencies: list[tuple[float, float]] = []  # (wall, scaled) per batch
    pass_outputs: set[str] = set()

    def serve_pass():
        nonlocal ops
        model, docs = state["model"], list(state["stream"])
        probs = []
        wall = busy = 0.0  # seconds in predict_proba, raw and scaled
        for i in range(0, len(docs), workload.batch_size):
            batch = Corpus(docs[i : i + workload.batch_size], name="batch")
            batch_probs, raw, scaled = clock.call(partial(model.predict_proba, batch))
            probs.append(batch_probs)
            latencies.append((raw, scaled))
            wall += raw
            busy += scaled
            ops += 1
        state["probs"] = np.concatenate(probs)
        pass_outputs.add(_sha(state["probs"].tobytes()))
        return wall, busy

    train_share, setup_share, serve_share = workload.shares
    train = _Units(recorder, "train", train_share, train_cycle)
    setup = _Units(recorder, "setup", setup_share, set_up)
    serve = _Units(recorder, "serve", serve_share, serve_pass)
    _interleave([train, setup, serve], seconds)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Output checks, untimed.
    model, stream, probs = state["model"], state["stream"], state["probs"]
    if len(train_outputs) != 1:
        problems.append(f"training cycles wrote {len(train_outputs)} different models or logs")
    if len(pass_outputs) != 1:
        problems.append(f"serving passes gave {len(pass_outputs)} different predictions")
    labels = (probs >= model.threshold).astype(np.int64)
    single = (model.predict_proba(stream) >= model.threshold).astype(np.int64)
    if not np.array_equal(labels, single):
        problems.append(
            f"batched labels differ from one-call labels on {int(np.sum(labels != single))} docs"
        )
    f1 = evaluation.macro_f1(stream.labels_as_ints(), labels)
    if f1 < F1_FLOOR:
        problems.append(f"held-out macro-F1 {f1:.4f} is below {F1_FLOOR}")
    wordless_rejected = _wordless_batch_rejected(model, list(stream)[: workload.batch_size])

    model_digest, log_digest = sorted(train_outputs)[0]
    batches_per_pass = -(-len(stream) // workload.batch_size)
    # run.py compares these across the runs it makes at one seed.
    digests = {
        "model_sha256": model_digest,
        "train_log_sha256": log_digest,
        "predictions_sha256": sorted(pass_outputs)[0],
    }
    report = [
        f"workload {name} seed {seed} trace {int(traced)}",
        f"samples (after one warm-up unit each): setup {setup.count - 1}, "
        f"train cycles {train.count - 1}, serve passes {serve.count - 1}, "
        f"batches {len(latencies) - batches_per_pass} of {workload.batch_size} docs",
        f"wordless batch rejected: {bool(wordless_rejected)}",
        f"reference loop: median {1e3 * statistics.median(clock.loop_times):.4f} ms over "
        f"{len(clock.loop_times)} loops, min {1e3 * min(clock.loop_times):.4f}, "
        f"max {1e3 * max(clock.loop_times):.4f}",
    ]

    docs_per_pass = len(stream)
    if recorder is None:
        # Batches of the passes after the warm-up pass.
        batch_seconds = [scaled for _, scaled in latencies[batches_per_pass:]]
        metrics = {
            "setup_s": statistics.median(setup.seconds[False]),
            "train_s": statistics.median(train.seconds[False]),
            "predict_docs_per_s": docs_per_pass / statistics.fmean(serve.seconds[False]),
            "predict_batch_p50_ms": 1e3 * _percentile(batch_seconds, 50),
            "predict_batch_p90_ms": 1e3 * _percentile(batch_seconds, 90),
            "checkpoint_bytes": _size(model_path),
            "peak_rss_mb": peak_rss_mb,
            "heldout_macro_f1": f1,
        }
        units = spec.end_to_end_units()
        report.append(
            f"wall time, unscaled: setup_s {statistics.median(setup.raw_seconds):.6f}, "
            f"train_s {statistics.median(train.raw_seconds):.6f}, "
            f"predict_docs_per_s {docs_per_pass / statistics.fmean(serve.raw_seconds):.4f}, "
            + ", ".join(
                f"predict_batch_p{q}_ms "
                f"{1e3 * _percentile([raw for raw, _ in latencies[batches_per_pass:]], q):.3f}"
                for q in (50, 90)
            )
        )
    else:
        phases = (train, setup, serve)
        metrics, count_problems = layer_metrics(
            recorder,
            {u.phase: u.traced_units for u in phases},
            {u.phase: u.seconds[False] for u in phases},
            {u.phase: u.seconds[True] for u in phases},
            wordless_rejected,
        )
        problems.extend(count_problems)
        digests["layer_counts"] = {
            k: int(v) for k, v in metrics.items() if spec.per_layer_units()[k] in spec.EXACT_UNITS
        }
        recorder.write(WORK_DIR / "traces" / f"{name}-s{seed}.jsonl")
        units = spec.per_layer_units()

    report.append("digests " + json.dumps(digests, sort_keys=True))
    report.extend(f"problem: {p}" for p in problems)
    # An operation that raises ends the run without a result, so a printed
    # result never has failures; wrong outputs show as "correct": false.
    result = {
        "correct": not problems,
        "attempted": ops,
        "failed": 0,
        "metrics": {
            key: {
                "value": int(value) if units[key] in spec.EXACT_UNITS else value,
                "unit": units[key],
            }
            for key, value in metrics.items()
        },
    }
    return result, report


def _wordless_batch_rejected(model, batch: list[Document]) -> int:
    """1 if one punctuation-only document makes the whole batch fail."""
    first, *rest = batch
    docs = [Document(first.id, "...", first.language), *rest]
    try:
        model.predict_proba(Corpus(docs, name="wordless"))
    except DataError:
        return 1
    return 0
