"""Span and counter recorder installed from outside the program.

The program is not edited: while a traced unit of work runs, the public
names that each calling module looks up in its own namespace (``pipeline``
imports ``readability_features``, ``grid_search``, ``save_checkpoint`` and
more; ``ensemble`` imports ``grid_search`` and ``select_threshold``;
``shallow.grid_search`` calls ``shallow.gbt_train``) are replaced by timing
wrappers, and the originals are put back when the unit ends.

Each span records its name, start, end, parent span and the unit of work
it belongs to (a set-up repetition, a training cycle or a serving pass);
spans are kept in memory and written out once, at the end of the run.
Counters are computed from a call's arguments and result after its span
has closed, so counting never adds to a layer's busy time.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from mgtdetect.evaluation import threshold_candidates

import spec


def _doc_key(doc) -> tuple[str, str]:
    return doc.id, doc.text


# How each wrapped call adds to the counters: fn(recorder, result, *args).
def _count_readability(rec, result, doc, *_):
    rec.distinct["readability.distinct_docs"].add(_doc_key(doc))


def _count_embed(rec, result, corpus, *_):
    docs = list(corpus)
    rec.add("embeddings.docs_embedded", len(docs))
    rec.distinct["embeddings.distinct_docs"].update(_doc_key(d) for d in docs)


def _count_gbt_train(rec, result, *_a, **_k):
    rec.add("shallow.trees_built", len(result.trees))


def _count_knn(rec, result, model, queries, *_):
    rec.add("shallow.knn_queries", len(queries))
    rec.add("shallow.knn_distance_cells", len(queries) * model.x.shape[0])


def _count_neural_train(rec, result, *_a, **_k):
    rec.add("neural.epochs", len(result[1]))


def _count_kernel_matrix(rec, result, texts, *_a, **_k):
    n = len(texts)
    rec.add("kernels.gram_pairs", n * (n + 1) // 2)


def _count_svm_train(rec, result, *_a, **_k):
    rec.add("kernels.support_vectors", len(result.support_indices))


def _count_svm_predict(rec, result, model, *_):
    rec.add("kernels.predict_kernel_evals", len(model.support_indices))


def _count_select_threshold(rec, result, scores, *_):
    rec.add("ensemble.threshold_candidates", len(threshold_candidates(scores)))


def _count_save(rec, result, path, *_):
    rec.add("checkpoint.bytes_written", os.path.getsize(path))


def _count_load(rec, result, path, *_a, **_k):
    rec.add("checkpoint.bytes_read", os.path.getsize(path))


def _count_tsv(rec, result, *_):
    rec.add("corpus.rows_loaded", len(result))


# (module, attribute looked up by its callers, span name, counter)
_PATCHES = (
    ("config", "load_config", "config.load", None),
    ("corpus", "load_tsv", "corpus.load_tsv", _count_tsv),
    ("pipeline", "readability_features", "readability.features", _count_readability),
    ("pipeline", "embed_corpus", "embeddings.embed_corpus", _count_embed),
    ("pipeline", "build_raw_features", "pipeline.build_raw_features", None),
    ("pipeline", "grid_search", "shallow.grid_search", None),
    ("ensemble", "grid_search", "shallow.grid_search", None),
    ("shallow", "gbt_train", "shallow.gbt_train", _count_gbt_train),
    ("shallow", "gbt_predict_proba_many", "shallow.gbt_predict", None),
    ("pipeline", "gbt_predict_proba_many", "shallow.gbt_predict", None),
    ("ensemble", "gbt_predict_proba_many", "shallow.gbt_predict", None),
    ("pipeline", "knn_predict_proba_many", "shallow.knn_predict", _count_knn),
    ("pipeline", "neural_train", "neural.train", _count_neural_train),
    ("pipeline", "neural_predict_proba", "neural.predict", None),
    ("pipeline", "preprocess", "textprep.preprocess", None),
    ("pipeline", "kernel_matrix", "kernels.kernel_matrix", _count_kernel_matrix),
    ("pipeline", "svm_train", "kernels.svm_train", _count_svm_train),
    ("pipeline", "svm_predict_proba", "kernels.svm_predict", _count_svm_predict),
    ("pipeline", "train_ensemble", "ensemble.train_ensemble", None),
    ("ensemble", "select_threshold", "ensemble.select_threshold", _count_select_threshold),
    ("pipeline", "save_checkpoint", "checkpoint.save", _count_save),
    ("pipeline", "load_checkpoint", "checkpoint.load", _count_load),
    ("pipeline", "macro_f1", "evaluation.macro_f1", None),
    ("shallow", "macro_f1", "evaluation.macro_f1", None),
    ("evaluation", "macro_f1", "evaluation.macro_f1", None),
)

# (module, attribute) of every layer call the tracer sees.
PATCHED_NAMES = tuple((module, attr) for module, attr, _, _ in _PATCHES)

_LAYER_SPANS = frozenset(name for name, _ in spec.SPANS)


class Recorder:
    """Spans and counters of one benchmark run, grouped by unit of work."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (name, start, end, parent index or -1, unit)
        self.spans: list[tuple[str, float, float, int, str] | None] = []
        self._stack: list[int] = []
        self._unit = ""
        self._unit_counts: dict[str, Counter] = {}
        self._unit_distinct: dict[str, dict[str, set]] = {}
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)

    def add(self, name: str, value: int) -> None:
        self.counts[name] += value

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._unit)

    def _wrap(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[f"{name}_calls"] += 1
            if counter is not None:
                counter(self, result, *args, **kwargs)
            return result

        return traced

    @contextmanager
    def unit(self, unit: str):
        """Trace one unit of work: patch the program's names, then restore them."""
        self._unit = unit
        self.counts = Counter()
        self.distinct = defaultdict(set)
        saved = []
        for module_name, attr, name, counter in _PATCHES:
            module = importlib.import_module(f"mgtdetect.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        try:
            with self.span("bench." + unit.split(".")[0]):
                yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._unit_counts[unit] = self.counts
            self._unit_distinct[unit] = self.distinct
            self._unit = ""

    def unit_summary(self, unit: str) -> dict[str, float]:
        """Busy time per layer span, self time, and counts for one unit."""
        busy: Counter = Counter()
        child_time: Counter = Counter()
        for span in self.spans:
            if span is None or span[4] != unit:
                continue
            name, start, end, parent, _ = span
            if name in _LAYER_SPANS:
                busy[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_time = 0.0
        for index, span in enumerate(self.spans):
            if span is not None and span[4] == unit and span[0] == "pipeline.build_raw_features":
                self_time += (span[2] - span[1]) - child_time[index]
        summary: dict[str, float] = {f"{name}_s": busy[name] for name in _LAYER_SPANS}
        summary["pipeline.build_raw_features_self_s"] = self_time
        summary.update(self._unit_counts.get(unit, {}))
        for key, docs in self._unit_distinct.get(unit, {}).items():
            summary[key] = len(docs)
        return summary

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, unit = span
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "unit": unit,
                            "span": index,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def layer_metrics(
    rec: Recorder,
    traced_units: dict[str, list[str]],
    untraced_seconds: dict[str, list[float]],
    traced_seconds: dict[str, list[float]],
    wordless_rejected: int,
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics for one round: one set-up, one cycle, one pass.

    Each phase contributes the median of its traced units' times and the
    counts of its first traced unit; counts that differ between units of a
    phase are returned as problems, because every unit does the same work.
    """
    problems = []
    totals: Counter = Counter()
    time_keys = {name for name, unit, _ in spec.per_layer() if unit == "s"}
    for phase, units in traced_units.items():
        summaries = [rec.unit_summary(u) for u in units]
        keys = set().union(*summaries)
        for key in keys:
            values = [s.get(key, 0) for s in summaries]
            if key in time_keys:
                totals[key] += statistics.median(values)
            else:
                if len(set(values)) != 1:
                    problems.append(f"{phase}: {key} differs between units: {values}")
                totals[key] += values[0]
    metrics = {name: float(totals.get(name, 0)) for name, _, _ in spec.per_layer()}
    for layer, calls in (
        ("readability", "readability.features_calls"),
        ("embeddings", "embeddings.docs_embedded"),
    ):
        distinct = metrics[f"{layer}.distinct_docs"]
        metrics[f"{layer}.useful_ratio"] = distinct / metrics[calls] if metrics[calls] else 0.0
    metrics["pipeline.wordless_batches_rejected"] = float(wordless_rejected)
    traced = sum(statistics.median(v) for v in traced_seconds.values())
    untraced = sum(statistics.median(v) for v in untraced_seconds.values())
    metrics["trace.overhead_ratio"] = traced / untraced
    return metrics, problems
