"""The benchmark's definition: workloads, metrics and bounds.

``BENCHMARK.json`` at the repository root is written from this module by
the all-workload mode of ``python3 perfbench/run.py``, and ``run.py`` checks every result it prints against the same lists, so
the file and the program cannot drift apart.
"""

from __future__ import annotations

import json

RUN_SECONDS = 48

# Why each workload exists; the long form, with the layer to end-to-end
# metric map, is in perfbench/README.md.
WORKLOADS = (
    (
        "ensemble",
        "neural+gbt+knn ensemble with mtl and vat, trained then served in 25-doc "
        "batches; featurization, the gbt grid and kNN search dominate",
    ),
    (
        "svm-string-kernel",
        "spectrum-kernel svm: Gram matrix, SMO and per-doc kernel scoring; "
        "no featurization or gbt work, the control for those layers",
    ),
)

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.24),
    ("predict_docs_per_s", "docs/s", "higher", 0.24),
    ("predict_batch_p50_ms", "ms", "lower", 0.24),
    ("predict_batch_p90_ms", "ms", "lower", 0.24),
    ("checkpoint_bytes", "bytes", "lower", 0.1),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("heldout_macro_f1", "ratio", "higher", 0.1),
)

# Layer spans: (span name, counters it records).  Each span gives the
# metrics "<span>_s" (busy time) and "<span>_calls"; counters are counts,
# or bytes when the name says so.
SPANS = (
    ("config.load", ()),
    ("corpus.load_tsv", ("corpus.rows_loaded",)),
    ("readability.features", ()),
    ("embeddings.embed_corpus", ("embeddings.docs_embedded",)),
    ("pipeline.build_raw_features", ()),
    ("shallow.grid_search", ()),
    ("shallow.gbt_train", ("shallow.trees_built",)),
    ("shallow.gbt_predict", ()),
    ("shallow.knn_predict", ("shallow.knn_queries", "shallow.knn_distance_cells")),
    ("neural.train", ("neural.epochs",)),
    ("neural.predict", ()),
    ("textprep.preprocess", ()),
    ("kernels.kernel_matrix", ("kernels.gram_pairs",)),
    ("kernels.svm_train", ("kernels.support_vectors",)),
    ("kernels.svm_predict", ("kernels.predict_kernel_evals",)),
    ("ensemble.train_ensemble", ()),
    ("ensemble.select_threshold", ("ensemble.threshold_candidates",)),
    ("checkpoint.save", ("checkpoint.bytes_written",)),
    ("checkpoint.load", ("checkpoint.bytes_read",)),
    ("evaluation.macro_f1", ()),
)

# Metrics derived from the spans and counters above; see tracer.layer_metrics.
DERIVED = (
    ("readability.distinct_docs", "count", "higher"),
    ("readability.useful_ratio", "ratio", "higher"),
    ("embeddings.distinct_docs", "count", "higher"),
    ("embeddings.useful_ratio", "ratio", "higher"),
    ("pipeline.build_raw_features_self_s", "s", "lower"),
    ("pipeline.wordless_batches_rejected", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer() -> tuple[tuple[str, str, str], ...]:
    rows = []
    for span, counters in SPANS:
        rows.append((f"{span}_s", "s", "lower"))
        rows.append((f"{span}_calls", "count", "lower"))
        rows.extend(
            (name, "bytes" if "bytes" in name else "count", "lower") for name in counters
        )
    rows.extend(DERIVED)
    return tuple(rows)


def workload_names() -> tuple[str, ...]:
    return tuple(name for name, _ in WORKLOADS)


def end_to_end_units() -> dict[str, str]:
    return {name: unit for name, unit, _, _ in END_TO_END}


EXACT_UNITS = ("count", "bytes")


def per_layer_units() -> dict[str, str]:
    return {name: unit for name, unit, _ in per_layer()}


def benchmark_json() -> str:
    document = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer()
        ],
    }
    return json.dumps(document, indent=2) + "\n"
