"""Metrics and reports: confusion matrix, per-class F1, macro-F1, ROC.

The positive class throughout is "generated" (label 1).  Per-class F1 uses
the convention that a class with zero true and zero predicted members gets
F1 = 0, and macro-F1 is the unweighted mean over both classes, so scores
are symmetric under swapping the class encoding.

Reports score every row together and, given each row's language, each
language on its own rows, as the shared task ranks English and Spanish
separately.

True/false positive counts for every candidate threshold come from one
binary search per class over its sorted scores (``threshold_counts``);
they stay integers until rates are reported, so threshold ties compare
exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError

CLASS_NAMES = {0: "human", 1: "generated"}


def _as_binary(values: Sequence[int] | np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise DataError(f"{what} must be a 1-d vector")
    if arr.size == 0:
        raise DataError(f"{what} must be nonempty")
    bad = set(np.unique(arr).tolist()) - {0, 1}
    if bad:
        raise DataError(f"{what} must be 0/1, got extra values {sorted(bad)}")
    return arr


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with "generated" as the positive class."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @classmethod
    def from_predictions(
        cls, y_true: Sequence[int] | np.ndarray, y_pred: Sequence[int] | np.ndarray
    ) -> "ConfusionMatrix":
        t = _as_binary(y_true, "y_true")
        p = _as_binary(y_pred, "y_pred")
        if t.shape != p.shape:
            raise DataError(
                f"y_true has {t.shape[0]} entries but y_pred has {p.shape[0]}"
            )
        return cls(
            tp=int(np.sum((t == 1) & (p == 1))),
            fp=int(np.sum((t == 0) & (p == 1))),
            tn=int(np.sum((t == 0) & (p == 0))),
            fn=int(np.sum((t == 1) & (p == 0))),
        )

    def to_json_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2.0 * tp / denom


def per_class_f1(
    y_true: Sequence[int] | np.ndarray, y_pred: Sequence[int] | np.ndarray
) -> dict[str, float]:
    cm = ConfusionMatrix.from_predictions(y_true, y_pred)
    return {
        CLASS_NAMES[0]: _f1_from_counts(cm.tn, cm.fn, cm.fp),
        CLASS_NAMES[1]: _f1_from_counts(cm.tp, cm.fp, cm.fn),
    }


def macro_f1(
    y_true: Sequence[int] | np.ndarray, y_pred: Sequence[int] | np.ndarray
) -> float:
    scores = per_class_f1(y_true, y_pred)
    return 0.5 * (scores[CLASS_NAMES[0]] + scores[CLASS_NAMES[1]])


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    tpr: float
    fpr: float


def threshold_candidates(scores: Sequence[float] | np.ndarray) -> list[float]:
    """Midpoints between consecutive distinct sorted scores, plus 0 and 1.

    Candidates come back sorted ascending.  This is the shared candidate
    set for ROC curves and threshold calibration.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise DataError("need at least one score")
    distinct = np.unique(arr)
    midpoints = ((distinct[:-1] + distinct[1:]) / 2.0).tolist()
    candidates = {0.0, 1.0}
    candidates.update(float(m) for m in midpoints)
    return sorted(candidates)


def threshold_counts(
    scores: Sequence[float] | np.ndarray, labels: Sequence[int] | np.ndarray
) -> tuple[list[float], np.ndarray, np.ndarray, int, int]:
    """Exact counts at every candidate threshold, in O(n log n).

    Returns ``(candidates, tp, fp, n_pos, n_neg)``: the ascending
    ``threshold_candidates`` and, for each, how many positives (label 1)
    and negatives (label 0) score >= it.  Both classes must be present.
    """
    arr = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.int64)
    if arr.shape != lab.shape:
        raise DataError(f"{arr.shape[0]} scores for {lab.shape[0]} labels")
    candidates = threshold_candidates(arr)
    pos = np.sort(arr[lab == 1])
    neg = np.sort(arr[lab == 0])
    if pos.size == 0 or neg.size == 0:
        raise DataError("rates need both classes present")
    tp = pos.size - np.searchsorted(pos, candidates, side="left")
    fp = neg.size - np.searchsorted(neg, candidates, side="left")
    return candidates, tp, fp, int(pos.size), int(neg.size)


def roc_curve(
    scores: Sequence[float] | np.ndarray, labels: Sequence[int] | np.ndarray
) -> list[RocPoint]:
    """One point per candidate threshold, sorted by ascending threshold.

    For probability-like scores strictly inside (0, 1) the endpoints are
    (TPR, FPR) = (1, 1) at threshold 0 and (0, 0) at threshold 1.
    """
    candidates, tp, fp, n_pos, n_neg = threshold_counts(
        scores, _as_binary(labels, "labels")
    )
    return [
        RocPoint(threshold=t, tpr=p / n_pos, fpr=f / n_neg)
        for t, p, f in zip(candidates, tp.tolist(), fp.tolist())
    ]


@dataclass(frozen=True)
class EvalReport:
    model: str
    n: int
    macro_f1: float
    f1_per_class: dict[str, float]
    confusion: ConfusionMatrix
    roc: tuple[RocPoint, ...] | None = None
    # Macro-F1 over each language's rows, keyed by language code in sorted
    # order; only languages present in the evaluated rows appear.
    macro_f1_per_language: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "n": self.n,
            "macro_f1": self.macro_f1,
            "macro_f1_per_language": self.macro_f1_per_language,
            "f1_per_class": {
                CLASS_NAMES[0]: self.f1_per_class[CLASS_NAMES[0]],
                CLASS_NAMES[1]: self.f1_per_class[CLASS_NAMES[1]],
            },
            "confusion": self.confusion.to_json_dict(),
            "roc": (
                None
                if self.roc is None
                else [
                    {"threshold": p.threshold, "tpr": p.tpr, "fpr": p.fpr}
                    for p in self.roc
                ]
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False, indent=2)

    def to_text(self) -> str:
        rows = [(self.model, None, self.macro_f1)]
        lines = [format_results_table(rows), ""]
        if self.macro_f1_per_language:
            lines.append(
                "  ".join(
                    f"macro_f1[{lang}]={score:.4f}"
                    for lang, score in self.macro_f1_per_language.items()
                )
            )
        lines.append(
            "f1[human]={:.4f}  f1[generated]={:.4f}  n={}".format(
                self.f1_per_class[CLASS_NAMES[0]],
                self.f1_per_class[CLASS_NAMES[1]],
                self.n,
            )
        )
        cm = self.confusion
        lines.append(
            f"confusion: tp={cm.tp} fp={cm.fp} tn={cm.tn} fn={cm.fn}"
        )
        return "\n".join(lines)


def evaluate_predictions(
    y_true: Sequence[int] | np.ndarray,
    y_pred: Sequence[int] | np.ndarray,
    scores: Sequence[float] | np.ndarray | None = None,
    model: str = "model",
    languages: Sequence[str] | None = None,
) -> EvalReport:
    """Build a full report; the ROC block needs scores and both classes.

    ``languages`` gives each row's language code; with it the report also
    scores each language present on its own rows.
    """
    t = _as_binary(y_true, "y_true")
    p = _as_binary(y_pred, "y_pred")
    roc: tuple[RocPoint, ...] | None = None
    if scores is not None and len(set(t.tolist())) == 2:
        roc = tuple(roc_curve(scores, t))
    per_language: dict[str, float] = {}
    if languages is not None:
        langs = np.asarray(languages, dtype=str)
        if langs.shape != t.shape:
            raise DataError(f"{langs.size} languages for {t.size} rows")
        for lang in np.unique(langs).tolist():
            rows = langs == lang
            per_language[lang] = macro_f1(t[rows], p[rows])
    return EvalReport(
        model=model,
        n=int(t.shape[0]),
        macro_f1=macro_f1(t, p),
        f1_per_class=per_class_f1(t, p),
        confusion=ConfusionMatrix.from_predictions(t, p),
        roc=roc,
        macro_f1_per_language=per_language,
    )


def format_results_table(
    rows: Sequence[tuple[str, float | None, float | None]]
) -> str:
    """Aligned text table with model, validation F1, and test F1 columns."""
    header = ("model", "validation F1", "test F1")
    rendered = [
        (
            name,
            "-" if val is None else f"{val:.4f}",
            "-" if test is None else f"{test:.4f}",
        )
        for name, val, test in rows
    ]
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rendered)) if rendered else len(header[c])
        for c in range(3)
    ]
    lines = [
        "  ".join(header[c].ljust(widths[c]) for c in range(3)),
        "  ".join("-" * widths[c] for c in range(3)),
    ]
    for r in rendered:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in range(3)))
    return "\n".join(lines)
