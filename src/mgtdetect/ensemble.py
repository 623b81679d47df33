"""Stacked ensemble over heterogeneous base detectors.

Base models only contribute their holdout probabilities here; how those
probabilities are produced is the pipeline's business.  For each base a
decision threshold is calibrated on the holdout scores, every holdout
document becomes a meta-feature row holding each base's probability and
thresholded vote in a fixed base order, and a small boosted-tree model is
grid-searched on an internal split of those rows.  The final ensemble
threshold is calibrated on the meta-model's own holdout probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import _round_half_up
from .errors import ConfigError, DataError
from .evaluation import threshold_counts
from .shallow import (
    GbtGrid,
    GbtHyperparams,
    GbtModel,
    gbt_predict_proba_many,
    grid_search,
)

MIN_HOLDOUT_SIZE = 20
META_TRAIN_FRACTION = 0.7

THRESHOLD_RULES = ("sum_to_one", "youden")


def select_threshold(
    scores: Sequence[float] | np.ndarray,
    labels: Sequence[int] | np.ndarray,
    rule: str = "sum_to_one",
) -> float:
    """Calibrate a decision threshold on labeled scores.

    Candidates are 0, 1, and the midpoints between consecutive distinct
    scores; a score counts as positive when it is >= the threshold.  The
    default rule balances the error rates by minimizing |TPR + FPR - 1|;
    the alternative maximizes Youden's J = TPR - FPR.  Both are compared
    exactly, as integer numerators over the common denominator
    n_pos * n_neg, and ties go to the larger threshold.
    """
    if rule not in THRESHOLD_RULES:
        raise ConfigError(f"unknown threshold rule {rule!r}, expected {THRESHOLD_RULES}")
    candidates, tp, fp, n_pos, n_neg = threshold_counts(scores, labels)
    if rule == "sum_to_one":
        objective = -np.abs(tp * n_neg + fp * n_pos - n_pos * n_neg)
    else:
        objective = tp * n_neg - fp * n_pos
    # argmax takes the first optimum, so search from the largest threshold
    return float(candidates[len(candidates) - 1 - int(np.argmax(objective[::-1]))])


def meta_features(
    probs_by_base: Sequence[np.ndarray], thresholds: Sequence[float]
) -> np.ndarray:
    """Stack [probability, vote] pairs per base, in the given base order."""
    if len(probs_by_base) != len(thresholds):
        raise DataError(
            f"{len(probs_by_base)} probability vectors but {len(thresholds)} thresholds"
        )
    if not probs_by_base:
        raise DataError("need at least one base model")
    columns = []
    n = len(np.asarray(probs_by_base[0]))
    for probs, threshold in zip(probs_by_base, thresholds):
        p = np.asarray(probs, dtype=np.float64)
        if p.shape != (n,):
            raise DataError(f"probability vector shape {p.shape} does not match ({n},)")
        columns.append(p)
        columns.append((p >= threshold).astype(np.float64))
    return np.column_stack(columns)


@dataclass(frozen=True)
class EnsembleModel:
    """Calibrated stacking model; base order is fixed at training time."""

    base_names: tuple[str, ...]
    base_thresholds: tuple[float, ...]
    meta_model: GbtModel
    meta_hyperparams: GbtHyperparams
    threshold: float

    def meta_matrix(self, probs_by_base: Mapping[str, np.ndarray]) -> np.ndarray:
        missing = [name for name in self.base_names if name not in probs_by_base]
        if missing:
            raise DataError(f"missing base probabilities for {missing}")
        extra = sorted(set(probs_by_base) - set(self.base_names))
        if extra:
            raise DataError(f"unexpected base probabilities for {extra}")
        ordered = [np.asarray(probs_by_base[name]) for name in self.base_names]
        return meta_features(ordered, self.base_thresholds)


def train_ensemble(
    holdout_probs: Mapping[str, np.ndarray],
    holdout_labels: Sequence[int] | np.ndarray,
    grid: GbtGrid = GbtGrid(),
    seed: int = 0,
    holdout_ids: Sequence[str] | None = None,
    train_ids: Sequence[str] | None = None,
    rule: str = "sum_to_one",
) -> EnsembleModel:
    """Fit the stacking layer on held-out base predictions.

    ``holdout_probs`` maps base name to that base's probabilities on the
    holdout documents; iteration order fixes the meta-feature layout.  When
    both id lists are supplied they must be disjoint, which catches feeding
    base training documents back into the stacking fit.
    """
    if not holdout_probs:
        raise DataError("need at least one base model")
    labels = np.asarray(holdout_labels, dtype=np.int64)
    n = labels.shape[0]
    if n < MIN_HOLDOUT_SIZE:
        raise DataError(
            f"holdout has {n} rows, need at least {MIN_HOLDOUT_SIZE} to calibrate"
        )
    if holdout_ids is not None and train_ids is not None:
        overlap = sorted(set(holdout_ids) & set(train_ids))
        if overlap:
            raise DataError(
                f"holdout overlaps the base training set: {overlap[:5]}"
            )
    names = tuple(holdout_probs.keys())
    thresholds = tuple(
        select_threshold(np.asarray(holdout_probs[name]), labels, rule) for name in names
    )
    matrix = meta_features([np.asarray(holdout_probs[name]) for name in names], thresholds)

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    take = _round_half_up(META_TRAIN_FRACTION * n)
    take = min(max(take, 1), n - 1)
    fit_rows = np.sort(order[:take])
    val_rows = np.sort(order[take:])
    meta_model, hyperparams = grid_search(
        matrix[fit_rows], labels[fit_rows], matrix[val_rows], labels[val_rows], grid
    )
    ensemble_scores = gbt_predict_proba_many(meta_model, matrix)
    threshold = select_threshold(ensemble_scores, labels, rule)
    return EnsembleModel(
        base_names=names,
        base_thresholds=thresholds,
        meta_model=meta_model,
        meta_hyperparams=hyperparams,
        threshold=threshold,
    )


def ensemble_predict_proba(
    model: EnsembleModel, probs_by_base: Mapping[str, np.ndarray]
) -> np.ndarray:
    return gbt_predict_proba_many(model.meta_model, model.meta_matrix(probs_by_base))


def ensemble_predict_labels(
    model: EnsembleModel, probs_by_base: Mapping[str, np.ndarray]
) -> np.ndarray:
    probs = ensemble_predict_proba(model, probs_by_base)
    return (probs >= model.threshold).astype(np.int64)
