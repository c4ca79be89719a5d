"""Test statistics over labels and the posterior-integrated predictive.

All statistics here are pure functions of (labels, predictions): ECE and
accuracy for classification, quantile calibration error and PICP for
regression. Each operates on the predictive after model uncertainty has
been integrated out.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .predictive import (InvalidParameterError, PosteriorWeights, check_integer,
                         pit_from_gaussians)

CLASSIFICATION = "classification"
REGRESSION = "regression"


class EmptyInputError(ValueError):
    """Raised when a statistic is asked to evaluate zero rows."""


class KindMismatchError(TypeError):
    """Raised when a statistic is applied to the wrong prediction kind."""


class InvalidRowError(InvalidParameterError):
    """`rule` fails on rows of predictions or labels, first on `row` (from 0)."""

    def __init__(self, rule: str, row: int):
        super().__init__(f"row {row}: {rule}")
        self.rule, self.row = rule, row


@dataclass
class EnsemblePredictions:
    """Per-row, per-model predictive distributions.

    Classification rows carry an [N, M, C] probability (or logit) tensor;
    regression rows carry [N, M] Gaussian (mean, stddev) pairs.
    """

    kind: str
    probs: np.ndarray = None          # [N, M, C]
    logits: np.ndarray = None         # [N, M, C]
    means: np.ndarray = None          # [N, M]
    stds: np.ndarray = None           # [N, M]

    def __post_init__(self):
        if self.kind == CLASSIFICATION:
            if self.probs is None and self.logits is None:
                raise InvalidParameterError("classification needs probs or logits")
            if self.logits is not None:
                self.logits = np.asarray(self.logits, dtype=float)
                if self.logits.ndim != 3:
                    raise InvalidParameterError("logits must be [N, M, C]")
                _require_rows(np.isfinite(self.logits), "logits must be finite")
            if self.probs is not None:
                self.probs = np.asarray(self.probs, dtype=float)
                if self.probs.ndim != 3:
                    raise InvalidParameterError("probs must be [N, M, C]")
                _require_rows(np.isfinite(self.probs), "probs must be finite")
                _require_rows(self.probs >= -1e-12, "probs must be >= 0")
                _require_rows(np.abs(self.probs.sum(axis=2) - 1.0) <= 1e-6,
                              "per-model probability rows must sum to 1")
        elif self.kind == REGRESSION:
            if self.means is None or self.stds is None:
                raise InvalidParameterError("regression needs means and stds")
            self.means = np.asarray(self.means, dtype=float)
            self.stds = np.asarray(self.stds, dtype=float)
            if self.means.shape != self.stds.shape or self.means.ndim != 2:
                raise InvalidParameterError("means/stds must both be [N, M]")
            _require_rows(np.isfinite(self.means), "means must be finite")
            _require_rows(np.isfinite(self.stds), "stds must be finite")
            _require_rows(self.stds > 0, "stds must be > 0")
        else:
            raise InvalidParameterError(f"unknown prediction kind: {self.kind!r}")
        if self.num_rows < 1 or self.num_models < 1:
            raise InvalidParameterError("need at least one row and one model")

    @classmethod
    def from_probs(cls, probs) -> "EnsemblePredictions":
        return cls(kind=CLASSIFICATION, probs=np.asarray(probs, dtype=float))

    @classmethod
    def from_logits(cls, logits) -> "EnsemblePredictions":
        return cls(kind=CLASSIFICATION, logits=np.asarray(logits, dtype=float))

    @classmethod
    def from_gaussians(cls, means, stds) -> "EnsemblePredictions":
        return cls(kind=REGRESSION, means=np.asarray(means, dtype=float),
                   stds=np.asarray(stds, dtype=float))

    @property
    def _values(self) -> np.ndarray:
        return next(a for a in (self.probs, self.logits, self.means) if a is not None)

    @property
    def num_rows(self) -> int:
        return self._values.shape[0]

    @property
    def num_models(self) -> int:
        return self._values.shape[1]

    @property
    def num_classes(self) -> int:
        if self.kind != CLASSIFICATION:
            raise KindMismatchError("num_classes is a classification property")
        return self._values.shape[2]

    def class_probs(self) -> np.ndarray:
        """[N, M, C] probabilities (softmax of logits when only logits given)."""
        if self.kind != CLASSIFICATION:
            raise KindMismatchError("class_probs is a classification property")
        if self.probs is not None:
            return self.probs
        return softmax(self.logits)

    def take_rows(self, index) -> "EnsemblePredictions":
        if self.kind == CLASSIFICATION:
            return EnsemblePredictions(
                kind=self.kind,
                probs=None if self.probs is None else self.probs[index],
                logits=None if self.logits is None else self.logits[index],
            )
        return EnsemblePredictions(kind=self.kind, means=self.means[index],
                                   stds=self.stds[index])


def _require_rows(ok: np.ndarray, rule: str) -> None:
    """The check of every row rule: `ok[row, ...]` says where `rule` holds."""
    if not ok.all():
        row = int(np.argmin(ok.reshape(len(ok), -1).all(axis=1)))
        raise InvalidRowError(rule, row)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class BinningConfig:
    """Equal-width confidence bins on (0, 1]."""

    num_bins: int = 15

    def __post_init__(self):
        check_integer(self.num_bins, 1, "num_bins must be an integer >= 1")


@dataclass(frozen=True)
class QuantileSet:
    """Ordered quantile levels in (0, 1); default 100 equally spaced j/101."""

    levels: tuple = field(default_factory=lambda: QuantileSet.default_levels(100))

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        if not (lv.ndim == 1 and lv.size and np.all(np.diff(lv, prepend=0, append=1) > 0)):
            raise InvalidParameterError("quantile levels must be strictly increasing in (0,1)")
        object.__setattr__(self, "levels", tuple(lv.tolist()))

    @staticmethod
    def default_levels(num: int) -> tuple:
        num = check_integer(num, 1, f"quantile count must be >= 1, got {num}")
        return tuple((j / (num + 1)) for j in range(1, num + 1))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.levels, dtype=float)


def validate_labels(preds: EnsemblePredictions, labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=float)
    if labels.ndim != 1 or labels.shape[0] != preds.num_rows:
        raise InvalidParameterError(
            f"labels must be a vector of length {preds.num_rows}, got shape {labels.shape}")
    _require_rows(np.isfinite(labels), "labels must be finite")
    if preds.kind == REGRESSION:
        return labels
    classes = labels.astype(int)
    _require_rows(classes == labels, "classification labels must be integers")
    _require_rows((classes >= 0) & (classes < preds.num_classes),
                  f"class labels must be in [0, {preds.num_classes})")
    return classes


def integrated_class_probs(preds: EnsemblePredictions,
                           weights: PosteriorWeights = None) -> np.ndarray:
    """Posterior-averaged class probabilities, [N, C]."""
    if preds.kind != CLASSIFICATION:
        raise KindMismatchError("integrated_class_probs needs classification predictions")
    w = _weights_array(weights, preds.num_models)
    return np.einsum("nmc,m->nc", preds.class_probs(), w)


def _weights_array(weights, num_models: int) -> np.ndarray:
    w = (PosteriorWeights.uniform(num_models) if weights is None else weights).as_array()
    if w.size != num_models:
        raise InvalidParameterError("weights length must equal number of models")
    return w


def _checked_rows(integrated_probs, labels, name: str) -> tuple:
    """[N, C] probabilities and their class labels, both checked by the rules
    of a one-member ensemble; EmptyInputError for N = 0."""
    probs = np.asarray(integrated_probs, dtype=float)
    if probs.ndim != 2:
        raise InvalidParameterError(f"{name} needs probs [N, C], got shape {probs.shape}")
    if probs.shape[0] == 0:
        raise EmptyInputError(f"{name} needs at least one row")
    return probs, validate_labels(EnsemblePredictions.from_probs(probs[:, None]), labels)


def ece(integrated_probs: np.ndarray, labels, bins: BinningConfig = BinningConfig()) -> float:
    """Expected calibration error with equal-width confidence bins on (0, 1]."""
    probs, labels = _checked_rows(integrated_probs, labels, "ece")
    return ece_from_confidence(probs.max(axis=1), probs.argmax(axis=1) == labels,
                               bins.num_bins)


def ece_from_confidence(confidence: np.ndarray, hits: np.ndarray,
                        num_bins: int) -> float:
    """ECE from each row's confidence and whether its prediction hit."""
    return float(ece_kernel(confidence, num_bins)(hits))


def ece_kernel(confidence: np.ndarray, num_bins: int):
    """The one ECE kernel: the ECE of each hit vector of hits [..., N] against
    these confidences. The bins are computed here once, so each call is one
    `add.reduceat` of the hits over the rows grouped by bin."""
    n = confidence.shape[0]
    if n == 0:
        raise EmptyInputError("ece needs at least one row")
    # bin m holds confidences in ((m-1)/M, m/M]
    bin_idx = np.clip(np.ceil(confidence * num_bins).astype(int) - 1, 0, num_bins - 1)
    nonempty = np.bincount(bin_idx, minlength=num_bins) > 0
    conf_sum = np.bincount(bin_idx, weights=confidence, minlength=num_bins)[nonempty]
    order = np.argsort(bin_idx, kind="stable")                     # rows grouped by bin
    starts = np.flatnonzero(np.diff(bin_idx[order], prepend=-1))   # each group's first
    return lambda hits: np.abs(np.add.reduceat(
        hits[..., order], starts, axis=-1, dtype=float) - conf_sum).sum(axis=-1) / n


def pit_values(preds: EnsemblePredictions, weights: PosteriorWeights = None,
               labels=None) -> np.ndarray:
    """Per-row posterior-integrated CDF of the observed target."""
    if preds.kind != REGRESSION:
        raise KindMismatchError("pit_values needs regression predictions")
    y = validate_labels(preds, labels)
    w = _weights_array(weights, preds.num_models)
    return pit_from_gaussians(preds.means, preds.stds, w, y)


def _checked_pit(pit, name: str) -> np.ndarray:
    """PIT values as an array: EmptyInputError if there are none, and
    InvalidParameterError unless each lies in [0, 1] (NaN does not)."""
    pit = np.asarray(pit, dtype=float)
    if pit.size == 0:
        raise EmptyInputError(f"{name} needs at least one PIT value")
    if not (np.all(pit >= 0) and np.all(pit <= 1)):
        raise InvalidParameterError("PIT values must lie in [0, 1]")
    return pit


def calibration_error(pit, quantiles: QuantileSet = QuantileSet()) -> float:
    """Sum over quantile levels of squared (level - empirical frequency) gaps.

    The empirical frequency at level p counts PIT values strictly below p.
    """
    pit = _checked_pit(pit, "calibration_error")
    levels = quantiles.as_array()
    pit_sorted = np.sort(pit)
    below = np.searchsorted(pit_sorted, levels, side="left") / pit.size
    return float(np.sum((levels - below) ** 2))


def check_interval(lower: float, upper: float) -> None:
    """Reject a PICP interval that is not 0 <= lower < upper <= 1."""
    if not (0 <= lower < upper <= 1):
        raise InvalidParameterError("need 0 <= lower < upper <= 1")


def picp(pit, lower: float = 0.025, upper: float = 0.975) -> float:
    """Fraction of PIT values inside the inclusive interval [lower, upper]."""
    pit = _checked_pit(pit, "picp")
    check_interval(lower, upper)
    return float(np.mean((pit >= lower) & (pit <= upper)))


def accuracy(integrated_probs: np.ndarray, labels) -> float:
    """Fraction of rows whose argmax class (ties to lowest index) matches the label."""
    probs, labels = _checked_rows(integrated_probs, labels, "accuracy")
    return float(np.mean(probs.argmax(axis=1) == labels))
