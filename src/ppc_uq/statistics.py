"""Test statistics over labels and the posterior-integrated predictive.

All statistics here are pure functions of (labels, predictions): ECE and
accuracy for classification, quantile calibration error and PICP for
regression. Each operates on the predictive after model uncertainty has
been integrated out.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .predictive import (InvalidParameterError, PosteriorWeights, check_finite,
                         check_integer, pit_from_gaussians, read_as, real_array)

CLASSIFICATION = "classification"
REGRESSION = "regression"


class EmptyInputError(ValueError):
    """Raised when a statistic is asked to evaluate zero rows."""


class KindMismatchError(InvalidParameterError, TypeError):
    """Raised when a statistic is applied to the wrong prediction kind."""


class InvalidRowError(InvalidParameterError):
    """`rule` fails on rows of predictions or labels, first on `row` (from 0)."""

    def __init__(self, rule: str, row: int):
        super().__init__(f"row {row}: {rule}")
        self.rule, self.row = rule, row


@dataclass(frozen=True, kw_only=True)
class EnsemblePredictions:
    """Per-row, per-model predictive distributions, held as exactly one of three sets
    of arrays: [N, M, C] `probs`, [N, M, C] `logits`, or [N, M] Gaussian `means` and
    `stds`. The kind is read off the set (`means` make it regression); any other set,
    such as probs beside means and stds, is refused.
    """

    probs: np.ndarray = None          # [N, M, C]
    logits: np.ndarray = None         # [N, M, C]
    means: np.ndarray = None          # [N, M]
    stds: np.ndarray = None           # [N, M]

    def __post_init__(self):
        given = [name for name, values in vars(self).items() if values is not None]
        if given not in (["probs"], ["logits"], ["means", "stds"]):
            raise InvalidParameterError("an ensemble holds {probs}, {logits} or "
                                        f"{{means, stds}}, got {{{', '.join(given)}}}")
        rule = (f"{given[0]} must be [N, M, C]" if self.kind == CLASSIFICATION
                else "means/stds must both be [N, M]")
        for name in given:
            object.__setattr__(self, name, real_array(getattr(self, name), rule))
        if self.kind == CLASSIFICATION:
            name, values = given[0], self._values
            if values.ndim != 3:
                raise InvalidParameterError(rule)
            _require_rows(np.isfinite(values), f"{name} must be finite")
            if name == "probs":
                _require_rows(values >= -1e-12, "probs must be >= 0")
                _require_rows(np.abs(values.sum(axis=2) - 1.0) <= 1e-6,
                              "per-model probability rows must sum to 1")
        else:
            if self.means.shape != self.stds.shape or self.means.ndim != 2:
                raise InvalidParameterError(rule)
            _require_rows(np.isfinite(self.means), "means must be finite")
            _require_rows(np.isfinite(self.stds), "stds must be finite")
            _require_rows(self.stds > 0, "stds must be > 0")
        if self.num_rows < 1 or self.num_models < 1:
            raise InvalidParameterError("need at least one row and one model")

    @classmethod
    def from_probs(cls, probs) -> "EnsemblePredictions":
        return cls(probs=probs)

    @classmethod
    def from_logits(cls, logits) -> "EnsemblePredictions":
        return cls(logits=logits)

    @classmethod
    def from_gaussians(cls, means, stds) -> "EnsemblePredictions":
        return cls(means=means, stds=stds)

    @property
    def kind(self) -> str:
        return CLASSIFICATION if self.means is None else REGRESSION

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
        return replace(self, **{k: v[index] for k, v in vars(self).items() if v is not None})


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
        # up to 2**53 the count is a double exactly, so each confidence's bin
        # ceil(confidence * num_bins) is an exact int64
        rule = "num_bins must be an integer in [1, 2**53]"
        if check_integer(self.num_bins, 1, rule) > 2 ** 53:
            raise InvalidParameterError(rule)


@dataclass(frozen=True)
class QuantileSet:
    """Ordered quantile levels in (0, 1); default 100 equally spaced j/101. They are held
    once, as the tuple `levels` that equality and hashing read; `as_array()` builds an array."""

    levels: tuple = field(default_factory=lambda: QuantileSet.default_levels(100))

    def __post_init__(self):
        rule = "quantile levels must be strictly increasing in (0,1)"
        lv = real_array(self.levels, rule)
        if not (lv.ndim == 1 and lv.size and np.all(np.diff(lv, prepend=0, append=1) > 0)):
            raise InvalidParameterError(rule)
        object.__setattr__(self, "levels", tuple(lv.tolist()))

    @staticmethod
    def default_levels(num: int) -> tuple:
        # below 2**53, num + 1 is a double exactly: one division gives Python's j / (num + 1)
        if check_integer(num, 1, f"quantile count must be >= 1, got {num}") >= 2 ** 53:
            raise InvalidParameterError(f"quantile count must be at most 2**53 - 1, got {num}")
        return tuple((np.arange(1, num + 1) / (num + 1)).tolist())

    def as_array(self) -> np.ndarray:
        return np.array(self.levels)


def validate_labels(preds: EnsemblePredictions, labels) -> np.ndarray:
    labels = real_array(labels, f"labels must be a vector of length {preds.num_rows}")
    if labels.ndim != 1 or labels.shape[0] != preds.num_rows:
        raise InvalidParameterError(
            f"labels must be a vector of length {preds.num_rows}, got shape {labels.shape}")
    _require_rows(np.isfinite(labels), "labels must be finite")
    if preds.kind == REGRESSION:
        return labels
    # both rules in floating point: a cast of 1e300 to int is undefined
    _require_rows(np.floor(labels) == labels, "classification labels must be integers")
    _require_rows((labels >= 0) & (labels < preds.num_classes),
                  f"class labels must be in [0, {preds.num_classes})")
    return labels.astype(int)


def integrated_class_probs(preds: EnsemblePredictions,
                           weights: PosteriorWeights = None) -> np.ndarray:
    """Posterior-averaged class probabilities, [N, C]."""
    if preds.kind != CLASSIFICATION:
        raise KindMismatchError("integrated_class_probs needs classification predictions")
    w = PosteriorWeights.for_models(weights, preds.num_models).as_array()
    return np.einsum("nmc,m->nc", preds.class_probs(), w)


def _checked_rows(integrated_probs, labels, name: str) -> tuple:
    """[N, C] probabilities and their class labels, both checked by the rules
    of a one-member ensemble; EmptyInputError for N = 0."""
    probs = real_array(integrated_probs, f"{name} needs probs [N, C]")
    if probs.ndim != 2:
        raise InvalidParameterError(f"{name} needs probs [N, C], got shape {probs.shape}")
    if probs.shape[0] == 0:
        raise EmptyInputError(f"{name} needs at least one row")
    return probs, validate_labels(EnsemblePredictions.from_probs(probs[:, None]), labels)


def ece(integrated_probs: np.ndarray, labels, bins: BinningConfig = BinningConfig()) -> float:
    """Expected calibration error with equal-width confidence bins on (0, 1]."""
    probs, labels = _checked_rows(integrated_probs, labels, "ece")
    return ece_from_confidence(probs.max(axis=1), probs.argmax(axis=1) == labels,
                               read_as(BinningConfig, bins).num_bins)


def ece_from_confidence(confidence: np.ndarray, hits: np.ndarray,
                        num_bins: int) -> float:
    """ECE from each row's confidence and whether its prediction hit."""
    return float(ece_kernel(confidence, num_bins)(hits))


def ece_kernel(confidence: np.ndarray, num_bins: int):
    """The one ECE kernel: the ECE of each hit vector of hits [..., N] against
    these confidences. The rows are grouped once, by nonempty bin in ascending
    order, so each call is one `bincount` of the hits over `v * K + group` for
    hit vector v and K <= min(N, num_bins) groups: no array grows with num_bins."""
    n = confidence.shape[0]
    if n == 0:
        raise EmptyInputError("ece needs at least one row")
    # bin m holds confidences in ((m-1)/M, m/M]
    bin_idx = np.clip(np.ceil(confidence * num_bins).astype(int) - 1, 0, num_bins - 1)
    _, group = np.unique(bin_idx, return_inverse=True)
    conf_sum = np.bincount(group, weights=confidence)    # in row order, per group
    k = conf_sum.size

    def evaluate(hits):
        offsets = np.arange(hits.size // n)[:, None] * k
        acc_sum = np.bincount((offsets + group).ravel(), weights=hits.ravel(),
                              minlength=offsets.size * k)
        return np.abs(acc_sum.reshape(hits.shape[:-1] + (k,)) - conf_sum).sum(axis=-1) / n
    return evaluate


def pit_values(preds: EnsemblePredictions, weights: PosteriorWeights = None,
               labels=None) -> np.ndarray:
    """Per-row posterior-integrated CDF of the observed target."""
    if preds.kind != REGRESSION:
        raise KindMismatchError("pit_values needs regression predictions")
    y = validate_labels(preds, labels)
    w = PosteriorWeights.for_models(weights, preds.num_models).as_array()
    return pit_from_gaussians(preds.means, preds.stds, w, y)


def _checked_pit(pit, name: str) -> np.ndarray:
    """PIT values as an array: EmptyInputError if there are none, and
    InvalidParameterError unless each lies in [0, 1] (NaN does not)."""
    pit = real_array(pit, "PIT values must lie in [0, 1]")
    if pit.size == 0:
        raise EmptyInputError(f"{name} needs at least one PIT value")
    if not (np.all(pit >= 0) and np.all(pit <= 1)):
        raise InvalidParameterError("PIT values must lie in [0, 1]")
    return pit


def _pit_vector(pit) -> np.ndarray:
    """The PIT values [N] of one dataset, which the public metrics read."""
    if (pit := real_array(pit, "PIT values must lie in [0, 1]")).ndim != 1:
        raise InvalidParameterError(f"PIT values must be a vector, got shape {pit.shape}")
    return pit


def calibration_error(pit, quantiles: QuantileSet = QuantileSet()) -> float:
    """Sum over quantile levels of squared (level - empirical frequency) gaps, where
    the empirical frequency at level p counts PIT values strictly below p."""
    levels = read_as(QuantileSet, quantiles).as_array()
    return float(calibration_kernel(levels)(_pit_vector(pit)))


def calibration_kernel(levels: np.ndarray):
    """The one calibration-error kernel, at the sorted `levels`: pit [..., N] -> [...]."""
    def evaluate(pit):
        pit = np.sort(_checked_pit(pit, "calibration_error"), axis=-1)
        below = np.array([np.searchsorted(row, levels, side="left")
                          for row in pit.reshape(-1, pit.shape[-1])]) / pit.shape[-1]
        return np.sum((levels - below.reshape(pit.shape[:-1] + levels.shape)) ** 2, axis=-1)
    return evaluate


def check_interval(lower: float, upper: float) -> None:
    """Reject a PICP interval that is not 0 <= lower < upper <= 1, of real numbers."""
    check_finite("need 0 <= lower < upper <= 1", lower, upper)
    if not (0 <= lower < upper <= 1):
        raise InvalidParameterError("need 0 <= lower < upper <= 1")


def picp(pit, lower: float = 0.025, upper: float = 0.975) -> float:
    """Fraction of PIT values inside the inclusive interval [lower, upper]."""
    check_interval(lower, upper)
    return float(picp_kernel(lower, upper)(_pit_vector(pit)))


def picp_kernel(lower: float, upper: float):
    """The one PICP kernel, for bounds `check_interval` accepts: pit [..., N] -> [...]."""
    return lambda pit: hit_fraction(((pit := _checked_pit(pit, "picp")) >= lower)
                                    & (pit <= upper))


def hit_fraction(hits: np.ndarray) -> np.ndarray:
    """The one accuracy kernel: each hit vector's exact count over N, [..., N] -> [...]."""
    return np.count_nonzero(hits, axis=-1) / hits.shape[-1]


def accuracy(integrated_probs: np.ndarray, labels) -> float:
    """Fraction of rows whose argmax class (ties to lowest index) matches the label."""
    probs, labels = _checked_rows(integrated_probs, labels, "accuracy")
    return float(hit_fraction(probs.argmax(axis=1) == labels))
