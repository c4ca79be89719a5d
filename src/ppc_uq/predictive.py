"""Univariate predictive distributions and posterior-integrated mixtures.

A predictive with model uncertainty is a finite mixture: one component per
posterior sample (ensemble member), weighted by posterior mass. The mixture
CDF integrates the per-model CDFs over those weights.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class InvalidParameterError(ValueError):
    """Raised when a distribution parameter is out of its valid range."""


def check_integer(value, least, message: str) -> int:
    """`value` as an int if it is an integer (numpy's too), not a bool, and at
    least `least` (None: no bound); else InvalidParameterError(message)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or least is not None and value < least):
        raise InvalidParameterError(message)
    return int(value)


def check_finite(message: str, *values, least=-math.inf) -> None:
    """InvalidParameterError(message) unless every value is a real number, not
    a bool, finite and > least (NaN fails the comparison)."""
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               and least < v < math.inf for v in values):
        raise InvalidParameterError(message)


def check_positive(message: str, *values) -> None:
    """`check_finite` with values > 0."""
    check_finite(message, *values, least=0)


@dataclass(frozen=True)
class Gaussian:
    mean: float
    stddev: float

    kind = "gaussian"

    def __post_init__(self):
        check_finite("gaussian parameters must be finite", self.mean)
        check_positive(f"stddev must be finite and > 0, got {self.stddev}", self.stddev)


@dataclass(frozen=True)
class Categorical:
    probs: tuple

    kind = "categorical"

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", tuple(p.tolist()))
        if p.ndim != 1 or p.size < 2:
            raise InvalidParameterError("categorical needs at least 2 classes")
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):
            raise InvalidParameterError("categorical probs must be nonnegative and sum to 1")

    @property
    def num_classes(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class PosteriorWeights:
    """Finite-support posterior mass over models (defaults to uniform)."""

    values: tuple

    def __post_init__(self):
        w = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", tuple(w.tolist()))
        if w.ndim != 1 or w.size < 1:
            raise InvalidParameterError("weights must be a nonempty vector")
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-9):
            raise InvalidParameterError("weights must be nonnegative and sum to 1")

    @classmethod
    def uniform(cls, num_models: int) -> "PosteriorWeights":
        check_integer(num_models, 1, "need at least one model")
        return cls(tuple([1.0 / num_models] * num_models))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class MixturePredictive:
    """Posterior-integrated predictive: weighted mixture of same-kind components."""

    components: tuple
    weights: PosteriorWeights = None

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) == 0:
            raise InvalidParameterError("mixture needs at least one component")
        kinds = {c.kind for c in comps}
        if len(kinds) != 1:
            raise InvalidParameterError("mixture components must share a kind")
        if comps[0].kind == "categorical":
            sizes = {c.num_classes for c in comps}
            if len(sizes) != 1:
                raise InvalidParameterError("categorical components must share class count")
        if self.weights is None:
            object.__setattr__(self, "weights", PosteriorWeights.uniform(len(comps)))
        elif len(self.weights.values) != len(comps):
            raise InvalidParameterError("weights length must match component count")

    @property
    def kind(self) -> str:
        return self.components[0].kind


def pit_from_gaussians(means: np.ndarray, stds: np.ndarray, w: np.ndarray,
                       y: np.ndarray) -> np.ndarray:
    """Gaussian-mixture CDF at y: sum_m w_m Phi((y - mean_m) / std_m), over the
    last (model) axis of means and stds, which broadcast against y[..., None].

    scipy is imported here, on the first call, so that classification runs
    never load it.
    """
    from scipy.special import ndtr

    return ndtr((y[..., None] - means) / stds) @ w


def gaussian_cdf(mean: float, stddev: float, y: float) -> float:
    """CDF of N(mean, stddev^2) at y."""
    component = Gaussian(mean, stddev)
    if not math.isfinite(y):
        raise InvalidParameterError("gaussian_cdf inputs must be finite")
    return mixture_cdf(MixturePredictive((component,)), y)


def mixture_cdf(mixture: MixturePredictive, y) -> float:
    """Posterior-integrated CDF: sum of weighted per-component Gaussian CDFs.

    Accepts a scalar or array y; vectorized over y.
    """
    if mixture.kind != "gaussian":
        raise InvalidParameterError("mixture_cdf is defined for gaussian mixtures")
    y_arr = np.asarray(y, dtype=float)
    means = np.array([c.mean for c in mixture.components])
    stds = np.array([c.stddev for c in mixture.components])
    total = pit_from_gaussians(means, stds, mixture.weights.as_array(), y_arr)
    return float(total) if y_arr.ndim == 0 else total


def cumulative(p: np.ndarray) -> np.ndarray:
    """Cumulative sums over the last axis as a running maximum, the last
    pinned to 1.0, so that every uniform in [0, 1) falls in some bin and a
    slightly negative entry (down to -1e-12 is accepted) gets no mass."""
    cum = np.maximum.accumulate(np.cumsum(p, axis=-1), axis=-1)
    cum[..., -1] = 1.0
    return cum


def class_mass(cums: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """The probability that the categorical draw of `draw_mixture` gives
    class c under the CDF `cums` (see `cumulative`): the length of the band
    (cums[c - 1], cums[c]], cums[-1] = 0, with each CDF value clipped to
    [0, 1] as the uniform is. `classes` indexes the last axis of `cums` as
    in `np.take_along_axis`, broadcast against its other axes."""
    hi = np.clip(np.take_along_axis(cums, classes, axis=-1), 0.0, 1.0)
    lo = np.take_along_axis(cums, np.maximum(classes - 1, 0), axis=-1)
    return hi - np.where(classes > 0, np.clip(lo, 0.0, 1.0), 0.0)


def draw_component(rng: np.random.Generator, weights: np.ndarray,
                   num_rows: int) -> np.ndarray:
    """Mixture component index per row, [num_rows]: the first step of every
    mixture draw. Uniforms consumed: one per row, none when M = 1."""
    if weights.size == 1:
        return np.broadcast_to(0, (num_rows,))
    return np.searchsorted(cumulative(weights), rng.random(num_rows), side="right")


def draw_mixture(rng: np.random.Generator, idx: np.ndarray, means=None, stds=None,
                 class_cums=None) -> np.ndarray:
    """One draw per row from per-row mixtures, given each row's component
    index (`idx`, [N], from `draw_component` or a mode's `members`).

    The components are Gaussian (means, stds: [N, M]) or categorical
    (class_cums: [N, M, C], see `cumulative`). RNG consumption: one value
    draw per row, in row order.
    """
    rows = np.arange(idx.size)
    if class_cums is None:
        return means[rows, idx] + stds[rows, idx] * rng.standard_normal(idx.size)
    return (rng.random(idx.size)[:, None] > class_cums[rows, idx]).sum(axis=1)


def mixture_sample(mixture: MixturePredictive, rng: np.random.Generator, size=None):
    """Draw from the mixture: component index m ~ weights, then from component m.

    With size=None returns a scalar; otherwise a vector of independent draws.
    Consumes the rng as the engine's label draw: index uniforms, then values.
    """
    n = 1 if size is None else check_integer(
        size, 0, f"size must be None or an integer >= 0, got {size!r}")
    w = mixture.weights.as_array()
    idx = draw_component(rng, w, n)
    if mixture.kind == "gaussian":
        means = np.array([c.mean for c in mixture.components])
        stds = np.array([c.stddev for c in mixture.components])
        out = draw_mixture(rng, idx, means=np.broadcast_to(means, (n, w.size)),
                           stds=np.broadcast_to(stds, (n, w.size)))
    else:
        cums = cumulative(np.array([c.probs for c in mixture.components]))
        out = draw_mixture(rng, idx, class_cums=np.broadcast_to(cums, (n,) + cums.shape))
    if size is None:
        return out[0] if mixture.kind == "gaussian" else int(out[0])
    return out
