"""Posterior predictive check engine.

Replicated labels are drawn under one of three uncertainty modes:

* Bayesian — one model index per replicate, shared by every row;
* ConditionallyIndependent — a fresh model index per row;
* PointEstimate — a fixed model index for all rows.

A mode's `members` draws the model index of each row, and its `law` gives the
exact law of one replicate's labels, (w [K], row_probs [N, K, C]): member k
with mass w[k], then each row n independently from row_probs[n, k].

The test statistic is always evaluated against the full posterior-integrated
predictive, never against the sampled model.
"""
from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Union

import numpy as np

from . import statistics as st
from .predictive import (InvalidParameterError, PosteriorWeights, cumulative,
                         draw_component, draw_mixture)

THREADS_ENV_VAR = "PPC_UQ_THREADS"


@dataclass(frozen=True)
class Bayesian:
    def describe(self) -> str:
        return "bayesian"

    def members(self, rng, weights: np.ndarray, num_rows: int) -> np.ndarray:
        return np.broadcast_to(draw_component(rng, weights, 1), (num_rows,))

    def law(self, ctx: PredictiveContext) -> tuple:
        return ctx.weights, ctx.preds.class_probs()


@dataclass(frozen=True)
class ConditionallyIndependent:
    def describe(self) -> str:
        return "independent"

    def members(self, rng, weights: np.ndarray, num_rows: int) -> np.ndarray:
        return draw_component(rng, weights, num_rows)

    def law(self, ctx: PredictiveContext) -> tuple:
        return np.ones(1), ctx.integrated[:, None, :]


@dataclass(frozen=True)
class PointEstimate:
    index: int

    def __post_init__(self):
        if isinstance(self.index, bool) or not isinstance(self.index, numbers.Integral):
            raise InvalidParameterError(
                f"point-estimate index must be an integer, got {self.index!r}")

    def describe(self) -> str:
        return f"point:{self.index}"

    def members(self, rng, weights: np.ndarray, num_rows: int) -> np.ndarray:
        return np.broadcast_to(self.index, (num_rows,))

    def law(self, ctx: PredictiveContext) -> tuple:
        return np.ones(1), ctx.preds.class_probs()[:, [self.index], :]


UncertaintyMode = Union[Bayesian, ConditionallyIndependent, PointEstimate]

BAYESIAN = Bayesian()
INDEPENDENT = ConditionallyIndependent()


def parse_mode(text: str) -> UncertaintyMode:
    if text == "bayesian":
        return BAYESIAN
    if text == "independent":
        return INDEPENDENT
    if text.startswith("point:"):
        try:
            return PointEstimate(int(text[len("point:"):]))
        except ValueError:
            pass
    raise InvalidParameterError(f"unknown mode: {text!r}")


def check_mode(preds: st.EnsemblePredictions, mode: UncertaintyMode) -> None:
    """Reject a mode of unknown type or a point index outside [0, M)."""
    if isinstance(mode, PointEstimate):
        if not 0 <= mode.index < preds.num_models:
            raise InvalidParameterError("point-estimate index out of range")
    elif not isinstance(mode, (Bayesian, ConditionallyIndependent)):
        raise InvalidParameterError(f"unknown mode: {mode!r}")


def check_compatible(preds: st.EnsemblePredictions, statistic) -> None:
    """Reject a statistic made for the other prediction kind."""
    if statistic.kind != preds.kind:
        raise st.KindMismatchError(
            f"statistic {statistic.name!r} needs {statistic.kind} predictions, "
            f"got {preds.kind}")


@dataclass
class PredictiveContext:
    """Quantities of the integrated predictive reused across replicates."""

    preds: st.EnsemblePredictions
    weights: np.ndarray                  # [M]
    integrated: np.ndarray = None        # classification: [N, C]
    predicted: np.ndarray = None         # classification: argmax class
    confidence: np.ndarray = None        # classification: max prob
    class_cums: np.ndarray = None        # classification: per-row-per-model CDF
    hit_lo: np.ndarray = None            # classification: [N*M], see below
    hit_hi: np.ndarray = None            # classification: [N*M]
    row_offsets: np.ndarray = None       # classification: row * M, [N]


def build_context(preds: st.EnsemblePredictions,
                  weights: PosteriorWeights = None) -> PredictiveContext:
    """The context of one check. For classification, (hit_lo, hit_hi] at
    n * M + m is the band of member m's CDF on row n that the predicted
    class covers: a uniform in it draws the predicted class."""
    w = st._weights_array(weights, preds.num_models)
    ctx = PredictiveContext(preds=preds, weights=w)
    if preds.kind == st.CLASSIFICATION:
        probs = preds.class_probs()
        ctx.class_cums = cumulative(probs)
        ctx.integrated = np.einsum("nmc,m->nc", probs, w)
        ctx.predicted = ctx.integrated.argmax(axis=1)
        ctx.confidence = ctx.integrated.max(axis=1)
        band = ctx.predicted[:, None, None] + np.array([-1, 0])
        edges = np.take_along_axis(ctx.class_cums, np.maximum(band, 0), axis=2)
        edges[ctx.predicted == 0, :, 0] = -1.0
        ctx.hit_lo = edges[..., 0].ravel()
        ctx.hit_hi = edges[..., 1].ravel()
        ctx.row_offsets = np.arange(preds.num_rows) * preds.num_models
    return ctx


@dataclass(frozen=True)
class EceStatistic:
    bins: st.BinningConfig = st.BinningConfig()

    kind = st.CLASSIFICATION
    name = "ece"

    def evaluate(self, labels: np.ndarray, ctx: PredictiveContext) -> float:
        return self.evaluate_hits(ctx.predicted == labels, ctx)

    def evaluate_hits(self, hits: np.ndarray, ctx: PredictiveContext) -> float:
        return st.ece_from_confidence(ctx.confidence, hits, self.bins.num_bins)


@dataclass(frozen=True)
class AccuracyStatistic:
    kind = st.CLASSIFICATION
    name = "accuracy"

    def evaluate(self, labels: np.ndarray, ctx: PredictiveContext) -> float:
        return self.evaluate_hits(ctx.predicted == labels, ctx)

    def evaluate_hits(self, hits: np.ndarray, ctx: PredictiveContext) -> float:
        return float(np.mean(hits))


@dataclass(frozen=True)
class CalibrationErrorStatistic:
    quantiles: st.QuantileSet = st.QuantileSet()

    kind = st.REGRESSION
    name = "calibration"

    def evaluate(self, labels: np.ndarray, ctx: PredictiveContext) -> float:
        pit = st.pit_from_gaussians(ctx.preds.means, ctx.preds.stds, ctx.weights, labels)
        return st.calibration_error(pit, self.quantiles)


@dataclass(frozen=True)
class PicpStatistic:
    lower: float = 0.025
    upper: float = 0.975

    kind = st.REGRESSION
    name = "picp"

    def __post_init__(self):
        st.check_interval(self.lower, self.upper)

    def evaluate(self, labels: np.ndarray, ctx: PredictiveContext) -> float:
        pit = st.pit_from_gaussians(ctx.preds.means, ctx.preds.stds, ctx.weights, labels)
        return st.picp(pit, self.lower, self.upper)


@dataclass
class StatisticSamples:
    """Replicated statistic values and the context they were evaluated against."""

    samples: np.ndarray
    num_replicates: int
    seed: int
    mode: str
    statistic: str
    context: PredictiveContext = field(default=None, init=False, repr=False,
                                       compare=False)


@dataclass
class PpcReport:
    p_value: float
    sharpness: float
    passed: bool
    percentiles: dict       # keys p5, p25, p50, p75, p95
    observed: float
    num_replicates: int
    seed: int
    mode: str
    statistic: str

    def to_dict(self) -> dict:
        return asdict(self)


def replicate_rng(seed: int, k: int) -> np.random.Generator:
    """Substream for replicate k: a fixed mixing of (seed, k)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, k])))


def replicate_labels(preds: st.EnsemblePredictions, weights: PosteriorWeights,
                     mode: UncertaintyMode, rng: np.random.Generator) -> np.ndarray:
    """One replicated label vector y_rep under the given uncertainty mode:
    the mode's member draw, then one value draw per row."""
    check_mode(preds, mode)
    return _replicate_labels_ctx(build_context(preds, weights), mode, rng)


def _replicate_labels_ctx(ctx: PredictiveContext, mode: UncertaintyMode,
                          rng: np.random.Generator) -> np.ndarray:
    """One draw under a mode that `check_mode` has accepted."""
    return draw_mixture(rng, mode.members(rng, ctx.weights, ctx.preds.num_rows),
                        means=ctx.preds.means, stds=ctx.preds.stds,
                        class_cums=ctx.class_cums)


def _replicate_hits_ctx(ctx: PredictiveContext, mode: UncertaintyMode,
                        rng: np.random.Generator) -> np.ndarray:
    """`_replicate_labels_ctx(ctx, mode, rng) == ctx.predicted`, from the same
    uniforms, without drawing the labels: the mode's member draw, then one
    uniform per row tested against the row's hit band under the drawn member."""
    num_rows = ctx.preds.num_rows
    flat = ctx.row_offsets + mode.members(rng, ctx.weights, num_rows)
    u = rng.random(num_rows)
    return (ctx.hit_lo[flat] < u) & (u <= ctx.hit_hi[flat])


def _num_threads(threads) -> int:
    """The worker count: `threads`, else PPC_UQ_THREADS, else the CPU count."""
    name, count = "threads", threads
    if threads is None:
        name, threads = THREADS_ENV_VAR, os.environ.get(THREADS_ENV_VAR)
        if not threads:
            return os.cpu_count() or 1
        try:
            count = int(threads)
        except ValueError:
            count = 0
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
        raise InvalidParameterError(
            f"{name} must be a positive integer, got {threads!r}")
    return int(count)


def sample_statistic(preds: st.EnsemblePredictions, weights: PosteriorWeights,
                     statistic, mode: UncertaintyMode, num_replicates: int = 1000,
                     seed: int = 0, threads: int = None) -> StatisticSamples:
    """Replicated test-statistic values, one per deterministic rng substream.

    Output is bit-identical regardless of thread count: replicate k always
    uses the substream derived from (seed, k) and lands at index k. A
    statistic with `evaluate_hits` reads a replicate only through
    `label == predicted`, so it gets the hit draw of the same uniforms.
    """
    if num_replicates < 1:
        raise InvalidParameterError("need at least one replicate")
    check_compatible(preds, statistic)
    check_mode(preds, mode)
    workers = min(_num_threads(threads), num_replicates)
    ctx = build_context(preds, weights)
    out = np.empty(num_replicates, dtype=float)
    if hasattr(statistic, "evaluate_hits"):
        draw, evaluate = _replicate_hits_ctx, statistic.evaluate_hits
    else:
        draw, evaluate = _replicate_labels_ctx, statistic.evaluate

    def run_block(lo: int, hi: int) -> None:
        for k in range(lo, hi):
            out[k] = evaluate(draw(ctx, mode, replicate_rng(seed, k)), ctx)

    if workers <= 1:
        run_block(0, num_replicates)
    else:
        bounds = np.linspace(0, num_replicates, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_block, bounds[i], bounds[i + 1])
                       for i in range(workers)]
            for f in futures:
                f.result()
    ss = StatisticSamples(samples=out, num_replicates=num_replicates, seed=seed,
                          mode=mode.describe(), statistic=statistic.name)
    ss.context = ctx
    return ss


def _sample_values(samples) -> np.ndarray:
    vals = getattr(samples, "samples", samples)
    return np.asarray(vals, dtype=float)


def p_value(samples, observed: float) -> float:
    """Fraction of replicated values strictly below the observed value."""
    vals = _sample_values(samples)
    if vals.size == 0:
        raise st.EmptyInputError("p_value needs at least one sample")
    return float(np.mean(vals < observed))


def sharpness(samples) -> float:
    """Width of the replicated-statistic distribution: q95 minus q5."""
    vals = _sample_values(samples)
    if vals.size < 2:
        raise st.EmptyInputError("sharpness needs at least two samples")
    q5, q95 = np.quantile(vals, [0.05, 0.95])
    return float(q95 - q5)


def run_ppc(preds: st.EnsemblePredictions, weights: PosteriorWeights, labels,
            statistic, mode: UncertaintyMode, num_replicates: int = 1000,
            seed: int = 0, threads: int = None) -> PpcReport:
    """Full check: observed statistic vs its posterior predictive distribution."""
    if num_replicates < 2:
        raise InvalidParameterError("a check needs at least two replicates")
    labels = st.validate_labels(preds, labels)
    ss = sample_statistic(preds, weights, statistic, mode,
                          num_replicates=num_replicates, seed=seed, threads=threads)
    observed = float(statistic.evaluate(labels, ss.context))
    p = p_value(ss, observed)
    pcts = np.quantile(ss.samples, [0.05, 0.25, 0.5, 0.75, 0.95])
    return PpcReport(
        p_value=p,
        sharpness=sharpness(ss),
        passed=bool(0.0 < p < 1.0),
        percentiles={"p5": float(pcts[0]), "p25": float(pcts[1]),
                     "p50": float(pcts[2]), "p75": float(pcts[3]),
                     "p95": float(pcts[4])},
        observed=observed,
        num_replicates=num_replicates,
        seed=seed,
        mode=mode.describe(),
        statistic=statistic.name,
    )
