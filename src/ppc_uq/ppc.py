"""Posterior predictive check engine.

Replicated labels are drawn under one of three uncertainty modes:

* Bayesian — one model index per replicate, shared by every row;
* ConditionallyIndependent — a fresh model index per row;
* PointEstimate — a fixed model index for all rows.

A mode's `members` draws the model index of each row, and its `law(weights,
per_member)` mixes a per-member array x [M, ...] into the mode's components,
(w [K], x_k [K, ...]): over the label draw's class masses (`class_mass`) the
exact law of one replicate's labels, over `hit_mass` that of its hits. Under
`uniform_pit` a replicate's PIT values are i.i.d. U(0, 1) whatever the model.

The test statistic is always evaluated against the full posterior-integrated
predictive, never against the sampled model.
"""
from __future__ import annotations

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Union

import numpy as np

from . import statistics as st
from .io import parse_number
from .predictive import (InvalidParameterError, PosteriorWeights, check_integer,
                         class_mass, cumulative, draw_component, draw_mixture)

THREADS_ENV_VAR = "PPC_UQ_THREADS"
_BLOCK_ELEMENTS = 2 ** 16      # a block holds B = max(1, _BLOCK_ELEMENTS // N) replicates


@dataclass(frozen=True)
class Bayesian:
    uniform_pit = False

    def describe(self) -> str:
        return "bayesian"

    def members(self, rng, weights: np.ndarray, num_rows: int) -> np.ndarray:
        return np.broadcast_to(draw_component(rng, weights, 1), (num_rows,))

    def law(self, weights: np.ndarray, per_member: np.ndarray) -> tuple:
        return weights, per_member


@dataclass(frozen=True)
class ConditionallyIndependent:
    uniform_pit = True      # each row is a draw from its own integrated predictive

    def describe(self) -> str:
        return "independent"

    def members(self, rng, weights: np.ndarray, num_rows: int) -> np.ndarray:
        return draw_component(rng, weights, num_rows)

    def law(self, weights: np.ndarray, per_member: np.ndarray) -> tuple:
        return np.ones(1), np.tensordot(weights, per_member, axes=1)[None]


@dataclass(frozen=True)
class PointEstimate:
    index: int

    uniform_pit = False

    def __post_init__(self):
        check_integer(self.index, None,
                      f"point-estimate index must be an integer, got {self.index!r}")

    def describe(self) -> str:
        return f"point:{self.index}"

    def members(self, rng, weights: np.ndarray, num_rows: int) -> np.ndarray:
        return np.broadcast_to(self.index, (num_rows,))

    def law(self, weights: np.ndarray, per_member: np.ndarray) -> tuple:
        return np.ones(1), per_member[[self.index]]


UncertaintyMode = Union[Bayesian, ConditionallyIndependent, PointEstimate]

BAYESIAN = Bayesian()
INDEPENDENT = ConditionallyIndependent()


def parse_mode(text: str) -> UncertaintyMode:
    if text == "bayesian":
        return BAYESIAN
    if text == "independent":
        return INDEPENDENT
    with contextlib.suppress(ValueError):   # not point:INTEGER
        if text.startswith("point:"):
            return PointEstimate(parse_number(text.removeprefix("point:"), integer=True))
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
    predicted: np.ndarray = None         # classification: argmax class
    confidence: np.ndarray = None        # classification: max prob
    class_cums: np.ndarray = None        # classification: per-row-per-model CDF
    hit_mass: np.ndarray = None          # classification: [M, N], see below


def build_context(preds: st.EnsemblePredictions,
                  weights: PosteriorWeights = None) -> PredictiveContext:
    """The context of one check. For classification, hit_mass[m, n] is the
    probability that the label draw under member m gives row n its predicted
    class, its `class_mass`."""
    w = st._weights_array(weights, preds.num_models)
    ctx = PredictiveContext(preds=preds, weights=w)
    if preds.kind == st.CLASSIFICATION:
        probs = preds.class_probs()
        ctx.class_cums = cumulative(probs)
        integrated = np.einsum("nmc,m->nc", probs, w)
        ctx.predicted = integrated.argmax(axis=1)
        ctx.confidence = integrated.max(axis=1)
        ctx.hit_mass = class_mass(ctx.class_cums.transpose(1, 0, 2),
                                  ctx.predicted[None, :, None])[..., 0]
    return ctx


class _ReadsHits:
    """Reads labels only through the hits: `prepare_hits(ctx)(hits [..., N])` -> [...]."""

    kind = st.CLASSIFICATION

    def evaluate(self, labels: np.ndarray, ctx: PredictiveContext) -> float:
        return self.prepare_hits(ctx)(ctx.predicted == labels)


class _ReadsPit:
    """Reads labels only through their PIT values: `evaluate_pit(pit, ctx)`."""

    kind = st.REGRESSION

    def evaluate(self, labels: np.ndarray, ctx: PredictiveContext) -> float:
        return self.evaluate_pit(st.pit_from_gaussians(
            ctx.preds.means, ctx.preds.stds, ctx.weights, labels), ctx)


@dataclass(frozen=True)
class EceStatistic(_ReadsHits):
    bins: st.BinningConfig = st.BinningConfig()

    name = "ece"

    def prepare_hits(self, ctx: PredictiveContext):
        return st.ece_kernel(ctx.confidence, self.bins.num_bins)


@dataclass(frozen=True)
class AccuracyStatistic(_ReadsHits):
    name = "accuracy"

    def prepare_hits(self, ctx: PredictiveContext):
        return lambda hits: np.count_nonzero(hits, axis=-1) / hits.shape[-1]


@dataclass(frozen=True)
class CalibrationErrorStatistic(_ReadsPit):
    quantiles: st.QuantileSet = st.QuantileSet()

    name = "calibration"

    def evaluate_pit(self, pit: np.ndarray, ctx: PredictiveContext) -> float:
        return st.calibration_error(pit, self.quantiles)


@dataclass(frozen=True)
class PicpStatistic(_ReadsPit):
    lower: float = 0.025
    upper: float = 0.975

    name = "picp"

    def __post_init__(self):
        st.check_interval(self.lower, self.upper)

    def evaluate_pit(self, pit: np.ndarray, ctx: PredictiveContext) -> float:
        return st.picp(pit, self.lower, self.upper)


@dataclass
class StatisticSamples:
    """Replicated statistic values and the context they were evaluated against."""

    samples: np.ndarray
    num_replicates: int
    seed: int
    mode: str
    statistic: str
    context: PredictiveContext = field(default=None, repr=False, compare=False)


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
    """Substream of block k: a fixed mixing of (seed, k)."""
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


def _block_statistic(ctx: PredictiveContext, statistic, mode: UncertaintyMode, size: int):
    """`(rng, count) ->` the first count values of a block of size replicates, drawn
    only through what the statistic reads: hits (k [size] from `law` over `hit_mass`,
    then u [size, N] < q[k]) or U(0, 1) PIT [size, N], both drawn whole, or labels."""
    num_rows = ctx.preds.num_rows
    if hasattr(statistic, "prepare_hits"):
        member_weights, q = mode.law(ctx.weights, ctx.hit_mass)
        evaluate = statistic.prepare_hits(ctx)

        def block(rng, count):
            k = draw_component(rng, member_weights, size)[:count]
            return evaluate(rng.random((size, num_rows))[:count] < q[k])
        return block
    if hasattr(statistic, "evaluate_pit") and mode.uniform_pit:
        return lambda rng, count: [statistic.evaluate_pit(pit, ctx)
                                   for pit in rng.random((size, num_rows))[:count]]
    return lambda rng, count: [statistic.evaluate(_replicate_labels_ctx(ctx, mode, rng), ctx)
                               for _ in range(count)]


def _num_threads(threads) -> int:
    """The worker count asked for: `threads`, else PPC_UQ_THREADS, else all CPUs."""
    name, count = "threads", threads
    if threads is None:
        name, threads = THREADS_ENV_VAR, os.environ.get(THREADS_ENV_VAR)
        if not threads:
            return os.cpu_count() or 1
        with contextlib.suppress(ValueError):   # else count stays None: rejected
            count = parse_number(threads, integer=True)
    return check_integer(count, 1, f"{name} must be a positive integer, got {threads!r}")


def sample_statistic(preds: st.EnsemblePredictions, weights: PosteriorWeights,
                     statistic, mode: UncertaintyMode, num_replicates: int = 1000,
                     seed: int = 0, threads: int = None) -> StatisticSamples:
    """Replicated test-statistic values, drawn a block at a time.

    Replicate k is slot k % B of block k // B, and block b draws from the
    substream (seed, b) (see `_block_statistic`). B depends on N only, so the
    output is bit-identical for every prefix length and thread count: the
    min(threads, num_replicates, CPUs) pool workers take whole blocks.
    """
    num_replicates = check_integer(num_replicates, 1, "need at least one replicate")
    seed = check_integer(seed, 0, f"seed must be a non-negative integer, got {seed!r}")
    check_compatible(preds, statistic)
    check_mode(preds, mode)
    workers = min(_num_threads(threads), num_replicates, os.cpu_count() or 1)
    ctx = build_context(preds, weights)
    size = max(1, _BLOCK_ELEMENTS // preds.num_rows)
    out = np.empty(num_replicates, dtype=float)
    block = _block_statistic(ctx, statistic, mode, size)

    def run_block(b: int) -> None:
        lo, hi = b * size, min((b + 1) * size, num_replicates)
        out[lo:hi] = block(replicate_rng(seed, b), hi - lo)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_block, range(-(-num_replicates // size))))  # raises a block's error
    return StatisticSamples(samples=out, num_replicates=num_replicates, seed=seed,
                            mode=mode.describe(), statistic=statistic.name, context=ctx)


def _sample_values(samples) -> np.ndarray:
    return np.asarray(getattr(samples, "samples", samples), dtype=float)


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
    check_integer(num_replicates, 2, "a check needs at least two replicates")
    labels = st.validate_labels(preds, labels)
    ss = sample_statistic(preds, weights, statistic, mode,
                          num_replicates=num_replicates, seed=seed, threads=threads)
    observed = float(statistic.evaluate(labels, ss.context))
    p = p_value(ss, observed)
    pcts = dict(zip(("p5", "p25", "p50", "p75", "p95"),
                    np.quantile(ss.samples, [0.05, 0.25, 0.5, 0.75, 0.95]).tolist()))
    # the sharpness is `sharpness(ss)` bit for bit, from the same quantile call
    return PpcReport(p_value=p, sharpness=pcts["p95"] - pcts["p5"],
                     passed=bool(0.0 < p < 1.0), percentiles=pcts, observed=observed,
                     num_replicates=ss.num_replicates, seed=ss.seed, mode=ss.mode,
                     statistic=ss.statistic)
