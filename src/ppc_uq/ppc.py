"""Posterior predictive check engine.

Replicated labels are drawn under one of three uncertainty modes:

* Bayesian — one model index per replicate, shared by every row;
* ConditionallyIndependent — a fresh model index per row;
* PointEstimate — a fixed model index for all rows.

A mode's `members` draws the model index of each row, or one index that every
row shares, and its `law(weights, per_member)` mixes a per-member array
x [M, ...] into the mode's components, (w [K], x_k [K, ...]): over the label
draw's class masses (`class_mass`) the exact law of one replicate's labels,
over a hit statistic's `hit_mass(ctx)` that of its hits. Under `uniform_pit` a
replicate's PIT values are i.i.d. U(0, 1) whatever the model.

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
from .predictive import (InvalidParameterError, PosteriorWeights, _pit_near_cuts,
                         _pit_plan, check_finite, check_integer, class_mass, cumulative,
                         draw_component, draw_mixture, parse_number, read_as, real_array)

THREADS_ENV_VAR = "PPC_UQ_THREADS"
_BLOCK_ELEMENTS = 2 ** 16      # a block holds B = max(1, _BLOCK_ELEMENTS // N) replicates


@dataclass(frozen=True)
class Bayesian:
    uniform_pit = False

    def describe(self) -> str:
        return "bayesian"

    def members(self, rng, cums: np.ndarray, num_rows: int):
        return draw_component(rng, cums, 1)[0]

    def law(self, weights: np.ndarray, per_member: np.ndarray) -> tuple:
        return weights, per_member


@dataclass(frozen=True)
class ConditionallyIndependent:
    uniform_pit = True      # each row is a draw from its own integrated predictive

    def describe(self) -> str:
        return "independent"

    def members(self, rng, cums: np.ndarray, num_rows: int) -> np.ndarray:
        return draw_component(rng, cums, num_rows)

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

    def members(self, rng, cums: np.ndarray, num_rows: int):
        return self.index

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
    """Reject what is not a statistic (`kind`, `name` and `evaluate`) or one made
    for the other prediction kind."""
    if not all(hasattr(statistic, a) for a in ("kind", "name", "evaluate")):
        raise InvalidParameterError(
            f"a statistic needs kind, name and evaluate, got {statistic!r}")
    if statistic.kind != preds.kind:
        raise st.KindMismatchError(
            f"statistic {statistic.name!r} needs {statistic.kind} predictions, "
            f"got {preds.kind}")


@dataclass(frozen=True, eq=False)
class PredictiveContext:
    """The integrated predictive of one check, which its block workers only read."""

    preds: st.EnsemblePredictions
    weights: np.ndarray                  # [M]
    weight_cums: np.ndarray              # [M], `cumulative(weights)`, for `members`
    predicted: np.ndarray = None         # classification: argmax class
    confidence: np.ndarray = None        # classification: max prob
    class_cums: np.ndarray = None        # classification: per-row-per-model CDF


def build_context(preds: st.EnsemblePredictions,
                  weights: PosteriorWeights = None) -> PredictiveContext:
    """The context of one check."""
    w = PosteriorWeights.for_models(weights, preds.num_models).as_array()
    if preds.kind != st.CLASSIFICATION:
        return PredictiveContext(preds, w, cumulative(w))
    probs = preds.class_probs()
    integrated = np.einsum("nmc,m->nc", probs, w)
    return PredictiveContext(preds, w, cumulative(w), integrated.argmax(axis=1),
                             integrated.max(axis=1), cumulative(probs))


class _ReadsHits:
    """Reads labels only through the hits: `kernel(ctx)(hits [..., N])` -> [...]."""

    kind = st.CLASSIFICATION

    def evaluate(self, labels: np.ndarray, ctx: PredictiveContext) -> float:
        return self.kernel(ctx)(ctx.predicted == labels)

    def hit_mass(self, ctx: PredictiveContext) -> np.ndarray:
        """[M, N]: the `class_mass` of row n's predicted class under member m."""
        return class_mass(ctx.class_cums.transpose(1, 0, 2),
                          ctx.predicted[None, :, None])[..., 0]


class _ReadsPit:
    """Reads labels only through their PIT values, `kernel(ctx)(pit [..., N])` ->
    [...], and reads each PIT value only by comparing it with the sorted `cuts`. So
    the PIT of `_pit_near_cuts`, exact where a cut lies within its chord bound,
    gives the value of exact PIT."""

    kind = st.REGRESSION

    def evaluate(self, labels: np.ndarray, ctx: PredictiveContext) -> float:
        return self.kernel(ctx)(_pit_near_cuts(self.pit_plan(ctx), labels))

    def pit_plan(self, ctx: PredictiveContext):
        """The `_pit_plan` of the context's members for these cuts, built anew."""
        return _pit_plan(ctx.preds.means, ctx.preds.stds, ctx.weights, self.cuts)


@dataclass(frozen=True)
class EceStatistic(_ReadsHits):
    bins: st.BinningConfig = st.BinningConfig()

    name = "ece"

    def __post_init__(self):
        object.__setattr__(self, "bins", read_as(st.BinningConfig, self.bins))

    def kernel(self, ctx: PredictiveContext):
        return st.ece_kernel(ctx.confidence, self.bins.num_bins)


@dataclass(frozen=True)
class AccuracyStatistic(_ReadsHits):
    name = "accuracy"

    def kernel(self, ctx: PredictiveContext):
        return st.hit_fraction


@dataclass(frozen=True)
class CalibrationErrorStatistic(_ReadsPit):
    quantiles: st.QuantileSet = st.QuantileSet()

    name = "calibration"

    def __post_init__(self):
        object.__setattr__(self, "quantiles", read_as(st.QuantileSet, self.quantiles))

    @property
    def cuts(self) -> np.ndarray:
        return self.quantiles.as_array()

    def kernel(self, ctx: PredictiveContext):
        return st.calibration_kernel(self.cuts)


@dataclass(frozen=True)
class PicpStatistic(_ReadsPit):
    lower: float = 0.025
    upper: float = 0.975

    name = "picp"

    def __post_init__(self):
        st.check_interval(self.lower, self.upper)

    @property
    def cuts(self) -> tuple:
        return self.lower, self.upper

    def kernel(self, ctx: PredictiveContext):
        return st.picp_kernel(self.lower, self.upper)


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
    return draw_mixture(rng, mode.members(rng, ctx.weight_cums, ctx.preds.num_rows),
                        means=ctx.preds.means, stds=ctx.preds.stds,
                        class_cums=ctx.class_cums)


def _block_statistic(ctx: PredictiveContext, statistic, mode: UncertaintyMode, size: int):
    """`(rng, count) ->` the first count values of a block of size replicates, drawn only
    through what the statistic reads, for one `kernel` call: hits (k [size] from `law` over
    its `hit_mass`, then u [size, N] < q[k]) or U(0, 1) PIT [size, N], both drawn whole, or
    PIT [count, N], one label draw per row; else labels, each for one `evaluate`."""
    num_rows = ctx.preds.num_rows
    if isinstance(statistic, _ReadsHits):
        member_weights, q = mode.law(ctx.weights, statistic.hit_mass(ctx))
        member_cums, kernel = cumulative(member_weights), statistic.kernel(ctx)

        def block(rng, count):
            k = draw_component(rng, member_cums, size)[:count]
            return kernel(rng.random((size, num_rows))[:count] < q[k])
        return block
    if isinstance(statistic, _ReadsPit):
        kernel = statistic.kernel(ctx)
        if mode.uniform_pit:
            return lambda rng, count: kernel(rng.random((size, num_rows))[:count])
        plan = statistic.pit_plan(ctx)

        def block(rng, count):
            scratch, pit = plan.scratch(), np.empty((count, num_rows))  # the block's
            for row in pit:
                row[:] = _pit_near_cuts(plan, _replicate_labels_ctx(ctx, mode, rng), scratch)
            return kernel(pit)
        return block
    return lambda rng, count: [statistic.evaluate(_replicate_labels_ctx(ctx, mode, rng), ctx)
                               for _ in range(count)]


def _usable_cpus():
    """The CPUs this process may run on, else (no affinity mask) `os.cpu_count()`, or None."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())


def _num_threads(threads) -> int:
    """The worker count asked for: `threads`, else PPC_UQ_THREADS, else all usable CPUs."""
    name, count = "threads", threads
    if threads is None:
        name, threads = THREADS_ENV_VAR, os.environ.get(THREADS_ENV_VAR)
        if not threads:
            return _usable_cpus() or 1
        with contextlib.suppress(ValueError):   # else count stays None: rejected
            count = parse_number(threads, integer=True)
    return check_integer(count, 1, f"{name} must be a positive integer, got {threads!r}")


def sample_statistic(preds: st.EnsemblePredictions, weights: PosteriorWeights,
                     statistic, mode: UncertaintyMode, num_replicates: int = 1000,
                     seed: int = 0, threads: int = None) -> StatisticSamples:
    """Replicated test-statistic values, drawn a block at a time.

    Replicate k is slot k % B of block k // B, and block b draws from the
    substream (seed, b) (see `_block_statistic`). B depends on N only, so the
    output is bit-identical for every prefix length and thread count: the min(threads,
    num_replicates, usable CPUs) pool workers, one too, take whole blocks, each writing
    its own slice of the output; a block's error reaches the caller.
    """
    num_replicates = check_integer(num_replicates, 1, "need at least one replicate")
    seed = check_integer(seed, 0, f"seed must be a non-negative integer, got {seed!r}")
    check_compatible(preds, statistic)
    check_mode(preds, mode)
    workers = min(_num_threads(threads), num_replicates, _usable_cpus() or 1)
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


def finite_values(samples, *observed) -> np.ndarray:
    """`samples` (StatisticSamples or a vector) as a vector of finite floats, by `real_array`,
    and the observed value, if given, a finite number, by `check_finite`; else
    InvalidParameterError. Its readers: `p_value`, `sharpness`, the oracle's values and
    `StatisticPmf.tv_distance`, each before it sizes the values."""
    vals = real_array(getattr(samples, "samples", samples), "statistic values must be finite")
    if vals.ndim != 1:
        raise InvalidParameterError(f"statistic values must be a vector, not {vals.shape}")
    message = (f"statistic values must be finite: {np.count_nonzero(~np.isfinite(vals))} "
               f"of {vals.size} are not" + "".join(f", observed {v!r}" for v in observed))
    check_finite(message, *observed)
    if not np.isfinite(vals).all():
        raise InvalidParameterError(message)
    return vals


def p_value(samples, observed: float) -> float:
    """Fraction of replicated values strictly below the observed value, all finite."""
    if (vals := finite_values(samples, observed)).size == 0:
        raise st.EmptyInputError("p_value needs at least one sample")
    return float(np.mean(vals < observed))


def _quantiles(values: np.ndarray, levels: tuple) -> list:
    """`np.quantile(values, levels).tolist()` of finite values, bit for bit, without its
    `np.unique`, which imports `numpy.ma`: numpy's lerp of the sorted a = s[j] and
    b = s[j + 1] at (n - 1) q = j + t, a + (b - a) t for t < 0.5, else b - (b - a)(1 - t)."""
    s, last, out = np.sort(values).tolist(), len(values) - 1, []
    for v in (last * q for q in levels):
        j = int(v)
        a, b, t = s[j], s[min(j + 1, last)], v - j
        out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return out


def sharpness(samples) -> float:
    """Width of the replicated-statistic distribution: q95 minus q5, all finite."""
    if (vals := finite_values(samples)).size < 2:
        raise st.EmptyInputError("sharpness needs at least two samples")
    q5, q95 = _quantiles(vals, (0.05, 0.95))
    return q95 - q5


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
                    _quantiles(ss.samples, (0.05, 0.25, 0.5, 0.75, 0.95))))
    return PpcReport(p_value=p, sharpness=pcts["p95"] - pcts["p5"],  # = sharpness(ss)
                     passed=bool(0.0 < p < 1.0), percentiles=pcts, observed=observed,
                     num_replicates=ss.num_replicates, seed=ss.seed, mode=ss.mode,
                     statistic=ss.statistic)
