"""Posterior predictive check engine.

Replicated labels are drawn under one of three uncertainty modes:

* Bayesian — one model index per replicate, shared by every row;
* ConditionallyIndependent — a fresh model index per row;
* PointEstimate — a fixed model index for all rows.

A mode's `members` draws a block's model indices, one per label vector [B, 1], per label
[B, N] or one index for all, and its `law(weights, per_member)` mixes a per-member array
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
import threading
from dataclasses import asdict, dataclass, field
from typing import Union

import numpy as np

from . import statistics as st
from .predictive import (_BLOCK_ELEMENTS, InvalidParameterError, PosteriorWeights, _pit_reader,
                         check_finite, check_integer, class_mass, cumulative, draw_component,
                         draw_mixture, parse_number, read_as, real_array)

THREADS_ENV_VAR = "PPC_UQ_THREADS"


@dataclass(frozen=True)
class Bayesian:
    uniform_pit = False

    def describe(self) -> str:
        return "bayesian"

    def members(self, rng, cums: np.ndarray, shape: tuple) -> np.ndarray:
        return draw_component(rng, cums, (shape[0], 1))

    def law(self, weights: np.ndarray, per_member: np.ndarray) -> tuple:
        return weights, per_member


@dataclass(frozen=True)
class ConditionallyIndependent:
    uniform_pit = True      # each row is a draw from its own integrated predictive

    def describe(self) -> str:
        return "independent"

    def members(self, rng, cums: np.ndarray, shape: tuple) -> np.ndarray:
        return draw_component(rng, cums, shape)

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

    def members(self, rng, cums: np.ndarray, shape: tuple) -> int:
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
    """The integrated predictive of one check, which its block workers only read: the four
    fields a custom statistic may read, and no derived array (a reader builds its own)."""

    preds: st.EnsemblePredictions
    weights: np.ndarray                  # [M]
    predicted: np.ndarray = None         # classification: argmax class
    confidence: np.ndarray = None        # classification: max prob


def build_context(preds: st.EnsemblePredictions,
                  weights: PosteriorWeights = None) -> PredictiveContext:
    """The context of one check: its weights and (classification) integrated argmax and max."""
    w = PosteriorWeights.for_models(weights, preds.num_models).as_array()
    if preds.kind != st.CLASSIFICATION:
        return PredictiveContext(preds, w)
    integrated = np.einsum("nmc,m->nc", preds.class_probs(), w)
    return PredictiveContext(preds, w, integrated.argmax(axis=1), integrated.max(axis=1))


class _Reads:
    """A built-in statistic: `reader(ctx)`, built once per check, maps labels [..., N]
    to values [...], and `evaluate` is one reader's value, the reader built anew."""

    def evaluate(self, labels: np.ndarray, ctx: PredictiveContext):
        return self.reader(ctx)(labels)


class _ReadsHits(_Reads):
    """Reads labels only through the hits: `kernel(ctx)(hits [..., N])` -> [...]."""

    kind = st.CLASSIFICATION

    def reader(self, ctx: PredictiveContext):
        """labels [..., N] -> the kernel's values of their hits, `ctx.predicted == labels`."""
        kernel = self.kernel(ctx)
        return lambda labels: kernel(ctx.predicted == labels)

    def hit_mass(self, ctx: PredictiveContext) -> np.ndarray:
        """[M, N]: the `class_mass` of row n's predicted class under member m, read off the
        class CDF `cumulative(class_probs)`, built per call (the engine's, once per check)."""
        return class_mass(cumulative(ctx.preds.class_probs()).transpose(1, 0, 2),
                          ctx.predicted[None, :, None])[..., 0]


class _ReadsPit(_Reads):
    """Reads labels [..., N] only through their PIT values, `kernel(ctx)(pit [..., N])`
    -> [...], and reads each PIT value only by comparing it with the sorted `cuts`. So
    the PIT of `_pit_reader`'s bracket, exact where a cut lies within its chord bound,
    gives the value of exact PIT, for the observed labels [N] as for a block [count, N]."""

    kind = st.REGRESSION

    def reader(self, ctx: PredictiveContext):
        """labels [..., N] -> the kernel's values of their PIT, by one `_pit_reader`."""
        kernel = self.kernel(ctx)
        bracket = _pit_reader(ctx.preds.means, ctx.preds.stds, ctx.weights, self.cuts)
        return lambda labels: kernel(bracket(labels))


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
    """Replicated statistic values and their context; the caller has seed, mode, statistic."""

    samples: np.ndarray
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
    """One replicated label vector y_rep under the given uncertainty mode, the block of
    one: the mode's member draw, then one value draw per row."""
    check_mode(preds, mode)
    return _label_draw(build_context(preds, weights), mode)(rng, 1)[0]


def _label_draw(ctx: PredictiveContext, mode: UncertaintyMode):
    """`(rng, size) ->` label vectors [size, N] under a mode `check_mode` accepted: all members
    in one `mode.members` call, then all values in one `draw_mixture`, from the weights' and
    (classification) the class `cumulative`, both built here, once per check."""
    preds, weight_cums = ctx.preds, cumulative(ctx.weights)
    class_cums = cumulative(preds.class_probs()) if preds.kind == st.CLASSIFICATION else None
    return lambda rng, size: draw_mixture(
        rng, mode.members(rng, weight_cums, (size, preds.num_rows)), (size, preds.num_rows),
        means=preds.means, stds=preds.stds, class_cums=class_cums)


def statistic_values(statistic, ctx: PredictiveContext):
    """The one reader of labels [k, N] -> k values read by `finite_values`, for the engine's
    blocks, the observed labels and the oracle's joint outcomes: a built-in statistic's
    `reader(ctx)`, built here once, reads a block; a custom `evaluate(y, ctx)`, each row y."""
    read = statistic.reader(ctx) if isinstance(statistic, _Reads) else (
        lambda labels: [statistic.evaluate(y, ctx) for y in labels])
    return lambda labels: finite_values(read(labels))


def _block_statistic(ctx: PredictiveContext, statistic, mode: UncertaintyMode, size: int):
    """`(rng, count) ->` the first count values of a block of size replicates, drawn only
    through what the statistic reads: hits (k [size] from `law` over its `hit_mass`, then
    u [size, N] < q[k]) or U(0, 1) PIT [size, N], or labels [size, N], each drawn whole for
    one `kernel` or (the first count labels, from one `_label_draw`) the check's one
    `statistic_values`; each built here."""
    num_rows = ctx.preds.num_rows
    if isinstance(statistic, _ReadsHits):
        member_weights, q = mode.law(ctx.weights, statistic.hit_mass(ctx))
        member_cums, kernel = cumulative(member_weights), statistic.kernel(ctx)

        def block(rng, count):
            k = draw_component(rng, member_cums, size)[:count]
            return kernel(rng.random((size, num_rows))[:count] < q[k])
        return block
    if isinstance(statistic, _ReadsPit) and mode.uniform_pit:
        kernel = statistic.kernel(ctx)
        return lambda rng, count: kernel(rng.random((size, num_rows))[:count])
    values, draw = statistic_values(statistic, ctx), _label_draw(ctx, mode)
    return lambda rng, count: values(draw(rng, size)[:count])


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


def _run_blocks(run_block, num_blocks: int, workers: int) -> None:
    """`run_block(b)` for each b < num_blocks on this thread and `workers - 1` more, all taking
    b from one iterator; when every block has run, the lowest failing block's error is raised."""
    blocks, errors = iter(range(num_blocks)), {}

    def work():
        for b in blocks:   # a range iterator's `next` is atomic under the GIL
            try:
                run_block(b)
            except Exception as exc:
                errors[b] = exc
    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        list(blocks)   # after an interrupt here, the other workers take no further block
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]


def sample_statistic(preds: st.EnsemblePredictions, weights: PosteriorWeights,
                     statistic, mode: UncertaintyMode, num_replicates: int = 1000,
                     seed: int = 0, threads: int = None) -> StatisticSamples:
    """Replicated test-statistic values, drawn and evaluated a block at a time.

    Replicate k is slot k % B of block k // B, and block b draws from the substream
    (seed, b) for one call of `_block_statistic`'s function, built once per check. B
    depends on N only, so the output is bit-identical for every prefix length and thread
    count: the min(threads, num_replicates, usable CPUs) workers of `_run_blocks`, one too,
    take whole blocks, each writing its own slice, and a failing block's error is raised."""
    num_replicates = check_integer(num_replicates, 1, "need at least one replicate")
    seed = check_integer(seed, 0, f"seed must be a non-negative integer, got {seed!r}")
    check_compatible(preds, statistic)
    check_mode(preds, mode)
    workers = min(_num_threads(threads), num_replicates, _usable_cpus() or 1)
    ctx = build_context(preds, weights)
    size = max(1, _BLOCK_ELEMENTS // preds.num_rows)    # B
    out = np.empty(num_replicates, dtype=float)
    block = _block_statistic(ctx, statistic, mode, size)

    def run_block(b: int) -> None:
        lo, hi = b * size, min((b + 1) * size, num_replicates)
        out[lo:hi] = block(replicate_rng(seed, b), hi - lo)
    _run_blocks(run_block, -(-num_replicates // size), workers)
    return StatisticSamples(samples=out, context=ctx)


def finite_values(samples, *observed) -> np.ndarray:
    """`samples` (StatisticSamples or a vector) as a vector of finite floats, by `real_array`,
    and the observed value, if given, a finite number, by `check_finite`; else
    InvalidParameterError. Its readers: `statistic_values`, `p_value`, `sharpness` and
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
    observed = float(statistic_values(statistic, ss.context)(labels[None])[0])
    p = p_value(ss, observed)
    pcts = dict(zip(("p5", "p25", "p50", "p75", "p95"),
                    _quantiles(ss.samples, (0.05, 0.25, 0.5, 0.75, 0.95))))
    return PpcReport(p_value=p, sharpness=pcts["p95"] - pcts["p5"],  # = sharpness(ss)
                     passed=bool(0.0 < p < 1.0), percentiles=pcts, observed=observed,
                     num_replicates=ss.samples.size, seed=int(seed), mode=mode.describe(),
                     statistic=statistic.name)
