"""Univariate predictive distributions and posterior-integrated mixtures.

A predictive with model uncertainty is a finite mixture: one component per posterior
sample (ensemble member), weighted by posterior mass; the mixture CDF integrates the
per-model CDFs over those weights. A scalar component is Gaussian; a categorical one is
a row of `statistics.EnsemblePredictions` [N, M, C] (n draws of a table [M, C] are
`ppc.replicate_labels` of it tiled n times under INDEPENDENT). Parameter objects are
checked where made: counts by `check_integer`, scales by `check_positive`, weights and
levels by rules stated positively, so that NaN fails each of them. The number rules
are here and, for file lines, in `io` only: text by `parse_number`, a scalar by the
`check_*` family, an array the library is handed by `real_array`; no bool is a number.
"""
from __future__ import annotations

import contextlib
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np


class InvalidParameterError(ValueError):
    """The base of the package's parameter errors: a parameter out of its range."""


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


def real_array(values, message: str) -> np.ndarray:
    """`values` as floats (a float64 ndarray itself) if numpy reads them as integers or
    floats and, unless an ndarray, hold no bool of any rank; else InvalidParameterError."""
    with contextlib.suppress(ValueError):   # numpy's error for a ragged nesting
        arr = np.asarray(values)
        flat = () if isinstance(values, np.ndarray) else np.array(values, dtype=object).ravel()
        kinds = set(map(type, flat))
        if np.ndarray in kinds:     # a 0-d array in a container: the type of what it holds
            kinds.update(v.dtype.type for v in flat if isinstance(v, np.ndarray))
        if arr.dtype.kind in "iuf" and {bool, np.bool_}.isdisjoint(kinds):
            return arr.astype(float, copy=False)
    raise InvalidParameterError(message)


def read_as(cls, value):
    """`value` if it is a `cls`, else `cls(value)`: a parameter slot reads a plain
    value (a count, levels, a sequence) through its class, and so by its rules."""
    return value if isinstance(value, cls) else cls(value)


def check_positive(message: str, *values) -> None:
    """`check_finite` with values > 0."""
    check_finite(message, *values, least=0)


def parse_number(text: str, integer: bool = False, finite: bool = False):
    """`text` as a float, or an int (optional '-', digits) if `integer`, in ASCII
    with no `_`, finite if `finite`; else ValueError. The one spelling of numbers in
    flags, label files, PPC_UQ_THREADS and a point index (`int` also reads '1_0',
    '\u0663'); it is here so that the engine imports nothing from the file layer."""
    if not text.isascii() or "_" in text or (
            integer and not text.removeprefix("-").isdigit()):
        raise ValueError(f"not a number: {text!r}")
    value = int(text) if integer else float(text)
    if finite and not np.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


@dataclass(frozen=True)
class Gaussian:
    mean: float
    stddev: float

    def __post_init__(self):
        check_finite("gaussian parameters must be finite", self.mean)
        check_positive(f"stddev must be finite and > 0, got {self.stddev}", self.stddev)


@dataclass(frozen=True)
class PosteriorWeights:
    """Finite-support posterior mass over models (defaults to uniform)."""

    values: tuple

    def __post_init__(self):
        w = real_array(self.values, "weights must be a nonempty vector")
        if w.ndim != 1 or w.size < 1:
            raise InvalidParameterError("weights must be a nonempty vector")
        object.__setattr__(self, "values", tuple(w.tolist()))
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-9):
            raise InvalidParameterError("weights must be nonnegative and sum to 1")

    @classmethod
    def uniform(cls, num_models: int) -> "PosteriorWeights":
        check_integer(num_models, 1, "need at least one model")
        return cls(tuple([1.0 / num_models] * num_models))

    @classmethod
    def for_models(cls, weights, num_models: int) -> "PosteriorWeights":
        """The one weights rule: uniform when `weights` is None, else exactly
        one weight per model. A plain sequence is read as `PosteriorWeights`."""
        if weights is None:
            return cls.uniform(num_models)
        if len((weights := read_as(cls, weights)).values) != num_models:
            raise InvalidParameterError(f"need one weight per model: got "
                                        f"{len(weights.values)} for {num_models}")
        return weights

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class MixturePredictive:
    """Posterior-integrated predictive: a weighted mixture of Gaussians, of nothing else."""

    components: tuple
    weights: PosteriorWeights = None

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) == 0:
            raise InvalidParameterError("mixture needs at least one component")
        if not all(isinstance(c, Gaussian) for c in comps):
            raise InvalidParameterError("mixture components must be Gaussian")
        object.__setattr__(self, "weights",
                           PosteriorWeights.for_models(self.weights, len(comps)))


_NDTR_CHUNK = 4096      # elements per pass, which bounds the memory of the list


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Phi(a) = erfc(-a / sqrt 2) / 2 elementwise, by libm's erfc through
    `math.erfc`, so an element's value does not depend on the array around it;
    ±inf give 1 and 0, NaN gives NaN."""
    flat = np.asarray(a, dtype=float).reshape(-1)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _NDTR_CHUNK):
        part = flat[start:start + _NDTR_CHUNK] * -math.sqrt(0.5)
        out[start:start + part.size] = np.fromiter(map(math.erfc, part.tolist()),
                                                   float, part.size)
    out *= 0.5
    return out.reshape(np.shape(a))


def pit_from_gaussians(means: np.ndarray, stds: np.ndarray, w: np.ndarray,
                       y: np.ndarray) -> np.ndarray:
    """The one Gaussian-mixture CDF kernel: sum_m w_m Phi((y - mean_m) / std_m), over
    the last (model) axis of means and stds, which broadcast against y[..., None].
    The sum is `einsum`'s, whose value for a row does not depend on the rows
    around it (a BLAS matvec's does), and is capped at 1: weights that sum to 1
    can round to more."""
    with np.errstate(over="ignore"):    # past the largest double, z = ±inf is right
        z = (y[..., None] - means) / stds
    return np.minimum(np.einsum("...m,m->...", _ndtr(z), w), 1.0)


# Phi on the grid t_k = -8.5 + k / 1024, k = 0..17408, padded for `_pit_near_cuts`
# as phi = [0, Phi(t_0), ..., Phi(t_17408), 1]: z in cell j (t_{j-1} <= z < t_j, with
# t_{-1} = -inf and t_17409 = +inf) has phi[j] <= Phi(z) <= phi[j + 1], as Phi is monotone.
_GRID_END = 8.5
_GRID_CELLS_PER_UNIT = 1024
_GRID_HALF = int(_GRID_END * _GRID_CELLS_PER_UNIT)     # cells on each side of 0
_CHORD_ERROR = 2.9e-8   # bounds a chord's distance from Phi on a cell: see `_pit_near_cuts`
_CUT_MARGIN = 1e-9      # far above every rounding of a bracket, far below a cut gap
_TINY_STD = 2.0 ** -1012    # the least std whose std / 1024 is a normal double
_CUT_GRID = 2 ** 14     # cells of [0, 1] in the plan's lookup of the next cut


@functools.cache
def _cdf_table() -> tuple:
    """(phi [17411], the widest cell's phi[j + 1] - phi[j]), built with `_ndtr` on
    first use (twice if two threads race to it: one value); read-only, as it is shared."""
    phi = np.concatenate(([0.0], _ndtr(np.arange(-_GRID_HALF, _GRID_HALF + 1)
                                       / _GRID_CELLS_PER_UNIT), [1.0]))
    phi.flags.writeable = False
    return phi, float(np.max(np.diff(phi)))


def _grid_cell(y, means, divisor, out: np.ndarray = None) -> np.ndarray:
    """Each member's position clip((y - mean) / divisor + 8705, 0, 17409) on the grid
    of `phi`, for divisor = std / 1024: z lies in cell j = floor(position), at frac =
    position - j. Overflow (z = ±inf is right), x / 0 and 0 / 0 give no warning."""
    with np.errstate(all="ignore"):
        out = np.subtract(y, means, out=out)
        np.divide(out, divisor, out=out)
    out += _GRID_HALF + 1
    return np.clip(out, 0, 2 * _GRID_HALF + 1, out=out)


def _chord(cell: np.ndarray) -> np.ndarray:
    """Each member's chord of Phi across its cell at `_grid_cell`'s position,
    phi[j] + (phi[j + 1] - phi[j]) * frac; `cell` is overwritten with frac."""
    phi, _ = _cdf_table()
    j = cell.astype(np.intp)
    lower = phi.take(j)
    chord = phi[1:].take(j)
    chord -= lower
    cell -= j
    chord *= cell
    chord += lower
    return chord


@dataclass(frozen=True, eq=False)
class _PitPlan:
    """What `_pit_near_cuts` reads of one check: the members [N, M], the weights,
    the divisor std / 1024, the rows with a std below _TINY_STD, the sorted cuts
    with +inf appended and next_cut[i], the least cut >= i / _CUT_GRID."""

    means: np.ndarray
    stds: np.ndarray
    w: np.ndarray
    divisor: np.ndarray
    tiny: np.ndarray
    cuts: np.ndarray
    next_cut: np.ndarray

    def scratch(self) -> tuple:
        """The [N, M] gather, position and cell arrays that `_pit_near_cuts` writes,
        as views of one allocation, which glibc hands whole to the next block
        (three separate ones took about 13 new pages per replicate, glibc 2.36)."""
        gathered, cell, j = np.empty((3,) + self.means.shape)
        return gathered, cell, j.view(np.intp)


def _pit_plan(means: np.ndarray, stds: np.ndarray, w: np.ndarray, cuts) -> _PitPlan:
    """The plan of `_pit_near_cuts` for a check's members and its sorted cuts in [0, 1]."""
    cuts = np.append(np.asarray(cuts, dtype=float), np.inf)
    with np.errstate(under="ignore"):   # below _TINY_STD, which the plan marks
        divisor = stds / _GRID_CELLS_PER_UNIT
    return _PitPlan(means, stds, w, divisor, np.flatnonzero((stds < _TINY_STD).any(axis=1)),
                    cuts, cuts[np.searchsorted(cuts, np.arange(_CUT_GRID) / _CUT_GRID)])


def _pit_near_cuts(plan: _PitPlan, y: np.ndarray, scratch: tuple = None) -> np.ndarray:
    """PIT values [N] that compare with each of the plan's cuts as the exact ones
    (`pit_from_gaussians`) do, by two brackets from the grid table. `scratch`
    (`plan.scratch()`, else new arrays) is overwritten.

    Each member's Phi(z) lies in its cell [phi[j], phi[j + 1]], so a row's PIT lies
    in [lo, lo + widest] for lo = phi[j] @ w (the weights sum to 1 within 1e-9).
    A row with no cut there, widened by _CUT_MARGIN, gets lo, on the same side of
    every cut as its PIT. The others get the `@ w` of the members' chords of Phi
    across their cells. On an inner cell a chord is within h^2 max|Phi''| / 8 of
    Phi, and |Phi''(z)| = |z| phi(z) <= phi(1) < 0.242, so within 2.885e-8 for
    h = 1/1024; on an end cell both lie in [0, Phi(-8.5)] or [Phi(8.5), 1]. With
    the roundings (each below 1e-15) that is _CHORD_ERROR; the rows with a cut
    within _CHORD_ERROR + _CUT_MARGIN of their chord sum get exact PIT.

    The position (`_grid_cell`) equals clip(z, -8.5 - 1/1024, 8.5) * 1024 + 8705 bit
    for bit when std >= _TINY_STD: std / 1024 is then exact and scaling by a power
    of two commutes with correct rounding, so the quotient is 1024 z (for a
    subnormal z both sums round to 8705); as rounding is monotone, adding 8705 then
    clipping equals clipping then adding. Below _TINY_STD a position may be wrong
    or NaN: such a row's cells are set to 0 before the cast, so no NaN is cast or
    gathered, and the row gets exact PIT whatever the brackets gave it.

    A row is near a cut when the least cut >= a = lo - _CUT_MARGIN is <= lo + widest
    + _CUT_MARGIN. The plan's grid screens first: next_cut[floor(a G)] is a cut >=
    floor(a G) / G, so no larger than the least cut >= a (a G is exact, G being a
    power of two; a < 0 takes cell 0, and no cut is below 0). So every near row
    passes the screen, and the exact search runs on those that pass."""
    phi, widest = _cdf_table()
    gathered, cell, j = scratch or plan.scratch()
    _grid_cell(y[:, None], plan.means, plan.divisor, out=cell)
    cell[plan.tiny] = 0.0
    np.copyto(j, cell, casting="unsafe")
    pit = np.minimum(phi.take(j, mode="clip", out=gathered) @ plan.w, 1.0)

    def near_cut(low, width):
        low, high = low - _CUT_MARGIN, low + width + _CUT_MARGIN
        rows = np.flatnonzero(plan.next_cut.take((low * _CUT_GRID).astype(np.intp),
                                                 mode="clip") <= high)
        return rows[plan.cuts[np.searchsorted(plan.cuts, low[rows])] <= high[rows]]
    rows = near_cut(pit, widest)
    pit[rows] = np.minimum(_chord(cell[rows]) @ plan.w, 1.0)
    rows = rows[near_cut(pit[rows] - _CHORD_ERROR, 2 * _CHORD_ERROR)]
    # a row listed twice is set twice to one value (`np.union1d` would load numpy.ma)
    rows = np.concatenate((rows, plan.tiny))
    if rows.size:
        pit[rows] = pit_from_gaussians(plan.means[rows], plan.stds[rows], plan.w, y[rows])
    return pit


def gaussian_cdf(mean: float, stddev: float, y: float) -> float:
    """CDF of N(mean, stddev^2) at y: that of a one-component mixture."""
    return mixture_cdf(MixturePredictive((Gaussian(mean, stddev),)), y)


def _mixture_arrays(mixture: MixturePredictive) -> tuple:
    """The mixture's component means and stddevs and its weights, each [M]."""
    return (np.array([c.mean for c in mixture.components]),
            np.array([c.stddev for c in mixture.components]), mixture.weights.as_array())


def mixture_cdf(mixture: MixturePredictive, y) -> float:
    """Posterior-integrated CDF: sum of weighted per-component Gaussian CDFs.

    Vectorized over a scalar or array y; a NaN or infinite y is InvalidParameterError.
    """
    y_arr = real_array(y, "CDF argument y must be finite")
    if not np.all(np.isfinite(y_arr)):
        raise InvalidParameterError("CDF argument y must be finite")
    total = pit_from_gaussians(*_mixture_arrays(mixture), y_arr)
    return float(total) if y_arr.ndim == 0 else total


def cumulative(p: np.ndarray) -> np.ndarray:
    """Cumulative sums over the last axis as a running maximum, the last
    pinned to 1.0, so that every uniform in [0, 1) falls in some bin and a
    slightly negative entry (down to -1e-12 is accepted) gets no mass."""
    cum = np.maximum.accumulate(np.cumsum(p, axis=-1), axis=-1)
    cum[..., -1] = 1.0
    return cum


def class_mass(cums: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """The only statement of the categorical draw's law (`draw_mixture`): class c
    has the band (cums[c - 1], cums[c]] of the CDF `cums` (see `cumulative`), cums[-1]
    = 0, each value clipped to [0, 1] as the uniform is, so rows that sum to 1 +- 1e-6
    or hold entries down to -1e-12 still give masses that sum to 1. `classes` indexes
    the last axis of `cums` as in `np.take_along_axis`, broadcast against its others."""
    hi = np.clip(np.take_along_axis(cums, classes, axis=-1), 0.0, 1.0)
    lo = np.take_along_axis(cums, np.maximum(classes - 1, 0), axis=-1)
    return hi - np.where(classes > 0, np.clip(lo, 0.0, 1.0), 0.0)


def draw_component(rng: np.random.Generator, cums: np.ndarray,
                   num_rows: int) -> np.ndarray:
    """Mixture component index per row, [num_rows], from the weights' `cumulative`
    (a check builds it once): the first step of every mixture draw, which knows no
    mode. Uniforms consumed: one per row, none when M = 1."""
    if cums.size == 1:
        return np.broadcast_to(0, (num_rows,))
    return np.searchsorted(cums, rng.random(num_rows), side="right")


def draw_mixture(rng: np.random.Generator, idx: np.ndarray, means=None, stds=None,
                 class_cums=None) -> np.ndarray:
    """One draw per row from per-row mixtures, given each row's component
    index (`idx`, [N], from `draw_component` or a mode's `members`), or one
    index for every row, whose column is then read by basic slicing.

    The components are Gaussian (means, stds: [N, M]) or categorical
    (class_cums: [N, M, C], see `cumulative`). RNG consumption: one value
    draw per row, in row order.
    """
    rows = slice(None) if np.ndim(idx) == 0 else np.arange(np.size(idx))
    if class_cums is None:
        mean = means[rows, idx]
        return mean + stds[rows, idx] * rng.standard_normal(mean.size)
    cums = class_cums[rows, idx]
    return (rng.random(len(cums))[:, None] > cums).sum(axis=1)


def mixture_sample(mixture: MixturePredictive, rng: np.random.Generator, size=None):
    """Draw from the mixture: component index m ~ weights, then from component m.

    With size=None returns a scalar; otherwise a vector of independent draws.
    Consumes the rng as the engine's label draw: index uniforms, then values.
    """
    n = 1 if size is None else check_integer(
        size, 0, f"size must be None or an integer >= 0, got {size!r}")
    means, stds, w = _mixture_arrays(mixture)
    out = draw_mixture(rng, draw_component(rng, cumulative(w), n),
                       means=np.broadcast_to(means, (n, w.size)),
                       stds=np.broadcast_to(stds, (n, w.size)))
    return out[0] if size is None else out
