"""Exact statistic distributions for classification ensembles, the ground
truth for the Monte Carlo replicate sampler: accuracy's at any size, any other
statistic's by enumerating the joint label outcomes of a tiny ensemble.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ppc as ppc_mod
from . import statistics as st
from .predictive import (_BLOCK_ELEMENTS, InvalidParameterError, PosteriorWeights,
                         check_integer, class_mass, cumulative, read_as)


class BudgetExceededError(ValueError):
    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration needs {required} joint outcomes, budget is {budget}")
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class EnumerationBudget:
    max_outcomes: int = 1_000_000

    def __post_init__(self):
        check_integer(self.max_outcomes, 1, "budget must be a positive integer")


@dataclass
class StatisticPmf:
    """Finite PMF over statistic values; values merged within 1e-12."""

    values: np.ndarray
    masses: np.ndarray
    # the context the outcomes were evaluated against, for the observed value
    context: ppc_mod.PredictiveContext = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict:
        return {float(v): float(m) for v, m in zip(self.values, self.masses)}

    def tv_distance(self, samples) -> float:
        """Total variation against the empirical distribution of samples: each counts
        toward the nearest value within 1e-9 (values merged within 1e-12 can both be that
        near), found by `searchsorted` on the sorted values' midpoints, or toward none."""
        samples, order = ppc_mod.finite_values(samples), np.argsort(self.values)
        values = np.append(self.values[order], np.inf)     # no sample is near it
        near = np.searchsorted(values[:-1] / 2 + values[1:] / 2, samples)
        matched = np.abs(samples - values[near]) <= 1e-9
        freq = np.bincount(order[near[matched]], minlength=order.size) / samples.size
        return float(0.5 * (np.sum(np.abs(self.masses - freq)) + np.mean(~matched)))


def _merge(values: np.ndarray, masses: np.ndarray, atol: float = 1e-12) -> tuple:
    """Sorted values, each merged into the first of its run within atol, with masses summed in
    order (`bincount`), massless runs dropped; only chains wider than atol need the loop."""
    order = np.argsort(values)
    values, masses = values[order], masses[order]
    first = np.diff(values, prepend=-np.inf) > atol
    chains = np.flatnonzero(first)
    ends = np.append(chains[1:], values.size)
    for lo, hi in np.stack((chains, ends), 1)[values[ends - 1] - values[chains] > atol]:
        while values[hi - 1] - values[lo] > atol:
            lo += 1 + np.count_nonzero(values[lo + 1:hi] - values[lo] <= atol)
            first[lo] = True
    out_m = np.bincount(np.cumsum(first) - 1, weights=masses)
    return values[first][out_m > 0], out_m[out_m > 0]


def _hit_count_pmf(hit_probs: np.ndarray) -> np.ndarray:
    """PMFs [K, N + 1] of the hit count of N independent rows that hit with
    probabilities hit_probs [K, N]: the O(N^2) Poisson-binomial recursion
    (Hong 2013, CSDA 59)."""
    k, n = hit_probs.shape
    pmf = np.zeros((k, n + 1))
    pmf[:, 0] = 1.0
    for i in range(n):
        p = hit_probs[:, i:i + 1]
        pmf[:, 1:i + 2] = pmf[:, 1:i + 2] * (1.0 - p) + pmf[:, :i + 1] * p
        pmf[:, 0] *= 1.0 - p[:, 0]
    return pmf


def exact_statistic_distribution(preds: st.EnsemblePredictions,
                                 weights: PosteriorWeights, statistic,
                                 mode: ppc_mod.UncertaintyMode,
                                 budget: EnumerationBudget = EnumerationBudget()
                                 ) -> StatisticPmf:
    """Exact PMF of the replicated statistic under the mode's `law` over the engine's class
    masses: a hits statistic of kernel `hit_fraction` mixes K Poisson-binomials of its hit
    masses q [K, N], at any size; any other weighs each joint label outcome by its mass, C^N
    * K within the budget, read in blocks y [B, N] of K * B * N <= `_BLOCK_ELEMENTS` member
    cells by the check's one `ppc.statistic_values`; an outcome's mass is its dot over K."""
    ppc_mod.check_compatible(preds, statistic)
    if preds.kind != st.CLASSIFICATION:
        raise st.KindMismatchError("exact enumeration covers classification only")
    ppc_mod.check_mode(preds, mode)
    budget = read_as(EnumerationBudget, budget)
    ctx = ppc_mod.build_context(preds, weights)
    n, c = preds.num_rows, preds.num_classes
    if isinstance(statistic, ppc_mod._ReadsHits) and statistic.kernel(ctx) is st.hit_fraction:
        member_weights, q = mode.law(ctx.weights, statistic.hit_mass(ctx))  # [K], [K, N]
        values = np.arange(n + 1) / n
        masses = member_weights @ _hit_count_pmf(q)
    else:
        mass = class_mass(cumulative(preds.class_probs()), np.arange(c)[None, None])
        member_weights, row_mass = mode.law(ctx.weights, mass.transpose(1, 0, 2))  # [K, N, C]
        required = c ** n * member_weights.size
        if required > budget.max_outcomes:
            raise BudgetExceededError(required, budget.max_outcomes)
        read, cells = ppc_mod.statistic_values(statistic, ctx), row_mass.transpose(1, 2, 0)
        size, w = max(1, _BLOCK_ELEMENTS // (member_weights.size * n)), member_weights[:, None]
        values, masses = np.empty(c ** n), np.empty(c ** n)
        for lo in range(0, c ** n, size):       # y [B, N] in `itertools.product` order
            y = np.stack(np.unravel_index(np.arange(lo, min(lo + size, c ** n)), (c,) * n), -1)
            values[lo:lo + size] = read(y)
            masses[lo:lo + size] = (cells[np.arange(n), y].prod(1, keepdims=True) @ w).ravel()
    values, masses = _merge(values, masses)
    if abs(masses.sum() - 1.0) > 1e-9:
        raise InvalidParameterError("enumerated masses failed to sum to 1")
    return StatisticPmf(values, masses, context=ctx)
