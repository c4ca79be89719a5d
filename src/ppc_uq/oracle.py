"""Exact statistic distributions for classification ensembles, the ground
truth for the Monte Carlo replicate sampler: accuracy's at any size, any other
statistic's by enumerating the joint label outcomes of a tiny ensemble.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import ppc as ppc_mod
from . import statistics as st
from .predictive import (InvalidParameterError, PosteriorWeights, check_integer,
                         class_mass, read_as)


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
        """Total variation against the empirical distribution of samples."""
        samples, freq = ppc_mod.finite_values(samples), np.zeros_like(self.masses)
        matched = np.zeros(samples.size, dtype=bool)
        for i, v in enumerate(self.values):
            hit = np.abs(samples - v) <= 1e-9
            freq[i] = np.mean(hit)
            matched |= hit
        return float(0.5 * (np.sum(np.abs(self.masses - freq)) + np.mean(~matched)))


def _merge(values: np.ndarray, masses: np.ndarray, atol: float = 1e-12) -> tuple:
    order = np.argsort(values)
    values, masses = values[order], masses[order]
    out_v, out_m = [], []
    for v, m in zip(values, masses):
        if out_v and v - out_v[-1] <= atol:
            out_m[-1] += m
        else:
            out_v.append(v)
            out_m.append(m)
    out_v, out_m = np.asarray(out_v), np.asarray(out_m)
    return out_v[out_m > 0], out_m[out_m > 0]


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
    """Exact PMF of the replicated statistic under the mode's `law` over the
    engine's class masses: accuracy's mixes K Poisson-binomials of the hit masses
    q [K, N], at any size; any other statistic weighs each joint label outcome by its
    mass, C^N * K outcomes within the budget, from the full [N, M, C] masses."""
    ppc_mod.check_compatible(preds, statistic)
    if preds.kind != st.CLASSIFICATION:
        raise st.KindMismatchError("exact enumeration covers classification only")
    ppc_mod.check_mode(preds, mode)
    budget = read_as(EnumerationBudget, budget)
    ctx = ppc_mod.build_context(preds, weights)
    n, c = preds.num_rows, preds.num_classes
    rows = np.arange(n)
    if isinstance(statistic, ppc_mod.AccuracyStatistic):
        member_weights, q = mode.law(ctx.weights, statistic.hit_mass(ctx))  # [K], [K, N]
        values = np.arange(n + 1) / n
        masses = member_weights @ _hit_count_pmf(q)
    else:
        mass = class_mass(ctx.class_cums, np.arange(c)[None, None])    # [N, M, C]
        member_weights, row_mass = mode.law(ctx.weights, mass.transpose(1, 0, 2))  # [K, N, C]
        required = c ** n * member_weights.size
        if required > budget.max_outcomes:
            raise BudgetExceededError(required, budget.max_outcomes)
        values = np.empty(c ** n)
        masses = np.empty(c ** n)
        for i, labels in enumerate(itertools.product(range(c), repeat=n)):
            y = np.asarray(labels, dtype=int)
            values[i] = statistic.evaluate(y, ctx)
            masses[i] = float(row_mass[:, rows, y].prod(axis=1) @ member_weights)

    values, masses = _merge(ppc_mod.finite_values(values), masses)
    if abs(masses.sum() - 1.0) > 1e-9:
        raise InvalidParameterError("enumerated masses failed to sum to 1")
    return StatisticPmf(values, masses, context=ctx)
