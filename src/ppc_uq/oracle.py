"""Exact statistic distributions for tiny classification ensembles.

Enumerates every joint label outcome and aggregates probability mass by
statistic value, giving ground truth for the Monte Carlo replicate sampler.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import ppc as ppc_mod
from . import statistics as st
from .predictive import InvalidParameterError, PosteriorWeights


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
        if self.max_outcomes < 1:
            raise InvalidParameterError("budget must be positive")


@dataclass
class StatisticPmf:
    """Finite PMF over statistic values; values merged within 1e-12."""

    values: np.ndarray
    masses: np.ndarray
    # the context the outcomes were evaluated against, for the observed value
    context: ppc_mod.PredictiveContext = field(default=None, init=False,
                                               repr=False, compare=False)

    def as_dict(self) -> dict:
        return {float(v): float(m) for v, m in zip(self.values, self.masses)}

    def tv_distance(self, samples) -> float:
        """Total variation against the empirical distribution of samples."""
        samples = np.asarray(samples, dtype=float)
        freq = np.zeros_like(self.masses)
        matched = np.zeros(samples.size, dtype=bool)
        for i, v in enumerate(self.values):
            hit = np.abs(samples - v) <= 1e-9
            freq[i] = np.mean(hit)
            matched |= hit
        unmatched = np.mean(~matched)
        return float(0.5 * (np.sum(np.abs(self.masses - freq)) + unmatched))


def _merge(values: np.ndarray, masses: np.ndarray, atol: float = 1e-12) -> StatisticPmf:
    order = np.argsort(values)
    values, masses = values[order], masses[order]
    out_v, out_m = [], []
    for v, m in zip(values, masses):
        if out_v and v - out_v[-1] <= atol:
            out_m[-1] += m
        else:
            out_v.append(v)
            out_m.append(m)
    out_v = np.asarray(out_v)
    out_m = np.asarray(out_m)
    keep = out_m > 0
    return StatisticPmf(values=out_v[keep], masses=out_m[keep])


def exact_statistic_distribution(preds: st.EnsemblePredictions,
                                 weights: PosteriorWeights, statistic,
                                 mode: ppc_mod.UncertaintyMode,
                                 budget: EnumerationBudget = EnumerationBudget()
                                 ) -> StatisticPmf:
    """Exact PMF of the replicated statistic under the given uncertainty mode."""
    if preds.kind != st.CLASSIFICATION:
        raise st.KindMismatchError("exact enumeration covers classification only")
    n, m, c = preds.num_rows, preds.num_models, preds.num_classes
    joint = c ** n
    required = joint * m if isinstance(mode, ppc_mod.Bayesian) else joint
    if required > budget.max_outcomes:
        raise BudgetExceededError(required, budget.max_outcomes)

    ctx = ppc_mod.build_context(preds, weights)
    probs = preds.class_probs()                             # [N, M, C]
    w = ctx.weights
    rows = np.arange(n)

    values = np.empty(joint)
    masses = np.empty(joint)
    for i, labels in enumerate(itertools.product(range(c), repeat=n)):
        y = np.asarray(labels, dtype=int)
        if isinstance(mode, ppc_mod.Bayesian):
            per_model = probs[rows, :, y].prod(axis=0)      # [M]
            mass = float(per_model @ w)
        elif isinstance(mode, ppc_mod.ConditionallyIndependent):
            mass = float(np.prod(ctx.integrated[rows, y]))
        elif isinstance(mode, ppc_mod.PointEstimate):
            mass = float(np.prod(probs[rows, mode.index, y]))
        else:
            raise InvalidParameterError(f"unknown mode: {mode!r}")
        values[i] = statistic.evaluate(y, ctx)
        masses[i] = mass

    pmf = _merge(values, masses)
    if abs(pmf.masses.sum() - 1.0) > 1e-9:
        raise InvalidParameterError("enumerated masses failed to sum to 1")
    pmf.context = ctx
    return pmf
