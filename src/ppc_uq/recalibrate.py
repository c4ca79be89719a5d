"""Per-model temperature scaling for classification ensembles.

One temperature per ensemble member, fitted by maximizing the mean log of
the ensemble-averaged recalibrated probability of the true label on a
held-out leading slice of the data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import statistics as st
from .predictive import InvalidParameterError, check_positive, read_as, real_array

# the fit's iteration cap and least gain, both part of its result (see fit_temperatures)
FIT_MAX_ITERS = 500
FIT_TOL = 1e-8


@dataclass(frozen=True)
class TemperatureVector:
    values: tuple

    def __post_init__(self):
        v = real_array(self.values, "temperatures must be finite and positive")
        if v.ndim != 1 or v.size < 1:
            raise InvalidParameterError("need one temperature per model")
        check_positive("temperatures must be finite and positive", *self.values)
        object.__setattr__(self, "values", tuple(v.tolist()))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def split_recalibration(preds: st.EnsemblePredictions, labels,
                        fraction: float = 0.2):
    """Deterministic split: first floor(N * fraction) rows recalibrate, rest evaluate."""
    if preds.kind != st.CLASSIFICATION:
        raise st.KindMismatchError("recalibration needs classification predictions")
    check_positive("fraction must be in (0, 1)", fraction)      # a real number > 0,
    check_positive("fraction must be in (0, 1)", 1 - fraction)  # and below 1
    labels = st.validate_labels(preds, labels)
    n = preds.num_rows
    n_recal = int(np.floor(n * fraction))
    if n_recal < 1 or n_recal >= n:
        raise InvalidParameterError(
            f"degenerate split: {n_recal} recalibration rows out of {n}")
    recal = slice(0, n_recal)
    rest = slice(n_recal, n)
    return ((preds.take_rows(recal), labels[recal]),
            (preds.take_rows(rest), labels[rest]))


def apply_temperatures(logits: np.ndarray, temps: TemperatureVector) -> np.ndarray:
    """softmax(logits / tau_j) per row and model; preserves per-model argmax."""
    rule = "logits must be [N, M, C] with M temperatures"
    logits, tau = real_array(logits, rule), read_as(TemperatureVector, temps).as_array()
    if logits.ndim != 3 or logits.shape[1] != tau.size:
        raise InvalidParameterError(rule)
    return st.softmax(logits / tau[None, :, None])


def ensemble_nll(probs: np.ndarray, labels) -> float:
    """Mean negative log of the ensemble-averaged probability of each row's label."""
    preds = st.EnsemblePredictions.from_probs(probs)
    labels = st.validate_labels(preds, labels)
    avg = preds.probs.mean(axis=1)
    return float(-np.mean(np.log(avg[np.arange(labels.size), labels])))


def _fit_objective(logits: np.ndarray, labels: np.ndarray):
    """Return log_tau -> (objective, gradient) over fixed logits and labels.

    The objective is the mean log ensemble-averaged label probability; the
    gradient is taken in log-temperature. Everything that does not depend on
    tau is computed here once: the logits shifted by their row-and-model max
    (d <= 0, so exp(d / tau) cannot overflow), the label's shifted logit d_y
    and g = d - d_y. They are stored member-major, [M, C, N], so each pass
    runs along the contiguous row axis instead of N * M loops of C elements.
    Each evaluation makes one multiply, one exp and one sum over C into one
    scratch buffer, one product-sum with g, and works on [M, N] after that.
    """
    n, m, _ = logits.shape
    z = logits.transpose(1, 2, 0)                              # [M, C, N] view
    d = np.ascontiguousarray(z - z.max(axis=1, keepdims=True))  # [M, C, N], <= 0
    d_true = d[:, labels, np.arange(n)]                         # [M, N]
    g = d - d_true[:, None, :]
    e = np.empty_like(d)

    def evaluate(log_tau: np.ndarray):
        tau = np.exp(log_tau)
        inv_tau = 1.0 / tau
        np.multiply(d, inv_tau[:, None, None], out=e)
        np.exp(e, out=e)
        total = np.add.reduce(e, axis=1)                       # [M, N]
        a = np.exp(d_true * inv_tau[:, None]) / total          # [M, N] prob of true label
        p = a.mean(axis=0)                                     # [N]
        obj = float(np.mean(np.log(p)))
        # d a_jn / d log tau_j = a_jn * sum_c s_jcn (z_jcn - z_jn[y_n]) / tau_j
        sg = np.einsum("mcn,mcn->mn", e, g) / total
        grad = np.mean(a * sg / p, axis=1) / (m * tau)
        return obj, grad

    return evaluate


def fit_temperatures(logits: np.ndarray, labels) -> TemperatureVector:
    """Deterministic gradient ascent on the mean log-likelihood, in log-temperature.

    Each iteration tries the step log_tau + grad and halves it, up to 50
    times, until the objective rises. The fit stops after `FIT_MAX_ITERS`
    iterations, when no halved step rises, or when an iteration gains less
    than `FIT_TOL`. On realistic inputs the gain per iteration stays above
    `FIT_TOL` (on the N=2,000 M=10 C=10 benchmark ensembles the last gains are
    4e-8 to 7e-7 and |grad| is about 1e-4), so the fit ends at the cap,
    short of the optimum: the cap is part of the fitted result, and an
    optimiser that converges further returns other temperatures.
    """
    preds = st.EnsemblePredictions.from_logits(logits)
    labels = st.validate_labels(preds, labels)

    objective = _fit_objective(preds.logits, labels)
    log_tau = np.zeros(preds.num_models)
    obj, grad = objective(log_tau)
    for _ in range(FIT_MAX_ITERS):
        step = 1.0
        improved = False
        for _ in range(50):
            cand = log_tau + step * grad
            cand_obj, cand_grad = objective(cand)
            if cand_obj > obj:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        gain = cand_obj - obj
        log_tau, obj, grad = cand, cand_obj, cand_grad
        if gain < FIT_TOL:
            break
    return TemperatureVector(tuple(np.exp(log_tau).tolist()))
