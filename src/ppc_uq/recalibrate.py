"""Per-model temperature scaling for classification ensembles.

One temperature per ensemble member, fitted by maximizing the mean log of
the ensemble-averaged recalibrated probability of the true label on a
held-out leading slice of the data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import statistics as st
from .predictive import InvalidParameterError


class UnsupportedInputError(ValueError):
    """Raised when temperature fitting is requested without logits."""


@dataclass(frozen=True)
class TemperatureVector:
    values: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", tuple(v.tolist()))
        if v.ndim != 1 or v.size < 1:
            raise InvalidParameterError("need one temperature per model")
        if np.any(~np.isfinite(v)) or np.any(v <= 0):
            raise InvalidParameterError("temperatures must be finite and positive")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def split_recalibration(preds: st.EnsemblePredictions, labels,
                        fraction: float = 0.2):
    """Deterministic split: first floor(N * fraction) rows recalibrate, rest evaluate."""
    if preds.kind != st.CLASSIFICATION:
        raise st.KindMismatchError("recalibration needs classification predictions")
    if not (0 < fraction < 1):
        raise InvalidParameterError("fraction must be in (0, 1)")
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
    logits = np.asarray(logits, dtype=float)
    tau = temps.as_array()
    if logits.ndim != 3 or logits.shape[1] != tau.size:
        raise InvalidParameterError("logits must be [N, M, C] with M temperatures")
    return st.softmax(logits / tau[None, :, None])


def ensemble_log_probs(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """log of the ensemble-averaged probability of each row's true label."""
    avg = probs.mean(axis=1)
    return np.log(avg[np.arange(labels.size), labels])


def ensemble_nll(probs: np.ndarray, labels) -> float:
    labels = np.asarray(labels, dtype=int)
    return float(-np.mean(ensemble_log_probs(np.asarray(probs, dtype=float), labels)))


def _fit_objective(logits: np.ndarray, labels: np.ndarray):
    """Return log_tau -> (objective, gradient) over fixed logits and labels.

    The objective is the mean log ensemble-averaged label probability; the
    gradient is taken in log-temperature. Everything that does not depend on
    tau is computed here once: the logits shifted by their row-and-model max
    (d <= 0, so exp(d / tau) cannot overflow) and the label columns. Each
    evaluation then makes one multiply, one exp and two sums over [N, M, C],
    into one scratch buffer, and works on [N, M] arrays after that.
    """
    n, m, c = logits.shape
    rows = np.arange(n)
    d = logits - logits.max(axis=2, keepdims=True)         # [N, M, C], <= 0
    d_true = d[rows, :, labels]                            # [N, M]
    z_true = logits[rows, :, labels]
    ones = np.ones(c)
    e = np.empty_like(d)

    def evaluate(log_tau: np.ndarray):
        tau = np.exp(log_tau)
        inv_tau = 1.0 / tau
        np.multiply(d, inv_tau[None, :, None], out=e)
        np.exp(e, out=e)
        total = e @ ones                                   # [N, M]
        a = np.exp(d_true * inv_tau[None, :]) / total      # [N, M] prob of true label
        p = a.mean(axis=1)                                 # [N]
        obj = float(np.mean(np.log(p)))
        # d a_ij / d log tau_j = a_ij * (sum_c s_ijc z_ijc - z_ij[y_i]) / tau_j
        sz = np.einsum("nmc,nmc->nm", e, logits) / total
        da = a * (sz - z_true) / tau[None, :]
        grad = np.mean(da / (m * p[:, None]), axis=0)
        return obj, grad

    return evaluate


def fit_temperatures(logits: np.ndarray, labels, max_iters: int = 500,
                     tol: float = 1e-8) -> TemperatureVector:
    """Deterministic gradient ascent on the mean log-likelihood, in log-temperature.

    Each iteration tries the step log_tau + grad and halves it, up to 50
    times, until the objective rises. The fit stops after `max_iters`
    iterations, when no halved step rises, or when an iteration gains less
    than `tol`. On realistic inputs the gain per iteration stays above `tol`
    (on the N=2,000 M=10 C=10 benchmark ensembles the last gains are 4e-8 to
    7e-7 and |grad| is about 1e-4), so the fit ends at the `max_iters` cap,
    short of the optimum: the cap is part of the fitted result, and an
    optimiser that converges further returns other temperatures.
    """
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 3:
        raise UnsupportedInputError(
            "temperature fitting needs raw logits [N, M, C]")
    labels = np.asarray(labels, dtype=int)
    if logits.shape[0] < 1:
        raise InvalidParameterError("empty recalibration slice")

    objective = _fit_objective(logits, labels)
    log_tau = np.zeros(logits.shape[1])
    obj, grad = objective(log_tau)
    for _ in range(max_iters):
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
        if gain < tol:
            break
    return TemperatureVector(tuple(np.exp(log_tau).tolist()))
