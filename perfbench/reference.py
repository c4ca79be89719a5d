"""The benchmark's own numpy/scipy statistics, independent of ``ppc_uq``.

Outputs of the program are checked against these, so they are written from
the definitions in the README rather than shared with the package.
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtr

CALIBRATION_LEVELS = np.arange(1, 101) / 101.0   # the CLI's 100 default levels
ECE_BINS = 15                                     # the CLI's default bin count


def pit(means: np.ndarray, stds: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Equal-weight mixture CDF of each row's Gaussians at its label."""
    return ndtr((y[:, None] - means) / stds).mean(axis=1)


def calibration_error(pit_values: np.ndarray) -> float:
    """Sum over levels of (level - share of PIT values strictly below it)^2."""
    below = (pit_values[None, :] < CALIBRATION_LEVELS[:, None]).mean(axis=1)
    return float(np.sum((CALIBRATION_LEVELS - below) ** 2))


def ece(integrated: np.ndarray, labels: np.ndarray, bins: int = ECE_BINS) -> float:
    """ECE over equal-width confidence bins ((k-1)/B, k/B]."""
    confidence = integrated.max(axis=1)
    correct = integrated.argmax(axis=1) == labels
    idx = np.clip(np.ceil(confidence * bins).astype(int) - 1, 0, bins - 1)
    total = 0.0
    for b in range(bins):
        sel = idx == b
        if sel.any():
            total += abs(correct[sel].sum() - confidence[sel].sum())
    return float(total / labels.size)


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ensemble_nll(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log of the member-averaged probability of the label."""
    avg = probs.mean(axis=1)
    return float(-np.mean(np.log(avg[np.arange(labels.size), labels])))


def close(a: float, b: float) -> bool:
    """Equal up to summation order: 1e-9 relative, 1e-12 absolute."""
    return abs(a - b) <= 1e-12 + 1e-9 * abs(b)
