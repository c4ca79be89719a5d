"""Pinned bytes of one small fixed check per statistic reader.

A refactor that keeps the engine's behaviour keeps these digests: the sha256 of
`sample_statistic(...).samples.tobytes()` and the observed value's `float.hex`.
They pin sample bytes, not report files, so a version bump does not move them;
a change that breaks the replicate stream updates them on purpose.
"""
import hashlib
from dataclasses import dataclass

import numpy as np
import pytest

from ppc_uq import ppc
from ppc_uq import statistics as st


def classification_check():
    rng = np.random.default_rng(2024)
    probs = rng.random((30, 4, 3)) + 0.1
    probs /= probs.sum(axis=-1, keepdims=True)
    return st.EnsemblePredictions.from_probs(probs), rng.integers(0, 3, 30)


def regression_check():
    rng = np.random.default_rng(2025)
    means = 4.0 * rng.random((40, 3)) - 2.0
    stds = 0.5 + rng.random((40, 3))
    stds[7, 1] = 1e-310     # a row that takes exact PIT
    return st.EnsemblePredictions.from_gaussians(means, stds), 4.0 * rng.random(40) - 2.0


@dataclass(frozen=True)
class AgreementWithClassZero:
    """A custom statistic: it reads the labels and the context's predicted class."""

    kind = st.CLASSIFICATION
    name = "agreement-0"

    def evaluate(self, labels, ctx):
        return float(np.mean((labels == 0) == (ctx.predicted == 0)))


CHECKS = {
    "ece-independent": (
        classification_check, ppc.EceStatistic(), ppc.INDEPENDENT,
        "42b1394e2a2b38d617b5c3927633f4dbd77a08c9b536f4e7a49cf3331e886962",
        "0x1.f85cd9dbccda4p-5"),
    "accuracy-bayesian": (
        classification_check, ppc.AccuracyStatistic(), ppc.BAYESIAN,
        "5d454034642914717b1e100e93012c5849a542d50b4132f299c11e960f25d46e",
        "0x1.999999999999ap-2"),
    "calibration-independent": (
        regression_check, ppc.CalibrationErrorStatistic(), ppc.INDEPENDENT,
        "774842a3609c2641192da88d3ad781b31aff5312dbef5fc7403932b1b7bf0d52",
        "0x1.2edda14e2b30cp-2"),
    "calibration-bayesian": (
        regression_check, ppc.CalibrationErrorStatistic(), ppc.BAYESIAN,
        "ed63365329b15b02b32d44364a8d1fad132c27d5d29243f35f5b8d81ce1d2e2d",
        "0x1.2edda14e2b30cp-2"),
    "picp-point:0": (
        regression_check, ppc.PicpStatistic(), ppc.PointEstimate(0),
        "7f5bcd21709f68390683ee7f15aee73f1782d66c6fa56686b1d4feb19e36d60d",
        "0x1.c000000000000p-1"),
    "custom-bayesian": (
        classification_check, AgreementWithClassZero(), ppc.BAYESIAN,
        "80813aa16ea46dee48460188ea2a16c91f22bec6bdabfb20a8eb324e97124765",
        "0x1.1111111111111p-1"),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_sample_bytes_and_observed_value_are_pinned(name):
    make, statistic, mode, samples_sha256, observed_hex = CHECKS[name]
    preds, labels = make()
    ss = ppc.sample_statistic(preds, None, statistic, mode, num_replicates=150,
                              seed=11, threads=1)
    observed = float(statistic.evaluate(labels, ss.context))
    assert (hashlib.sha256(ss.samples.tobytes()).hexdigest(), observed.hex()) == (
        samples_sha256, observed_hex)
