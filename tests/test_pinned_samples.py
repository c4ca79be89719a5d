"""Pinned bytes of one small fixed check per statistic reader.

A refactor that keeps the engine's behaviour keeps these digests: the sha256 of
`sample_statistic(...).samples.tobytes()` and the observed value's `float.hex`.
They pin sample bytes, not report files, so a version bump does not move them;
a change that breaks the replicate stream updates them on purpose. The public label
draw, `replicate_labels`, is pinned too: it is the label reader's block of one, and
has kept its bytes since 0.3.0, when the engine drew one replicate at a time.
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
        "dfee2fe84723c64ee9a383a4a9c4054162dded1ad5a0d1ce7ebfa26ec0bf67f2",
        "0x1.2edda14e2b30cp-2"),
    "picp-point:0": (
        regression_check, ppc.PicpStatistic(), ppc.PointEstimate(0),
        "7f5bcd21709f68390683ee7f15aee73f1782d66c6fa56686b1d4feb19e36d60d",
        "0x1.c000000000000p-1"),
    "custom-bayesian": (
        classification_check, AgreementWithClassZero(), ppc.BAYESIAN,
        "471d5a287395909d84cdc97430d481ff4458543007480280f2a136476c076456",
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


# (fixture, mode) -> sha256 of 20 `replicate_labels` draws, member m weighted m + 1
LABEL_DRAWS = {
    ("classification", "bayesian"):
        "f78cc80cf554a09cb262a5c85419e44879859d4f784137415d90396d8959800a",
    ("classification", "independent"):
        "9d066d8d2e68ced058ad8578d264f0cd6764c2c2a3084fc8cc755be88b624964",
    ("classification", "point:3"):
        "d4948467cccec9e14d804fccbf2f769c9bb7e7516f9ac779b6b350e93229afc2",
    ("regression", "bayesian"):
        "ed3cb28df69f7cb104c3713fad35d8f8ef35cf0990085bcf196833b9f7a3c62e",
    ("regression", "independent"):
        "c70c643b661480b90a2fd3b2e647cddc0adbe1e2e0d435db8efb5825413ebf71",
    ("regression", "point:2"):
        "8b11f46e64efb1449d291f6c00eed6bd86a1fb21734abb3f76939699ea433642",
}


@pytest.mark.parametrize("fixture,mode", list(LABEL_DRAWS), ids="-".join)
def test_replicate_labels_bytes_are_pinned(fixture, mode):
    preds, _ = (classification_check if fixture == "classification" else regression_check)()
    weights = np.arange(1.0, preds.num_models + 1)
    digest = hashlib.sha256()
    for k in range(20):
        digest.update(ppc.replicate_labels(preds, (weights / weights.sum()).tolist(),
                                           ppc.parse_mode(mode),
                                           ppc.replicate_rng(11, k)).tobytes())
    assert digest.hexdigest() == LABEL_DRAWS[fixture, mode]
