"""Power: an ensemble whose mixture is right but whose members are each
overconfident and disagree is a bad model that calibration error trusts.

Scored against the mixture (`independent`), its calibration looks fine; the
`bayesian` check draws one member per replicate, and a single member is far
too narrow for the data, so it must FAIL with p = 0.

The seeds (0-9) and the counts were fixed before the first run. A correct
engine FAILs an `independent` check on a calibrated model with probability
about 2 / (R + 1) per seed, so at R = 300 one such FAIL in ten seeds is
allowed and two (chance < 0.3%) are not. `bayesian` must FAIL on every seed.

A known limit of the `0 < p < 1` rule, not tested here: on the classification
fixture, accuracy under `bayesian` PASSes (p = 0.75 at seed 0). Its replicates
are bimodal and the observed value lies between the modes, so it is not
extreme.
"""
import numpy as np
import pytest
from scipy.special import ndtri

from ppc_uq import ppc
from ppc_uq import statistics as st

SEEDS = range(10)
N, R = 2000, 300
MIN_INDEPENDENT_PASSES = 9


def narrow_gaussian_members(n=N, models=20):
    """M members N(c_m, s^2), c_m = Phi^-1((m + 1/2) / M), s^2 = 1 - Var(c):
    their mixture is close to N(0, 1), each member is narrow (s ~ 0.25)."""
    centres = ndtri((np.arange(models) + 0.5) / models)
    spread = np.sqrt(1.0 - centres.var())
    return st.EnsemblePredictions.from_gaussians(
        np.tile(centres, (n, 1)), np.full((n, models), spread))


def confident_class_members(n=N, classes=4, confidence=0.96):
    """Member m puts `confidence` on class m and the rest evenly elsewhere."""
    member = np.full((classes, classes), (1.0 - confidence) / (classes - 1))
    np.fill_diagonal(member, confidence)
    return st.EnsemblePredictions.from_probs(np.tile(member, (n, 1, 1)))


def regression_case(seed):
    return narrow_gaussian_members(), np.random.default_rng(seed).standard_normal(N)


def classification_case(seed):
    preds = confident_class_members()
    integrated = preds.probs[0].mean(axis=0)
    labels = np.random.default_rng(seed).choice(integrated.size, size=N, p=integrated)
    return preds, labels


@pytest.mark.parametrize("case,statistic", [
    (regression_case, ppc.CalibrationErrorStatistic()),
    (classification_case, ppc.EceStatistic()),
], ids=["regression-calibration", "classification-ece"])
def test_bayesian_check_rejects_what_calibration_error_trusts(case, statistic):
    independent_passes, bayesian_p = 0, []
    for seed in SEEDS:
        preds, labels = case(seed)
        independent_passes += ppc.run_ppc(preds, None, labels, statistic,
                                          ppc.INDEPENDENT, num_replicates=R,
                                          seed=seed).passed
        bayesian_p.append(ppc.run_ppc(preds, None, labels, statistic, ppc.BAYESIAN,
                                      num_replicates=R, seed=seed).p_value)
    assert independent_passes >= MIN_INDEPENDENT_PASSES
    assert bayesian_p == [0.0] * len(SEEDS)
