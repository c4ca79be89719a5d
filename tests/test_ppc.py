import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ppc_uq import ppc, oracle
from ppc_uq import statistics as st
from ppc_uq.predictive import (Categorical, Gaussian, InvalidParameterError,
                               MixturePredictive, PosteriorWeights, mixture_sample)

from conftest import ks_uniform


def two_model_onehot(n=2):
    probs = np.zeros((n, 2, 2))
    probs[:, 0, 0] = 1.0
    probs[:, 1, 1] = 1.0
    return st.EnsemblePredictions.from_probs(probs)


@dataclass(frozen=True)
class SingleObservationPit:
    """Replicated-data PIT of a one-row regression problem."""

    kind = st.REGRESSION
    name = "single-pit"

    def evaluate(self, labels, ctx):
        return float(st.pit_from_gaussians(ctx.preds.means, ctx.preds.stds, ctx.weights,
                                           np.asarray(labels))[0])


class TestReplicateLabels:
    def test_single_model_streams_identical(self):
        preds = st.EnsemblePredictions.from_gaussians(
            np.zeros((5, 1)), np.ones((5, 1)))
        outs = []
        for mode in (ppc.BAYESIAN, ppc.INDEPENDENT, ppc.PointEstimate(0)):
            rng = ppc.replicate_rng(7, 0)
            outs.append(ppc.replicate_labels(preds, None, mode, rng))
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])

    def test_bayesian_shares_one_model(self):
        preds = two_model_onehot()
        for k in range(500):
            y = ppc.replicate_labels(preds, None, ppc.BAYESIAN,
                                     ppc.replicate_rng(1, k))
            assert tuple(y) in ((0, 0), (1, 1))

    def test_independent_mixes_models(self):
        preds = two_model_onehot()
        count = 0
        reps = 10_000
        for k in range(reps):
            y = ppc.replicate_labels(preds, None, ppc.INDEPENDENT,
                                     ppc.replicate_rng(1, k))
            count += tuple(y) == (0, 1)
        assert count / reps == pytest.approx(0.25, abs=0.01)

    def test_point_estimate_index_validated(self):
        with pytest.raises(InvalidParameterError):
            ppc.replicate_labels(two_model_onehot(), None, ppc.PointEstimate(5),
                                 ppc.replicate_rng(0, 0))

    def test_marginal_equivalence_per_row(self, rng):
        raw = rng.random((3, 4, 3))
        probs = raw / raw.sum(axis=2, keepdims=True)
        preds = st.EnsemblePredictions.from_probs(probs)
        reps = 10_000
        freqs = {}
        for mode in (ppc.BAYESIAN, ppc.INDEPENDENT):
            counts = np.zeros((3, 3))
            for k in range(reps):
                y = ppc.replicate_labels(preds, None, mode, ppc.replicate_rng(2, k))
                counts[np.arange(3), y] += 1
            freqs[mode.describe()] = counts / reps
        # both match the integrated per-row marginal within binomial CI
        marginal = st.integrated_class_probs(preds)
        for f in freqs.values():
            assert np.max(np.abs(f - marginal)) < 3.5 * math.sqrt(0.25 / reps) + 0.005


class TestSharedSampler:
    """mixture_sample and the engine's draw are one kernel: a mixture tiled
    over n rows replicates exactly what n mixture draws give."""

    @pytest.mark.parametrize("weights", [(1.0,), (0.2, 0.5, 0.3)])
    def test_gaussian(self, weights):
        comps = tuple(Gaussian(m, s) for m, s in
                      list(zip((-1.0, 0.4, 2.5), (0.7, 1.3, 0.2)))[:len(weights)])
        mix = MixturePredictive(comps, PosteriorWeights(weights))
        n = 257
        preds = st.EnsemblePredictions.from_gaussians(
            np.tile([c.mean for c in comps], (n, 1)),
            np.tile([c.stddev for c in comps], (n, 1)))
        expected = mixture_sample(mix, np.random.default_rng(4), size=n)
        got = ppc.replicate_labels(preds, mix.weights, ppc.INDEPENDENT,
                                   np.random.default_rng(4))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("weights", [(1.0,), (0.6, 0.1, 0.3)])
    def test_categorical(self, weights):
        table = ((0.1, 0.6, 0.3), (0.5, 0.25, 0.25), (0.0, 0.2, 0.8))[:len(weights)]
        mix = MixturePredictive(tuple(Categorical(p) for p in table),
                                PosteriorWeights(weights))
        n = 257
        preds = st.EnsemblePredictions.from_probs(np.tile(table, (n, 1, 1)))
        expected = mixture_sample(mix, np.random.default_rng(9), size=n)
        got = ppc.replicate_labels(preds, mix.weights, ppc.INDEPENDENT,
                                   np.random.default_rng(9))
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


class TestSampleStatistic:
    def test_deterministic_predictive_all_ones(self):
        probs = np.zeros((10, 1, 2))
        probs[:, 0, 0] = 1.0
        preds = st.EnsemblePredictions.from_probs(probs)
        ss = ppc.sample_statistic(preds, None, ppc.AccuracyStatistic(),
                                  ppc.PointEstimate(0), num_replicates=50, seed=0)
        np.testing.assert_array_equal(ss.samples, 1.0)

    def test_bayesian_accuracy_frequencies(self):
        ss = ppc.sample_statistic(two_model_onehot(), None, ppc.AccuracyStatistic(),
                                  ppc.BAYESIAN, num_replicates=10_000, seed=3)
        assert set(np.unique(ss.samples)) <= {0.0, 1.0}
        assert np.mean(ss.samples == 1.0) == pytest.approx(0.5, abs=0.02)

    def test_independent_accuracy_frequencies(self):
        ss = ppc.sample_statistic(two_model_onehot(), None, ppc.AccuracyStatistic(),
                                  ppc.INDEPENDENT, num_replicates=10_000, seed=3)
        assert set(np.unique(ss.samples)) <= {0.0, 0.5, 1.0}
        assert np.mean(ss.samples == 0.0) == pytest.approx(0.25, abs=0.02)
        assert np.mean(ss.samples == 0.5) == pytest.approx(0.5, abs=0.02)
        assert np.mean(ss.samples == 1.0) == pytest.approx(0.25, abs=0.02)

    def test_kind_mismatch(self):
        with pytest.raises(st.KindMismatchError):
            ppc.sample_statistic(two_model_onehot(), None,
                                 ppc.CalibrationErrorStatistic(), ppc.BAYESIAN)

    def test_determinism_across_thread_counts(self):
        preds = two_model_onehot(4)
        runs = [ppc.sample_statistic(preds, None, ppc.EceStatistic(), ppc.BAYESIAN,
                                     num_replicates=500, seed=9, threads=t).samples
                for t in (1, 2, 8)]
        np.testing.assert_array_equal(runs[0], runs[1])
        np.testing.assert_array_equal(runs[0], runs[2])

    def test_m1_mode_collapse_bit_identical(self):
        probs = np.zeros((6, 1, 3))
        probs[:, 0] = [0.2, 0.5, 0.3]
        preds = st.EnsemblePredictions.from_probs(probs)
        sets = [ppc.sample_statistic(preds, None, ppc.EceStatistic(), mode,
                                     num_replicates=300, seed=4).samples
                for mode in (ppc.BAYESIAN, ppc.INDEPENDENT, ppc.PointEstimate(0))]
        np.testing.assert_array_equal(sets[0], sets[1])
        np.testing.assert_array_equal(sets[0], sets[2])

    def test_single_observation_pit_uniform(self):
        # replicated-data PIT of one observation is Uniform(0,1) under
        # Bayesian sampling, for any mixture
        means = np.array([[-1.0, 0.3, 2.0]])
        stds = np.array([[0.5, 1.5, 0.9]])
        preds = st.EnsemblePredictions.from_gaussians(means, stds)
        ss = ppc.sample_statistic(preds, None, SingleObservationPit(),
                                  ppc.BAYESIAN, num_replicates=100_000, seed=11)
        assert ks_uniform(ss.samples) < 0.01


@hst.composite
def engine_cases(draw, kind):
    """A small random ensemble, labels, statistic and mode of the given kind."""
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    n = draw(hst.integers(1, 20))
    m = draw(hst.integers(1, 3))
    if kind == st.CLASSIFICATION:
        c = draw(hst.integers(2, 4))
        preds = st.EnsemblePredictions.from_logits(rng.normal(0, 2, (n, m, c)))
        labels = rng.integers(0, c, n)
        statistic = ppc.EceStatistic(st.BinningConfig(draw(hst.integers(1, 15))))
    else:
        preds = st.EnsemblePredictions.from_gaussians(
            rng.normal(0, 1, (n, m)), rng.uniform(0.2, 2, (n, m)))
        labels = rng.normal(0, 2, n)
        statistic = ppc.CalibrationErrorStatistic()
    mode = draw(hst.sampled_from([ppc.BAYESIAN, ppc.INDEPENDENT,
                                  ppc.PointEstimate(m - 1)]))
    return preds, labels, statistic, mode


class TestEngineProperties:
    """Invariants of sample_statistic and run_ppc over random small inputs."""

    @pytest.mark.parametrize("kind", [st.CLASSIFICATION, st.REGRESSION])
    @given(data=hst.data())
    @settings(max_examples=50, deadline=None)
    def test_replicates_are_prefix_invariant(self, kind, data):
        preds, _, statistic, mode = data.draw(engine_cases(kind))
        r = data.draw(hst.integers(1, 48))
        k = data.draw(hst.integers(1, 64 - r))
        seed = data.draw(hst.integers(0, 2 ** 31 - 1))
        short = ppc.sample_statistic(preds, None, statistic, mode,
                                     num_replicates=r, seed=seed, threads=1)
        long = ppc.sample_statistic(preds, None, statistic, mode,
                                    num_replicates=r + k, seed=seed, threads=2)
        np.testing.assert_array_equal(short.samples, long.samples[:r])

    @pytest.mark.parametrize("kind", [st.CLASSIFICATION, st.REGRESSION])
    @given(data=hst.data())
    @settings(max_examples=50, deadline=None)
    def test_p_value_in_unit_interval(self, kind, data):
        preds, labels, statistic, mode = data.draw(engine_cases(kind))
        r = data.draw(hst.integers(2, 64))
        report = ppc.run_ppc(preds, None, labels, statistic, mode,
                             num_replicates=r, seed=data.draw(hst.integers(0, 99)),
                             threads=1)
        assert 0.0 <= report.p_value <= 1.0


class TestPValue:
    def test_midpoint(self):
        assert ppc.p_value(np.array([1.0, 2, 3, 4]), 2.5) == 0.5

    def test_extremes(self):
        samples = np.array([1.0, 2, 3, 4])
        assert ppc.p_value(samples, 0.5) == 0.0
        assert ppc.p_value(samples, 5.0) == 1.0

    def test_ties_count_as_not_less(self):
        assert ppc.p_value(np.array([1.0, 2, 2, 3]), 2.0) == 0.25

    def test_empty(self):
        with pytest.raises(st.EmptyInputError):
            ppc.p_value(np.array([]), 0.0)


class TestSharpness:
    def test_constant(self):
        assert ppc.sharpness(np.zeros(10)) == 0.0

    def test_interpolated_101_points(self):
        assert ppc.sharpness(np.arange(101.0)) == pytest.approx(90.0)

    def test_two_points(self):
        assert ppc.sharpness(np.array([0.0, 10.0])) == pytest.approx(9.0)

    def test_needs_two(self):
        with pytest.raises(st.EmptyInputError):
            ppc.sharpness(np.array([1.0]))


class TestRunPpc:
    def test_self_consistency_point_estimate(self):
        # data generated by the model itself should pass
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 400
            means = rng.normal(0, 1, n)
            stds = np.full(n, 1.2)
            y = means + stds * rng.standard_normal(n)
            preds = st.EnsemblePredictions.from_gaussians(means[:, None],
                                                          stds[:, None])
            rep = ppc.run_ppc(preds, None, y, ppc.CalibrationErrorStatistic(),
                              ppc.PointEstimate(0), num_replicates=1000, seed=seed)
            assert 0.0 < rep.p_value < 1.0
            assert rep.passed

    def test_location_counterexample(self):
        # correct two-level model: ignoring model uncertainty fails the check,
        # honoring it passes
        n, m = 1000, 100
        rng = np.random.default_rng(5)
        y = 0.5 + rng.standard_normal(n)
        marginal = st.EnsemblePredictions.from_gaussians(
            np.zeros((n, 1)), np.full((n, 1), math.sqrt(2.0)))
        stat = ppc.CalibrationErrorStatistic()
        rep_point = ppc.run_ppc(marginal, None, y, stat, ppc.PointEstimate(0),
                                num_replicates=500, seed=5)
        assert rep_point.p_value == 1.0
        assert not rep_point.passed

        theta = np.random.default_rng(6).standard_normal(m)
        bayes = st.EnsemblePredictions.from_gaussians(
            np.tile(theta, (n, 1)), np.ones((n, m)))
        rep_bayes = ppc.run_ppc(bayes, None, y, stat, ppc.BAYESIAN,
                                num_replicates=500, seed=5)
        assert 0.0 < rep_bayes.p_value < 1.0
        assert rep_bayes.passed

    def test_nan_label_is_rejected_not_counted(self):
        preds = st.EnsemblePredictions.from_gaussians(np.zeros((3, 1)), np.ones((3, 1)))
        for stat in (ppc.PicpStatistic(), ppc.CalibrationErrorStatistic()):
            with pytest.raises(InvalidParameterError, match="finite"):
                ppc.run_ppc(preds, None, [0.0, float("nan"), 1.0], stat,
                            ppc.BAYESIAN, num_replicates=10)

    def test_report_invariants(self):
        preds = two_model_onehot(4)
        rep = ppc.run_ppc(preds, None, [0, 0, 1, 1], ppc.AccuracyStatistic(),
                          ppc.INDEPENDENT, num_replicates=400, seed=1)
        pct = rep.percentiles
        assert pct["p5"] <= pct["p25"] <= pct["p50"] <= pct["p75"] <= pct["p95"]
        assert rep.passed == (rep.p_value not in (0.0, 1.0))
        assert rep.sharpness >= 0.0


class TestCorrelationWidensDistribution:
    """Shared-model sampling spreads the statistic more than per-row sampling.

    The exact q95 - q5 width is 1.0 in BOTH modes for the two-model one-hot
    instance (the independent PMF {0: .25, .5: .5, 1: .25} keeps over 5%
    mass on each endpoint), so the widening shows up in the dispersion of
    the enumerated PMFs, not in the 5-95 width.
    """

    def test_sharpness_matches_enumeration(self):
        preds = two_model_onehot()
        stat = ppc.AccuracyStatistic()
        for mode in (ppc.BAYESIAN, ppc.INDEPENDENT):
            ss = ppc.sample_statistic(preds, None, stat, mode,
                                      num_replicates=20_000, seed=8)
            assert ppc.sharpness(ss) == pytest.approx(1.0, abs=1e-9)

    def test_enumerated_variance_ordering(self):
        preds = two_model_onehot()
        stat = ppc.AccuracyStatistic()
        spreads = {}
        for mode in (ppc.BAYESIAN, ppc.INDEPENDENT):
            pmf = oracle.exact_statistic_distribution(preds, None, stat, mode)
            mean = pmf.values @ pmf.masses
            spreads[mode.describe()] = ((pmf.values - mean) ** 2) @ pmf.masses
        assert spreads["bayesian"] == pytest.approx(0.25)
        assert spreads["independent"] == pytest.approx(0.125)
        assert spreads["bayesian"] > spreads["independent"]
