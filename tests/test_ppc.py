import dataclasses
import json
import math
import pickle
import platform
import re
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as hst
from scipy.stats import chisquare, ks_2samp

from ppc_uq import analytic, ppc, oracle, predictive
from ppc_uq import statistics as st
from ppc_uq.predictive import (Gaussian, InvalidParameterError,
                               MixturePredictive, PosteriorWeights, mixture_sample,
                               pit_from_gaussians)

from conftest import edge_probs, ks_uniform


def criterion_5_ensemble():
    """The quadratic OOD ensemble of acceptance criterion 5: N = 2,000, M = 50."""
    xt, yt, xo, _ = analytic.generate_quadratic_dataset(
        analytic.QuadraticDatasetConfig(n=20, seed=0), n_ood=2000)
    return analytic.bayesian_linear_ensemble(analytic.BayesianLinearEnsembleConfig(
        num_models=50, prior_precision=0.5, seed=0), xt, yt, xo)


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


class UniformStub:
    """Stands in for a Generator: `random` hands out preset uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


def band_probes(ctx, member):
    """(lo, hi): the band (lo, hi] of [0, 1) in which the label draw's
    uniform gives each row its predicted class under `member`, read off the
    CDF as the label draw reads it: a CDF value outside [0, 1] counts as 0 or
    1, and class 0 also gets the point 0, which has no length."""
    n = ctx.predicted.size
    cums = ctx.class_cums[np.arange(n), member]
    hi = cums[np.arange(n), ctx.predicted]
    lo = np.where(ctx.predicted > 0, cums[np.arange(n), ctx.predicted - 1], 0.0)
    return np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)


def label_draw_hits(preds, ctx, member, uniforms):
    """`labels == predicted` of the public label draw under `member`, fed one
    preset uniform per row."""
    labels = ppc.replicate_labels(preds, None, ppc.PointEstimate(member),
                                  UniformStub(uniforms))
    return labels == ctx.predicted


def expected_hit_law(mode, weights, masses):
    """(member_weights, q) of each mode's law from the member band masses [M, N]."""
    if isinstance(mode, ppc.Bayesian):
        return weights, masses
    if isinstance(mode, ppc.ConditionallyIndependent):
        return np.ones(1), (weights @ masses)[None]
    return np.ones(1), masses[[mode.index]]


class TestHitDraw:
    """The hit law the engine draws from equals the label draw's law of
    `labels == predicted`, exactly and with no RNG: each member's mass is the
    length of the band in which the label draw's uniform hits, and each mode
    mixes those masses as its members are drawn."""

    @given(probs=edge_probs(), data=hst.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_label_draw(self, probs, data):
        preds = st.EnsemblePredictions.from_probs(probs)
        ctx = ppc.build_context(preds)
        n, m, _ = probs.shape
        masses = np.empty((m, n))
        for member in range(m):
            lo, hi = band_probes(ctx, member)
            inside = hi > lo
            # the label draw hits on (lo, hi] and nowhere next to it in [0, 1)
            above_lo = label_draw_hits(preds, ctx, member, np.nextafter(lo, 2.0))
            np.testing.assert_array_equal(above_lo[lo < 1.0], inside[lo < 1.0])
            assert label_draw_hits(preds, ctx, member, hi)[inside].all()
            above_hi = label_draw_hits(preds, ctx, member, np.nextafter(hi, 2.0))
            assert not above_hi[hi < 1.0].any()
            masses[member] = hi - lo
        mode = data.draw(hst.sampled_from([ppc.BAYESIAN, ppc.INDEPENDENT,
                                           ppc.PointEstimate(m - 1)]))
        weights, q = mode.law(ctx.weights, ppc.AccuracyStatistic().hit_mass(ctx))
        want_weights, want_q = expected_hit_law(mode, ctx.weights, masses)
        assert weights.tobytes() == want_weights.tobytes()
        assert q.shape == want_q.shape and q.flags.c_contiguous
        assert q.tobytes() == want_q.tobytes()

    def test_uniforms_on_cdf_values(self):
        # member 0 has CDF (0.25, 0.75, 1) and member 1 (0.125, 0.75, 1) on
        # rows 0-5, the integrated prediction is class 1, and the bands are
        # (0.25, 0.75] and (0.125, 0.75]; on row 6 member 1 has a first entry
        # of -1e-12, whose CDF value counts as 0, so its band is [0, 0.5 - 1e-12]
        probs = np.tile([[0.25, 0.5, 0.25], [0.125, 0.625, 0.25]], (7, 1, 1))
        probs[6, 1] = [-1e-12, 0.5, 0.5 + 1e-12]
        preds = st.EnsemblePredictions.from_probs(probs)
        ctx = ppc.build_context(preds)
        np.testing.assert_array_equal(ctx.predicted, 1)
        uniforms = [0.25, 0.75, 0.0, 0.125, 0.75, np.nextafter(0.75, 1.0), 0.0]
        np.testing.assert_array_equal(label_draw_hits(preds, ctx, 0, uniforms),
                                      [False, True, False, False, True, False, False])
        np.testing.assert_array_equal(label_draw_hits(preds, ctx, 1, uniforms),
                                      [True, True, False, False, True, False, True])
        row6 = np.cumsum([-1e-12, 0.5])[1]
        want = np.array([[0.5] * 7, [0.625] * 6 + [row6]])
        assert want[1, 6] != 0.5
        hit_mass = ppc.AccuracyStatistic().hit_mass(ctx)
        for mode, q in ((ppc.BAYESIAN, want), (ppc.PointEstimate(1), want[[1]]),
                        (ppc.INDEPENDENT, [[0.5625] * 6 + [0.25 + row6 / 2]])):
            np.testing.assert_array_equal(mode.law(ctx.weights, hit_mass)[1], q)


class TestLabelDrawReference:
    """sample_statistic on ece and accuracy (the hit law) agrees in law with
    a loop over the public label draw: a two-sample KS test at p >= 0.001,
    on samples of 2,000 each from independent seeds."""

    @pytest.mark.parametrize("statistic", [ppc.EceStatistic(), ppc.AccuracyStatistic()],
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("mode", [ppc.BAYESIAN, ppc.INDEPENDENT, ppc.PointEstimate(2)],
                             ids=lambda m: m.describe())
    @pytest.mark.parametrize("threads", [1, 2])
    def test_engine_equals_label_loop(self, statistic, mode, threads):
        rng = np.random.default_rng(21)
        preds = st.EnsemblePredictions.from_logits(rng.normal(0, 2, (40, 3, 4)))
        reps = 2000
        ctx = ppc.build_context(preds)
        expected = [statistic.evaluate(ppc.replicate_labels(
            preds, None, mode, ppc.replicate_rng(9, k)), ctx) for k in range(reps)]
        got = ppc.sample_statistic(preds, None, statistic, mode, num_replicates=reps,
                                   seed=8, threads=threads)
        assert ks_2samp(got.samples, expected).pvalue >= 0.001


def rank_test_ensembles():
    """The false-FAIL rank test's ensembles, N = 12 and M = 3, by kind."""
    rng = np.random.default_rng(31)
    return {st.REGRESSION: st.EnsemblePredictions.from_gaussians(
                rng.normal(0.0, 1.0, (12, 3)), rng.uniform(0.3, 1.5, (12, 3))),
            st.CLASSIFICATION: st.EnsemblePredictions.from_logits(
                rng.normal(0.0, 3.0, (12, 3, 3)))}


class TestFalseFailRate:
    """Labels drawn by a mode's own process (a member, then labels) are
    exchangeable with that mode's replicates, so the observed value's rank among
    R of them, ties broken at random, is uniform on {0, ..., R} (Barnard 1963;
    Besag & Clifford 1989). This joins the observed path (`evaluate` on the
    labels, `p_value`'s strict inequality) to each replicate path. Each case is a
    chi-square test of SEEDS ranks, pooled into BINS groups of equal size, at
    level ALPHA, so the 12 cases raise a false alarm with probability below 1e-3."""

    R, SEEDS, BINS = 19, 120, 5
    ALPHA = 1e-3 / 12
    ENSEMBLES = rank_test_ensembles()

    @pytest.mark.parametrize("statistic", [ppc.CalibrationErrorStatistic(),
                                           ppc.PicpStatistic(), ppc.EceStatistic(),
                                           ppc.AccuracyStatistic()], ids=lambda s: s.name)
    @pytest.mark.parametrize("mode", [ppc.BAYESIAN, ppc.INDEPENDENT, ppc.PointEstimate(1)],
                             ids=lambda m: m.describe())
    def test_observed_rank_among_replicates_is_uniform(self, statistic, mode):
        preds = self.ENSEMBLES[statistic.kind]
        tie_break = np.random.default_rng(32)
        ranks = []
        for check_seed in range(self.SEEDS):
            labels = ppc.replicate_labels(preds, None, mode,
                                          np.random.default_rng(10 ** 6 + check_seed))
            ss = ppc.sample_statistic(preds, None, statistic, mode, num_replicates=self.R,
                                      seed=check_seed, threads=1)
            observed = statistic.evaluate(labels, ss.context)
            below = round(ppc.p_value(ss, observed) * self.R)
            ties = np.count_nonzero(ss.samples == observed)
            ranks.append(below + tie_break.integers(ties + 1))
        ranks = np.array(ranks)
        assert ranks.max() <= self.R
        counts = np.bincount(ranks // ((self.R + 1) // self.BINS), minlength=self.BINS)
        assert chisquare(counts).pvalue >= self.ALPHA


def poisson_binomial_ks(pmf, samples) -> float:
    """KS distance between the empirical law of samples on the support of a
    discrete PMF and that PMF."""
    assert np.isin(samples, pmf.values).all()
    empirical = np.searchsorted(np.sort(samples), pmf.values, side="right") / samples.size
    return float(np.max(np.abs(empirical - np.cumsum(pmf.masses))))


class TestExactLaws:
    """The engine's replicates follow their exact laws at benchmark scale."""

    @pytest.mark.parametrize("mode", [ppc.BAYESIAN, ppc.INDEPENDENT, ppc.PointEstimate(3)],
                             ids=lambda m: m.describe())
    def test_accuracy_agrees_with_the_poisson_binomial(self, mode):
        # N = 2,000 rows; 4,000 replicates; the bound 0.031 is the KS critical
        # value 1.95 / sqrt(4000) at level 0.001
        rng = np.random.default_rng(71)
        preds = st.EnsemblePredictions.from_logits(rng.normal(0, 1.5, (2000, 5, 3)))
        stat = ppc.AccuracyStatistic()
        pmf = oracle.exact_statistic_distribution(preds, None, stat, mode)
        ss = ppc.sample_statistic(preds, None, stat, mode, num_replicates=4000, seed=72)
        assert poisson_binomial_ks(pmf, ss.samples) < 0.031

    @pytest.mark.parametrize("statistic", [ppc.CalibrationErrorStatistic(),
                                           ppc.PicpStatistic()], ids=lambda s: s.name)
    def test_independent_pit_statistics_match_label_loop(self, statistic):
        # the U(0, 1) draws of the independent PIT law against a loop over the
        # public label draw and the Gaussian-mixture CDF: a two-sample KS test
        # at p >= 0.001, 2,000 replicates each from independent seeds
        rng = np.random.default_rng(73)
        preds = st.EnsemblePredictions.from_gaussians(
            rng.normal(0, 2, (200, 5)), rng.uniform(0.3, 1.5, (200, 5)))
        ctx = ppc.build_context(preds)
        reps = 2000
        expected = []
        for k in range(reps):
            y = ppc.replicate_labels(preds, None, ppc.INDEPENDENT, ppc.replicate_rng(75, k))
            pit = st.pit_from_gaussians(preds.means, preds.stds, ctx.weights, y)
            expected.append(statistic.kernel(ctx)(pit))
        got = ppc.sample_statistic(preds, None, statistic, ppc.INDEPENDENT,
                                   num_replicates=reps, seed=74)
        assert ks_2samp(got.samples, expected).pvalue >= 0.001


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

    def test_determinism_across_thread_counts(self, monkeypatch):
        monkeypatch.setattr(ppc, "_usable_cpus", lambda: 8)   # 8 real workers
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
    """A small random ensemble, labels, built-in statistic and mode of the
    given kind."""
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    n = draw(hst.integers(1, 20))
    m = draw(hst.integers(1, 3))
    if kind == st.CLASSIFICATION:
        c = draw(hst.integers(2, 4))
        preds = st.EnsemblePredictions.from_logits(rng.normal(0, 2, (n, m, c)))
        labels = rng.integers(0, c, n)
        statistic = draw(hst.sampled_from([
            ppc.EceStatistic(st.BinningConfig(draw(hst.integers(1, 15)))),
            ppc.AccuracyStatistic()]))
    else:
        preds = st.EnsemblePredictions.from_gaussians(
            rng.normal(0, 1, (n, m)), rng.uniform(0.2, 2, (n, m)))
        labels = rng.normal(0, 2, n)
        statistic = draw(hst.sampled_from([ppc.CalibrationErrorStatistic(),
                                           ppc.PicpStatistic()]))
    mode = draw(hst.sampled_from([ppc.BAYESIAN, ppc.INDEPENDENT,
                                  ppc.PointEstimate(m - 1)]))
    return preds, labels, statistic, mode


def labels_at_levels(preds, weights, levels):
    """Per row, the label whose exact PIT is levels[row], found by bisection
    until the two ends meet."""
    w = weights.as_array()
    lo, hi = np.full(preds.num_rows, -100.0), np.full(preds.num_rows, 100.0)
    for _ in range(200):
        mid = lo + (hi - lo) / 2
        below = pit_from_gaussians(preds.means, preds.stds, w, mid) < levels
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return hi


@hst.composite
def near_cut_cases(draw):
    """A regression case of `engine_cases` with random weights, whose labels or
    cuts are placed where the bracket of `_pit_near_cuts` must hand a row to
    the exact kernel. "quantile": some labels sit at a cut's quantile, so
    their PIT lies within 1e-12 of it. "grid": every z = (y - mean) / std is a
    grid point of the bracket table, so a row's lower bound and its exact PIT
    are sums of the same terms in different orders, and the cuts are exact PIT
    values of the rows."""
    preds, labels, statistic, mode = draw(engine_cases(st.REGRESSION))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    n, m = preds.num_rows, preds.num_models
    weights = PosteriorWeights.for_models(rng.dirichlet(np.ones(m)).tolist(), m)
    if draw(hst.sampled_from(["quantile", "grid"])) == "quantile":
        cuts = np.asarray(statistic.cuts)
        at_cut = rng.random(n) < 0.5
        placed = labels_at_levels(preds, weights, cuts[rng.integers(0, cuts.size, n)])
        labels = np.where(at_cut, placed, labels)
        return preds, weights, labels, statistic, mode
    # more rows and members than engine_cases draws, so that sums differ by order;
    # m >= 3 keeps the point mode's index in range
    n, m = int(rng.integers(2, 21)), int(rng.integers(3, 9))
    weights = PosteriorWeights.for_models(rng.dirichlet(np.ones(m)).tolist(), m)
    preds = st.EnsemblePredictions.from_gaussians(
        rng.integers(-1024, 1024, (n, m)) / 1024, rng.choice([0.25, 0.5, 1.0], (n, m)))
    labels = rng.integers(-2048, 2048, n) / 1024
    pit = pit_from_gaussians(preds.means, preds.stds, weights.as_array(), labels)
    levels = np.unique(np.concatenate([[0.5], pit[(pit > 0) & (pit < 1)]]))
    if isinstance(statistic, ppc.CalibrationErrorStatistic):
        statistic = ppc.CalibrationErrorStatistic(st.QuantileSet(tuple(levels.tolist())))
    else:
        bounds = np.sort(rng.choice(np.concatenate([[0.0, 1.0], levels]), 2, replace=False))
        statistic = ppc.PicpStatistic(float(bounds[0]), float(bounds[1]))
    return preds, weights, labels, statistic, mode


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
    @settings(max_examples=30, deadline=None)
    def test_replicates_are_thread_invariant(self, kind, data):
        preds, _, statistic, mode = data.draw(engine_cases(kind))
        seed = data.draw(hst.integers(0, 2 ** 31 - 1))
        with mock.patch.object(ppc, "_usable_cpus", return_value=3):  # 3 real workers
            runs = [ppc.sample_statistic(preds, None, statistic, mode, num_replicates=40,
                                         seed=seed, threads=t).samples.tobytes()
                    for t in (1, 2, 3)]
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("kind", [st.CLASSIFICATION, st.REGRESSION])
    @given(data=hst.data())
    @settings(max_examples=50, deadline=None)
    def test_p_value_in_unit_interval(self, kind, data):
        preds, labels, statistic, mode = data.draw(engine_cases(kind))
        r = data.draw(hst.integers(2, 64))
        seed = data.draw(hst.integers(0, 99))
        report = ppc.run_ppc(preds, None, labels, statistic, mode,
                             num_replicates=r, seed=seed, threads=1)
        assert 0.0 <= report.p_value <= 1.0
        # the report's sharpness comes from its percentile call, not `sharpness`
        replicates = ppc.sample_statistic(preds, None, statistic, mode,
                                          num_replicates=r, seed=seed, threads=1)
        assert report.sharpness.hex() == ppc.sharpness(replicates).hex()


    @pytest.mark.parametrize("statistic", [
        ppc.EceStatistic(), ppc.AccuracyStatistic(),
        ppc.CalibrationErrorStatistic(), ppc.PicpStatistic()], ids=lambda s: s.name)
    @given(data=hst.data())
    @settings(max_examples=40, deadline=None)
    def test_observed_value_is_row_permutation_invariant(self, statistic, data):
        preds, labels, _, _ = data.draw(engine_cases(statistic.kind))
        perm = np.asarray(data.draw(hst.permutations(range(preds.num_rows))))
        observed = statistic.evaluate(labels, ppc.build_context(preds))
        permuted = statistic.evaluate(labels[perm],
                                      ppc.build_context(preds.take_rows(perm)))
        assert abs(permuted - observed) <= 1e-12

    @given(case=near_cut_cases(), replicates=hst.integers(2, 40),
           seed_=hst.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    @seed(17)
    def test_pit_near_cuts_gives_the_values_of_exact_pit(self, case, replicates, seed_):
        preds, weights, labels, statistic, mode = case
        ctx = ppc.build_context(preds, weights)
        pit = pit_from_gaussians(preds.means, preds.stds, ctx.weights, labels)
        assert (statistic.evaluate(labels, ctx).hex()
                == statistic.kernel(ctx)(pit).hex())
        with mock.patch.object(ppc, "_pit_near_cuts",
                               lambda plan, y, scratch=None:
                               pit_from_gaussians(plan.means, plan.stds, plan.w, y)):
            exact = ppc.sample_statistic(preds, weights, statistic, mode,
                                         num_replicates=replicates, seed=seed_, threads=1)
        bracket = ppc.sample_statistic(preds, weights, statistic, mode,
                                       num_replicates=replicates, seed=seed_, threads=1)
        assert bracket.samples.tobytes() == exact.samples.tobytes()

    def test_chord_bracket_leaves_few_rows_to_the_exact_kernel(self):
        # on criterion 5's ensemble the cell bracket alone sent 40-49 rows per
        # replicate to the exact kernel
        preds = criterion_5_ensemble()
        exact_rows = []

        def exact(means, stds, w, y):
            exact_rows.append(y.size)
            return pit_from_gaussians(means, stds, w, y)
        with mock.patch.object(predictive, "pit_from_gaussians", exact):
            ppc.sample_statistic(preds, None, ppc.CalibrationErrorStatistic(), ppc.BAYESIAN,
                                 num_replicates=100, seed=0, threads=1)
        assert sum(exact_rows) <= 20

    @pytest.mark.parametrize("statistic", [ppc.CalibrationErrorStatistic(),
                                           ppc.PicpStatistic()], ids=lambda s: s.name)
    @pytest.mark.parametrize("mode", [ppc.BAYESIAN, ppc.PointEstimate(0)],
                             ids=lambda m: m.describe())
    def test_bracket_agrees_with_the_exact_kernel_on_extreme_members(self, statistic, mode):
        # stds whose std / 1024 is subnormal or 0 (those rows go to the exact
        # kernel), stds at the bound 2^-1012 and an ulp either side of it, labels
        # exactly at a member's mean (0 / 0 where std / 1024 is 0), |mean| ~ 1e15;
        # member 0, which point:0 draws from, holds the tiny stds
        tiny = 2.0 ** -1012
        stds = np.array([[5e-324, 1.0, 2.0], [1e-310, 0.5, 1.0], [tiny, 1.0, 0.3],
                         [np.nextafter(tiny, 0.0), 1.0, 1.0],
                         [np.nextafter(tiny, 1.0), 2.0, 1.0], [1.0, 1.0, 1.0],
                         [1.0, 0.7, 1.0], [0.5, 1.0, 1.0]])
        means = np.array([[0.3, 0.0, 1.0], [-2.0, 0.1, 0.0], [0.0, 0.5, -0.5],
                          [1.5, 0.0, 0.0], [0.25, 0.0, 1.0], [1e15, -1e15, 1e15 + 3],
                          [-1e15, -1e15 - 1.0, -1e15 + 2.0], [0.0, 0.2, -0.1]])
        preds = st.EnsemblePredictions.from_gaussians(means, stds)
        labels = np.array([0.3, -2.0, 0.1, 1.5, 0.25, 1e15, -1e15 + 0.5, 0.0])
        ctx = ppc.build_context(preds)
        plan = statistic.pit_plan(ctx)
        assert plan.tiny.tolist() == [0, 1, 3]      # the rows with a std below 2^-1012
        cuts = np.asarray(statistic.cuts)
        draws = np.random.default_rng(22)
        for y in [labels] + [ppc.replicate_labels(preds, None, mode, draws) for _ in range(50)]:
            pit = predictive._pit_near_cuts(plan, y)
            exact = pit_from_gaussians(preds.means, preds.stds, ctx.weights, y)
            for side in (np.less, np.less_equal):
                assert (side(pit[:, None], cuts) == side(exact[:, None], cuts)).all()
        assert (statistic.evaluate(labels, ctx).hex()
                == statistic.kernel(ctx)(pit_from_gaussians(
                    preds.means, preds.stds, ctx.weights, labels)).hex())
        with mock.patch.object(ppc, "_pit_near_cuts",
                               lambda plan, y, scratch=None:
                               pit_from_gaussians(plan.means, plan.stds, plan.w, y)):
            exact = ppc.sample_statistic(preds, None, statistic, mode,
                                         num_replicates=300, seed=4, threads=1)
        bracket = ppc.sample_statistic(preds, None, statistic, mode,
                                       num_replicates=300, seed=4, threads=1)
        assert bracket.samples.tobytes() == exact.samples.tobytes()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="counts the page faults of glibc's allocator; "
                               "another allocator reuses memory by other rules")
    def test_label_path_replicates_take_few_page_faults(self):
        # each block owns the bracket's [N, M] arrays and its replicates reuse
        # them; three fresh ones per replicate took about 550 faults each
        resource = pytest.importorskip("resource")
        preds = criterion_5_ensemble()

        def faults(num_replicates):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            ppc.sample_statistic(preds, None, ppc.CalibrationErrorStatistic(), ppc.BAYESIAN,
                                 num_replicates=num_replicates, seed=0, threads=1)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        faults(50)                          # first use: the CDF table
        assert (faults(500) - faults(50)) / 450 <= 20

    def test_picp_bound_at_each_rows_exact_pit(self):
        # every z on the bracket table's grid: a row's lower bound sums the
        # terms of its PIT in another order (BLAS against einsum), so it may lie
        # an ulp above; an upper bound placed at the PIT must still count the row
        rng = np.random.default_rng(20)
        n, m = 40, 17
        preds = st.EnsemblePredictions.from_gaussians(
            rng.integers(-1024, 1024, (n, m)) / 1024, rng.choice([0.25, 0.5, 1.0], (n, m)))
        labels = rng.integers(-2048, 2048, n) / 1024
        ctx = ppc.build_context(preds, PosteriorWeights(tuple(rng.dirichlet(np.ones(m)))))
        pit = pit_from_gaussians(preds.means, preds.stds, ctx.weights, labels)
        for upper in pit[(pit > 0) & (pit < 1)]:
            statistic = ppc.PicpStatistic(0.0, float(upper))
            assert statistic.evaluate(labels, ctx) == statistic.kernel(ctx)(pit)

    def test_near_cut_cases_place_pit_at_the_cuts(self):
        # the quantile placement puts PIT within 1e-12 of a level
        rng = np.random.default_rng(19)
        preds = st.EnsemblePredictions.from_gaussians(rng.normal(0, 1, (50, 3)),
                                                      rng.uniform(0.2, 2, (50, 3)))
        weights = PosteriorWeights((0.2, 0.3, 0.5))
        levels = np.asarray(ppc.CalibrationErrorStatistic().cuts)[rng.integers(0, 100, 50)]
        pit = pit_from_gaussians(preds.means, preds.stds, weights.as_array(),
                                 labels_at_levels(preds, weights, levels))
        assert np.abs(pit - levels).max() <= 1e-12

    def test_mode_is_checked_once_per_call(self, monkeypatch):
        calls = []
        check_mode = ppc.check_mode

        def counting_check(*args):
            calls.append(args)
            check_mode(*args)

        monkeypatch.setattr(ppc, "check_mode", counting_check)
        ppc.sample_statistic(two_model_onehot(), None, ppc.AccuracyStatistic(),
                             ppc.PointEstimate(1), num_replicates=20, threads=2)
        assert len(calls) == 1


class TestWorkerPool:
    """Every worker count runs the replicates through one pool path."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_replicate_error_reaches_the_caller(self, threads):
        class Failing:
            kind, name = st.CLASSIFICATION, "failing"

            def evaluate(self, labels, ctx):
                raise RuntimeError("replicate failed")

        with pytest.raises(RuntimeError, match="^replicate failed$"):
            ppc.sample_statistic(two_model_onehot(), None, Failing(), ppc.BAYESIAN,
                                 num_replicates=4, threads=threads)

    @staticmethod
    def inline_pool(monkeypatch) -> list:
        """Replace the pool by one that runs the blocks on the calling thread;
        the returned list records each `max_workers` asked for."""
        asked = []

        class InlineExecutor:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(ppc, "ThreadPoolExecutor", InlineExecutor)
        return asked

    @pytest.mark.parametrize("cpus,threads,env,replicates,workers", [
        (3, 100_000, None, 50, 3),
        (3, None, "100000", 50, 3),
        (3, None, None, 50, 3),
        (3, 2, None, 50, 2),
        (8, 100_000, None, 5, 5),
        (None, 4, None, 50, 1),
    ], ids=["threads", "env", "default", "under-cap", "replicates", "no-cpu-count"])
    def test_workers_are_capped_at_cpus_and_replicates(self, monkeypatch, cpus, threads,
                                                        env, replicates, workers):
        monkeypatch.setattr(ppc, "_usable_cpus", lambda: cpus)
        if env is None:
            monkeypatch.delenv(ppc.THREADS_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(ppc.THREADS_ENV_VAR, env)
        asked = self.inline_pool(monkeypatch)
        args = (two_model_onehot(4), None, ppc.EceStatistic(), ppc.BAYESIAN)
        got = ppc.sample_statistic(*args, num_replicates=replicates, seed=5,
                                   threads=threads)
        assert asked == [workers]
        monkeypatch.undo()
        want = ppc.sample_statistic(*args, num_replicates=replicates, seed=5, threads=1)
        assert got.samples.tobytes() == want.samples.tobytes()

    def test_default_workers_are_the_cpus_this_process_may_use(self, monkeypatch):
        """Under an affinity mask of one CPU on an 8-CPU machine, one worker."""
        if not hasattr(ppc.os, "sched_getaffinity"):
            pytest.skip("the platform has no affinity mask")
        monkeypatch.setattr(ppc.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(ppc.os, "cpu_count", lambda: 8)
        monkeypatch.delenv(ppc.THREADS_ENV_VAR, raising=False)
        asked = self.inline_pool(monkeypatch)
        ppc.sample_statistic(two_model_onehot(4), None, ppc.EceStatistic(), ppc.BAYESIAN,
                             num_replicates=50, seed=5)
        assert asked == [1]


@dataclass(frozen=True)
class LabelMean:
    """A custom classification statistic, so replicates go through the labels."""

    kind = st.CLASSIFICATION
    name = "label-mean"

    def evaluate(self, labels, ctx):
        return float(np.mean(labels))


BUILT_IN_STATISTICS = [ppc.EceStatistic(), ppc.AccuracyStatistic(),
                       ppc.CalibrationErrorStatistic(), ppc.PicpStatistic()]
ANY_MODE = None
# reader -> (prediction kind, statistic, mode or ANY_MODE)
BLOCK_READERS = {
    "hits-ece": (st.CLASSIFICATION, ppc.EceStatistic(st.BinningConfig(4)), ANY_MODE),
    "hits-accuracy": (st.CLASSIFICATION, ppc.AccuracyStatistic(), ANY_MODE),
    "pit-calibration": (st.REGRESSION, ppc.CalibrationErrorStatistic(), ppc.INDEPENDENT),
    "pit-picp": (st.REGRESSION, ppc.PicpStatistic(), ppc.INDEPENDENT),
    "labels-bayesian-calibration": (st.REGRESSION, ppc.CalibrationErrorStatistic(),
                                    ppc.BAYESIAN),
    "labels-custom": (st.CLASSIFICATION, LabelMean(), ANY_MODE),
}


class ShuffledInlineExecutor:
    """One worker, on the calling thread, that runs the blocks in the order of
    a permutation of block indices (as a pool's workers may) and returns the
    results in block order."""

    def __init__(self, order):
        self.order = order

    def __call__(self, max_workers):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, blocks):
        blocks = list(blocks)
        results = {b: fn(blocks[b]) for b in self.order if b < len(blocks)}
        return [results[b] for b in range(len(blocks))]


class TestBlocks:
    """Replicate k is slot k % B of block k // B, and block b draws from its
    own substream, whichever worker runs it and whatever ran before it. B is
    forced down to 2-4 replicates, so that every run spans at least three
    blocks and ends in a partial one."""

    @pytest.mark.parametrize("reader", list(BLOCK_READERS))
    @given(data=hst.data())
    @settings(max_examples=25, deadline=None)
    def test_runs_agree_across_blocks(self, reader, data):
        kind, statistic, mode = BLOCK_READERS[reader]
        rng = np.random.default_rng(data.draw(hst.integers(0, 2 ** 32 - 1)))
        n, m = data.draw(hst.integers(1, 12)), data.draw(hst.integers(1, 3))
        if kind == st.CLASSIFICATION:
            preds = st.EnsemblePredictions.from_logits(
                rng.normal(0, 2, (n, m, data.draw(hst.integers(2, 4)))))
        else:
            preds = st.EnsemblePredictions.from_gaussians(
                rng.normal(0, 1, (n, m)), rng.uniform(0.2, 2, (n, m)))
        if mode is ANY_MODE:
            mode = data.draw(hst.sampled_from([ppc.BAYESIAN, ppc.INDEPENDENT,
                                               ppc.PointEstimate(m - 1)]))
        size = data.draw(hst.integers(2, 4))
        # the short run ends in block 2 or 3, part-filled; the long one later
        short = size * data.draw(hst.integers(2, 3)) + data.draw(hst.integers(1, size - 1))
        long = short + size * data.draw(hst.integers(1, 2)) + data.draw(
            hst.integers(0, size - 1))
        seed = data.draw(hst.integers(0, 2 ** 31 - 1))
        order = data.draw(hst.permutations(range(long // size + 1)))

        def run(replicates, threads):
            return ppc.sample_statistic(preds, None, statistic, mode,
                                        num_replicates=replicates, seed=seed,
                                        threads=threads).samples

        with mock.patch.object(ppc, "_BLOCK_ELEMENTS", size * n), \
                mock.patch.object(ppc, "_usable_cpus", return_value=3):  # 3 real workers
            first = run(short, 1)
            runs = [run(long, threads) for threads in (1, 2, 3)]
            with mock.patch.object(ppc, "ThreadPoolExecutor", ShuffledInlineExecutor(order)):
                runs.append(run(long, 1))
        assert (short - 1) // size < (long - 1) // size
        assert first.tobytes() == runs[0][:short].tobytes()
        assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes() \
            == runs[3].tobytes()

    @pytest.mark.parametrize("statistic", [ppc.EceStatistic(), ppc.AccuracyStatistic()],
                             ids=lambda s: s.name)
    @given(data=hst.data())
    @settings(max_examples=50, deadline=None)
    def test_hit_kernel_on_a_block_equals_one_vector_at_a_time(self, statistic, data):
        rng = np.random.default_rng(data.draw(hst.integers(0, 2 ** 32 - 1)))
        n = data.draw(hst.integers(1, 300))
        ctx = ppc.build_context(st.EnsemblePredictions.from_logits(
            rng.normal(0, 2, (n, 2, data.draw(hst.integers(2, 5))))))
        size = data.draw(hst.integers(1, 8))
        hits = rng.random((size, n)) < rng.random((size, 1))
        kernel = statistic.kernel(ctx)
        assert kernel(hits).tolist() == [float(kernel(h)) for h in hits]

    @pytest.mark.parametrize("statistic", BUILT_IN_STATISTICS, ids=lambda s: s.name)
    @given(data=hst.data())
    @settings(max_examples=40, deadline=None)
    def test_kernel_on_a_block_equals_its_rows_bit_for_bit(self, statistic, data):
        """`kernel(ctx)` maps a block [A, B, N] to [A, B], each value that of its
        own vector alone, as `float.hex`. PIT blocks put values on the cuts, 0 and 1."""
        rng = np.random.default_rng(data.draw(hst.integers(0, 2 ** 32 - 1)))
        n = data.draw(hst.integers(1, 300))
        shape = (data.draw(hst.integers(1, 3)), data.draw(hst.integers(2, 5)))
        if statistic.kind == st.CLASSIFICATION:
            ctx = ppc.build_context(st.EnsemblePredictions.from_logits(
                rng.normal(0, 2, (n, 2, 3))))
            block = rng.random(shape + (n,)) < rng.random(shape + (1,))
        else:
            ctx = ppc.build_context(st.EnsemblePredictions.from_gaussians(
                rng.normal(0, 1, (n, 2)), rng.uniform(0.2, 2, (n, 2))))
            block = rng.random(shape + (n,))
            on_cut = rng.random(block.shape) < 0.3
            block[on_cut] = rng.choice(np.append(statistic.cuts, [0.0, 1.0]), on_cut.sum())
        kernel = statistic.kernel(ctx)
        values = kernel(block)
        assert values.shape == shape
        assert ([v.hex() for v in values.ravel().tolist()]
                == [float(kernel(row)).hex() for row in block.reshape(-1, n)])

    @pytest.mark.parametrize("reader", ["hits-accuracy", "pit-calibration",
                                        "labels-bayesian-calibration", "labels-custom"])
    def test_two_blocks_draw_different_samples(self, reader):
        """Block b draws from substream (seed, b): slots [0, B) and [B, 2B) of one
        call differ. N is large enough that B is 4, so both blocks are cheap."""
        kind, statistic, mode = BLOCK_READERS[reader]
        n, rng = 2 ** 14, np.random.default_rng(8)
        size = ppc._BLOCK_ELEMENTS // n
        if kind == st.CLASSIFICATION:
            preds = st.EnsemblePredictions.from_logits(rng.normal(0, 2, (n, 2, 3)))
        else:
            preds = st.EnsemblePredictions.from_gaussians(rng.normal(0, 1, (n, 2)),
                                                          rng.uniform(0.2, 2, (n, 2)))
        samples = ppc.sample_statistic(preds, None, statistic, mode or ppc.BAYESIAN,
                                       num_replicates=2 * size, seed=3).samples
        assert size == 4 and not np.array_equal(samples[:size], samples[size:])


class AboveOneUniforms:
    """A substream whose uniforms are all 1 + 1e-12, outside [0, 1]."""

    def random(self, shape):
        return np.full(shape, 1.0 + 1e-12)


@dataclass(frozen=True)
class LabelMeanWithReaderNames(LabelMean):
    """LabelMean with methods named as the built-in readers' (and their former
    names); the engine must call none of them."""

    def kernel(self, ctx):
        raise AssertionError("a custom statistic was read as a built-in one")

    hit_mass = pit_plan = prepare_hits = evaluate_pit = kernel


@dataclass(frozen=True)
class RegressionLabelMean(LabelMean):
    kind = st.REGRESSION


@dataclass(frozen=True)
class RegressionLabelMeanWithReaderNames(LabelMeanWithReaderNames):
    kind = st.REGRESSION


class TestReaders:
    """The engine picks a block reader by the statistic's class, not by the names
    of its attributes, and each kernel call checks the PIT values it is handed."""

    GAUSSIANS = st.EnsemblePredictions.from_gaussians(np.zeros((6, 2)), np.ones((6, 2)))

    @pytest.mark.parametrize("statistic", [ppc.CalibrationErrorStatistic(),
                                           ppc.PicpStatistic()], ids=lambda s: s.name)
    @pytest.mark.parametrize("reader", ["labels", "uniform", "observed"])
    def test_a_pit_above_one_is_refused_in_each_reader(self, statistic, reader):
        """The label reader and the observed value read `_pit_near_cuts`, here 1 +
        1e-12 everywhere; the uniform reader draws no labels, so its uniforms are."""
        above_one = mock.patch.object(ppc, "_pit_near_cuts", lambda plan, y, scratch=None:
                                      np.full(y.shape, 1.0 + 1e-12))
        if reader == "uniform":
            above_one = mock.patch.object(ppc, "replicate_rng",
                                          lambda seed, b: AboveOneUniforms())
        with above_one, pytest.raises(InvalidParameterError,
                                      match=r"^PIT values must lie in \[0, 1\]$"):
            if reader == "observed":
                statistic.evaluate(np.zeros(6), ppc.build_context(self.GAUSSIANS))
            else:
                ppc.sample_statistic(self.GAUSSIANS, None, statistic, ppc.INDEPENDENT
                                     if reader == "uniform" else ppc.BAYESIAN,
                                     num_replicates=5, seed=0, threads=1)

    @pytest.mark.parametrize("custom,plain", [
        (LabelMeanWithReaderNames(), LabelMean()),
        (RegressionLabelMeanWithReaderNames(), RegressionLabelMean())],
        ids=[st.CLASSIFICATION, st.REGRESSION])
    @pytest.mark.parametrize("mode", [ppc.BAYESIAN, ppc.INDEPENDENT],
                             ids=lambda m: m.describe())
    def test_a_custom_statistic_with_reader_names_takes_the_label_path(self, custom, plain,
                                                                        mode):
        preds = two_model_onehot(4) if custom.kind == st.CLASSIFICATION else self.GAUSSIANS
        got, want = (ppc.sample_statistic(preds, None, statistic, mode, num_replicates=20,
                                          seed=1).samples for statistic in (custom, plain))
        assert got.tobytes() == want.tobytes()


class TestContext:
    """A check's context is built once and only read: its block workers, at 1, 2
    and 4 real workers, and the observed value leave each field the same object
    with the same bytes."""

    @pytest.mark.parametrize("reader", list(BLOCK_READERS))
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_a_check_leaves_its_context_as_built(self, monkeypatch, reader, threads):
        kind, statistic, mode = BLOCK_READERS[reader]
        rng = np.random.default_rng(5)
        if kind == st.CLASSIFICATION:
            preds = st.EnsemblePredictions.from_logits(rng.normal(0, 2, (30, 3, 4)))
            labels = rng.integers(0, 4, 30)
        else:
            preds = st.EnsemblePredictions.from_gaussians(
                rng.normal(0, 1, (30, 3)), rng.uniform(0.2, 2, (30, 3)))
            labels = rng.normal(0, 1, 30)
        built, build = [], ppc.build_context

        def fields(ctx):
            return {f.name: (getattr(ctx, f.name), pickle.dumps(getattr(ctx, f.name)))
                    for f in dataclasses.fields(ctx)}

        def recording_build(*args):
            ctx = build(*args)
            built.append(fields(ctx))
            return ctx
        monkeypatch.setattr(ppc, "build_context", recording_build)
        monkeypatch.setattr(ppc, "_usable_cpus", lambda: 4)     # 4 real workers
        monkeypatch.setattr(ppc, "_BLOCK_ELEMENTS", 4 * 30)     # 5 blocks of 4
        ss = ppc.sample_statistic(preds, None, statistic, mode or ppc.BAYESIAN,
                                  num_replicates=20, seed=3, threads=threads)
        statistic.evaluate(labels, ss.context)
        [as_built] = built
        now = fields(ss.context)
        assert now.keys() == as_built.keys()
        for name, (value, data) in as_built.items():
            assert now[name][0] is value and now[name][1] == data, name


class TestModeAndThreadParameters:
    @pytest.mark.parametrize("index", [True, 1.5, "1"])
    def test_point_index_must_be_an_integer(self, index):
        with pytest.raises(InvalidParameterError,
                           match=f"^point-estimate index must be an integer, "
                                 f"got {re.escape(repr(index))}$"):
            ppc.PointEstimate(index)

    def test_numpy_integer_point_index_is_the_same_mode(self):
        preds = st.EnsemblePredictions.from_logits(
            np.random.default_rng(3).normal(0, 2, (4, 3, 2)))
        results = []
        for index in (1, np.int64(1)):
            mode = ppc.PointEstimate(index)
            ss = ppc.sample_statistic(preds, None, ppc.EceStatistic(), mode,
                                      num_replicates=50, seed=2)
            pmf = oracle.exact_statistic_distribution(preds, None,
                                                      ppc.EceStatistic(), mode)
            results.append((ss.samples.tobytes(), ss.mode, pmf.values.tobytes(),
                            pmf.masses.tobytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("threads", [0, -3, 2.7, "2", True])
    def test_threads_must_be_a_positive_integer(self, monkeypatch, threads):
        builds = []
        monkeypatch.setattr(ppc, "build_context", lambda *a, **k: builds.append(a))
        with pytest.raises(InvalidParameterError,
                           match="^threads must be a positive integer"):
            ppc.sample_statistic(two_model_onehot(), None, ppc.AccuracyStatistic(),
                                 ppc.BAYESIAN, num_replicates=20, threads=threads)
        assert builds == []

    @pytest.mark.parametrize("run", ["sample_statistic", "run_ppc"])
    @pytest.mark.parametrize("param,value,message", [
        ("seed", -1, "seed must be a non-negative integer, got -1"),
        ("seed", True, "seed must be a non-negative integer, got True"),
        ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
        ("seed", "1", "seed must be a non-negative integer, got '1'"),
        ("num_replicates", 2.5, None),
        ("num_replicates", True, None),
        ("num_replicates", 0, None),
    ])
    def test_seed_and_replicates_must_be_integers(self, monkeypatch, run, param,
                                                  value, message):
        builds = []
        monkeypatch.setattr(ppc, "build_context", lambda *a, **k: builds.append(a))
        preds = two_model_onehot()
        args = (preds, None, ppc.AccuracyStatistic(), ppc.BAYESIAN)
        if run == "run_ppc":
            args = (preds, None, [0, 1], ppc.AccuracyStatistic(), ppc.BAYESIAN)
        message = message or {"sample_statistic": "need at least one replicate",
                              "run_ppc": "a check needs at least two replicates"}[run]
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            getattr(ppc, run)(*args, **{"num_replicates": 20, param: value})
        assert builds == []

    def test_numpy_integer_seed_is_the_same_run(self):
        preds = two_model_onehot(4)
        reports = [ppc.run_ppc(preds, None, [0, 1, 1, 0], ppc.EceStatistic(),
                               ppc.INDEPENDENT, num_replicates=np.int64(30),
                               seed=seed).to_dict() for seed in (4, np.int64(4))]
        assert json.dumps(reports[0]) == json.dumps(reports[1])


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

    @pytest.mark.parametrize("samples,observed", [
        ([0.1, float("nan")], 0.5), ([0.1], float("nan")), ([0.1, float("inf")], 0.5),
        ([0.1], -float("inf"))], ids=["nan-replicate", "nan-observed", "inf-replicate",
                                      "inf-observed"])
    def test_non_finite_value_is_refused(self, samples, observed):
        with pytest.raises(InvalidParameterError, match="statistic values must be finite"):
            ppc.p_value(np.array(samples), observed)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_is_refused(self, value):
        with pytest.raises(InvalidParameterError, match="statistic values must be finite"):
            ppc.sharpness(np.array([0.0, value, 1.0]))

    @given(data=hst.data())
    @settings(max_examples=200, deadline=None)
    def test_quantiles_are_numpys_bit_for_bit(self, data):
        """`_quantiles` against `np.quantile`, the reference: ties, magnitudes up to
        1e300 and subnormals (-0.0 aside, whose order beside 0.0 no sort fixes)."""
        pool = data.draw(hst.lists(hst.floats(-1e300, 1e300).map(lambda v: v + 0.0),
                                   min_size=1, max_size=64))
        values = np.array(data.draw(hst.lists(hst.sampled_from(pool), min_size=2,
                                              max_size=1000)))
        levels = (0.05, 0.25, 0.5, 0.75, 0.95) + tuple(data.draw(
            hst.lists(hst.floats(0, 1), max_size=4)))
        want = np.quantile(values, levels).tolist()
        assert np.array(ppc._quantiles(values, levels)).tobytes() == np.array(want).tobytes()


@dataclass(frozen=True)
class NanWhere:
    """A custom regression statistic: NaN where `is_nan(labels)`, else the label mean."""

    is_nan: object

    kind = st.REGRESSION
    name = "nan-where"

    def evaluate(self, labels, ctx):
        return float("nan") if self.is_nan(labels) else float(np.mean(labels))


class TestRunPpc:
    @pytest.mark.parametrize("is_nan,observed_labels", [
        (lambda y: np.all(y == 0.0), np.zeros(5)),
        (lambda y: not np.all(y == 0.0), np.zeros(5)),
        (lambda y: y[0] > 0, np.full(5, -1.0)),
    ], ids=["observed-only", "every-replicate", "some-replicates"])
    def test_non_finite_statistic_value_is_an_error_not_a_verdict(self, is_nan,
                                                                  observed_labels):
        preds = st.EnsemblePredictions.from_gaussians(np.zeros((5, 1)), np.ones((5, 1)))
        with pytest.raises(InvalidParameterError, match="statistic values must be finite"):
            ppc.run_ppc(preds, None, observed_labels, NanWhere(is_nan), ppc.BAYESIAN,
                        num_replicates=200, seed=0)

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


class TestPitOnACut:
    """A label at the mean of a one-member Gaussian ensemble has PIT 0.5 exactly, so
    a check's observed value reads the boundary rules of `calibration_error` (a PIT
    on a level is not below it) and of `picp` (the interval is closed)."""

    PREDS = st.EnsemblePredictions.from_gaussians(np.array([[0.0], [0.0], [2.0], [2.0]]),
                                                  np.ones((4, 1)))
    AT_MEANS = np.array([0.0, 0.0, 2.0, 2.0])

    def observed(self, labels, statistic) -> float:
        return ppc.run_ppc(self.PREDS, None, labels, statistic, ppc.INDEPENDENT,
                           num_replicates=2).observed

    def test_pit_at_the_mean_is_one_half(self):
        assert st.pit_values(self.PREDS, labels=self.AT_MEANS).tolist() == [0.5] * 4

    def test_calibration_counts_a_pit_on_the_level_as_not_below(self):
        # two rows on the level 0.5 and two far above it: 0.0 if they counted as below
        labels = self.AT_MEANS + [0.0, 10.0, 0.0, 10.0]
        statistic = ppc.CalibrationErrorStatistic(st.QuantileSet((0.5,)))
        assert self.observed(labels, statistic) == 0.25

    def test_picp_counts_a_pit_on_the_upper_bound_as_inside(self):
        assert self.observed(self.AT_MEANS, ppc.PicpStatistic(0.1, 0.5)) == 1.0


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
