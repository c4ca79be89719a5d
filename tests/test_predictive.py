import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ppc_uq import statistics as st
from ppc_uq.predictive import (Gaussian, InvalidParameterError, MixturePredictive,
                               PosteriorWeights, gaussian_cdf, mixture_cdf,
                               mixture_sample)

from conftest import ks_uniform


class TestGaussianCdf:
    def test_symmetry_at_mean(self):
        assert gaussian_cdf(0.0, 1.0, 0.0) == 0.5

    def test_half_sigma_below(self):
        # frozen from a high-precision erf evaluation of Phi(-0.5)
        assert gaussian_cdf(0.5, 1.0, 0.0) == pytest.approx(0.3085375387, abs=1e-9)

    def test_upper_975_quantile(self):
        # 1.959964 found by bisection on the erf-based CDF
        assert gaussian_cdf(0.0, 1.0, 1.959964) == pytest.approx(0.975, abs=1e-6)

    @pytest.mark.parametrize("mean,std,y", [
        (0.0, 0.0, 0.0), (0.0, -1.0, 0.0),
        (float("nan"), 1.0, 0.0), (0.0, 1.0, float("inf")),
    ])
    def test_invalid_inputs(self, mean, std, y):
        with pytest.raises(InvalidParameterError):
            gaussian_cdf(mean, std, y)

    @given(hst.floats(-20, 20), hst.floats(0.01, 50),
           hst.floats(-100, 100), hst.floats(0, 10))
    @settings(max_examples=50)
    def test_monotone_in_y(self, mean, std, y, dy):
        assert gaussian_cdf(mean, std, y + dy) >= gaussian_cdf(mean, std, y)


class TestMixtureCdf:
    def test_single_component_reduces_to_gaussian(self):
        mix = MixturePredictive(components=(Gaussian(0.0, 1.0),))
        for y in (-2.0, 0.0, 0.7, 3.1):
            assert mixture_cdf(mix, y) == gaussian_cdf(0.0, 1.0, y)

    def test_symmetric_pair(self):
        mix = MixturePredictive(components=(Gaussian(-1.0, 1.0), Gaussian(1.0, 1.0)))
        assert mixture_cdf(mix, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_marginal_of_location_model(self):
        # N(0, variance 2) marginal evaluated at y = 1: Phi(1/sqrt(2))
        mix = MixturePredictive(components=(Gaussian(0.0, math.sqrt(2.0)),))
        assert mixture_cdf(mix, 1.0) == pytest.approx(0.7602499389, abs=1e-9)

    def test_empty_components_rejected(self):
        with pytest.raises(InvalidParameterError):
            MixturePredictive(components=())

    def test_monotone_and_limits_on_grid(self):
        mix = MixturePredictive(
            components=(Gaussian(-2.0, 0.5), Gaussian(1.0, 2.0), Gaussian(4.0, 1.0)),
            weights=PosteriorWeights((0.2, 0.5, 0.3)))
        grid = np.linspace(-60.0, 60.0, 4001)
        vals = mixture_cdf(mix, grid)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] < 1e-12 and vals[-1] > 1 - 1e-12

    @given(hst.lists(hst.tuples(hst.floats(-5, 5), hst.floats(0.1, 3)),
                     min_size=1, max_size=6),
           hst.floats(-10, 10), hst.floats(0, 5))
    @settings(max_examples=50)
    def test_monotone_random_mixtures(self, params, y, dy):
        mix = MixturePredictive(components=tuple(Gaussian(m, s) for m, s in params))
        assert mixture_cdf(mix, y + dy) >= mixture_cdf(mix, y) - 1e-12


    @given(hst.lists(hst.tuples(hst.floats(-5, 5), hst.floats(0.1, 3),
                                hst.floats(0.01, 1)), min_size=1, max_size=6),
           hst.floats(-30, 30))
    @settings(max_examples=100)
    def test_matches_erf_loop_reference(self, params, y):
        # reference: the per-component erf sum; the kernel sums in another
        # order, so agreement is to a few ulps per component
        raw = np.array([p[2] for p in params])
        w = tuple(raw / raw.sum())
        mix = MixturePredictive(components=tuple(Gaussian(m, s) for m, s, _ in params),
                                weights=PosteriorWeights(w))
        ref = sum(wi * 0.5 * (1.0 + math.erf((y - m) / (s * math.sqrt(2.0))))
                  for wi, (m, s, _) in zip(w, params))
        assert mixture_cdf(mix, y) == pytest.approx(ref, rel=0, abs=8e-16 * len(params))


class TestMixtureSample:
    def test_near_degenerate_gaussian(self, rng):
        mix = MixturePredictive(components=(Gaussian(5.0, 1e-9),))
        assert mixture_sample(mix, rng) == pytest.approx(5.0, abs=1e-6)

    def test_single_observation_pit_is_uniform(self, rng):
        mix = MixturePredictive(
            components=(Gaussian(-1.0, 0.7), Gaussian(0.5, 1.3), Gaussian(2.0, 0.4)),
            weights=PosteriorWeights((0.3, 0.5, 0.2)))
        y = mixture_sample(mix, rng, size=100_000)
        assert ks_uniform(mixture_cdf(mix, y)) < 0.01


class TestValidation:
    def test_mixed_kinds_rejected(self):
        # a component with a mean and a stddev, but not a Gaussian, is refused
        other = collections.namedtuple("Other", "mean stddev")(0.0, 1.0)
        with pytest.raises(InvalidParameterError, match="must be Gaussian"):
            MixturePredictive(components=(Gaussian(0, 1), other))

    def test_weights_default_uniform(self):
        mix = MixturePredictive(components=(Gaussian(0, 1), Gaussian(1, 1)))
        assert mix.weights.values == (0.5, 0.5)

    def test_weight_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            MixturePredictive(components=(Gaussian(0, 1),),
                              weights=PosteriorWeights((0.5, 0.5)))

    def test_weights_rule_has_one_message(self):
        # the mixture and the ensemble functions state the rule through its owner
        weights = PosteriorWeights((0.5, 0.5))
        calls = [lambda: MixturePredictive((Gaussian(0, 1),) * 3, weights),
                 lambda: st.pit_values(st.EnsemblePredictions.from_gaussians(
                     np.zeros((1, 3)), np.ones((1, 3))), weights, [0.0]),
                 lambda: st.integrated_class_probs(st.EnsemblePredictions.from_probs(
                     np.full((1, 3, 2), 0.5)), weights),
                 lambda: PosteriorWeights.for_models(weights, 3)]
        for call in calls:
            with pytest.raises(InvalidParameterError) as info:
                call()
            assert str(info.value) == "need one weight per model: got 2 for 3"
