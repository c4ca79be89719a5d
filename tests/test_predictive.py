import collections
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from mpmath import libmp
from scipy.special import ndtr

from ppc_uq import statistics as st
from ppc_uq.predictive import (Gaussian, InvalidParameterError, MixturePredictive,
                               PosteriorWeights, _BLOCK_ELEMENTS, _CHORD_ERROR,
                               _GRID_CELLS_PER_UNIT, _GRID_END, _GRID_HALF, _chord, _grid_cell,
                               _ndtr, gaussian_cdf, mixture_cdf, mixture_sample,
                               pit_from_gaussians)

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
    @pytest.mark.parametrize("y", [float("nan"), [0.0, float("nan")], float("inf"),
                                   [-float("inf"), 0.0]],
                             ids=["nan", "array-with-nan", "inf", "array-with-minus-inf"])
    def test_non_finite_y_is_refused(self, y):
        mix = MixturePredictive(components=(Gaussian(0.0, 1.0), Gaussian(1.0, 2.0)))
        with pytest.raises(InvalidParameterError, match="CDF argument y must be finite"):
            mixture_cdf(mix, y)

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


class TestNdtrKernel:
    """Phi, libm's erfc(-a / sqrt 2) / 2, held to a 200-bit reference."""

    RANGES = ((-1.5, 1.5), (-8.0, -1.5), (-37.0, -8.0), (1.5, 9.0))

    @staticmethod
    def ulps(a, b):
        # both are CDF values >= 0, whose bit patterns order as the values do
        return np.abs(a.view(np.int64) - b.view(np.int64))

    @pytest.mark.parametrize("low, high", RANGES)
    def test_no_further_from_the_truth_than_scipy(self, low, high):
        a = np.random.default_rng(22).uniform(low, high, 1000)
        with mpmath.workprec(200):     # each value rounded to the nearest double
            truth = np.array([libmp.to_float(mpmath.ncdf(x)._mpf_, rnd=libmp.round_nearest)
                              for x in a.tolist()])
        assert self.ulps(_ndtr(a), truth).max() <= self.ulps(ndtr(a), truth).max()

    def test_edge_values(self):
        got = _ndtr(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0]))
        assert got[:2].tolist() == [1.0, 0.0] and np.isnan(got[2])
        assert got[3:].tolist() == [0.5, 0.5]
        tail = _ndtr(np.linspace(-38.6, -37.4, 1201))
        assert (tail >= 0.0).all() and ((tail > 0.0) & (tail < np.finfo(float).tiny)).any()
        assert not _ndtr(np.array([-39.0, -39.5, -1e300, -np.finfo(float).max])).any()

    def test_same_bits_whatever_the_array_around_an_element(self):
        a = np.random.default_rng(18).normal(0.0, 6.0, 1000)
        whole = _ndtr(a)
        for size in (1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200):
            for start in (0, 1, 3, 500):
                part = a[start:start + size]
                assert _ndtr(part).tobytes() == whole[start:start + size].tobytes()
                assert _ndtr(part.copy()).tobytes() == whole[start:start + size].tobytes()
        assert _ndtr(a.reshape(40, 25)).tobytes() == whole.tobytes()
        assert _ndtr(a[::3]).tobytes() == whole[::3].tobytes()
        # across the kernel's passes of _BLOCK_ELEMENTS elements
        big = np.random.default_rng(19).normal(0.0, 6.0, 3 * _BLOCK_ELEMENTS + 5)
        whole = _ndtr(big)
        for start in (_BLOCK_ELEMENTS - 2, 2 * _BLOCK_ELEMENTS - 7, 3 * _BLOCK_ELEMENTS):
            part = big[start:start + 9]
            assert _ndtr(part).tobytes() == whole[start:start + 9].tobytes()

    def test_memory_peak_is_below_twice_the_output(self):
        a = np.random.default_rng(20).normal(0.0, 6.0, 10 ** 6)
        tracemalloc.start()
        try:
            _ndtr(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * a.nbytes

    def test_mixture_sum_is_capped_at_one(self):
        # 29 weights of 1/29 sum to more than 1 in the matvec over 3 rows
        w = np.full(29, 1 / 29)
        assert (np.ones((3, 29)) @ w > 1.0).all()
        pit = pit_from_gaussians(np.zeros((3, 29)), np.ones((3, 29)), w,
                                 np.array([0.1, -0.3, 40.0]))
        assert pit[2] == 1.0


class TestChordBound:
    """`_pit_reader`'s bracket estimates a member's Phi(z) by its chord across z's
    grid cell; _CHORD_ERROR must bound the chord's distance from the kernel's Phi."""

    EDGES = np.arange(-_GRID_HALF, _GRID_HALF + 1) / _GRID_CELLS_PER_UNIT
    Z = np.concatenate([
        EDGES, np.nextafter(EDGES, -np.inf), np.nextafter(EDGES, np.inf),
        EDGES[:-1] + 0.5 / _GRID_CELLS_PER_UNIT,                # cell midpoints
        np.random.default_rng(21).uniform(-9.0, 9.0, 10 ** 6),
        np.linspace(-40.0, -_GRID_END, 1000, endpoint=False),  # the end cells
        np.linspace(40.0, _GRID_END, 1000, endpoint=False),
        [-_GRID_END - 1 / _GRID_CELLS_PER_UNIT, -1e300, 1e300, -1e306, 1e306,
         -np.inf, np.inf]])   # |z| = 1e306: finite, but 1024 z is not

    @staticmethod
    def chord(z):
        # the cell and the chord as `_pit_reader`'s bracket computes them, at std 1
        return _chord(_grid_cell(z, 0.0, 1.0))

    def test_chord_is_within_the_bound_and_the_bound_is_tight(self):
        gap = np.abs(_ndtr(self.Z) - self.chord(self.Z))
        assert gap.max() <= _CHORD_ERROR
        # h^2 phi(1) / 8 = 2.885e-8 is reached next to |z| = 1: the bound is not loose
        assert gap.max() >= _CHORD_ERROR / 2

    @pytest.mark.parametrize("std", [1.0, 3.7, 2.0 ** -1012, 1e-310, 5e-324, 1e300])
    def test_cell_is_the_clipped_z_scaled_and_shifted(self, std):
        # the cell is clip(z, -8.5 - 1/1024, 8.5) * 1024 + 8705 for z = (y - mean) / std
        # at every valid std, subnormal ones too, and with no overflow warning
        with np.errstate(over="ignore"):
            y = self.Z * std
            z = y / std
        cell = np.clip(z, -_GRID_END - 1 / _GRID_CELLS_PER_UNIT, _GRID_END)
        cell *= _GRID_CELLS_PER_UNIT
        cell += _GRID_HALF + 1
        kernel = _grid_cell(y, 0.0, std)
        assert kernel.tobytes() == cell.tobytes()


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

    def test_plain_sequence_weights_go_through_the_rule(self):
        mix = MixturePredictive((Gaussian(0, 1), Gaussian(1, 1)), (0.25, 0.75))
        assert mix.weights == PosteriorWeights((0.25, 0.75))
        probs = st.EnsemblePredictions.from_probs(np.array([[[0.5, 0.5], [1.0, 0.0]]]))
        np.testing.assert_array_equal(st.integrated_class_probs(probs, [0.5, 0.5]),
                                      [[0.75, 0.25]])
        with pytest.raises(InvalidParameterError) as info:
            MixturePredictive((Gaussian(0, 1),) * 3, [0.5, 0.5])
        assert str(info.value) == "need one weight per model: got 2 for 3"
        with pytest.raises(InvalidParameterError, match="sum to 1"):
            MixturePredictive((Gaussian(0, 1), Gaussian(1, 1)), (0.5, 0.6))
