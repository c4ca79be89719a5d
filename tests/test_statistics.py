import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.special import ndtr

from ppc_uq import statistics as st
from ppc_uq.predictive import InvalidParameterError, PosteriorWeights

from conftest import OVERFLOWING_Z, ks_uniform


def two_model_onehot(n=1):
    probs = np.zeros((n, 2, 2))
    probs[:, 0, 0] = 1.0
    probs[:, 1, 1] = 1.0
    return st.EnsemblePredictions.from_probs(probs)


class TestIntegratedClassProbs:
    def test_single_model_identity(self):
        probs = np.array([[[0.2, 0.8]], [[0.7, 0.3]]])
        preds = st.EnsemblePredictions.from_probs(probs)
        out = st.integrated_class_probs(preds)
        np.testing.assert_allclose(out, probs[:, 0, :])

    def test_equal_weight_average(self):
        out = st.integrated_class_probs(two_model_onehot())
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_weighted_average(self):
        out = st.integrated_class_probs(two_model_onehot(),
                                        PosteriorWeights((0.75, 0.25)))
        np.testing.assert_allclose(out, [[0.75, 0.25]])

    def test_kind_mismatch(self):
        preds = st.EnsemblePredictions.from_gaussians([[0.0]], [[1.0]])
        with pytest.raises(st.KindMismatchError):
            st.integrated_class_probs(preds)

    def test_rows_sum_to_one(self, rng):
        raw = rng.random((8, 4, 3))
        probs = raw / raw.sum(axis=2, keepdims=True)
        out = st.integrated_class_probs(st.EnsemblePredictions.from_probs(probs))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


class TestEce:
    def test_perfectly_confident_and_correct(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert st.ece(probs, [0, 0]) == 0.0

    def test_single_bin_hand_value(self):
        probs = np.array([[0.9, 0.1], [0.3, 0.7]])  # conf 0.9 correct, 0.7 wrong
        labels = [0, 0]
        got = st.ece(probs, labels, st.BinningConfig(num_bins=1))
        assert got == pytest.approx(0.3, abs=1e-12)

    def test_two_bin_hand_value(self):
        probs = np.array([[0.4, 0.3, 0.3], [0.9, 0.05, 0.05]])
        labels = [0, 1]  # first correct at conf 0.4, second wrong at conf 0.9
        got = st.ece(probs, labels, st.BinningConfig(num_bins=2))
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_empty_rows(self):
        with pytest.raises(st.EmptyInputError):
            st.ece(np.empty((0, 2)), [])

    def test_range(self, rng):
        raw = rng.random((50, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, 50)
        assert 0.0 <= st.ece(probs, labels) <= 1.0


def ece_per_call(confidence, hits, num_bins):
    """ECE with every per-bin quantity recomputed from the confidences."""
    bin_idx = np.clip(np.ceil(confidence * num_bins).astype(int) - 1, 0, num_bins - 1)
    counts = np.bincount(bin_idx, minlength=num_bins)
    acc_sum = np.bincount(bin_idx, weights=hits.astype(float), minlength=num_bins)
    conf_sum = np.bincount(bin_idx, weights=confidence, minlength=num_bins)
    nonempty = counts > 0
    return float(np.abs(acc_sum[nonempty] - conf_sum[nonempty]).sum() / confidence.size)


class TestEceKernel:
    """The kernel prepared once per check gives, on every call, what a full
    recomputation gives, bit for bit."""

    @given(data=hst.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_per_call_recomputation(self, data):
        rng = np.random.default_rng(data.draw(hst.integers(0, 2 ** 32 - 1)))
        n = data.draw(hst.integers(1, 300))
        num_bins = data.draw(hst.one_of(hst.integers(1, 40),       # bins < N
                                        hst.integers(n, 10 ** 6)))  # bins >= N
        confidence = data.draw(hst.sampled_from([
            rng.uniform(0.25, 1.0, n),                          # generic
            rng.integers(1, num_bins + 1, n) / num_bins,        # on bin edges
            np.full(n, rng.uniform(0.5, 1.0))]))                # one bin
        kernel = st.ece_kernel(confidence, num_bins)
        for _ in range(2):
            block = data.draw(hst.integers(1, 8))
            hits = rng.random((block, n)) < rng.random((block, 1))
            got = kernel(hits)
            assert got.shape == (block,)
            for row, value in zip(hits, got):
                want = ece_per_call(confidence, row, num_bins)
                assert value == want
                assert kernel(row) == want
                assert st.ece_from_confidence(confidence, row, num_bins) == want

    def test_memory_grows_with_the_rows_not_the_bins(self):
        rng = np.random.default_rng(0)
        confidence = rng.uniform(0.25, 1.0, 1000)
        hits = rng.random((8, 1000)) < 0.5
        tracemalloc.start()
        try:
            st.ece_kernel(confidence, 10 ** 7)(hits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_zero_rows_are_refused(self):
        with pytest.raises(st.EmptyInputError, match="^ece needs at least one row$"):
            st.ece_from_confidence(np.empty(0), np.empty(0, dtype=bool), 15)

    def test_largest_bin_count_gives_each_confidence_its_own_bin(self):
        probs = np.array([[0.9, 0.1], [0.3, 0.7]])   # conf 0.9 correct, 0.7 wrong
        got = st.ece(probs, [0, 0], st.BinningConfig(num_bins=2 ** 53))
        assert got == pytest.approx((0.1 + 0.7) / 2, abs=1e-12)


class TestPitValues:
    def test_single_model_at_mean(self):
        preds = st.EnsemblePredictions.from_gaussians([[0.0]], [[1.0]])
        np.testing.assert_allclose(st.pit_values(preds, labels=[0.0]), [0.5])

    def test_symmetric_pair(self):
        preds = st.EnsemblePredictions.from_gaussians([[-1.0, 1.0]], [[1.0, 1.0]])
        np.testing.assert_allclose(st.pit_values(preds, labels=[0.0]), [0.5],
                                   atol=1e-15)

    def test_location_marginal(self):
        s = math.sqrt(2.0)
        preds = st.EnsemblePredictions.from_gaussians([[0.0], [0.0]], [[s], [s]])
        got = st.pit_values(preds, labels=[0.0, 1.0])
        np.testing.assert_allclose(got, [0.5, 0.7602499389], atol=1e-9)

    def test_kind_mismatch(self):
        with pytest.raises(st.KindMismatchError):
            st.pit_values(two_model_onehot(), labels=[0])

    @pytest.mark.parametrize("case", sorted(OVERFLOWING_Z))
    def test_z_past_the_largest_double_is_infinite_without_a_warning(self, case):
        # warnings are errors here: an overflow in z raised RuntimeWarning
        means, stds, labels = OVERFLOWING_Z[case]
        got = st.pit_values(st.EnsemblePredictions.from_gaussians(means, stds),
                            labels=labels)
        assert got[0] == 1.0
        np.testing.assert_allclose(got[1:], [ndtr(0.2), (ndtr(-0.5) + ndtr(-1.5)) / 2],
                                   rtol=1e-14)

    def test_point_estimate_pit_uniform(self, rng):
        # M = 1 model scoring data sampled from itself
        n = 100_000
        means = rng.normal(0, 2, n)
        stds = np.full(n, 0.8)
        y = means + stds * rng.standard_normal(n)
        preds = st.EnsemblePredictions.from_gaussians(means[:, None], stds[:, None])
        assert ks_uniform(st.pit_values(preds, labels=y)) < 0.01


class TestCalibrationError:
    def test_balanced_pit_zero(self):
        assert st.calibration_error([0.1, 0.9], st.QuantileSet((0.5,))) == 0.0

    def test_hand_value(self):
        got = st.calibration_error([0.1, 0.9], st.QuantileSet((0.25, 0.5, 0.75)))
        assert got == pytest.approx(0.125, abs=1e-12)

    def test_all_zero_pit(self):
        assert st.calibration_error([0.0, 0.0], st.QuantileSet((0.5,))) == \
            pytest.approx(0.25, abs=1e-12)

    def test_empty(self):
        with pytest.raises(st.EmptyInputError):
            st.calibration_error([])

    def test_a_pit_on_a_level_is_not_below_it(self):
        # 0.0 if PIT <= level counted as below
        assert st.calibration_error([0.5, 0.9], st.QuantileSet((0.5,))) == 0.25

    def test_uniform_pit_is_small(self):
        # perfect calibration in the no-model-uncertainty case
        for seed in range(20):
            pit = np.random.default_rng(seed).random(100_000)
            assert st.calibration_error(pit) < 0.01

    def test_upper_bound(self, rng):
        qs = st.QuantileSet()
        levels = qs.as_array()
        bound = np.sum(np.maximum(levels, 1 - levels) ** 2)
        for _ in range(5):
            pit = rng.random(100)
            assert 0.0 <= st.calibration_error(pit, qs) <= bound

    def test_default_levels_are_j_over_count_plus_one(self):
        # one numpy division, bit for bit the levels j / (num + 1) of Python's division
        for num in range(1, 10_001):
            assert st.QuantileSet.default_levels(num) == tuple(
                [j / (num + 1) for j in range(1, num + 1)]), num


class TestQuantileSet:
    def test_levels_are_a_tuple_read_from_a_copy(self):
        levels = np.array([0.25, 0.5])
        q = st.QuantileSet(levels)
        assert levels.flags.writeable       # the caller's array is read, not frozen
        levels[0] = 0.125
        assert q.levels == (0.25, 0.5) and isinstance(q.levels, tuple)
        assert st.QuantileSet((0.5,)) == st.QuantileSet((0.5,))
        assert hash(st.QuantileSet((0.5,))) == hash(st.QuantileSet((0.5,)))
        assert st.QuantileSet((0.5,)) != st.QuantileSet((0.25,))

    def test_as_array_is_a_fresh_array_of_the_levels(self):
        q = st.QuantileSet((0.25, 0.5))
        first = q.as_array()
        assert first.dtype == np.float64 and first.tolist() == [0.25, 0.5]
        first[0] = 0.75
        assert q.levels == (0.25, 0.5)
        assert q.as_array().tolist() == [0.25, 0.5]


class TestPicp:
    def test_all_interior(self):
        assert st.picp([0.5, 0.3, 0.6]) == 1.0

    def test_half_inside(self):
        assert st.picp([0.01, 0.5, 0.99, 0.5]) == 0.5

    def test_boundary_inclusive(self):
        assert st.picp([0.025]) == 1.0

    def test_upper_boundary_inclusive(self):
        assert st.picp([0.975], 0.025, 0.975) == 1.0    # 0.0 if the top were open

    def test_errors(self):
        with pytest.raises(st.EmptyInputError):
            st.picp([])
        with pytest.raises(InvalidParameterError):
            st.picp([0.5], lower=0.9, upper=0.1)


class TestAccuracy:
    def test_perfect(self):
        probs = np.eye(3)
        assert st.accuracy(probs, [0, 1, 2]) == 1.0

    def test_all_wrong(self):
        probs = np.eye(3)
        assert st.accuracy(probs, [1, 2, 0]) == 0.0

    def test_two_thirds(self):
        probs = np.eye(3)
        assert st.accuracy(probs, [0, 1, 0]) == pytest.approx(2 / 3)

    def test_empty(self):
        with pytest.raises(st.EmptyInputError):
            st.accuracy(np.empty((0, 2)), [])


class TestMetricInputRules:
    """The metric functions check their labels by the class-label rule of
    `validate_labels`, their probabilities by an ensemble's, and their PIT
    values by one range rule."""

    PROBS = [[0.9, 0.1], [0.2, 0.8]]
    NAN = float("nan")

    @pytest.mark.parametrize("metric", [st.ece, st.accuracy], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("labels,rule", [
        ([0.7, 1.9], "integers"), ([0, NAN], "finite"), ([0, 2], r"in \[0, 2\)"),
        ([0], "length 2")], ids=["fraction", "nan", "out-of-range", "short"])
    def test_bad_labels_are_refused(self, metric, labels, rule):
        with pytest.raises(InvalidParameterError, match=rule):
            metric(self.PROBS, labels)

    @pytest.mark.parametrize("metric", [st.ece, st.accuracy], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("probs", [[0.2, 0.8], [[[0.2, 0.8]], [[0.5, 0.5]]]],
                             ids=["1-d", "3-d"])
    def test_probs_not_rows_of_classes_are_refused_by_the_n_c_rule(self, metric, probs):
        with pytest.raises(InvalidParameterError, match=r"probs \[N, C\]"):
            metric(probs, [1, 0])

    @pytest.mark.parametrize("metric", [st.ece, st.accuracy], ids=lambda f: f.__name__)
    def test_nan_probability_is_refused(self, metric):
        with pytest.raises(InvalidParameterError, match="row 1: probs must be finite"):
            metric([[0.9, 0.1], [self.NAN, 0.8]], [0, 1])

    @pytest.mark.parametrize("metric", [st.picp, st.calibration_error],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("pit", [[NAN, 0.5], [0.5, 1.5], [-0.1]])
    def test_pit_out_of_range_is_refused(self, metric, pit):
        with pytest.raises(InvalidParameterError, match=r"PIT values must lie in \[0, 1\]"):
            metric(pit)


@given(hst.integers(0, 2 ** 32 - 1))
@settings(max_examples=20)
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    n = 40
    raw = rng.random((n, 3))
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 3, n)
    pit = rng.random(n)
    perm = rng.permutation(n)
    assert st.ece(probs, labels) == pytest.approx(st.ece(probs[perm], labels[perm]))
    assert st.accuracy(probs, labels) == st.accuracy(probs[perm], labels[perm])
    assert st.calibration_error(pit) == pytest.approx(st.calibration_error(pit[perm]))
    assert st.picp(pit) == st.picp(pit[perm])


class TestInputValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["means", "stds"])
    def test_non_finite_gaussians_rejected(self, field, bad):
        params = {"means": np.zeros((3, 2)), "stds": np.ones((3, 2))}
        params[field][1, 0] = bad
        with pytest.raises(InvalidParameterError, match=f"{field} must be finite"):
            st.EnsemblePredictions.from_gaussians(params["means"], params["stds"])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_probs_and_logits_rejected(self, bad):
        probs = np.full((2, 1, 2), 0.5)
        probs[1, 0] = [bad, 0.5]
        with pytest.raises(InvalidParameterError, match="probs must be finite"):
            st.EnsemblePredictions.from_probs(probs)
        logits = np.zeros((2, 1, 3))
        logits[0, 0, 2] = bad
        with pytest.raises(InvalidParameterError, match="logits must be finite"):
            st.EnsemblePredictions.from_logits(logits)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_regression_labels_rejected(self, bad):
        preds = st.EnsemblePredictions.from_gaussians(np.zeros((2, 1)), np.ones((2, 1)))
        with pytest.raises(InvalidParameterError, match="labels must be finite"):
            st.validate_labels(preds, [0.5, bad])

    def test_non_integer_class_labels_rejected(self):
        with pytest.raises(InvalidParameterError, match="integers"):
            st.validate_labels(two_model_onehot(2), [0.7, 1.9])

    def test_integer_valued_class_labels_accepted(self):
        labels = st.validate_labels(two_model_onehot(2), [1.0, 0.0])
        assert labels.dtype.kind == "i"
        np.testing.assert_array_equal(labels, [1, 0])

    @pytest.mark.parametrize("label, rule", [
        (1e300, "row 1: class labels must be in [0, 2)"),
        (-1e300, "row 1: class labels must be in [0, 2)"),
        (2.0 ** 63, "row 1: class labels must be in [0, 2)"),
        (-1.0, "row 1: class labels must be in [0, 2)"),
        (2.5, "row 1: classification labels must be integers"),
    ])
    def test_class_label_rules_hold_before_the_integer_cast(self, label, rule):
        # an integral value past int64 is out of range, not a cast warning
        # (pytest runs with warnings as errors)
        with pytest.raises(InvalidParameterError) as info:
            st.validate_labels(two_model_onehot(2), [0.0, label])
        assert str(info.value) == rule


def cross_kind_sets():
    """Sets of arrays other than {probs}, {logits} and {means, stds}: each names the
    set the refusal reports, then the arrays."""
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(2), size=(4, 3))
    means, stds = rng.normal(size=(4, 3)), np.ones((4, 3))
    nan = np.full((50, 4, 2), np.nan)
    return {
        "probs-means-stds": ("probs, means, stds", dict(probs=probs, means=means, stds=stds)),
        "logits-means-stds": ("logits, means, stds",
                              dict(logits=np.log(probs), means=means, stds=stds)),
        "nan-probs-means-stds": ("probs, means, stds",
                                 dict(probs=nan, means=np.zeros((50, 4)), stds=np.ones((50, 4)))),
        "nan-logits-nan-means-stds": ("logits, means, stds",
                                      dict(logits=nan, means=np.full((50, 4), np.nan),
                                           stds=np.ones((50, 4)))),
        "3-row-probs-2-row-means-stds": ("probs, means, stds",
                                         dict(probs=probs[:3], means=means[:2],
                                              stds=stds[:2])),
        "probs-means": ("probs, means", dict(probs=probs, means=means)),
        "logits-stds": ("logits, stds", dict(logits=np.log(probs), stds=stds)),
        "probs-logits-means-stds": ("probs, logits, means, stds",
                                    dict(probs=probs, logits=np.log(probs), means=means,
                                         stds=stds)),
        "means": ("means", dict(means=means)),
        "stds": ("stds", dict(stds=stds)),
        "none": ("", {}),
    }


CROSS_KIND_SETS = cross_kind_sets()


class TestEnsembleConstructor:
    def test_logits_of_a_wrong_shape_or_not_finite_are_refused(self):
        with pytest.raises(InvalidParameterError, match="logits must be \\[N, M, C\\]"):
            st.EnsemblePredictions(logits=[[0.0, 0.0]])
        with pytest.raises(InvalidParameterError, match="logits must be finite"):
            st.EnsemblePredictions(logits=[[[np.inf, 0.0]]])

    def test_probs_and_logits_of_different_shapes_are_refused(self, rng):
        probs = rng.dirichlet(np.ones(2), size=(3, 2))
        with pytest.raises(InvalidParameterError, match="^an ensemble holds .*, "
                                                        "got {probs, logits}$"):
            st.EnsemblePredictions(probs=probs, logits=rng.normal(size=(5, 4, 3)))

    @pytest.mark.parametrize("given", ["both", "neither"])
    def test_a_classification_ensemble_holds_probs_or_logits(self, rng, given):
        probs = rng.dirichlet(np.ones(3), size=(4, 2))
        arrays = {"probs": probs, "logits": np.log(probs)} if given == "both" else {}
        with pytest.raises(InvalidParameterError, match="^an ensemble holds .*, got {(probs, "
                                                        "logits)?}$"):
            st.EnsemblePredictions(**arrays)

    @pytest.mark.parametrize("case", CROSS_KIND_SETS)
    def test_an_ensemble_holds_one_set_of_arrays(self, case):
        """Exactly {probs}, {logits} or {means, stds}: any other set, with arrays of
        both kinds, NaN or mismatched among them, or none, is refused before any
        array is read, with one error naming the accepted sets and the one given."""
        got, arrays = CROSS_KIND_SETS[case]
        with pytest.raises(InvalidParameterError) as info:
            st.EnsemblePredictions(**arrays)
        assert type(info.value) is InvalidParameterError
        assert str(info.value) == ("an ensemble holds {probs}, {logits} or {means, stds}, "
                                   f"got {{{got}}}")

    def test_the_kind_is_read_off_the_arrays(self, rng):
        probs = rng.dirichlet(np.ones(3), size=(4, 2))
        means = rng.normal(size=(4, 2))
        assert st.EnsemblePredictions(probs=probs).kind == st.CLASSIFICATION
        assert st.EnsemblePredictions(logits=np.log(probs)).kind == st.CLASSIFICATION
        reg = st.EnsemblePredictions(means=means, stds=np.ones((4, 2)))
        assert reg.kind == st.REGRESSION
        assert "kind" not in {f.name for f in dataclasses.fields(st.EnsemblePredictions)}
        with pytest.raises(TypeError):
            st.EnsemblePredictions(kind=st.CLASSIFICATION, probs=probs)
        with pytest.raises(TypeError):      # the arrays are keyword-only
            st.EnsemblePredictions(st.REGRESSION, means=means, stds=np.ones((4, 2)))

    @pytest.mark.parametrize("read", ["num_classes", "class_probs"])
    def test_a_regression_ensemble_has_no_classes(self, read):
        preds = st.EnsemblePredictions.from_gaussians([[0.0, 1.0]], [[1.0, 2.0]])
        with pytest.raises(st.KindMismatchError,
                           match=f"^{read} is a classification property$"):
            getattr(preds, read)()      # num_classes raises on the read

    @pytest.mark.parametrize("field", ["kind", "probs", "logits", "means", "stds"])
    def test_an_ensemble_is_frozen(self, field):
        # the one-array rule and every array check hold after construction too: a
        # logits array set beside the probs would be read by nothing but take_rows
        preds = st.EnsemblePredictions.from_probs(np.full((2, 1, 2), 0.5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(preds, field, np.zeros((3, 4, 5)))
        assert (preds.kind, preds.logits, preds.num_classes) == (st.CLASSIFICATION, None, 2)
        reg = st.EnsemblePredictions.from_gaussians(np.zeros((2, 1)), np.ones((2, 1)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(reg, field, np.zeros((3, 4)))
        assert reg.stds.tolist() == [[1.0], [1.0]]

    def test_take_rows_slices_every_array_that_is_set(self, rng):
        probs = rng.dirichlet(np.ones(3), size=(4, 2))
        only_probs = st.EnsemblePredictions.from_probs(probs).take_rows([2, 0])
        np.testing.assert_array_equal(only_probs.probs, probs[[2, 0]])
        assert only_probs.logits is None
        only_logits = st.EnsemblePredictions.from_logits(np.log(probs)).take_rows([3, 1])
        np.testing.assert_array_equal(only_logits.logits, np.log(probs)[[3, 1]])
        assert only_logits.probs is None
        reg = st.EnsemblePredictions.from_gaussians(rng.normal(size=(4, 2)),
                                                    np.ones((4, 2)))
        taken = reg.take_rows(slice(1, 3))
        assert taken.kind == st.REGRESSION and taken.probs is None
        np.testing.assert_array_equal(taken.means, reg.means[1:3])
        np.testing.assert_array_equal(taken.stds, reg.stds[1:3])
