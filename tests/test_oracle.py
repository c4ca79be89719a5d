import itertools
import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.stats import binom

from ppc_uq import oracle, ppc
from ppc_uq import statistics as st
from ppc_uq.predictive import InvalidParameterError, PosteriorWeights, cumulative

from conftest import edge_probs


@dataclass(frozen=True)
class FractionClassZero:
    """Fraction of replicate labels equal to class 0."""

    kind = st.CLASSIFICATION
    name = "fraction-class-0"

    def evaluate(self, labels, ctx):
        return float(np.mean(np.asarray(labels) == 0))


@dataclass(frozen=True)
class NanWhenFirstIsOne:
    """The label mean, or NaN where the first label is class 1."""

    kind = st.CLASSIFICATION
    name = "nan-when-first-is-one"

    def evaluate(self, labels, ctx):
        return float("nan") if labels[0] == 1 else float(np.mean(labels))


def two_model_onehot(n=2):
    probs = np.zeros((n, 2, 2))
    probs[:, 0, 0] = 1.0
    probs[:, 1, 1] = 1.0
    return st.EnsemblePredictions.from_probs(probs)


class TestExactDistribution:
    def test_single_model_accuracy(self):
        preds = st.EnsemblePredictions.from_probs([[[0.7, 0.3]]])
        pmf = oracle.exact_statistic_distribution(preds, None,
                                                  ppc.AccuracyStatistic(),
                                                  ppc.BAYESIAN)
        assert pmf.as_dict() == {0.0: pytest.approx(0.3),
                                 1.0: pytest.approx(0.7)}

    def test_bayesian_shared_model(self):
        pmf = oracle.exact_statistic_distribution(
            two_model_onehot(), None, FractionClassZero(), ppc.BAYESIAN)
        assert pmf.as_dict() == {0.0: pytest.approx(0.5), 1.0: pytest.approx(0.5)}

    def test_independent_per_row_model(self):
        pmf = oracle.exact_statistic_distribution(
            two_model_onehot(), None, FractionClassZero(), ppc.INDEPENDENT)
        assert pmf.as_dict() == {0.0: pytest.approx(0.25),
                                 0.5: pytest.approx(0.5),
                                 1.0: pytest.approx(0.25)}

    def test_masses_sum_to_one(self, rng):
        raw = rng.random((3, 2, 3))
        probs = raw / raw.sum(axis=2, keepdims=True)
        preds = st.EnsemblePredictions.from_probs(probs)
        for mode in (ppc.BAYESIAN, ppc.INDEPENDENT, ppc.PointEstimate(1)):
            pmf = oracle.exact_statistic_distribution(preds, None,
                                                      ppc.EceStatistic(), mode)
            assert pmf.masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_budget_exceeded(self):
        preds = two_model_onehot(4)
        with pytest.raises(oracle.BudgetExceededError):
            oracle.exact_statistic_distribution(
                preds, None, ppc.EceStatistic(), ppc.BAYESIAN,
                budget=oracle.EnumerationBudget(max_outcomes=10))

    def test_non_finite_statistic_value_is_refused(self):
        # one NaN atom per outcome would stay unmerged, as NaN != NaN
        preds = st.EnsemblePredictions.from_probs(np.full((3, 2, 2), 0.5))
        with pytest.raises(InvalidParameterError, match="statistic values must be finite"):
            oracle.exact_statistic_distribution(preds, None, NanWhenFirstIsOne(),
                                                ppc.BAYESIAN)

    def test_regression_statistic_is_kind_mismatch(self):
        with pytest.raises(st.KindMismatchError):
            oracle.exact_statistic_distribution(
                two_model_onehot(), None, ppc.CalibrationErrorStatistic(), ppc.BAYESIAN)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_point_index_out_of_range(self, index):
        with pytest.raises(InvalidParameterError, match="out of range"):
            oracle.exact_statistic_distribution(
                two_model_onehot(), None, ppc.AccuracyStatistic(),
                ppc.PointEstimate(index))

    def test_regression_not_enumerable(self):
        preds = st.EnsemblePredictions.from_gaussians([[0.0]], [[1.0]])
        with pytest.raises(st.KindMismatchError):
            oracle.exact_statistic_distribution(
                preds, None, ppc.CalibrationErrorStatistic(), ppc.BAYESIAN)


@dataclass(frozen=True)
class OutcomeCode:
    """The joint outcome's index in enumeration order, so that the PMF keeps
    one mass per outcome with nonzero mass."""

    kind = st.CLASSIFICATION
    name = "outcome-code"

    def evaluate(self, labels, ctx):
        c = ctx.preds.num_classes
        return float(np.asarray(labels) @ c ** np.arange(len(labels))[::-1])


def band_masses(ctx):
    """[N, M, C] class masses of the label draw: the steps of each member's
    CDF, each CDF value clipped to [0, 1] as the draw's uniform is."""
    cums = cumulative(ctx.preds.class_probs())
    return np.diff(np.clip(cums, 0.0, 1.0), prepend=0.0, axis=-1)


def reference_masses(preds, mode):
    """Each outcome's mass by the three per-mode formulas over the label
    draw's class masses, zero masses dropped as the PMF drops them."""
    n, c = preds.num_rows, preds.num_classes
    ctx = ppc.build_context(preds)
    band = band_masses(ctx)
    mixed = (ctx.weights @ band.transpose(1, 0, 2).reshape(preds.num_models, -1)
             ).reshape(n, c)
    rows = np.arange(n)
    masses = []
    for labels in itertools.product(range(c), repeat=n):
        y = np.asarray(labels, dtype=int)
        if isinstance(mode, ppc.Bayesian):
            masses.append(float(band[rows, :, y].prod(axis=0) @ ctx.weights))
        elif isinstance(mode, ppc.ConditionallyIndependent):
            masses.append(float(np.prod(mixed[rows, y])))
        else:
            masses.append(float(np.prod(band[rows, mode.index, y])))
    masses = np.asarray(masses)
    return masses[masses > 0]


def assert_law_masses(preds, point):
    for mode in (ppc.BAYESIAN, ppc.INDEPENDENT, ppc.PointEstimate(point)):
        pmf = oracle.exact_statistic_distribution(preds, None, OutcomeCode(), mode)
        assert pmf.masses.tobytes() == reference_masses(preds, mode).tobytes()


class TestLawMasses:
    """The oracle's masses from each mode's `law` over the label draw's class
    masses equal the per-mode formulas bit for bit."""

    @given(data=hst.data())
    @settings(max_examples=100, deadline=None)
    def test_equal_to_per_mode_formulas(self, data):
        n, m, c = (data.draw(hst.integers(1, hi)) for hi in (5, 4, 3))
        c += 1
        rng = np.random.default_rng(data.draw(hst.integers(0, 2 ** 32 - 1)))
        if data.draw(hst.booleans()):
            preds = st.EnsemblePredictions.from_logits(rng.normal(0, 2, (n, m, c)))
        else:
            preds = st.EnsemblePredictions.from_probs(
                rng.dirichlet(np.full(c, 0.5), size=(n, m)))
        assert_law_masses(preds, data.draw(hst.integers(0, m - 1)))

    @given(probs=edge_probs(max_rows=5, max_classes=4), data=hst.data())
    @settings(max_examples=100, deadline=None)
    def test_edge_rows_equal_to_per_mode_formulas(self, probs, data):
        # rows summing to 1 +- 1e-6 and entries down to -1e-12: the class
        # masses differ from the probabilities, and still sum to 1
        assert_law_masses(st.EnsemblePredictions.from_probs(probs),
                          data.draw(hst.integers(0, probs.shape[1] - 1)))

    @pytest.mark.parametrize("mode,outcomes", [
        (ppc.BAYESIAN, 16), (ppc.INDEPENDENT, 8), (ppc.PointEstimate(1), 8)])
    def test_budget_is_outcomes_times_members(self, mode, outcomes):
        with pytest.raises(oracle.BudgetExceededError) as err:
            oracle.exact_statistic_distribution(
                two_model_onehot(3), None, ppc.EceStatistic(), mode,
                budget=oracle.EnumerationBudget(max_outcomes=outcomes - 1))
        assert err.value.required == outcomes
        oracle.exact_statistic_distribution(
            two_model_onehot(3), None, ppc.EceStatistic(), mode,
            budget=oracle.EnumerationBudget(max_outcomes=outcomes))


def logit_ensemble(n=5, m=3, c=3):
    rng = np.random.default_rng(30)
    return st.EnsemblePredictions.from_logits(rng.normal(0, 2, (n, m, c)))


class TestBlocks:
    """The enumeration reads the joint outcomes in `itertools.product` order, a block
    of at most `_BLOCK_ELEMENTS` member cells (K * B * N) at a time, through one
    `ppc.statistic_values` built per call."""

    @pytest.mark.parametrize("statistic", [OutcomeCode(), ppc.EceStatistic()],
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("mode", [ppc.BAYESIAN, ppc.INDEPENDENT, ppc.PointEstimate(1)],
                             ids=lambda m: m.describe())
    def test_many_blocks_give_the_bytes_of_one(self, statistic, mode, monkeypatch):
        # 3^5 = 243 outcomes; 40 cells give B = 2 (K = 3) or 8 (K = 1): 122 or 31
        # blocks, the last partial; at 2^16 cells all 243 are one block
        preds = logit_ensemble()
        one = oracle.exact_statistic_distribution(preds, None, statistic, mode)
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", 40)
        many = oracle.exact_statistic_distribution(preds, None, statistic, mode)
        assert many.values.tobytes() == one.values.tobytes()
        assert many.masses.tobytes() == one.masses.tobytes()

    def test_a_built_in_reader_is_built_once_per_call(self):
        # 3^8 = 6,561 outcomes of K * N = 16 cells: blocks of 4,096 and 2,465
        preds, reader = logit_ensemble(n=8, m=2), ppc.EceStatistic.reader
        shapes, builds = [], []

        def counted(self, ctx):
            builds.append(ctx)
            read = reader(self, ctx)

            def counted_read(labels):
                shapes.append(labels.shape)
                return read(labels)
            return counted_read
        with mock.patch.object(ppc.EceStatistic, "reader", counted):
            oracle.exact_statistic_distribution(preds, None, ppc.EceStatistic(), ppc.BAYESIAN)
        assert shapes == [(4096, 8), (2465, 8)] and len(builds) == 1

    def test_a_custom_statistic_gets_one_evaluate_per_outcome_in_product_order(
            self, monkeypatch):
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", 40)     # blocks of 2 outcomes
        seen, evaluate = [], OutcomeCode.evaluate

        def recorded(self, labels, ctx):
            seen.append(tuple(labels))
            return evaluate(self, labels, ctx)
        with mock.patch.object(OutcomeCode, "evaluate", recorded):
            oracle.exact_statistic_distribution(logit_ensemble(), None,
                                                OutcomeCode(), ppc.BAYESIAN)
        assert seen == list(itertools.product(range(3), repeat=5))

    def test_memory_peak_is_below_2_mib_at_983040_outcomes(self):
        # N = 15, C = 2, M = 30, bayesian: 2^15 outcomes * 30 members = 983,040, inside
        # the default budget. Blocks of 2^16 // N outcomes would hold [4369, 15, 30]
        # member cells (15.7 MB); a list of values, one `evaluate` per outcome, peaks at
        # 2.3 MiB
        preds = logit_ensemble(n=15, m=30, c=2)
        tracemalloc.start()
        try:
            oracle.exact_statistic_distribution(preds, None, ppc.EceStatistic(),
                                                ppc.BAYESIAN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


@dataclass(frozen=True)
class EnumeratedAccuracy:
    """Accuracy by its own evaluate, which the oracle enumerates."""

    kind = st.CLASSIFICATION
    name = "enumerated-accuracy"

    def evaluate(self, labels, ctx):
        return ppc.AccuracyStatistic().evaluate(labels, ctx)


@dataclass(frozen=True)
class SquaredAccuracy(ppc.AccuracyStatistic):
    """A subclass of accuracy with another kernel, the squared hit fraction."""

    name = "squared-accuracy"

    def kernel(self, ctx):
        return lambda hits: st.hit_fraction(hits) ** 2


def masses_by_hit_count(pmf, n):
    full = np.zeros(n + 1)
    full[np.rint(pmf.values * n).astype(int)] = pmf.masses
    return full


class TestPoissonBinomial:
    """Accuracy's PMF by the Poisson-binomial recursion."""

    @given(data=hst.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_enumeration(self, data):
        n, m, c = (data.draw(hst.integers(1, hi)) for hi in (6, 4, 3))
        c += 1
        rng = np.random.default_rng(data.draw(hst.integers(0, 2 ** 32 - 1)))
        if data.draw(hst.booleans()):
            preds = st.EnsemblePredictions.from_logits(rng.normal(0, 2, (n, m, c)))
        else:
            preds = st.EnsemblePredictions.from_probs(
                rng.dirichlet(np.full(c, 0.5), size=(n, m)))
        for mode in (ppc.BAYESIAN, ppc.INDEPENDENT,
                     ppc.PointEstimate(data.draw(hst.integers(0, m - 1)))):
            exact, enumerated = (oracle.exact_statistic_distribution(
                preds, None, stat, mode) for stat in
                (ppc.AccuracyStatistic(), EnumeratedAccuracy()))
            assert set(exact.values) <= set(np.arange(n + 1) / n)
            assert set(enumerated.values) <= set(np.arange(n + 1) / n)
            np.testing.assert_allclose(masses_by_hit_count(exact, n),
                                       masses_by_hit_count(enumerated, n),
                                       rtol=0, atol=1e-12)

    @given(probs=edge_probs(), data=hst.data())
    @settings(max_examples=60, deadline=None)
    def test_is_the_recursion_over_the_engine_hit_law(self, probs, data):
        # the engine's q, not the raw probabilities of the predicted class,
        # which differ by up to 1e-6 on these rows
        preds = st.EnsemblePredictions.from_probs(probs)
        ctx = ppc.build_context(preds)
        n = preds.num_rows
        for mode in (ppc.BAYESIAN, ppc.INDEPENDENT,
                     ppc.PointEstimate(data.draw(hst.integers(0, probs.shape[1] - 1)))):
            weights, q = mode.law(ctx.weights, ppc.AccuracyStatistic().hit_mass(ctx))
            want = np.zeros(n + 1)
            for w_k, q_k in zip(weights, q):
                pmf_k = np.ones(1)
                for p in q_k:
                    pmf_k = np.convolve(pmf_k, [1.0 - p, p])
                want += w_k * pmf_k
            pmf = oracle.exact_statistic_distribution(preds, None,
                                                      ppc.AccuracyStatistic(), mode)
            np.testing.assert_allclose(masses_by_hit_count(pmf, n), want,
                                       rtol=0, atol=1e-12)

    def test_no_budget_at_any_size(self):
        # 2^400 outcomes; independent hits are fair coins: Binomial(400, 1/2)
        pmf = oracle.exact_statistic_distribution(
            two_model_onehot(400), None, ppc.AccuracyStatistic(), ppc.INDEPENDENT,
            budget=oracle.EnumerationBudget(max_outcomes=1))
        np.testing.assert_array_equal(pmf.values, np.arange(401) / 400)
        np.testing.assert_allclose(pmf.masses, binom.pmf(np.arange(401), 400, 0.5),
                                   rtol=1e-9, atol=1e-300)


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("mode", [ppc.BAYESIAN, ppc.INDEPENDENT])
    def test_tv_distance_small(self, mode, rng):
        raw = rng.random((3, 3, 2))
        probs = raw / raw.sum(axis=2, keepdims=True)
        preds = st.EnsemblePredictions.from_probs(probs)
        stat = ppc.AccuracyStatistic()
        pmf = oracle.exact_statistic_distribution(preds, None, stat, mode)
        ss = ppc.sample_statistic(preds, None, stat, mode,
                                  num_replicates=20_000, seed=17)
        assert pmf.tv_distance(ss.samples) < 0.02

    def test_a_sample_counts_toward_one_value(self):
        # two values 5e-10 apart, both within 1e-9 of every sample
        pmf = oracle.StatisticPmf(np.array([0.0, 5e-10]), np.array([0.9, 0.1]))
        assert pmf.tv_distance(np.zeros(10)) == pytest.approx(0.1, abs=1e-12)
        assert pmf.tv_distance(np.full(10, 4e-10)) == pytest.approx(0.9, abs=1e-12)
        assert pmf.tv_distance(np.full(10, 2e-9)) == pytest.approx(1.0, abs=1e-12)
        unsorted = oracle.StatisticPmf(np.array([5e-10, 0.0]), np.array([0.1, 0.9]))
        assert unsorted.tv_distance(np.r_[np.zeros(9), 1e300]) == pytest.approx(0.1, abs=1e-12)
        assert oracle.StatisticPmf(np.array([]), np.array([])).tv_distance([0.0]) == 0.5

    def test_tv_distance_small_where_values_lie_within_1e_9(self):
        # the ECE's values 1e-10, 0.5 - 1e-10 and 0.5 + 1e-10 are 2e-10 apart in
        # the middle; each replicate counts toward its own value
        probs = np.tile([0.5 + 1e-10, 0.5 - 1e-10], (2, 1, 1))
        preds = st.EnsemblePredictions.from_probs(probs)
        stat = ppc.EceStatistic(bins=st.BinningConfig(1))
        pmf = oracle.exact_statistic_distribution(preds, None, stat, ppc.INDEPENDENT)
        assert pmf.values.size == 3 and np.diff(pmf.values)[1] < 1e-9
        ss = ppc.sample_statistic(preds, None, stat, ppc.INDEPENDENT,
                                  num_replicates=20_000, seed=0)
        assert pmf.tv_distance(ss.samples) < 0.02

    def test_a_bayesian_custom_statistic_reads_unequal_weights(self):
        # M = 3 members weighted 0.6, 0.3, 0.1, N = 3, C = 2; every one of the 8 joint
        # outcomes has its own value. Uniform weights give a law TV 0.14 away
        probs = np.array([[[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]],
                          [[0.7, 0.3], [0.1, 0.9], [0.6, 0.4]],
                          [[0.8, 0.2], [0.3, 0.7], [0.4, 0.6]]])
        preds, stat = st.EnsemblePredictions.from_probs(probs), OutcomeCode()
        weights = PosteriorWeights((0.6, 0.3, 0.1))
        pmf = oracle.exact_statistic_distribution(preds, weights, stat, ppc.BAYESIAN)
        uniform = oracle.exact_statistic_distribution(preds, None, stat, ppc.BAYESIAN)
        ss = ppc.sample_statistic(preds, weights, stat, ppc.BAYESIAN,
                                  num_replicates=100_000, seed=43)
        assert pmf.values.size == 8 and pmf.tv_distance(ss.samples) < 0.02
        assert uniform.tv_distance(ss.samples) > 0.1

    def test_an_accuracy_subclass_of_another_kernel_gets_its_own_law(self):
        # 2 rows x 2 members: hit fractions 0, 1/2 and 1 square to 0, 1/4 and 1, where
        # accuracy's Poisson-binomial would put mass on 1/2
        preds = st.EnsemblePredictions.from_probs(np.array([[[0.8, 0.2], [0.3, 0.7]],
                                                            [[0.6, 0.4], [0.2, 0.8]]]))
        pmf = oracle.exact_statistic_distribution(preds, None, SquaredAccuracy(), ppc.BAYESIAN)
        ss = ppc.sample_statistic(preds, None, SquaredAccuracy(), ppc.BAYESIAN,
                                  num_replicates=100_000, seed=44)
        assert pmf.values.tolist() == [0.0, 0.25, 1.0] and pmf.tv_distance(ss.samples) < 0.02
        # accuracy itself keeps the bytes of the mixed recursion over the engine's hit law
        ctx = ppc.build_context(preds)
        weights, q = ppc.BAYESIAN.law(ctx.weights, ppc.AccuracyStatistic().hit_mass(ctx))
        masses = weights @ oracle._hit_count_pmf(q)
        accuracy = oracle.exact_statistic_distribution(preds, None, ppc.AccuracyStatistic(),
                                                       ppc.BAYESIAN)
        assert accuracy.masses.tobytes() == masses[masses > 0].tobytes()

    @pytest.mark.parametrize("mode", [ppc.BAYESIAN, ppc.PointEstimate(0)],
                             ids=lambda m: m.describe())
    def test_ece_of_unequal_members_agrees_with_the_enumeration(self, mode):
        # the engine draws ECE's hits from `hit_mass`, the enumeration weighs each joint
        # label outcome by the class masses: M = 3 members weighted 0.6, 0.3, 0.1, the
        # first and last far apart, so a member read for another moves the law
        probs = np.array([[[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]],
                          [[0.8, 0.2], [0.4, 0.6], [0.2, 0.8]],
                          [[0.7, 0.3], [0.6, 0.4], [0.1, 0.9]]])
        preds, stat = st.EnsemblePredictions.from_probs(probs), ppc.EceStatistic()
        weights = PosteriorWeights((0.6, 0.3, 0.1))
        pmf = oracle.exact_statistic_distribution(preds, weights, stat, mode)
        ss = ppc.sample_statistic(preds, weights, stat, mode, num_replicates=20_000, seed=45)
        assert pmf.tv_distance(ss.samples) < 0.02

    def test_marginal_label_laws_agree_across_modes(self, rng):
        # per-row marginals taken by enumerating each row alone
        raw = rng.random((4, 3, 3))
        probs = raw / raw.sum(axis=2, keepdims=True)
        stat = FractionClassZero()
        for i in range(4):
            row = st.EnsemblePredictions.from_probs(probs[i:i + 1])
            pmfs = [oracle.exact_statistic_distribution(row, None, stat, mode)
                    for mode in (ppc.BAYESIAN, ppc.INDEPENDENT)]
            np.testing.assert_allclose(pmfs[0].values, pmfs[1].values)
            np.testing.assert_allclose(pmfs[0].masses, pmfs[1].masses, atol=1e-12)


def merge_loop(values, masses, atol=1e-12):
    """`oracle._merge` as a loop over the sorted values: each value merges into the
    first value of the run it is within atol of, its mass added in order."""
    order = np.argsort(values)
    values, masses = values[order], masses[order]
    out_v, out_m = [], []
    for v, m in zip(values, masses):
        if out_v and v - out_v[-1] <= atol:
            out_m[-1] += m
        else:
            out_v.append(v)
            out_m.append(m)
    out_v, out_m = np.asarray(out_v), np.asarray(out_m)
    return out_v[out_m > 0], out_m[out_m > 0]


class TestMerge:
    """The PMF's merge gives the bytes of the loop over the sorted values."""

    def test_a_chain_merges_into_the_first_value_of_its_run(self):
        values, masses = oracle._merge(np.array([1.2e-12, 0.0, 0.6e-12, 0.5]),
                                       np.array([0.5, 0.2, 0.1, 0.0]))
        assert values.tolist() == [0.0, 1.2e-12] and masses.tolist() == [0.2 + 0.1, 0.5]

    @given(data=hst.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_loop_bit_for_bit(self, data):
        # values on grids of spacing 0.3e-12 to 2e-12 around a few centres, so that
        # chains of gaps within 1e-12 but wider than it occur; some masses are 0
        rng = np.random.default_rng(data.draw(hst.integers(0, 2 ** 32 - 1)))
        n = data.draw(hst.integers(1, 400))
        step = data.draw(hst.sampled_from([0.3e-12, 0.5e-12, 0.6e-12, 1e-12, 2e-12]))
        values = (rng.choice([0.0, 0.25, 1 / 3, 0.5, 1.0], n)
                  + rng.integers(0, data.draw(hst.integers(1, 30)), n) * step)
        if data.draw(hst.booleans()):
            values = np.where(rng.random(n) < 0.3, rng.random(n), values)
        masses = rng.random(n) * (rng.random(n) < 0.9)
        got, want = oracle._merge(values, masses), merge_loop(values, masses)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


class TestRowPermutation:
    @given(data=hst.data())
    @settings(max_examples=50, deadline=None)
    def test_pmf_is_row_permutation_invariant(self, data):
        n, m, c = (data.draw(hst.integers(1, hi)) for hi in (5, 3, 3))
        rng = np.random.default_rng(data.draw(hst.integers(0, 2 ** 32 - 1)))
        preds = st.EnsemblePredictions.from_logits(rng.normal(0, 2, (n, m, c)))
        perm = np.asarray(data.draw(hst.permutations(range(n))))
        statistic = data.draw(hst.sampled_from([ppc.EceStatistic(),
                                                ppc.AccuracyStatistic()]))
        for mode in (ppc.BAYESIAN, ppc.INDEPENDENT,
                     ppc.PointEstimate(data.draw(hst.integers(0, m - 1)))):
            pmf, permuted = (oracle.exact_statistic_distribution(p, None, statistic, mode)
                             for p in (preds, preds.take_rows(perm)))
            np.testing.assert_allclose(permuted.values, pmf.values, rtol=0, atol=1e-12)
            np.testing.assert_allclose(permuted.masses, pmf.masses, rtol=0, atol=1e-12)
