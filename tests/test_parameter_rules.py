"""Every parameter rule, at every site that states one: a NaN, an infinity, a
bool, a fraction where an integer is due or a value under the bound raises
InvalidParameterError where the parameter is made, so no check runs on it. An
array the library is handed holds integers or floats: a bool or a string in it
raises InvalidParameterError at the site that reads it. A public entry point reads
each input through its reader before it sizes or compares it."""
import math
import re

import numpy as np
import pytest

from ppc_uq import analytic, oracle, ppc
from ppc_uq import statistics as st
from ppc_uq.predictive import (Gaussian, InvalidParameterError,
                               MixturePredictive, PosteriorWeights, gaussian_cdf,
                               mixture_cdf, mixture_sample, real_array)
from ppc_uq.recalibrate import (TemperatureVector, apply_temperatures,
                                split_recalibration)

NAN, INF = float("nan"), float("inf")

# site -> (make(value), a value the site accepts)
INTEGER_SITES = {
    "BinningConfig.num_bins": (st.BinningConfig, 15),
    "QuantileSet.default_levels": (st.QuantileSet.default_levels, 3),
    "EnumerationBudget.max_outcomes": (oracle.EnumerationBudget, 10),
    "PosteriorWeights.uniform": (PosteriorWeights.uniform, 3),
    "location_example_demo.n": (lambda v: analytic.location_example_demo(n=v), 10),
    "QuadraticDatasetConfig.n": (lambda v: analytic.QuadraticDatasetConfig(n=v), 10),
    "BayesianLinearEnsembleConfig.num_models":
        (lambda v: analytic.BayesianLinearEnsembleConfig(num_models=v), 5),
    "generate_quadratic_dataset.n_ood": (lambda v: analytic.generate_quadratic_dataset(
        analytic.QuadraticDatasetConfig(n=10), n_ood=v), 5),
    # parameter-object slots that read a plain count through the object's class
    "EceStatistic.bins": (lambda v: ppc.EceStatistic(bins=v), 15),
    "ece.bins": (lambda v: st.ece([[0.9, 0.1]], [0], bins=v), 15),
    "exact_statistic_distribution.budget": (lambda v: oracle.exact_statistic_distribution(
        TWO_CLASS_ROWS, None, ppc.EceStatistic(), ppc.BAYESIAN, budget=v), 10),
}
# integer sites whose bound is 0: every bad integer but 0
INTEGER_SITES_FROM_0 = {
    "mixture_sample.size": (lambda v: mixture_sample(
        MixturePredictive((Gaussian(0.0, 1.0),)), np.random.default_rng(0), size=v), 3),
    "location_example_demo.seed":
        (lambda v: analytic.location_example_demo(0.5, n=10, seed=v), 0),
    "QuadraticDatasetConfig.seed": (lambda v: analytic.QuadraticDatasetConfig(seed=v), 0),
    "BayesianLinearEnsembleConfig.seed":
        (lambda v: analytic.BayesianLinearEnsembleConfig(seed=v), 0),
}
FINITE_SITES = {
    "ConjugateNormalModel.prior_mean":
        (lambda v: analytic.ConjugateNormalModel(prior_mean=v), -0.5),
    "posterior_predictive.tau2": (lambda v: analytic.posterior_predictive(0.0, v, 1.0), 0.0),
    # bounds compared in place, which a bool or a string would pass or break
    "PicpStatistic.lower": (lambda v: ppc.PicpStatistic(v, 0.9), 0.1),
    "PicpStatistic.upper": (lambda v: ppc.PicpStatistic(0.1, v), 0.9),
    "picp.lower": (lambda v: st.picp([0.5], v, 0.9), 0.1),
    "picp.upper": (lambda v: st.picp([0.5], 0.1, v), 0.9),
    "split_recalibration.fraction":
        (lambda v: split_recalibration(CLASS_PROBS, [0] * 5, v), 0.5),
    # an observed value and a location, compared or added in place
    "p_value.observed": (lambda v: ppc.p_value([0.1, 0.9], v), 0.5),
    "location_example_demo.theta_true":
        (lambda v: analytic.location_example_demo(v, n=10), 0.5),
}
POSITIVE_SITES = {
    "Gaussian.stddev": (lambda v: Gaussian(0.0, v), 0.5),
    "gaussian_cdf.stddev": (lambda v: gaussian_cdf(0.0, v, 0.0), 0.5),
    "TemperatureVector": (lambda v: TemperatureVector((1.0, v)), 0.5),
    "ConjugateNormalModel.prior_var":
        (lambda v: analytic.ConjugateNormalModel(prior_var=v), 0.5),
    "ConjugateNormalModel.noise_var":
        (lambda v: analytic.ConjugateNormalModel(noise_var=v), 0.5),
    "BayesianLinearEnsembleConfig.prior_precision":
        (lambda v: analytic.BayesianLinearEnsembleConfig(prior_precision=v), 0.5),
    "BayesianLinearEnsembleConfig.noise_var":
        (lambda v: analytic.BayesianLinearEnsembleConfig(noise_var=v), 0.5),
    "QuadraticDatasetConfig.noise_var":
        (lambda v: analytic.QuadraticDatasetConfig(noise_var=v), 0.5),
    "posterior_predictive.sigma2": (lambda v: analytic.posterior_predictive(0.0, 0.0, v), 0.5),
}
# integer sites with an upper bound too, and values above it
INTEGER_SITES_BOUNDED_ABOVE = {
    site: INTEGER_SITES[site] for site in ("BinningConfig.num_bins",
                                           "QuantileSet.default_levels")}
INTEGER_ABOVE_BOUND = {"2**53+1": 2 ** 53 + 1, "2**63": 2 ** 63, "2**70": 2 ** 70}
INTEGER_BAD = {"nan": NAN, "inf": INF, "-inf": -INF, "True": True, "2.5": 2.5,
               "0": 0, "-1": -1}
POSITIVE_BAD = {"nan": NAN, "inf": INF, "-inf": -INF, "True": True, "0": 0.0,
                "-1": -1.0}
FINITE_BAD = {"nan": NAN, "inf": INF, "-inf": -INF, "True": True, "'0.5'": "0.5"}
# the probability-vector and quantile-level rules
VECTOR_BAD = {
    "PosteriorWeights(nan x3)": lambda: PosteriorWeights((NAN,) * 3),
    "PosteriorWeights(inf, -inf)": lambda: PosteriorWeights((INF, -INF)),
    "PosteriorWeights(0.5, nan, 0.5)": lambda: PosteriorWeights((0.5, NAN, 0.5)),
    "QuantileSet(nan)": lambda: st.QuantileSet((NAN,)),
    "QuantileSet(0.5, nan)": lambda: st.QuantileSet((0.5, NAN)),
    "QuantileSet(nan, 0.5)": lambda: st.QuantileSet((NAN, 0.5)),
    "QuantileSet(inf)": lambda: st.QuantileSet((INF,)),
}
GAUSSIANS = st.EnsemblePredictions.from_gaussians(np.zeros((5, 1)), np.ones((5, 1)))
CLASS_PROBS = st.EnsemblePredictions.from_probs(np.full((5, 1, 2), 0.5))
TWO_CLASS_ROWS = st.EnsemblePredictions.from_probs(np.full((2, 1, 2), 0.5))
LINEAR = analytic.BayesianLinearEnsembleConfig(num_models=2)
# site -> (make(values), nested lists of values it accepts, whether a scalar is
# refused there); the leaves are 0 or 1 where the site allows it, so that only the
# number rule refuses their bools
ARRAY_SITES = {
    "EnsemblePredictions.probs": (st.EnsemblePredictions.from_probs, [[[1.0, 0.0]]], True),
    "EnsemblePredictions.logits": (st.EnsemblePredictions.from_logits, [[[1.0, 0.0]]], True),
    "EnsemblePredictions.means":
        (lambda v: st.EnsemblePredictions.from_gaussians(v, [[1.0]]), [[1.0]], True),
    "EnsemblePredictions.stds":
        (lambda v: st.EnsemblePredictions.from_gaussians([[0.0]], v), [[1.0]], True),
    "QuantileSet": (st.QuantileSet, [0.25, 0.5], True),
    "CalibrationErrorStatistic.quantiles": (ppc.CalibrationErrorStatistic, [0.25, 0.5], True),
    "calibration_error.quantiles":
        (lambda v: st.calibration_error([0.1, 0.9], v), [0.25, 0.5], True),
    "validate_labels": (lambda v: st.validate_labels(TWO_CLASS_ROWS, v), [1.0, 0.0], True),
    "_checked_rows": (lambda v: st.accuracy(v, [0]), [[1.0, 0.0]], True),
    "_checked_pit": (st.calibration_error, [1.0, 0.0], True),
    "picp.pit": (st.picp, [1.0, 0.0], True),
    "PosteriorWeights": (PosteriorWeights, [1.0, 0.0], True),
    "mixture_cdf": (lambda v: mixture_cdf(MixturePredictive((Gaussian(0.0, 1.0),)), v),
                    [1.0, 0.0], False),
    "finite_values": (lambda v: ppc.p_value(v, 0.5), [1.0, 0.0], True),
    "TemperatureVector": (TemperatureVector, [1.0, 1.0], True),
    "apply_temperatures.temps":
        (lambda v: apply_temperatures(np.zeros((1, 2, 2)), v), [1.0, 1.0], True),
    "apply_temperatures": (lambda v: apply_temperatures(v, TemperatureVector((1.0,))),
                           [[[1.0, 0.0]]], True),
    "conjugate_posterior":
        (lambda v: analytic.conjugate_posterior(analytic.ConjugateNormalModel(), v),
         [1.0, 0.0], True),
    "quadratic_mean": (analytic.quadratic_mean, [1.0, 0.0], True),
    "_design": (lambda v: analytic.bayesian_linear_ensemble(LINEAR, v, [1.0, 0.0], [0.5]),
                [1.0, 0.0], True),
    "bayesian_linear_ensemble.y_train":
        (lambda v: analytic.bayesian_linear_ensemble(LINEAR, [1.0, 0.0], v, [0.5]),
         [1.0, 0.0], True),
    "StatisticPmf.tv_distance":
        (lambda v: oracle.StatisticPmf(np.ones(1), np.ones(1)).tv_distance(v), [1.0, 0.0], True),
}
# data and argument rules: each call must be refused with its rule's message
DATA_BAD = {
    "posterior_predictive(tau2=-1)": (lambda: analytic.posterior_predictive(0.0, -1.0, 1.0),
                                      "variances must be positive"),
    "posterior_predictive(tau2=nan)": (lambda: analytic.posterior_predictive(0.0, NAN, 1.0),
                                       "variances must be positive"),
    "posterior_predictive(sigma2=nan)": (
        lambda: analytic.posterior_predictive(0.0, 0.0, NAN), "variances must be positive"),
    "posterior_predictive(tau2=inf)": (lambda: analytic.posterior_predictive(0.0, INF, 1.0),
                                       "variances must be positive"),
    "posterior_predictive(sigma2=inf)": (
        lambda: analytic.posterior_predictive(0.0, 0.0, INF), "variances must be positive"),
    "PosteriorWeights(())": (lambda: PosteriorWeights(()),
                             "weights must be a nonempty vector"),
    "check_mode(preds, 'bayesian')": (lambda: ppc.check_mode(GAUSSIANS, "bayesian"),
                                      "unknown mode: 'bayesian'"),
    "EnsemblePredictions(0 rows)": (
        lambda: st.EnsemblePredictions.from_probs(np.empty((0, 1, 2))),
        "need at least one row and one model"),
    "EnsemblePredictions(0 models)": (
        lambda: st.EnsemblePredictions.from_gaussians(np.empty((3, 0)), np.empty((3, 0))),
        "need at least one row and one model"),
    "split_recalibration(gaussians)": (
        lambda: split_recalibration(GAUSSIANS, np.zeros(5)),
        "recalibration needs classification predictions"),
    "split_recalibration(fraction=1)": (
        lambda: split_recalibration(CLASS_PROBS, [0] * 5, 1.0),
        re.escape("fraction must be in (0, 1)")),
    "TemperatureVector(())": (lambda: TemperatureVector(()),
                              "need one temperature per model"),
    "apply_temperatures(3 models, 2 temperatures)": (
        lambda: apply_temperatures(np.zeros((5, 3, 2)), TemperatureVector((1.0, 2.0))),
        re.escape("logits must be [N, M, C] with M temperatures")),
    "conjugate_posterior(data=[nan])": (lambda: analytic.conjugate_posterior(
        analytic.ConjugateNormalModel(), [NAN]), "observations must be finite"),
    "bayesian_linear_ensemble(2 inputs, 1 target)": (
        lambda: analytic.bayesian_linear_ensemble(
            analytic.BayesianLinearEnsembleConfig(), [0.0, 1.0], [1.0], [0.5]), "y_train"),
    "bayesian_linear_ensemble(nan target)": (
        lambda: analytic.bayesian_linear_ensemble(
            analytic.BayesianLinearEnsembleConfig(), [0.0, 1.0], [NAN, 1.0], [0.5]),
        "y_train"),
    "bayesian_linear_ensemble(nan query)": (
        lambda: analytic.bayesian_linear_ensemble(
            analytic.BayesianLinearEnsembleConfig(), [0.0, 1.0], [1.0, 1.0], [0.5, NAN]),
        "x_query"),
    "bayesian_linear_ensemble(nan input)": (
        lambda: analytic.bayesian_linear_ensemble(
            analytic.BayesianLinearEnsembleConfig(), [NAN, 1.0], [1.0, 1.0], [0.5]),
        "x_train"),
}

PMF = oracle.StatisticPmf(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
# inputs that a public entry point once sized, compared or computed with before
# its reader had accepted them; each must be refused by that reader
UNREAD_INPUTS = {
    "p_value(observed numpy bool)": lambda: ppc.p_value([0.1, 0.9], np.bool_(True)),
    "p_value(observed None)": lambda: ppc.p_value([0.1, 0.9], None),
    "p_value(ragged samples)": lambda: ppc.p_value([[0.1], [0.2, 0.3]], 0.5),
    "p_value(matrix samples)": lambda: ppc.p_value([[0.1, 0.2], [0.2, 0.3]], 0.15),
    "sharpness(matrix samples)": lambda: ppc.sharpness([[0.1, 0.2], [0.2, 0.3]]),
    "tv_distance(column samples)": lambda: PMF.tv_distance([[0.0], [1.0]]),
    "real_array(0-d bool array in a list)": lambda: real_array([np.array(True), 1.0], "m"),
    "bayesian_linear_ensemble(scalar x_train)":
        lambda: analytic.bayesian_linear_ensemble(LINEAR, 1.0, [1.0], [0.0]),
    "bayesian_linear_ensemble(matrix x_train)":
        lambda: analytic.bayesian_linear_ensemble(LINEAR, [[1.0]], [1.0], [0.0]),
    "bayesian_linear_ensemble(matrix x_query)":
        lambda: analytic.bayesian_linear_ensemble(LINEAR, [1.0], [1.0], [[0.0]]),
    "conjugate_posterior(matrix observations)": lambda: analytic.conjugate_posterior(
        analytic.ConjugateNormalModel(), [[1.0, 2.0], [3.0, 4.0]]),
    "quadratic_mean(matrix x)": lambda: analytic.quadratic_mean([[1.0, 2.0]]),
    "BayesianLinearEnsembleConfig(seed='x')":
        lambda: analytic.BayesianLinearEnsembleConfig(seed="x"),
    "QuadraticDatasetConfig(seed=0.5)": lambda: analytic.QuadraticDatasetConfig(seed=0.5),
    "calibration_error(matrix PIT)": lambda: st.calibration_error([[0.5, 0.6], [0.1, 0.2]]),
    "picp(matrix PIT)": lambda: st.picp([[0.5, 0.6], [0.1, 0.2]]),
    "sample_statistic(statistic None)":
        lambda: ppc.sample_statistic(CLASS_PROBS, None, None, ppc.INDEPENDENT),
    "sample_statistic(statistic without evaluate)": lambda: ppc.sample_statistic(
        CLASS_PROBS, None, st.BinningConfig(), ppc.INDEPENDENT),
}
# a plain value in a parameter object's slot is read through the object's class:
# site -> (the call with the plain value, the call with the object)
PLAIN_VALUES = {
    "EceStatistic.bins": (lambda: ppc.EceStatistic(bins=15),
                          lambda: ppc.EceStatistic(st.BinningConfig(15))),
    "run_ppc(EceStatistic(bins=4))": (
        lambda: ppc.run_ppc(CLASS_PROBS, None, [0, 1, 0, 1, 1], ppc.EceStatistic(bins=4),
                            ppc.BAYESIAN, num_replicates=10).to_dict(),
        lambda: ppc.run_ppc(CLASS_PROBS, None, [0, 1, 0, 1, 1],
                            ppc.EceStatistic(st.BinningConfig(4)), ppc.BAYESIAN,
                            num_replicates=10).to_dict()),
    "ece.bins": (lambda: st.ece([[0.9, 0.1], [0.3, 0.7]], [0, 0], bins=4),
                 lambda: st.ece([[0.9, 0.1], [0.3, 0.7]], [0, 0], st.BinningConfig(4))),
    "CalibrationErrorStatistic.quantiles": (
        lambda: ppc.CalibrationErrorStatistic((0.25, 0.5)),
        lambda: ppc.CalibrationErrorStatistic(st.QuantileSet((0.25, 0.5)))),
    "calibration_error.quantiles": (
        lambda: st.calibration_error([0.1, 0.9], (0.5,)),
        lambda: st.calibration_error([0.1, 0.9], st.QuantileSet((0.5,)))),
    "apply_temperatures.temps": (
        lambda: apply_temperatures(np.ones((1, 2, 2)), [1.0, 2.0]).tolist(),
        lambda: apply_temperatures(np.ones((1, 2, 2)), TemperatureVector((1.0, 2.0))).tolist()),
    "exact_statistic_distribution.budget": tuple(
        lambda budget=budget: oracle.exact_statistic_distribution(
            TWO_CLASS_ROWS, None, ppc.EceStatistic(), ppc.BAYESIAN, budget=budget).as_dict()
        for budget in (10, oracle.EnumerationBudget(10))),
}


def leaves(values, f):
    """The nested lists `values` with f applied to each leaf."""
    return [leaves(v, f) for v in values] if isinstance(values, list) else f(values)


def with_first_leaf(values, f):
    """The nested lists `values` with f applied to the first leaf only."""
    if not isinstance(values, list):
        return f(values)
    return [with_first_leaf(values[0], f)] + values[1:]


def array_probes(good, vector: bool) -> dict:
    """Values that hold something other than integers and floats, built from `good`."""
    probes = {"bools": leaves(good, bool), "numeric strings": leaves(good, str),
              "object array": np.array(good, dtype=object),
              "bool array": np.array(leaves(good, bool)),
              "one bool among floats": with_first_leaf(good, bool),
              "one numpy bool among floats": with_first_leaf(good, np.bool_),
              "one 0-d bool array among floats":
                  with_first_leaf(good, lambda v: np.array(bool(v)))}
    return {**probes, "scalar": 1.0} if vector else probes


def cases(sites, bad):
    return [pytest.param(make, value, id=f"{site}-{name}")
            for site, (make, _) in sites.items() for name, value in bad.items()]


@pytest.mark.parametrize("make,value", cases(INTEGER_SITES, INTEGER_BAD)
                         + cases(INTEGER_SITES_FROM_0,
                                 {k: v for k, v in INTEGER_BAD.items() if k != "0"})
                         + cases(INTEGER_SITES_BOUNDED_ABOVE, INTEGER_ABOVE_BOUND)
                         + cases(POSITIVE_SITES, POSITIVE_BAD)
                         + cases(FINITE_SITES, FINITE_BAD))
def test_bad_value_is_refused_where_it_is_made(make, value):
    with pytest.raises(InvalidParameterError):
        make(value)


@pytest.mark.parametrize("make,values", [
    pytest.param(make, probe, id=f"{site}-{name}")
    for site, (make, good, vector) in ARRAY_SITES.items()
    for name, probe in array_probes(good, vector).items()])
def test_an_array_of_other_than_numbers_is_refused(make, values):
    with pytest.raises(InvalidParameterError):
        make(values)


@pytest.mark.parametrize("make,good", [pytest.param(make, good, id=site)
                                       for site, (make, good, _) in ARRAY_SITES.items()])
def test_an_array_of_numbers_is_accepted(make, good):
    make(good)
    make(np.array(good))


def test_real_array_reads_a_float64_array_in_place():
    """No copy: `peak_rss_mb` would see one of every prediction array."""
    a = np.full((4, 2, 3), 1.0 / 3.0)
    assert real_array(a, "unused") is a
    assert real_array(a[:, 0], "unused").base is a
    assert np.shares_memory(st.EnsemblePredictions.from_probs(a).probs, a)
    assert real_array([1, 2], "unused").dtype == np.float64
    with pytest.raises(InvalidParameterError, match="ragged"):
        real_array([[1.0], [1.0, 2.0]], "ragged")


@pytest.mark.parametrize("make", list(UNREAD_INPUTS.values()), ids=list(UNREAD_INPUTS))
def test_an_input_is_read_before_it_is_sized(make):
    with pytest.raises(InvalidParameterError):
        make()


@pytest.mark.parametrize("plain,made", list(PLAIN_VALUES.values()), ids=list(PLAIN_VALUES))
def test_a_plain_value_is_read_through_its_class(plain, made):
    assert plain() == made()


def test_a_budget_read_through_its_class_still_bounds_the_enumeration():
    with pytest.raises(oracle.BudgetExceededError, match="needs 4 joint outcomes, budget is 3"):
        oracle.exact_statistic_distribution(TWO_CLASS_ROWS, None, ppc.EceStatistic(),
                                            ppc.BAYESIAN, budget=3)


@pytest.mark.parametrize("make", list(VECTOR_BAD.values()), ids=list(VECTOR_BAD))
def test_non_finite_vector_is_refused(make):
    with pytest.raises(InvalidParameterError):
        make()


@pytest.mark.parametrize("make,rule", list(DATA_BAD.values()), ids=list(DATA_BAD))
def test_bad_data_is_refused_by_name(make, rule):
    with pytest.raises(InvalidParameterError, match=rule):
        make()


@pytest.mark.parametrize("make,value", [pytest.param(make, good, id=site) for site, (
    make, good) in {**INTEGER_SITES, **INTEGER_SITES_FROM_0, **POSITIVE_SITES,
                    **FINITE_SITES}.items()])
def test_good_value_is_accepted(make, value):
    make(value)
    make(np.int64(value) if isinstance(value, int) else np.float64(value))


def test_no_verdict_from_a_nan_level_or_nan_weights():
    preds = st.EnsemblePredictions.from_gaussians(np.zeros((20, 3)), np.ones((20, 3)))
    y = np.linspace(-1.0, 1.0, 20)
    with pytest.raises(InvalidParameterError):
        ppc.run_ppc(preds, None, y, ppc.CalibrationErrorStatistic(
            st.QuantileSet((NAN,))), ppc.INDEPENDENT, num_replicates=10)
    with pytest.raises(InvalidParameterError):
        ppc.run_ppc(preds, PosteriorWeights((NAN,) * 3), y,
                    ppc.CalibrationErrorStatistic(), ppc.BAYESIAN, num_replicates=10)
    assert math.isfinite(ppc.run_ppc(preds, None, y, ppc.CalibrationErrorStatistic(),
                                     ppc.BAYESIAN, num_replicates=10).p_value)


def test_no_verdict_from_bool_weights_or_a_bool_bound(monkeypatch):
    """Each is refused before any replicate is drawn; at first (True, False) was
    read as weights (1, 0) and gave a PASS, and PICP's [0, True] as [0, 1] a FAIL."""
    def no_replicates(seed, k):
        raise AssertionError("a replicate was drawn")
    monkeypatch.setattr(ppc, "replicate_rng", no_replicates)
    preds = st.EnsemblePredictions.from_gaussians(np.zeros((20, 2)), np.ones((20, 2)))
    y = np.linspace(-1.0, 1.0, 20)
    with pytest.raises(InvalidParameterError):
        ppc.run_ppc(preds, (True, False), y, ppc.CalibrationErrorStatistic(),
                    ppc.BAYESIAN, num_replicates=10)
    with pytest.raises(InvalidParameterError):
        ppc.run_ppc(preds, None, y, ppc.PicpStatistic(0, True), ppc.BAYESIAN,
                    num_replicates=10)
