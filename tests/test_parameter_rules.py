"""Every parameter rule, at every site that states one: a NaN, an infinity, a
bool, a fraction where an integer is due or a value under the bound raises
InvalidParameterError where the parameter is made, so no check runs on it."""
import math

import numpy as np
import pytest

from ppc_uq import analytic, oracle, ppc
from ppc_uq import statistics as st
from ppc_uq.predictive import (Categorical, Gaussian, InvalidParameterError,
                               MixturePredictive, PosteriorWeights, gaussian_cdf,
                               mixture_sample)
from ppc_uq.recalibrate import TemperatureVector

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
}
# integer sites whose bound is 0: every bad integer but 0
INTEGER_SITES_FROM_0 = {
    "BayesianLinearEnsembleConfig.degree":
        (lambda v: analytic.BayesianLinearEnsembleConfig(degree=v), 0),
    "mixture_sample.size": (lambda v: mixture_sample(
        MixturePredictive((Gaussian(0.0, 1.0),)), np.random.default_rng(0), size=v), 3),
}
FINITE_SITES = {
    "ConjugateNormalModel.prior_mean":
        (lambda v: analytic.ConjugateNormalModel(prior_mean=v), -0.5),
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
}
INTEGER_BAD = {"nan": NAN, "inf": INF, "-inf": -INF, "True": True, "2.5": 2.5,
               "0": 0, "-1": -1}
POSITIVE_BAD = {"nan": NAN, "inf": INF, "-inf": -INF, "True": True, "0": 0.0,
                "-1": -1.0}
FINITE_BAD = {"nan": NAN, "inf": INF, "-inf": -INF, "True": True}
# the probability-vector and quantile-level rules
VECTOR_BAD = {
    "PosteriorWeights(nan x3)": lambda: PosteriorWeights((NAN,) * 3),
    "PosteriorWeights(inf, -inf)": lambda: PosteriorWeights((INF, -INF)),
    "PosteriorWeights(0.5, nan, 0.5)": lambda: PosteriorWeights((0.5, NAN, 0.5)),
    "Categorical(nan, nan)": lambda: Categorical((NAN, NAN)),
    "Categorical(1, nan)": lambda: Categorical((1.0, NAN)),
    "Categorical(inf, 1)": lambda: Categorical((INF, 1.0)),
    "QuantileSet(nan)": lambda: st.QuantileSet((NAN,)),
    "QuantileSet(0.5, nan)": lambda: st.QuantileSet((0.5, NAN)),
    "QuantileSet(nan, 0.5)": lambda: st.QuantileSet((NAN, 0.5)),
    "QuantileSet(inf)": lambda: st.QuantileSet((INF,)),
}
# data rules: each call must be refused with a message naming the input at fault
DATA_BAD = {
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


def cases(sites, bad):
    return [pytest.param(make, value, id=f"{site}-{name}")
            for site, (make, _) in sites.items() for name, value in bad.items()]


@pytest.mark.parametrize("make,value", cases(INTEGER_SITES, INTEGER_BAD)
                         + cases(INTEGER_SITES_FROM_0,
                                 {k: v for k, v in INTEGER_BAD.items() if k != "0"})
                         + cases(POSITIVE_SITES, POSITIVE_BAD)
                         + cases(FINITE_SITES, FINITE_BAD))
def test_bad_value_is_refused_where_it_is_made(make, value):
    with pytest.raises(InvalidParameterError):
        make(value)


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
