"""Posterior predictive checks for probabilistic models with model uncertainty."""

__version__ = "0.3.0"

from .predictive import (Categorical, Gaussian, InvalidParameterError,
                         MixturePredictive, PosteriorWeights, gaussian_cdf,
                         mixture_cdf, mixture_sample)
from .statistics import (BinningConfig, EnsemblePredictions, QuantileSet,
                         accuracy, calibration_error, ece,
                         integrated_class_probs, picp, pit_values)
from .ppc import (BAYESIAN, INDEPENDENT, AccuracyStatistic, Bayesian,
                  CalibrationErrorStatistic, ConditionallyIndependent,
                  EceStatistic, PicpStatistic, PointEstimate, PpcReport,
                  StatisticSamples, p_value, parse_mode, replicate_labels,
                  run_ppc, sample_statistic, sharpness)
from .recalibrate import (TemperatureVector, apply_temperatures,
                          fit_temperatures, split_recalibration)
from .analytic import (BayesianLinearEnsembleConfig, ConjugateNormalModel,
                       QuadraticDatasetConfig, bayesian_linear_ensemble,
                       conjugate_posterior, generate_quadratic_dataset,
                       location_example_demo, posterior_predictive)
from .oracle import (BudgetExceededError, EnumerationBudget, StatisticPmf,
                     exact_statistic_distribution)
