"""Closed-form generative models and desk-scale experiment fixtures.

Conjugate normal location model (known noise variance), the Gaussian
location counterexample where ignoring model uncertainty condemns a correct
model, a quadratic dataset with a held-out input interval, and an exact
Bayesian linear-regression ensemble standing in for trained ensembles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import statistics as st
from .predictive import (Gaussian, InvalidParameterError, check_finite, check_integer,
                         check_positive, gaussian_cdf, real_array)


@dataclass(frozen=True)
class ConjugateNormalModel:
    prior_mean: float = 0.0
    prior_var: float = 1.0
    noise_var: float = 1.0

    def __post_init__(self):
        check_finite(f"prior_mean must be finite, got {self.prior_mean!r}", self.prior_mean)
        check_positive("variances must be finite and positive", self.prior_var, self.noise_var)


def conjugate_posterior(model: ConjugateNormalModel, data) -> tuple:
    """Posterior (mean, variance) over the location given i.i.d. observations."""
    if (y := real_array(data, "observations must be finite")).ndim != 1:
        raise InvalidParameterError(f"observations must be a vector, got shape {y.shape}")
    if y.size == 0:
        raise InvalidParameterError("conjugate update needs at least one observation")
    if not np.all(np.isfinite(y)):
        raise InvalidParameterError("observations must be finite")
    precision = 1.0 / model.prior_var + y.size / model.noise_var
    tau2 = 1.0 / precision
    mu = tau2 * (model.prior_mean / model.prior_var + y.sum() / model.noise_var)
    return float(mu), float(tau2)


def posterior_predictive(mu: float, tau2: float, sigma2: float) -> Gaussian:
    """Predictive of a new observation: N(mu, sigma2 + tau2), for finite sigma2 > 0
    and tau2 >= 0 (-ulp(0) is the largest double below 0)."""
    check_positive("variances must be positive", sigma2)
    check_finite("variances must be positive", tau2, least=-math.ulp(0.0))
    return Gaussian(mean=mu, stddev=math.sqrt(sigma2 + tau2))


def location_example_demo(theta_true: float = 0.5, n: int = 10_000,
                          seed: int = 0) -> tuple:
    """How often the marginal N(0, 2) CDF of N(theta_true, 1) data falls below 0.5.

    Returns (empirical fraction, analytic fraction). The analytic value is the
    standard normal CDF at -theta_true; it differs from 0.5 whenever the true
    location is nonzero, which is exactly why per-dataset CDF uniformity fails
    under model uncertainty.
    """
    check_integer(n, 1, f"n must be an integer >= 1, got {n!r}")
    check_finite(f"theta_true must be finite, got {theta_true!r}", theta_true)
    check_integer(seed, 0, f"seed must be a non-negative integer, got {seed!r}")
    y = theta_true + np.random.default_rng(seed).standard_normal(n)
    empirical = float(np.mean(gaussian_cdf(0.0, math.sqrt(2.0), y) < 0.5))
    return empirical, gaussian_cdf(0.0, 1.0, -theta_true)


@dataclass(frozen=True)
class QuadraticDatasetConfig:
    n: int = 100
    holdout: tuple = (-1.5, 0.0)
    noise_var: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_integer(self.n, 1, f"n must be an integer >= 1, got {self.n!r}")
        check_integer(self.seed, 0, f"seed must be a non-negative integer, got {self.seed!r}")
        check_positive("noise_var must be finite and > 0", self.noise_var)
        rule = (f"holdout must be finite, ordered and leave 1% of the N(0, 1) mass "
                f"outside it, got {self.holdout}")
        holdout = real_array(self.holdout, rule)
        lo, hi = holdout if holdout.shape == (2,) else (math.nan, math.nan)  # else refused
        check_finite(rule, lo, hi)
        if not (lo < hi and gaussian_cdf(0.0, 1.0, lo) + gaussian_cdf(0.0, 1.0, -hi) >= 0.01):
            raise InvalidParameterError(rule)

    @property
    def noise_std(self) -> float:
        return math.sqrt(self.noise_var)


def quadratic_mean(x: np.ndarray) -> np.ndarray:
    if (x := real_array(x, "x must hold integers or floats")).ndim != 1:
        raise InvalidParameterError(f"x must be a vector, got shape {x.shape}")
    return (x - 1.0) ** 2


def generate_quadratic_dataset(cfg: QuadraticDatasetConfig, n_ood: int = 200):
    """Training data with the holdout interval rejected, plus an in-holdout grid.

    Returns (x_train, y_train, x_ood, y_ood). Training inputs are standard
    normal draws, rejection-resampled while inside the holdout interval so the
    training size is exact; the OOD inputs are an even grid inside it.
    """
    check_integer(n_ood, 1, f"n_ood must be an integer >= 1, got {n_ood!r}")
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.holdout
    x_train = np.empty(cfg.n)
    filled = 0
    while filled < cfg.n:
        draw = rng.standard_normal(cfg.n - filled)
        keep = draw[(draw <= lo) | (draw >= hi)]
        x_train[filled:filled + keep.size] = keep
        filled += keep.size
    y_train = quadratic_mean(x_train) + cfg.noise_std * rng.standard_normal(cfg.n)
    x_ood = np.linspace(lo, hi, n_ood + 2)[1:-1]
    y_ood = quadratic_mean(x_ood) + cfg.noise_std * rng.standard_normal(n_ood)
    return x_train, y_train, x_ood, y_ood


@dataclass(frozen=True)
class BayesianLinearEnsembleConfig:
    degree: int = 3
    prior_precision: float = 1.0
    noise_var: float = 0.5
    num_models: int = 50
    seed: int = 0

    def __post_init__(self):
        check_integer(self.degree, 0, f"degree must be an integer >= 0, got {self.degree!r}")
        check_integer(self.num_models, 1, "need at least one posterior draw")
        check_integer(self.seed, 0, f"seed must be a non-negative integer, got {self.seed!r}")
        check_positive("precision and noise variance must be finite and positive",
                       self.prior_precision, self.noise_var)


def _design(x: np.ndarray, degree: int, name: str) -> np.ndarray:
    rule = f"{name} and its powers up to {degree} must be finite"
    if (x := real_array(x, rule)).ndim != 1:
        raise InvalidParameterError(f"{name} must be a vector, got shape {x.shape}")
    phi = np.vander(x, degree + 1, increasing=True)
    if not np.all(np.isfinite(phi)):
        raise InvalidParameterError(rule)
    return phi


def bayesian_linear_ensemble(cfg: BayesianLinearEnsembleConfig, x_train, y_train,
                             x_query) -> st.EnsemblePredictions:
    """Exact posterior weight draws of a conjugate linear model on a basis.

    Each draw gives one ensemble member; member j predicts N(w_j . phi(x),
    noise_var) at every query point. The prior precision doubles as a ridge
    term, so the normal equations are never singular.
    """
    phi = _design(x_train, cfg.degree, "x_train")
    phi_q = _design(x_query, cfg.degree, "x_query")
    rule = f"y_train must be {phi.shape[0]} finite targets, one per input"
    y = real_array(y_train, rule)
    if y.shape != phi.shape[:1] or not np.all(np.isfinite(y)):
        raise InvalidParameterError(rule)
    d = phi.shape[1]
    s_inv = cfg.prior_precision * np.eye(d) + phi.T @ phi / cfg.noise_var
    cov = np.linalg.inv(s_inv)
    mean = cov @ (phi.T @ y / cfg.noise_var)
    rng = np.random.default_rng(cfg.seed)
    chol = np.linalg.cholesky(cov)
    draws = mean[None, :] + rng.standard_normal((cfg.num_models, d)) @ chol.T
    means = phi_q @ draws.T                                # [Nq, M]
    stds = np.full_like(means, math.sqrt(cfg.noise_var))
    return st.EnsemblePredictions.from_gaussians(means, stds)
