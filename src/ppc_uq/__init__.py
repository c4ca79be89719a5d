"""Posterior predictive checks for probabilistic models with model uncertainty."""

__version__ = "0.4.0"
