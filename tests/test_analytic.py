import dataclasses
import hashlib
import math

import numpy as np
import pytest

from ppc_uq import analytic, cli, io, ppc
from ppc_uq import statistics as st
from ppc_uq.predictive import InvalidParameterError


class TestConjugatePosterior:
    def test_single_observation(self):
        model = analytic.ConjugateNormalModel(0.0, 1.0, 1.0)
        mu, tau2 = analytic.conjugate_posterior(model, [0.0])
        assert mu == pytest.approx(0.0)
        assert tau2 == pytest.approx(0.5)

    def test_prior_mean_passthrough(self):
        model = analytic.ConjugateNormalModel(1.7, 2.0, 1.0)
        mu, _ = analytic.conjugate_posterior(model, [1.7])
        assert mu == pytest.approx(1.7)

    def test_large_sample_concentrates(self):
        model = analytic.ConjugateNormalModel(0.0, 1.0, 1.0)
        data = 0.5 + np.random.default_rng(3).standard_normal(10_000)
        mu, tau2 = analytic.conjugate_posterior(model, data)
        assert mu == pytest.approx(0.5, abs=0.03)
        assert tau2 == pytest.approx(1e-4, rel=0.01)

    def test_empty_data(self):
        with pytest.raises(InvalidParameterError):
            analytic.conjugate_posterior(analytic.ConjugateNormalModel(), [])

    def test_posterior_variance_shrinks_with_n(self):
        model = analytic.ConjugateNormalModel(0.0, 1.0, 1.0)
        taus = [analytic.conjugate_posterior(model, np.zeros(n))[1]
                for n in (1, 2, 5, 20, 100)]
        assert all(a > b for a, b in zip(taus, taus[1:]))


class TestPosteriorPredictive:
    def test_marginal_of_standard_prior(self):
        g = analytic.posterior_predictive(0.0, 1.0, 1.0)
        assert g.mean == 0.0
        assert g.stddev ** 2 == pytest.approx(2.0)

    def test_delta_posterior(self):
        g = analytic.posterior_predictive(0.6, 0.0, 1.3)
        assert g.stddev ** 2 == pytest.approx(1.3)

    def test_direct_formula(self):
        g = analytic.posterior_predictive(0.3, 0.04, 1.0)
        assert g.mean == 0.3
        assert g.stddev ** 2 == pytest.approx(1.04)

    def test_variance_never_below_noise(self, rng):
        for _ in range(200):
            tau2 = rng.random() * 5
            sigma2 = 0.1 + rng.random() * 5
            g = analytic.posterior_predictive(rng.normal(), tau2, sigma2)
            assert g.stddev ** 2 >= sigma2


class TestLocationExampleDemo:
    def test_analytic_value(self):
        _, analytic_frac = analytic.location_example_demo(0.5, n=10)
        assert analytic_frac == pytest.approx(0.3085375387, abs=1e-9)

    def test_zero_location_is_uniform_consistent(self):
        _, analytic_frac = analytic.location_example_demo(0.0, n=10)
        assert analytic_frac == 0.5

    def test_empirical_matches(self):
        emp, ana = analytic.location_example_demo(0.5, n=100_000, seed=0)
        assert emp == pytest.approx(ana, abs=0.01)

    def test_binomial_bound_over_seeds(self):
        n = 20_000
        for seed in range(5):
            emp, ana = analytic.location_example_demo(0.5, n=n, seed=seed)
            assert abs(emp - ana) < 3 * math.sqrt(ana * (1 - ana) / n)


class TestQuadraticDataset:
    def test_training_inputs_avoid_holdout(self):
        cfg = analytic.QuadraticDatasetConfig(n=500, seed=1)
        x, _, _, _ = analytic.generate_quadratic_dataset(cfg)
        assert x.size == 500
        assert not np.any((x > -1.5) & (x < 0.0))

    @pytest.mark.parametrize("config,name,value", [
        (analytic.QuadraticDatasetConfig, "holdout", (-1.5, 0.0)),
        (analytic.BayesianLinearEnsembleConfig, "degree", 3)])
    def test_holdout_and_degree_are_constants(self, config, name, value):
        # the paper's held-out interval and cubic basis: read as before, set by no caller
        assert name not in {f.name for f in dataclasses.fields(config)}
        assert getattr(config, name) == getattr(config(), name) == value
        with pytest.raises(TypeError, match=name):
            config(**{name: value})

    # sha256 of each `simulate --scenario quadratic --seed 2 --n 50 --models 10` file
    SIMULATED_FILES = ("id_labels.csv", "id_predictions.jsonl", "ood_labels.csv",
                       "ood_predictions.jsonl", "train_inputs.csv", "train_labels.csv")
    SIMULATED = {
        (): (
            "3b69ce94261a1452d00f1124e4a19ce7de4c9528da59352f2b3db8f24fd828e3",
            "95874308ce7b42a8bc3efeff226b98162f27987b77d5c850873f93080482efff",
            "377dcbfeb67c83f9b438c5c7d94ebe43899f46ce9c85b9182782f0178600da0a",
            "af8a8208d106fdbc20ce5c3d455d43236d1d58e7d973485f0a135852caf0e67b",
            "76deab6b82c6642126cd85b2396a1e3db17ff0947cb3b19f6c6ea40f5ede09f2",
            "dd22028b7a973a466a9c82176327593fbd5f5c7e408846974c25867d3137216d"),
        ("--noise-as-std",): (
            "0da73e0d6ebf4b9dfb1e3e8dce39cabfaeec0a2c176e47828b176751753f78d9",
            "c56c525cc4e9a19ffa87000b54e5e7bb2bc539d1f6355747accbad1ebef5c2bb",
            "19f8f5754ae7811eab76738cd52ac52f97294d3a8d6e4ca3f4a873c56a36c6d0",
            "24883d728c8ebb9b42e2c7e999833dc26922a32a82139d49266078fcaf2c7f0b",
            "76deab6b82c6642126cd85b2396a1e3db17ff0947cb3b19f6c6ea40f5ede09f2",
            "b307431392c483edf9acc2c1466e9f64db8291badfd8acd82f98629bdc37c2e7"),
    }

    @pytest.mark.parametrize("flags", list(SIMULATED), ids=["noise-var", "noise-as-std"])
    def test_simulated_files_are_pinned(self, tmp_path, flags):
        assert cli.main(["simulate", "--scenario", "quadratic", "--seed", "2", "--n", "50",
                         "--models", "10", *flags, "--out-dir", str(tmp_path)]) == 0
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in tmp_path.iterdir()} == dict(zip(self.SIMULATED_FILES,
                                                            self.SIMULATED[flags]))

    def test_ood_grid_inside_holdout(self):
        cfg = analytic.QuadraticDatasetConfig(n=10, seed=1)
        _, _, x_ood, y_ood = analytic.generate_quadratic_dataset(cfg, n_ood=50)
        assert x_ood.size == 50 and y_ood.size == 50
        assert np.all((x_ood > -1.5) & (x_ood < 0.0))

    def test_noise_law(self):
        cfg = analytic.QuadraticDatasetConfig(n=10_000, seed=2)
        x, y, _, _ = analytic.generate_quadratic_dataset(cfg)
        residuals = y - analytic.quadratic_mean(x)
        assert residuals.mean() == pytest.approx(0.0, abs=0.03)
        assert residuals.var() == pytest.approx(0.5, abs=0.03)

    def test_noise_as_std_flag(self, tmp_path):
        """`simulate --noise-as-std` reads the noise constant 0.5 as a standard
        deviation: it is the config's noise_var = 0.25, in the data and in the
        ensemble's members."""
        cfg = analytic.QuadraticDatasetConfig(n=10_000, noise_var=0.25, seed=2)
        x, y, _, _ = analytic.generate_quadratic_dataset(cfg)
        assert (y - analytic.quadratic_mean(x)).var() == pytest.approx(0.25,
                                                                       abs=0.02)
        out = tmp_path / "quad"
        assert cli.main(["simulate", "--scenario", "quadratic", "--seed", "2",
                         "--n", "10000", "--models", "2", "--noise-as-std",
                         "--out-dir", str(out)]) == 0
        np.testing.assert_array_equal(
            np.loadtxt(out / "train_inputs.csv", skiprows=1), x)
        np.testing.assert_array_equal(
            np.loadtxt(out / "train_labels.csv", skiprows=1), y)
        preds, _ = io.load_predictions(out / "id_predictions.jsonl")
        assert np.all(preds.stds == 0.5)


class TestBayesianLinearEnsemble:
    def test_huge_precision_collapses_models(self):
        cfg = analytic.BayesianLinearEnsembleConfig(prior_precision=1e12,
                                                    num_models=8, seed=0)
        x = np.linspace(-2, 2, 30)
        y = analytic.quadratic_mean(x)
        preds = analytic.bayesian_linear_ensemble(cfg, x, y, x)
        spread = preds.means.std(axis=1)
        assert np.max(spread) < 1e-4
        # with identical members the two modes are equal in distribution
        stat = ppc.CalibrationErrorStatistic()
        ssb = ppc.sample_statistic(preds, None, stat, ppc.BAYESIAN,
                                   num_replicates=2000, seed=1)
        ssi = ppc.sample_statistic(preds, None, stat, ppc.INDEPENDENT,
                                   num_replicates=2000, seed=2)
        assert np.mean(ssb.samples) == pytest.approx(np.mean(ssi.samples),
                                                     rel=0.2)

    def test_in_distribution_self_consistency(self):
        stat = ppc.CalibrationErrorStatistic()
        passed = 0
        for seed in range(20):
            cfg = analytic.QuadraticDatasetConfig(n=20, seed=seed)
            xt, yt, _, _ = analytic.generate_quadratic_dataset(cfg)
            ecfg = analytic.BayesianLinearEnsembleConfig(
                num_models=50, prior_precision=0.5, seed=seed)
            dat = np.random.default_rng(1000 + seed)
            xi = np.empty(0)
            while xi.size < 400:
                d = dat.standard_normal(400 - xi.size)
                xi = np.concatenate([xi, d[(d <= -1.5) | (d >= 0.0)]])
            yi = analytic.quadratic_mean(xi) + cfg.noise_std * dat.standard_normal(400)
            preds = analytic.bayesian_linear_ensemble(ecfg, xt, yt, xi)
            rep = ppc.run_ppc(preds, None, yi, stat, ppc.BAYESIAN,
                              num_replicates=300, seed=seed)
            passed += rep.passed
        assert passed >= 18

    def test_fit_recovers_quadratic_in_distribution(self):
        cfg = analytic.QuadraticDatasetConfig(n=400, seed=4)
        xt, yt, _, _ = analytic.generate_quadratic_dataset(cfg)
        ecfg = analytic.BayesianLinearEnsembleConfig(num_models=20, seed=4)
        grid = np.linspace(0.2, 2.0, 25)
        preds = analytic.bayesian_linear_ensemble(ecfg, xt, yt, grid)
        posterior_mean = preds.means.mean(axis=1)
        np.testing.assert_allclose(posterior_mean, analytic.quadratic_mean(grid),
                                   atol=0.3)
