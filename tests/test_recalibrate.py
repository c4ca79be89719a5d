import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from ppc_uq import recalibrate as rc
from ppc_uq import statistics as st
from ppc_uq.predictive import InvalidParameterError


def exact_stationary_fixture():
    """Label counts exactly matching softmax(z), so tau = 1 is the optimum.

    Rows share logits (ln 4, 0), i.e. class-0 probability 0.8; with exactly
    80% class-0 labels the empirical distribution equals the model's, making
    the temperature objective stationary at tau = 1 by construction.
    """
    n = 200
    logits = np.tile([np.log(4.0), 0.0], (n, 1, 1))
    labels = np.array([0] * 160 + [1] * 40)
    return logits, labels


def overconfident_fixture(n=10_000, m=3, c=5, seed=42):
    """Logits z reported, labels drawn from the ensemble of softmax(z / 2)."""
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, 2.0, size=(n, m, c))
    true_probs = st.softmax(z / 2.0).mean(axis=1)
    u = rng.random(n)
    labels = (u[:, None] > np.cumsum(true_probs, axis=1)).sum(axis=1)
    return z, labels


def criterion_6_fit_input():
    """What acceptance criterion 6 fits: the leading 20% of its seed-61 fixture."""
    z, labels = overconfident_fixture(n=50_000, seed=61)
    preds = st.EnsemblePredictions.from_logits(z)
    (rp, rl), _ = rc.split_recalibration(preds, labels, 0.2)
    return rp.logits, rl


def bench_shaped_fixture():
    """The benchmark's fit shape: N = 2,000 rows, M = 10 members, C = 10 classes.
    With M = C, a label taken from the member axis has the right shape."""
    return overconfident_fixture(n=2000, m=10, c=10)


def reference_objective_and_gradient(logits, labels, log_tau):
    """The fit objective computed directly from softmax(logits / tau)."""
    tau = np.exp(log_tau)
    n, m, _ = logits.shape
    s = st.softmax(logits / tau[None, :, None])
    rows = np.arange(n)
    a = s[rows, :, labels]
    p = a.mean(axis=1)
    obj = float(np.mean(np.log(p)))
    sz = np.einsum("nmc,nmc->nm", s, logits)
    z_true = logits[rows, :, labels]
    da = a * (sz - z_true) / tau[None, :]
    grad = np.mean(da / (m * p[:, None]), axis=0)
    return obj, grad


def reference_fit(logits, labels, max_iters=500, tol=1e-8):
    """fit_temperatures' ascent loop over the reference objective."""
    log_tau = np.zeros(logits.shape[1])
    obj, grad = reference_objective_and_gradient(logits, labels, log_tau)
    for _ in range(max_iters):
        step = 1.0
        improved = False
        for _ in range(50):
            cand = log_tau + step * grad
            cand_obj, cand_grad = reference_objective_and_gradient(
                logits, labels, cand)
            if cand_obj > obj:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        gain = cand_obj - obj
        log_tau, obj, grad = cand, cand_obj, cand_grad
        if gain < tol:
            break
    return np.exp(log_tau)


@hst.composite
def objective_cases(draw):
    n = draw(hst.integers(1, 50))
    m = draw(hst.integers(1, 4))
    c = draw(hst.integers(1, 6))
    logits = draw(hnp.arrays(float, (n, m, c),
                             elements=hst.floats(-30, 30, allow_subnormal=False)))
    labels = np.asarray(draw(hst.lists(hst.integers(0, c - 1),
                                       min_size=n, max_size=n)))
    tau = draw(hst.lists(hst.floats(0.2, 5), min_size=m, max_size=m))
    return logits, labels, np.log(tau)


class TestObjectiveReference:
    """The precomputed-term kernel against the softmax reference above.

    Tolerances are fixed from float64: the two forms round the exponent
    argument differently, by a few ulps of |logit| / tau <= 150.
    """

    @given(objective_cases())
    @settings(max_examples=200, deadline=None)
    def test_objective_and_gradient_match_reference(self, case):
        logits, labels, log_tau = case
        obj, grad = rc._fit_objective(logits, labels)(log_tau)
        ref_obj, ref_grad = reference_objective_and_gradient(logits, labels,
                                                             log_tau)
        assert obj == pytest.approx(ref_obj, rel=1e-10, abs=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("fixture", [overconfident_fixture,
                                         criterion_6_fit_input,
                                         bench_shaped_fixture])
    def test_fit_matches_reference_loop(self, fixture):
        z, labels = fixture()
        temps = rc.fit_temperatures(z, labels).as_array()
        np.testing.assert_allclose(temps, reference_fit(z, labels), rtol=1e-10)

    def test_permuting_members_permutes_temperatures(self):
        z, labels = bench_shaped_fixture()
        temps = rc.fit_temperatures(z, labels).as_array()
        for seed in (0, 1):
            perm = np.random.default_rng(seed).permutation(z.shape[1])
            permuted = rc.fit_temperatures(z[:, perm], labels).as_array()
            np.testing.assert_allclose(permuted, temps[perm], rtol=1e-12)


class TestSplitRecalibration:
    def _preds(self, n):
        probs = np.full((n, 1, 2), 0.5)
        return st.EnsemblePredictions.from_probs(probs)

    def test_ten_rows(self):
        (rp, rl), (ep, el) = rc.split_recalibration(self._preds(10), [0] * 10, 0.2)
        assert rp.num_rows == 2 and ep.num_rows == 8

    def test_five_rows(self):
        (rp, rl), (ep, el) = rc.split_recalibration(self._preds(5), [0] * 5, 0.2)
        assert rp.num_rows == 1 and ep.num_rows == 4

    def test_single_row_degenerate(self):
        with pytest.raises(InvalidParameterError):
            rc.split_recalibration(self._preds(1), [0], 0.2)

    def test_slices_disjoint_and_cover(self):
        labels = np.arange(10) % 2
        probs = np.full((10, 1, 2), 0.5)
        preds = st.EnsemblePredictions.from_probs(probs)
        (_, rl), (_, el) = rc.split_recalibration(preds, labels, 0.3)
        np.testing.assert_array_equal(np.concatenate([rl, el]), labels)


class TestApplyTemperatures:
    def test_unit_temperature_identity(self, rng):
        logits = rng.normal(size=(4, 2, 3))
        out = rc.apply_temperatures(logits, rc.TemperatureVector((1.0, 1.0)))
        np.testing.assert_allclose(out, st.softmax(logits), atol=1e-12)

    def test_infinite_temperature_limit(self):
        logits = np.array([[[2.0, 0.0]]])
        out = rc.apply_temperatures(logits, rc.TemperatureVector((1e4,)))
        np.testing.assert_allclose(out[0, 0], [0.5, 0.5], atol=1e-3)

    def test_half_temperature_sharpens(self):
        logits = np.array([[[1.0, 0.0]]])
        out = rc.apply_temperatures(logits, rc.TemperatureVector((0.5,)))
        sigma2 = 1.0 / (1.0 + np.exp(-2.0))
        np.testing.assert_allclose(out[0, 0], [sigma2, 1 - sigma2], atol=1e-4)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(InvalidParameterError):
            rc.TemperatureVector((1.0, 0.0))

    @given(hst.integers(0, 2 ** 32 - 1),
           hst.lists(hst.floats(0.1, 10), min_size=2, max_size=2))
    @settings(max_examples=25)
    def test_argmax_preserved(self, seed, temps):
        logits = np.random.default_rng(seed).normal(size=(10, 2, 4))
        out = rc.apply_temperatures(logits, rc.TemperatureVector(tuple(temps)))
        np.testing.assert_array_equal(out.argmax(axis=2), logits.argmax(axis=2))


class TestFitTemperatures:
    def test_stationary_fixture_returns_one(self):
        logits, labels = exact_stationary_fixture()
        # finite-difference check that tau = 1 really is stationary
        eps = 1e-5
        obj = lambda lt: rc._fit_objective(logits, labels)(np.array([lt]))[0]
        fd_grad = (obj(eps) - obj(-eps)) / (2 * eps)
        assert abs(fd_grad) < 1e-6
        temps = rc.fit_temperatures(logits, labels)
        assert temps.values[0] == pytest.approx(1.0, abs=1e-3)

    def test_overconfident_recovers_double_temperature(self):
        z, labels = overconfident_fixture()
        temps = rc.fit_temperatures(z, labels)
        for tau in temps.values:
            assert 1.8 < tau < 2.2

    def test_objective_never_below_unit_temperature(self):
        z, labels = overconfident_fixture(n=2000, seed=7)
        temps = rc.fit_temperatures(z, labels)
        base, _ = rc._fit_objective(z, labels)(np.zeros(z.shape[1]))
        fit, _ = rc._fit_objective(z, labels)(np.log(temps.as_array()))
        assert fit >= base

    def test_analytic_gradient_matches_finite_differences(self, rng):
        z = rng.normal(size=(50, 2, 3))
        labels = rng.integers(0, 3, 50)
        log_tau = np.array([0.3, -0.2])
        _, grad = rc._fit_objective(z, labels)(log_tau)
        eps = 1e-6
        for j in range(2):
            lo, hi = log_tau.copy(), log_tau.copy()
            lo[j] -= eps
            hi[j] += eps
            fd = (rc._fit_objective(z, labels)(hi)[0]
                  - rc._fit_objective(z, labels)(lo)[0]) / (2 * eps)
            assert grad[j] == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("case", ["one-label", "fractional-labels", "nan-logit",
                                      "label-out-of-range"])
    def test_input_outside_the_rules_is_refused(self, case):
        # logits z ~ N(0, 2) of shape (30, 3, 4); each case was fitted, or
        # died in numpy, before the logits and labels were checked
        z = np.random.default_rng(5).normal(0.0, 2.0, (30, 3, 4))
        labels = np.arange(30) % 4
        if case == "one-label":
            labels = labels[:1]
        elif case == "fractional-labels":
            labels = labels + 0.5
        elif case == "nan-logit":
            z[7, 1, 2] = np.nan
        else:
            z, labels = z[..., :2], np.full(30, 5)
        with pytest.raises(InvalidParameterError):
            rc.fit_temperatures(z, labels)

    def test_probabilities_without_logits_unsupported(self):
        with pytest.raises(rc.UnsupportedInputError):
            rc.fit_temperatures(np.full((4, 2), 0.5), [0, 1, 0, 1])

    def test_eval_slice_nll_improves(self):
        z, labels = overconfident_fixture()
        preds = st.EnsemblePredictions.from_logits(z)
        (rp, rl), (ep, el) = rc.split_recalibration(preds, labels, 0.2)
        temps = rc.fit_temperatures(rp.logits, rl)
        nll_unit = rc.ensemble_nll(st.softmax(ep.logits), el)
        nll_fit = rc.ensemble_nll(rc.apply_temperatures(ep.logits, temps), el)
        assert nll_fit < nll_unit + 1e-6


@pytest.mark.parametrize("labels", [[0.5, 1.7], [0, 2], [-1, 0]],
                         ids=["fractional", "out-of-range", "negative"])
def test_ensemble_nll_refuses_labels_outside_the_rule(labels):
    with pytest.raises(InvalidParameterError):
        rc.ensemble_nll(np.full((2, 1, 2), 0.5), labels)
