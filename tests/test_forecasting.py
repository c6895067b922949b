"""Forecaster training, prediction, criterion arithmetic, and persistence."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from conftest import (
    WindowMean,
    lag_dominant_trace,
    rotation_matrix,
    rotation_trace,
    var_trace,
)
from foreco.core import Command, Provenance, Trace
from foreco.errors import (
    ConfigError,
    DegenerateCovariance,
    Diverged,
    InsufficientData,
    InsufficientHistory,
    RankDeficient,
)
from foreco.forecasting import (
    AdamConfig,
    VarModel,
    aic,
    fit_var_adam,
    fit_var_ols,
    lagged_design,
    likelihood_ratio,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    save_model,
    select_lag,
)


def oracle_normal_equations(values: np.ndarray, lag: int) -> np.ndarray:
    """Independent least-squares solve: explicit design loop + normal equations."""
    n, d = values.shape
    rows = []
    targets = []
    for t in range(lag, n):
        row = [1.0]
        for i in range(1, lag + 1):
            row.extend(values[t - i])
        rows.append(row)
        targets.append(values[t])
    x = np.array(rows)
    y = np.array(targets)
    return np.linalg.solve(x.T @ x, x.T @ y)


def model_weight_matrix(model: VarModel) -> np.ndarray:
    """Stack a fitted model back into the (1 + d*lag, d) regression layout."""
    blocks = [model.bias[None, :]]
    for i in range(model.lag):
        blocks.append(model.coeffs[i].T)
    return np.vstack(blocks)


class TestFitVarOls:
    def test_noiseless_linear_system_recovered_exactly(self):
        theta = 0.73
        tr = rotation_trace(300, theta, amp=1.0)
        model = fit_var_ols(tr, 1)
        assert np.max(np.abs(model.coeffs[0] - rotation_matrix(theta))) < 1e-9
        assert np.max(np.abs(model.bias)) < 1e-9

    def test_constant_trace_is_rank_deficient(self):
        tr = Trace.from_joints(np.ones((50, 2)) * 0.3, 20.0)
        with pytest.raises(RankDeficient) as err:
            fit_var_ols(tr, 1)
        assert err.value.column >= 1  # a lagged column collides with the intercept

    def test_ridge_rescues_constant_trace(self):
        tr = Trace.from_joints(np.ones((50, 2)) * 0.3, 20.0)
        model = fit_var_ols(tr, 1, ridge=1e-6)
        pred = model.bias + model.coeffs[0] @ np.array([0.3, 0.3])
        assert np.allclose(pred, [0.3, 0.3], atol=1e-3)

    def test_too_short_trace(self):
        tr = Trace.from_joints(np.random.default_rng(0).normal(size=(8, 3)), 20.0)
        with pytest.raises(InsufficientData):
            fit_var_ols(tr, 2)  # needs 2 + 6 + 1 = 9 samples

    def test_matches_independent_normal_equation_oracle(self):
        for seed in range(5):
            d, lag = 3, 2
            tr, _ = var_trace(d, lag, 600, seed=seed)
            model = fit_var_ols(tr, lag)
            oracle = oracle_normal_equations(tr.joints_matrix(), lag)
            assert np.max(np.abs(model_weight_matrix(model) - oracle)) < 1e-8

    def test_noisy_var2_within_three_standard_errors(self):
        d, lag = 3, 2
        tr, mats = var_trace(d, lag, 10_000, seed=7, noise=0.1)
        model = fit_var_ols(tr, lag)
        x, _ = lagged_design(tr.joints_matrix(), lag)
        xtx_inv = np.linalg.inv(x.T @ x)
        for i in range(lag):
            block = model.coeffs[i]
            for k in range(d):  # output coordinate
                sigma2 = model.residual_cov[k, k]
                for j in range(d):  # regressor coordinate
                    col = 1 + i * d + j
                    se = math.sqrt(sigma2 * xtx_inv[col, col])
                    assert abs(block[k, j] - mats[i][k, j]) < 3.0 * se + 1e-12

    def test_ols_is_a_local_minimum_of_the_training_loss(self):
        tr, _ = var_trace(2, 1, 300, seed=3, noise=0.2)
        model = fit_var_ols(tr, 1)
        x, y = lagged_design(tr.joints_matrix(), 1)
        w0 = model_weight_matrix(model)
        base = np.sum((x @ w0 - y) ** 2)
        for r in range(w0.shape[0]):
            for c in range(w0.shape[1]):
                for eps in (1e-4, -1e-4):
                    w = w0.copy()
                    w[r, c] += eps
                    assert np.sum((x @ w - y) ** 2) >= base

    def test_lag_zero_fits_the_mean(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(0.5, 0.1, size=(200, 2))
        tr = Trace.from_joints(vals, 20.0)
        model = fit_var_ols(tr, 0)
        assert model.n_params == 0
        assert np.allclose(model.bias, vals.mean(axis=0), atol=1e-12)


class TestFitVarAdam:
    def test_zero_step_size_keeps_zero_weights(self):
        tr = rotation_trace(100, 0.5, amp=0.5)
        model = fit_var_adam(tr, 1, AdamConfig(step_size=0.0, epochs=5))
        assert np.all(model.coeffs == 0.0)
        assert np.all(model.bias == 0.0)

    def test_converges_to_ols_on_noiseless_var1(self):
        tr = rotation_trace(400, 0.861, amp=0.01)
        ols = fit_var_ols(tr, 1)
        adam = fit_var_adam(tr, 1, AdamConfig(batch_size=8, epochs=500))
        dist = max(
            np.max(np.abs(adam.coeffs - ols.coeffs)), np.max(np.abs(adam.bias - ols.bias))
        )
        assert dist <= 1e-3

    def test_divergence_reported_with_step_index(self):
        tr = rotation_trace(200, 0.5, amp=1.0)
        huge = AdamConfig(step_size=1e160, epochs=10, epsilon=1e-300, batch_size=8)
        with pytest.raises(Diverged) as err:
            fit_var_adam(tr, 1, huge)
        assert err.value.iteration >= 1


class TestPredict:
    def history(self, values, period_ms=20.0):
        return [
            Command.at(i, v, gen_time_ms=i * period_ms) for i, v in enumerate(values)
        ]

    def test_ma_of_constant_history_is_the_constant(self):
        v = (0.3, -0.1, 0.7)
        hist = self.history([v] * 4)
        out = predict(WindowMean(3, 4), hist, 20.0)
        assert out.joints == pytest.approx(v)

    def test_identity_var_repeats_previous_command(self):
        model = VarModel(dim=2, lag=1, bias=np.zeros(2), coeffs=np.eye(2)[None, :, :],
                         residual_cov=np.eye(2))
        hist = self.history([(0.1, 0.2), (0.5, -0.4)])
        out = predict(model, hist, 20.0)
        assert out.joints == pytest.approx((0.5, -0.4))

    def test_metadata_of_forecast(self):
        hist = self.history([(0.0,)] * 3, period_ms=20.0)
        out = predict(WindowMean(1, 2), hist, 20.0)
        assert out.provenance is Provenance.FORECAST
        assert out.seq == hist[-1].seq + 1
        assert out.gen_time_us == hist[-1].gen_time_us + 20_000
        assert predict(WindowMean(1, 1), hist[:1], period_ms=7.5).gen_time_us == 7_500

    def test_short_history_rejected(self):
        hist = self.history([(0.0, 0.0)] * 2)
        with pytest.raises(InsufficientHistory):
            predict(WindowMean(2, 5), hist, 20.0)

    def test_var_closed_loop_beats_ma_on_rotation(self):
        # lag 1 is the complete model here; deeper lags are exactly collinear
        tr = rotation_trace(500, 0.3, amp=1.0)
        var = fit_var_ols(tr, 1)
        ma = WindowMean(2, 4)
        values = tr.joints_matrix()
        errs = {}
        for name, model in (("var", var), ("ma", ma)):
            hist = self.history(values[100:110])
            sq = 0.0
            for step in range(10):
                nxt = predict(model, hist, 20.0)
                truth = values[110 + step]
                sq += float(np.sum((np.array(nxt.joints) - truth) ** 2))
                hist.append(nxt)
            errs[name] = math.sqrt(sq / 10)
        assert errs["var"] < errs["ma"]

    def test_prediction_is_linear_in_history_without_bias(self):
        rng = np.random.default_rng(11)
        model = VarModel(dim=2, lag=2, bias=np.zeros(2),
                         coeffs=rng.normal(size=(2, 2, 2)), residual_cov=np.eye(2))
        h1 = rng.normal(size=(2, 2))
        h2 = rng.normal(size=(2, 2))
        a, b = 0.7, -1.3

        def run(vals):
            return np.array(predict(model, self.history(vals), 20.0).joints)

        combo = run(a * h1 + b * h2)
        assert np.allclose(combo, a * run(h1) + b * run(h2), atol=1e-12)

    def test_duck_typed_forecaster(self):
        class Fixed:
            dim = 1
            min_history = 1

            def predict_next(self, history, period_ms):
                last = history[-1]
                return Command(last.seq + 1, (42.0,),
                               last.gen_time_us + round(period_ms * 1000),
                               provenance=Provenance.FORECAST)

        out = predict(Fixed(), self.history([(0.0,)] * 2), 20.0)
        assert out.joints == (42.0,)


class TestAic:
    def test_extra_zero_lag_shifts_criterion_by_2d2(self):
        d = 6
        tr, _ = var_trace(d, 1, 2_000, seed=2, noise=0.1)
        m1 = fit_var_ols(tr, 1)
        m2 = VarModel(dim=d, lag=2, bias=m1.bias,
                      coeffs=np.concatenate([m1.coeffs, np.zeros((1, d, d))]),
                      residual_cov=m1.residual_cov)
        # m1 over the trace from row 1 predicts the same targets from the
        # same rows as m2 over the whole trace
        a1 = aic(m1, tr.slice(1, len(tr)))
        a2 = aic(m2, tr)  # identical residuals, d^2 more parameters
        assert a1 - a2 == pytest.approx(-2 * d * d, abs=1e-6)

    def test_perfect_fit_is_degenerate(self):
        tr = rotation_trace(200, 0.5, amp=1.0)
        model = fit_var_ols(tr, 1)  # zero residuals on noiseless data
        with pytest.raises(DegenerateCovariance):
            aic(model, tr)

    def test_minimum_near_true_order(self):
        tr = lag_dominant_trace(3, 5, 10_000, seed=1)
        # every order scored on targets from row 8 on
        curves = [aic(fit_var_ols(tr, lag), tr.slice(8 - lag, len(tr))) for lag in range(1, 9)]
        best = 1 + int(np.argmin(curves))
        assert abs(best - 5) <= 1

    def test_dim_mismatch_rejected(self):
        tr, _ = var_trace(2, 1, 200, seed=3)
        other, _ = var_trace(3, 1, 200, seed=3)
        with pytest.raises(ConfigError):
            aic(fit_var_ols(tr, 1), other)

    def test_trace_no_longer_than_the_lag_rejected(self):
        tr, _ = var_trace(2, 3, 200, seed=3)
        with pytest.raises(InsufficientData, match="trace length 3 must exceed lag 3"):
            aic(fit_var_ols(tr, 3), tr.slice(0, 3))


class TestLikelihoodRatio:
    def test_reported_constants(self):
        r1 = likelihood_ratio(43.45, 0.0, 6)
        assert 1e25 <= r1 <= 2e25
        r2 = likelihood_ratio(4.8, 0.0, 6)
        assert 4e16 <= r2 <= 5e16

    def test_pure_parameter_penalty_gives_one(self):
        assert likelihood_ratio(0.0, 72.0, 6) == pytest.approx(1.0)

    def test_equal_criteria_give_exp_d_squared(self):
        for d in (1, 2, 6):
            assert likelihood_ratio(123.4, 123.4, d) == math.exp(d * d)

    def test_overflow_returns_inf_with_warning(self):
        with pytest.warns(RuntimeWarning):
            assert likelihood_ratio(5000.0, 0.0, 6) == math.inf


class TestSelectLag:
    def test_recovers_var1(self):
        tr, _ = var_trace(3, 1, 10_000, seed=4, noise=0.1)
        best, curve = select_lag(tr, max_lag=5)
        assert best == 1
        assert len(curve) == 5

    def test_white_noise_prefers_smallest_lag(self):
        rng = np.random.default_rng(8)
        tr = Trace.from_joints(rng.normal(size=(5_000, 3)), 20.0)
        best, curve = select_lag(tr, max_lag=6)
        assert best == 1
        # beyond the penalty slope the curve is close to linear in the lag
        steps = np.diff(curve)
        assert np.all(steps > 0)
        assert np.std(steps) < 0.2 * np.mean(steps)

    def test_single_candidate(self):
        tr, _ = var_trace(2, 1, 500, seed=5)
        best, curve = select_lag(tr, max_lag=1)
        assert best == 1 and len(curve) == 1

    @pytest.mark.parametrize("d", [1, 3, 6])
    @pytest.mark.parametrize("max_lag", [1, 5, 20])
    def test_curve_matches_per_order_lstsq_on_the_shared_rows(self, d, max_lag):
        tr, _ = var_trace(d, 2, 1_000, seed=d + max_lag, noise=0.1)
        values = tr.joints_matrix()
        oracle = []
        for lag in range(1, max_lag + 1):
            x, y = lagged_design(values[max_lag - lag :], lag)
            weights, *_ = np.linalg.lstsq(x, y, rcond=None)
            resid = y - x @ weights
            n = len(y)
            sign, logdet = np.linalg.slogdet(resid.T @ resid / n)
            assert sign == 1.0
            loglik = -0.5 * n * d * (math.log(2 * math.pi) + 1) - 0.5 * n * logdet
            oracle.append(2 * d * d * lag - loglik)
        best, curve = select_lag(tr, max_lag)
        assert curve == pytest.approx(oracle, rel=1e-9)
        assert best == 1 + int(np.argmin(oracle))

    @pytest.mark.parametrize("k, max_lag, ridge", [(2, 2, 0.0), (2, 2, 0.1), (1, 3, 0.0), (5, 5, 0.0)])
    def test_fit_is_the_refit_at_the_best_lag(self, k, max_lag, ridge):
        tr = lag_dominant_trace(3, k, 3_000, seed=5)
        selection = select_lag(tr, max_lag)
        best, curve = selection
        assert selection == (best, curve) and isinstance(selection, tuple)
        assert best == k
        model, refit = selection.fit(ridge), fit_var_ols(tr, best, ridge=ridge)
        assert model.lag == refit.lag == best
        for a, b in ((model.bias, refit.bias), (model.coeffs, refit.coeffs),
                     (model.residual_cov, refit.residual_cov)):
            assert a.tobytes() == b.tobytes()

    def test_constant_joint_is_rank_deficient_at_column_1(self):
        values = np.random.default_rng(3).normal(size=(400, 3))
        values[:, 0] = 0.3
        with pytest.raises(RankDeficient) as err:
            select_lag(Trace.from_joints(values, 20.0), max_lag=4)
        assert err.value.column == 1

    def test_noiseless_rotation_is_degenerate(self):
        # lag 1 fits exactly; lag 2's columns are collinear, but lag 1 is
        # scored first
        with pytest.raises(DegenerateCovariance):
            select_lag(rotation_trace(200, 0.5, amp=1.0), max_lag=3)

    def test_lag_too_large_for_the_data(self):
        tr = Trace.from_joints(np.random.default_rng(4).normal(size=(100, 6)), 20.0)
        with pytest.raises(InsufficientData, match="need at least 287"):
            select_lag(tr, max_lag=40)


def traced(fn, *args):
    """fn(*args), the peak of the memory traced while it ran and the memory
    still traced when it returned (what its result keeps)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, kept


class TestFitMemory:
    """No fit or lag search holds its whole design matrix [X | Y]: on a
    20,000-row trace at lag 20 and d = 6 each peaks below a third of the
    n x (k + d) doubles of that matrix, and a lag selection keeps only its R."""

    def test_fit_and_lag_search_peak_below_a_third_of_the_design(self):
        d, lag, rows = 6, 20, 20_000
        train = Trace.from_joints(np.random.default_rng(0).normal(size=(rows, d)), 20.0)
        design = (rows - lag) * (1 + lag * d + d) * 8
        _, fit_peak, _ = traced(fit_var_ols, train, lag, 0.1)
        selection, search_peak, kept = traced(select_lag, train, lag)
        assert fit_peak < design / 3
        assert search_peak < design / 3
        assert kept < 1_000_000
        assert len(selection[1]) == lag


class TestModelPersistence:
    def test_dict_round_trip_is_bit_exact(self):
        tr, _ = var_trace(3, 2, 400, seed=6, noise=0.05)
        model = fit_var_ols(tr, 2)
        doc = json.loads(json.dumps(model_to_dict(model)))
        back = model_from_dict(doc)
        assert np.array_equal(back.bias, model.bias)
        assert np.array_equal(back.coeffs, model.coeffs)
        assert np.array_equal(back.residual_cov, model.residual_cov)

    def test_file_round_trip(self, tmp_path):
        tr, _ = var_trace(2, 1, 300, seed=7, noise=0.05)
        model = fit_var_ols(tr, 1)
        path = tmp_path / "model.json"
        save_model(model, path, trained_at="2026-01-01T00:00:00+00:00")
        back = load_model(path)
        assert back.trained_at == "2026-01-01T00:00:00+00:00"
        assert back.trainer == "ols"
        assert np.array_equal(back.coeffs, model.coeffs)
        keys = set(json.loads(path.read_text()))
        assert keys == {"dim", "lag", "bias", "coeffs", "residual_cov", "trainer", "trained_at"}

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        tr, _ = var_trace(2, 1, 300, seed=7, noise=0.05)
        path = tmp_path / "model.json"
        save_model(fit_var_ols(tr, 1), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            save_model(fit_var_ols(tr, 2), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestVarModelInvariants:
    def test_n_params_counts_coefficients_only(self):
        tr, _ = var_trace(3, 2, 400, seed=9)
        model = fit_var_ols(tr, 2)
        assert model.n_params == 3 * 3 * 2

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ConfigError):
            VarModel(dim=1, lag=1, bias=np.array([np.nan]),
                     coeffs=np.ones((1, 1, 1)), residual_cov=np.eye(1))

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ConfigError):
            VarModel(dim=2, lag=1, bias=np.zeros(2), coeffs=np.zeros((1, 2, 2)),
                     residual_cov=np.array([[1.0, 0.5], [0.0, 1.0]]))
