"""MMSE one-step prediction and zero-holding baselines."""

import numpy as np
import pytest

from csi_feedback import (
    Autocovariance,
    NoiseSpec,
    PredictorCoefficients,
    ZhEstimator,
    autocovariance,
    mmse_coefficients,
    predict_one_step,
    zh_estimate,
    zh_estimator,
)
from csi_feedback.errors import DimensionMismatch, SingularSystem
from shared import sliding_predictions
from test_channel import AR1_KAPPA0, AR1_KAPPA1, random_stationary_model

# frozen via an arbitrary-precision solve of the scalar Wiener equations
AR1_THETA1 = 0.75630252100840336
AR1_SIGMA_P_SQ = 1.680672268907563
AR1_ALPHA = 0.84033613445378151
AR1_SIGMA_Z_SQ = 1.8929677134011499


class TestMmseCoefficients:
    def test_noiseless_ar1_recovers_coefficient(self, ar1_acov):
        coeffs = mmse_coefficients(ar1_acov, NoiseSpec(0.0), 1)
        assert coeffs.theta[0] == pytest.approx(0.9, rel=1e-12)
        assert coeffs.sigma_p_sq == pytest.approx(1.0, rel=1e-9)

    def test_noisy_ar1_closed_form(self, ar1_acov, noise):
        coeffs = mmse_coefficients(ar1_acov, noise, 1)
        assert coeffs.theta[0] == pytest.approx(AR1_THETA1, rel=1e-12)
        assert coeffs.sigma_p_sq == pytest.approx(AR1_SIGMA_P_SQ, rel=1e-12)

    def test_overwhelming_noise(self, ar1_acov):
        heavy = NoiseSpec(1e12 * AR1_KAPPA0)
        coeffs = mmse_coefficients(ar1_acov, heavy, 1)
        assert abs(coeffs.theta[0]) < 1e-10
        assert coeffs.sigma_p_sq == pytest.approx(AR1_KAPPA0, rel=1e-9)

    def test_empirical_mse_10m(self, ar1_trace_10m):
        # Monte Carlo oracle: predict x_{k+1} from theta_1 * y_k
        coeffs = mmse_coefficients(autocovariance(ar1_trace_10m.model, 1), NoiseSpec(1.0), 1)
        x, y = ar1_trace_10m.x, ar1_trace_10m.y
        mse = float(np.mean((x[1:] - coeffs.theta[0] * y[:-1]) ** 2))
        assert abs(mse - coeffs.sigma_p_sq) / coeffs.sigma_p_sq < 0.01

    def test_sigma_p_within_three_se(self, ar4_acov, ar4_trace_1m, noise):
        coeffs = mmse_coefficients(ar4_acov, noise, 4)
        err_sq = (ar4_trace_1m.x[4:] - sliding_predictions(ar4_trace_1m.y, coeffs.theta)) ** 2
        batches = err_sq[: err_sq.size - err_sq.size % 100].reshape(100, -1).mean(axis=1)
        se = float(np.std(batches, ddof=1) / np.sqrt(batches.size))
        assert abs(float(err_sq.mean()) - coeffs.sigma_p_sq) < 3 * se

    def test_monotone_in_order(self, ar4, noise):
        acov = autocovariance(ar4, 10)
        mses = [mmse_coefficients(acov, noise, order).sigma_p_sq for order in range(1, 9)]
        for shorter, longer in zip(mses, mses[1:]):
            assert longer <= shorter + 1e-12

    def test_orthogonality_of_prediction_error(self, ar4_acov, ar4_trace_1m, noise):
        coeffs = mmse_coefficients(ar4_acov, noise, 4)
        windows = np.lib.stride_tricks.sliding_window_view(ar4_trace_1m.y, 4)[:-1]
        err = ar4_trace_1m.x[4:] - windows @ coeffs.theta[::-1]
        bound = 3.0 / np.sqrt(err.size)
        for lag in range(4):
            r = np.corrcoef(err, windows[:, 3 - lag])[0, 1]
            assert abs(r) < bound, f"window entry y_(k-{lag})"

    def test_singular_covariance_raises(self):
        degenerate = Autocovariance(lags=np.array([1.0, 1.0, 1.0]), max_lag=2)
        with pytest.raises(SingularSystem):
            mmse_coefficients(degenerate, NoiseSpec(0.0), 2)

    def test_insufficient_lags_rejected(self, ar1_acov, noise):
        with pytest.raises(ValueError):
            mmse_coefficients(ar1_acov, noise, ar1_acov.max_lag + 1)


class TestPredictOneStep:
    def test_scalar_product(self):
        coeffs = PredictorCoefficients(theta=np.array([0.5]), order=1, sigma_p_sq=0.0)
        assert predict_one_step(coeffs, [2.0]) == 1.0

    def test_zero_coefficients(self):
        coeffs = PredictorCoefficients(theta=np.zeros(4), order=4, sigma_p_sq=0.0)
        assert predict_one_step(coeffs, [1.0, -2.0, 3.0, 4.0]) == 0.0

    def test_matches_naive_sum(self, ar4_acov, noise):
        coeffs = mmse_coefficients(ar4_acov, noise, 4)
        rng = np.random.default_rng(8)
        for _ in range(20):
            window = rng.normal(size=4)
            # window is oldest to newest: theta_l multiplies y_{k+1-l}
            naive = sum(coeffs.theta[l] * window[4 - 1 - l] for l in range(4))
            assert predict_one_step(coeffs, window) == pytest.approx(naive, abs=1e-12)

    def test_wrong_length_rejected(self, ar4_acov, noise):
        coeffs = mmse_coefficients(ar4_acov, noise, 4)
        with pytest.raises(DimensionMismatch):
            predict_one_step(coeffs, [1.0, 2.0])


class TestZeroHolding:
    def test_closed_form_reference(self, ar1_acov, noise):
        zh = zh_estimator(ar1_acov, noise)
        assert zh.alpha == pytest.approx(AR1_ALPHA, rel=1e-12)
        assert zh.sigma_z_sq == pytest.approx(AR1_SIGMA_Z_SQ, rel=1e-12)

    def test_static_noiseless_channel_has_zero_mse(self):
        # perfectly correlated limit kappa(1) == kappa(0), no noise
        acov = Autocovariance(lags=np.array([2.0, 2.0]), max_lag=1)
        zh = zh_estimator(acov, NoiseSpec(0.0))
        assert zh.sigma_z_sq == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_general_form(self, ar1_acov):
        zh = zh_estimator(ar1_acov, NoiseSpec(0.0))
        assert zh.alpha == 1.0
        assert zh.sigma_z_sq == pytest.approx(2 * (AR1_KAPPA0 - AR1_KAPPA1), rel=1e-12)

    def test_estimate_is_scaled_observation(self):
        assert zh_estimate(2.0, ZhEstimator(alpha=0.5, sigma_z_sq=1.0)) == 1.0
        noiseless = zh_estimator(
            Autocovariance(lags=np.array([1.0, 0.5]), max_lag=1), NoiseSpec(0.0)
        )
        assert noiseless.alpha == 1.0
        assert zh_estimate(3.25, noiseless) == 3.25

    def test_empirical_mse_matches_direct_expectation(self, ar1_acov, noise, ar1_trace_10m):
        # independent oracle: E[(x_{k+1} - alpha y_k)^2] expanded term by term
        # equals kappa0 + alpha kappa0 - 2 alpha kappa1
        zh = zh_estimator(ar1_acov, noise)
        k0, k1 = ar1_acov.lags[0], ar1_acov.lags[1]
        direct = k0 + zh.alpha * k0 - 2 * zh.alpha * k1
        x, y = ar1_trace_10m.x, ar1_trace_10m.y
        empirical = float(np.mean((x[1:] - zh.alpha * y[:-1]) ** 2))
        assert abs(empirical - direct) / direct < 0.01
        # the closed form sigma_z_sq drops the hold/filter cross terms, so it
        # exceeds the realised estimator MSE by exactly 2(1-alpha)(k0-k1)
        gap = 2 * (1 - zh.alpha) * (k0 - k1)
        assert zh.sigma_z_sq == pytest.approx(direct + gap, rel=1e-9)

    def test_sigma_z_matches_component_sum(self, ar1_trace_10m, ar1_acov, noise):
        # sigma_z_sq is the hold-gap MSE plus the filtering MSE, measured separately
        zh = zh_estimator(ar1_acov, noise)
        x, y = ar1_trace_10m.x, ar1_trace_10m.y
        hold_gap = float(np.mean((x[1:] - x[:-1]) ** 2))
        filtering = float(np.mean((x - zh.alpha * y) ** 2))
        assert abs(hold_gap + filtering - zh.sigma_z_sq) / zh.sigma_z_sq < 0.01


class TestDominance:
    def test_prediction_beats_zero_holding(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            model = random_stationary_model(rng)
            noise = NoiseSpec(float(rng.uniform(0.0, 3.0)))
            order = model.order
            acov = autocovariance(model, max(order, 1))
            coeffs = mmse_coefficients(acov, noise, order)
            zh = zh_estimator(acov, noise)
            assert coeffs.sigma_p_sq <= zh.sigma_z_sq + 1e-12
