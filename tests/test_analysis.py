"""Steady-state codec analysis: AR(1) fit, MSE recursions, practical rate."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csi_feedback import (
    Ar1Approx,
    ArModel,
    Autocovariance,
    NoiseSpec,
    Scheme,
    ar1_fit,
    autocovariance,
    converged_gain,
    converged_prediction_state,
    default_distortion_grid,
    ep_variance,
    generate_trace,
    innovation_quantizer,
    make_scheme_params,
    mmse_coefficients,
    mse_recursion,
    rate_practical,
    steady_state,
    sweep,
    validate_stationarity,
)
from csi_feedback.errors import (
    ContractionViolated,
    DegenerateCovariance,
    DistortionBelowFloor,
    NonConvergence,
    NonFiniteInput,
)
from csi_feedback.analysis import _MSE_CHUNK, MSE_RTOL
from test_codec import _ar_from_pacf
from test_kernel import assert_same_on_both_paths
from test_predictor import AR1_SIGMA_P_SQ

# frozen via arbitrary-precision evaluation
STEADY_STATE_HALF_GAIN = 0.62695924764890282
RATE_PRACTICAL_UNCLAMPED = -0.12710046175297056
IMPLIED_QUANT_BUDGET = 0.5324999227648


class TestAr1Fit:
    def test_self_fit_is_exact(self, ar1_acov):
        approx = ar1_fit(ar1_acov)
        assert approx.beta == pytest.approx(0.9, rel=1e-12)
        assert approx.iota_var == pytest.approx(1.0, rel=1e-12)

    def test_matches_least_squares_regression(self, ar4, noise):
        # regression oracle on a 1e7-step trace: b = sum x_k x_{k-1} / sum x_{k-1}^2
        trace = generate_trace(ar4, noise, 10_000_000, seed=61)
        x = trace.x
        beta_hat = float(np.dot(x[1:], x[:-1]) / np.dot(x[:-1], x[:-1]))
        resid_var = float(np.mean((x[1:] - beta_hat * x[:-1]) ** 2))
        approx = ar1_fit(autocovariance(ar4, 4))
        assert abs(approx.beta - beta_hat) / beta_hat < 0.01
        assert abs(approx.iota_var - resid_var) / resid_var < 0.01

    def test_degenerate_covariance(self):
        with pytest.raises(DegenerateCovariance):
            ar1_fit(Autocovariance(lags=np.array([0.0, 0.0])))


class TestMseRecursion:
    def test_trajectory_owns_memory_of_its_own_length(self, ar4, noise, either_path):
        # not a view of a longer buffer, such as the kernel's 1024-double chunk
        trajectory = mse_recursion(ar4, noise, lam=0.6, sigma_q_sq=0.01, steps=100_000)
        assert trajectory.base is None and trajectory.flags.owndata
        assert trajectory.nbytes == 8 * trajectory.size < 8 * _MSE_CHUNK

    def test_full_correction_is_constant(self, ar4, noise):
        trajectory = mse_recursion(ar4, noise, lam=1.0, sigma_q_sq=0.25, steps=100)
        assert trajectory[1] == pytest.approx(noise.obs_noise_var + 0.25, rel=1e-12)
        assert trajectory[-1] == trajectory[1]

    def test_ar1_fixed_point_matches_closed_form(self, ar1, noise):
        approx = ar1_fit(autocovariance(ar1, 1))
        lam, sigma_q_sq = 0.55, 0.02
        trajectory = mse_recursion(ar1, noise, lam, sigma_q_sq, steps=10_000)
        closed = steady_state(approx, noise, lam, sigma_q_sq).varsigma_inf
        assert trajectory[-1] == pytest.approx(closed, abs=1e-9)

    def test_ar4_fixed_point_matches_linear_solve(self, ar4, noise):
        lam, sigma_q_sq = 0.6, 0.01
        trajectory = mse_recursion(ar4, noise, lam, sigma_q_sq, steps=10_000)
        shrink = (1 - lam) ** 2
        sum_a_sq = sum(a * a for a in ar4.coeffs)
        constant = shrink * ar4.innovation_var + lam**2 * noise.obs_noise_var + sigma_q_sq
        fixed_point = constant / (1 - shrink * sum_a_sq)
        assert trajectory[-1] == pytest.approx(fixed_point, abs=1e-8)

    @pytest.mark.parametrize(
        "model, noise_var, bits",
        [
            (ArModel((0.5, 0.2, 0.1, 0.05), 1.0), 1.0, 2),
            (ArModel((1.2, -0.5, 0.3, -0.2, 0.1, 0.05, -0.03, 0.02), 0.7), 1.0, 6),
        ],
    )
    def test_trajectory_summed_left_to_right(self, model, noise_var, bits):
        # Python 3.12's builtin sum() compensates, and moves both trajectories
        noise = NoiseSpec(noise_var)
        sigma_q_sq = innovation_quantizer(model, noise, bits).noise_var
        lam = converged_gain(model, noise, sigma_q_sq)
        shrink = (1.0 - lam) ** 2
        constant = shrink * model.innovation_var + lam * lam * noise.obs_noise_var + sigma_q_sq
        ring = [autocovariance(model, model.order).sigma_x_sq] * model.order
        expected = [ring[0]]
        while len(expected) < 2 or abs(expected[-1] - expected[-2]) >= 1e-10 * expected[-2]:
            total = 0.0
            for a, v in zip(model.coeffs, ring):
                total += a * a * v
            expected.append(shrink * total + constant)
            ring = [expected[-1]] + ring[:-1]
        trajectory = mse_recursion(model, noise, lam, sigma_q_sq, steps=10_000)
        assert trajectory.tolist() == expected

    def test_divergent_gain_raises(self, noise):
        # stationary model with sum a_m^2 > 1; a tiny gain breaks the contraction
        model = ArModel((1.2, -0.5), 1.0)
        with pytest.raises(NonConvergence):
            mse_recursion(model, noise, lam=0.05, sigma_q_sq=0.0, steps=2000)

    def test_rejects_bad_gain(self, ar4, noise):
        with pytest.raises(ValueError):
            mse_recursion(ar4, noise, lam=0.0, sigma_q_sq=0.0, steps=10)


class TestSteadyState:
    def test_plug_in_value(self):
        ss = steady_state(Ar1Approx(beta=0.9, iota_var=1.0), NoiseSpec(1.0), 0.5, 0.0)
        assert ss.varsigma_inf == pytest.approx(STEADY_STATE_HALF_GAIN, rel=1e-12)

    def test_linear_in_quantization_noise(self):
        approx = Ar1Approx(beta=0.8, iota_var=1.5)
        noise = NoiseSpec(0.7)
        lam = 0.4
        delta = 0.3
        base = steady_state(approx, noise, lam, 0.2).varsigma_inf
        bumped = steady_state(approx, noise, lam, 0.2 + delta).varsigma_inf
        slope = delta / (1 - (1 - lam) ** 2 * approx.beta**2)
        assert bumped - base == pytest.approx(slope, rel=1e-12)

    def test_full_correction_limit(self):
        ss = steady_state(Ar1Approx(beta=0.9, iota_var=1.0), NoiseSpec(0.8), 1.0, 0.05)
        assert ss.varsigma_inf == pytest.approx(0.85, rel=1e-12)

    def test_contraction_enforced(self):
        with pytest.raises(ContractionViolated):
            steady_state(Ar1Approx(beta=1.5, iota_var=1.0), NoiseSpec(1.0), 0.01, 0.0)

    def test_monotonicity(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            beta = float(rng.uniform(0.05, 0.95))
            iota = float(rng.uniform(0.2, 2.0))
            xi = float(rng.uniform(0.1, 2.0))
            lam = float(rng.uniform(0.05, 0.95))
            sq = float(rng.uniform(0.0, 0.5))
            base = steady_state(Ar1Approx(beta, iota), NoiseSpec(xi), lam, sq).varsigma_inf
            assert steady_state(Ar1Approx(beta, iota), NoiseSpec(xi), lam, sq + 0.1).varsigma_inf > base
            assert steady_state(Ar1Approx(beta, iota), NoiseSpec(xi + 0.1), lam, sq).varsigma_inf > base
            assert steady_state(Ar1Approx(beta, iota + 0.1), NoiseSpec(xi), lam, sq).varsigma_inf > base


class TestEpVariance:
    def test_spectral_variance_matches_geometric_series(self):
        # (1/2pi) integral of 1/|1-beta e^{jw}|^2 equals sum_k beta^{2k}
        from csi_feedback.analysis import _spectral_variance

        for beta in (-0.6, 0.3, 0.9, 0.99):
            value = _spectral_variance(Ar1Approx(beta=beta, iota_var=1.0))
            series = math.fsum(beta ** (2 * k) for k in range(20_000))
            assert value == pytest.approx(series, rel=1e-9)

    def test_practical_sweep_with_negative_lag_one_correlation(self, noise):
        # kappa(1) < 0 gives beta < 0, which the AR(1) spectrum handles like beta > 0
        params = make_scheme_params(ArModel((-0.5,), 1.0), noise, 1)
        d_min, d_max = default_distortion_grid(Scheme.PRACTICAL_AR1, params)
        curve = sweep(Scheme.PRACTICAL_AR1, params, d_min, d_max, 10)
        rates = np.array([point.rate for point in curve.points])
        assert rates.size == 10
        assert np.all(np.isfinite(rates)) and np.all(rates >= 0)

    def test_noiseless_is_drive_variance(self, ar1_acov):
        assert ep_variance(ar1_acov, NoiseSpec(0.0)) == pytest.approx(1.0, rel=1e-9)

    def test_true_ar1_equals_scalar_wiener_error(self, ar1_acov, noise):
        value = ep_variance(ar1_acov, noise)
        assert value == pytest.approx(AR1_SIGMA_P_SQ, rel=1e-9)
        coeffs = mmse_coefficients(ar1_acov, noise, 1)
        assert abs(value - coeffs.sigma_p_sq) < 1e-9


class TestRatePractical:
    def test_plug_in_matches_oracle(self, noise):
        approx = Ar1Approx(beta=0.9, iota_var=1.0)
        value = rate_practical(1.2, approx, noise, lam=0.62696)
        assert value == pytest.approx(RATE_PRACTICAL_UNCLAMPED, abs=1e-9)
        assert value < 0.0  # raw: bounds.scheme_rate clamps it

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_raises(self, noise, target):
        with pytest.raises(NonFiniteInput, match=f"^rate_practical: distortion {target} is not"):
            rate_practical(target, Ar1Approx(beta=0.9, iota_var=1.0), noise, lam=0.62696)

    def test_floor_divergence(self, noise):
        approx = Ar1Approx(beta=0.9, iota_var=1.0)
        lam = 0.62696
        floor = steady_state(approx, noise, lam, 0.0).varsigma_inf
        with pytest.raises(DistortionBelowFloor):
            rate_practical(floor, approx, noise, lam)
        rates = [rate_practical(floor + gap, approx, noise, lam) for gap in (1e-2, 1e-5, 1e-8)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_quartered_budget_adds_one_bit(self, noise):
        approx = Ar1Approx(beta=0.9, iota_var=1.0)
        lam = 0.62696
        scale = 1 - (1 - lam) ** 2 * approx.beta**2
        floor = steady_state(approx, noise, lam, 0.0).varsigma_inf
        target_wide = floor + 0.4 / scale  # implied budget 0.4
        target_tight = floor + 0.1 / scale  # implied budget 0.1
        low = rate_practical(target_wide, approx, noise, lam)
        high = rate_practical(target_tight, approx, noise, lam)
        assert high - low == pytest.approx(1.0, abs=1e-9)

    def test_strictly_decreasing_in_target(self, noise):
        approx = Ar1Approx(beta=0.9, iota_var=1.0)
        lam = 0.62696
        floor = steady_state(approx, noise, lam, 0.0).varsigma_inf
        targets = np.linspace(floor * 1.01, floor * 4, 20)
        rates = [rate_practical(float(t), approx, noise, lam) for t in targets]
        assert all(b < a for a, b in zip(rates, rates[1:]))


class TestConvergedGain:
    def test_noiseless_gain_is_one(self, ar4):
        assert converged_gain(ar4, NoiseSpec(0.0), 0.1) == 1.0

    def test_matches_running_encoder(self, ar4, noise):
        from csi_feedback import EncoderState, innovation_quantizer

        q = innovation_quantizer(ar4, noise, 6)
        gain, pred_var = converged_prediction_state(ar4, noise, q.noise_var)
        state = EncoderState(ar4, noise, q)
        for k in range(500):
            state.encode_step(0.1 * math.sin(k))  # gain path ignores the data
        assert state.gain == pytest.approx(gain, abs=1e-9)
        assert state.pred_err_var == pytest.approx(pred_var, rel=1e-9)

    def test_scalar_kalman_fixed_point(self, ar1, noise):
        # E = 0.81 E/(E+1) + 1 reduces to E^2 - 0.81 E - 1 = 0
        _, pred_var = converged_prediction_state(ar1, noise, 0.0)
        expected = (0.81 + math.sqrt(0.81 * 0.81 + 4)) / 2
        assert pred_var == pytest.approx(expected, rel=1e-9)


class TestCrossModuleConsistency:
    def test_recursion_and_closed_form_agree_for_fitted_ar1(self, ar4, noise):
        approx = ar1_fit(autocovariance(ar4, 4))
        surrogate = ArModel((approx.beta,), approx.iota_var)
        lam = 0.5
        trajectory = mse_recursion(surrogate, noise, lam, 0.03, steps=5000)
        closed = steady_state(approx, noise, lam, 0.03).varsigma_inf
        assert trajectory[-1] == pytest.approx(closed, abs=1e-9)


def _codec_cases(max_order):
    """(model, noise, sigma_Q^2): a stationary AR(1..max_order) from partial
    autocorrelations, sigma_psi^2 log-uniform over 1e-3..1e3, sigma_xi^2 / sigma_psi^2
    log-uniform over 1e-6..1e6, and sigma_Q^2 >= 0."""
    return st.builds(
        lambda pacf, drive, ratio, sigma_q_sq: (
            ArModel(_ar_from_pacf(pacf), drive), NoiseSpec(drive * ratio), sigma_q_sq
        ),
        st.lists(st.floats(-0.98, 0.98), min_size=1, max_size=max_order),
        st.floats(-3.0, 3.0).map(lambda exponent: 10.0**exponent),
        st.floats(-6.0, 6.0).map(lambda exponent: 10.0**exponent),
        st.just(0.0) | st.floats(0.0, 10.0),
    )


class TestAnalyticOracles:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(case=_codec_cases(8))
    def test_gain_fixed_point_and_mse_recursion_agree_on_both_paths(self, case):
        # the kernel's gain_step against analysis.gain_step, through both loops that use it
        model, noise, sigma_q_sq = case
        assume(validate_stationarity(model))  # a root within 1e-9 of the unit circle is refused
        state = assert_same_on_both_paths(converged_prediction_state, model, noise, sigma_q_sq)
        gain = np.frombuffer(state[0])[0]
        assert 0.0 < gain <= 1.0
        assert_same_on_both_paths(mse_recursion, model, noise, gain, sigma_q_sq, 5000)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(case=_codec_cases(1))
    def test_ar1_steady_state_is_the_limit_of_the_mse_recursion(self, case):
        # the recursion stops within MSE_RTOL of its last step, which leaves it up to
        # MSE_RTOL / (1 - (1 - lam)^2 beta^2) from its limit
        model, noise, sigma_q_sq = case
        lam = converged_gain(model, noise, sigma_q_sq)
        beta = model.coeffs[0]
        closed = steady_state(Ar1Approx(beta, model.innovation_var), noise, lam, sigma_q_sq)
        last = mse_recursion(model, noise, lam, sigma_q_sq, 100_000)[-1]
        rel = 2.0 * MSE_RTOL / (1.0 - (1.0 - lam) ** 2 * beta**2)
        assert closed.varsigma_inf == pytest.approx(last, rel=rel)
