"""Rate-distortion lower bounds and curve sweeps."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csi_feedback import (
    ArModel,
    NoiseSpec,
    Scheme,
    autocovariance,
    default_distortion_grid,
    distortion_floor,
    log_det_ky,
    make_scheme_params,
    nu_variance,
    rate_aperiodic_prediction,
    rate_aperiodic_zh,
    rate_periodic,
    rate_uniform_aperiodic,
    sweep,
)
from csi_feedback import analysis
from csi_feedback.bounds import _log_grid, _sum_log2_theta_sq
from csi_feedback.errors import DistortionBelowFloor
from test_channel import AR1_KAPPA0, random_stationary_model
from test_codec import _ar_from_pacf
from test_predictor import AR1_SIGMA_P_SQ, AR1_SIGMA_Z_SQ

# frozen from an arbitrary-precision evaluation of the bound formulas on the
# AR(1) reference (a=0.9, sigma_psi^2=1, sigma_xi^2=1)
AR1_LOG_DET_KY_2 = 4.0694851003212839
AR1_RATE_AP_AT_2 = 3.0673707078182682
AR1_RATE_ZH_NORM_AT_2P5 = 1.4325609728284442
AR1_SIGMA_NU_SQ = 2.680672268907563
AR1_RATE_PER_AT_2 = 1.1317778831823731
AR1_RATE_UNI_AT_2 = 0.75344458264062714

ALL_SCHEMES = tuple(Scheme)


@pytest.fixture(scope="module")
def ar1_params(ar1, noise):
    return make_scheme_params(ar1, noise, order=1)


@pytest.fixture(scope="module")
def ar1_params_l2(ar1, noise):
    return make_scheme_params(ar1, noise, order=2)


@pytest.fixture(scope="module")
def ar4_params(ar4, noise):
    return make_scheme_params(ar4, noise, order=4)


class TestLogDetKy:
    def test_scalar_case(self, ar1_acov, noise):
        assert log_det_ky(ar1_acov, noise, 1) == pytest.approx(
            math.log2(AR1_KAPPA0 + 1.0), rel=1e-12
        )

    def test_two_by_two_against_generic_determinant(self, ar1_acov, noise):
        value = log_det_ky(ar1_acov, noise, 2)
        assert value == pytest.approx(AR1_LOG_DET_KY_2, rel=1e-12)
        ky0 = ar1_acov.lags[0] + 1.0
        ky1 = ar1_acov.lags[1]
        generic = math.log2(np.linalg.det(np.array([[ky0, ky1], [ky1, ky0]])))
        assert value == pytest.approx(generic, rel=1e-10)

    def test_diagonal_case(self):
        white = autocovariance(ArModel((0.0,), 2.0), 3)
        noise = NoiseSpec(0.5)
        for order in (1, 2, 3):
            assert log_det_ky(white, noise, order) == pytest.approx(
                order * math.log2(2.5), rel=1e-12
            )


class TestAperiodicPrediction:
    def test_reference_value(self, ar1_params):
        assert rate_aperiodic_prediction(2.0, ar1_params) == pytest.approx(
            AR1_RATE_AP_AT_2, rel=1e-12
        )

    def test_diverges_at_floor(self, ar1_params):
        rates = [
            rate_aperiodic_prediction(AR1_SIGMA_P_SQ + gap, ar1_params)
            for gap in (1e-2, 1e-4, 1e-6, 1e-8)
        ]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert rates[-1] > 15

    def test_clamped_at_large_distortion(self, ar1_params):
        assert rate_aperiodic_prediction(1e6, ar1_params) == 0.0
        assert rate_aperiodic_prediction(1e6, ar1_params, clamp=False) < 0.0

    def test_below_floor_raises(self, ar1_params):
        with pytest.raises(DistortionBelowFloor):
            rate_aperiodic_prediction(ar1_params.coeffs.sigma_p_sq, ar1_params)

    def test_normalized_form(self, ar1_params):
        # L=1: normalized halves the entropy and weight terms
        d = 2.0
        expected = (
            (ar1_params.log_det_ky + math.log2(ar1_params.coeffs.theta[0] ** 2)) / 2.0
            - 0.5 * math.log2(d - AR1_SIGMA_P_SQ)
        )
        assert rate_aperiodic_prediction(d, ar1_params, normalized=True) == pytest.approx(
            expected, rel=1e-12
        )


class TestAperiodicZh:
    def test_reference_normalized_value(self, ar1_params):
        assert rate_aperiodic_zh(2.5, ar1_params, normalized=True) == pytest.approx(
            AR1_RATE_ZH_NORM_AT_2P5, rel=1e-12
        )

    def test_diverges_at_floor(self, ar1_params):
        rates = [
            rate_aperiodic_zh(AR1_SIGMA_Z_SQ + gap, ar1_params) for gap in (1e-2, 1e-5, 1e-8)
        ]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_noiseless_normalized_weight_drops_out(self, ar1):
        params = make_scheme_params(ar1, NoiseSpec(0.0), order=1)
        d = 1.5
        expected = 0.5 * math.log2(params.acov.sigma_x_sq / (d - params.zh.sigma_z_sq))
        assert rate_aperiodic_zh(d, params, normalized=True) == pytest.approx(
            expected, rel=1e-12
        )

    def test_below_floor_raises(self, ar1_params):
        with pytest.raises(DistortionBelowFloor):
            rate_aperiodic_zh(AR1_SIGMA_Z_SQ - 0.01, ar1_params)


class TestLogWeightSum:
    def test_stored_sum_matches_the_weights(self, ar1_params, ar1_params_l2, ar4_params):
        for params in (ar1_params, ar1_params_l2, ar4_params):
            assert params.log2_theta_sq_sum == _sum_log2_theta_sq(params.coeffs)

    def test_zero_weight_gives_minus_infinity(self):
        params = make_scheme_params(ArModel((0.0, 0.0), 1.0), NoiseSpec(0.5))
        assert params.log2_theta_sq_sum == -math.inf == _sum_log2_theta_sq(params.coeffs)


class TestNuVariance:
    def test_summed_left_to_right(self):
        # Python 3.12's compensated sum() of these a_m^2 moves sigma_nu^2
        model = ArModel(_ar_from_pacf((-0.1, 0.4, -0.49, 0.8, 0.72, -0.84, -0.85)), 1.0)
        noise = NoiseSpec(1.0)
        sigma_x_sq = autocovariance(model, model.order).sigma_x_sq
        sum_a_sq = 0.0
        for a in model.coeffs:
            sum_a_sq += a * a
        filter_mse = sigma_x_sq * noise.obs_noise_var / (sigma_x_sq + noise.obs_noise_var)
        expected = filter_mse * sum_a_sq + model.innovation_var + noise.obs_noise_var
        assert nu_variance(model, noise) == expected

    def test_noiseless_reduces_to_drive(self, ar1):
        assert nu_variance(ar1, NoiseSpec(0.0)) == pytest.approx(1.0, rel=1e-12)

    def test_reference_value(self, ar1, noise):
        assert nu_variance(ar1, noise) == pytest.approx(AR1_SIGMA_NU_SQ, rel=1e-12)

    def test_memoryless_channel(self):
        assert nu_variance(ArModel((0.0,), 1.5), NoiseSpec(0.5)) == pytest.approx(2.0, rel=1e-12)


class TestPeriodic:
    def test_reference_value(self, ar1_params):
        assert rate_periodic(2.0, ar1_params) == pytest.approx(AR1_RATE_PER_AT_2, rel=1e-12)

    def test_zero_crossing(self, ar1_params):
        theta_sq_product = float(np.prod(ar1_params.coeffs.theta ** 2))
        crossing = AR1_SIGMA_P_SQ + AR1_SIGMA_NU_SQ * theta_sq_product
        assert rate_periodic(crossing, ar1_params) == pytest.approx(0.0, abs=1e-9)
        assert rate_periodic(crossing * 0.99, ar1_params) > 0.0
        assert rate_periodic(crossing * 1.01, ar1_params) == 0.0

    def test_periodic_needs_fewer_bits_than_aperiodic(self, ar1_params, ar4_params):
        for params in (ar1_params, ar4_params):
            floor = params.coeffs.sigma_p_sq
            for d in np.geomspace(floor * 1.0001, floor * 4, 12):
                assert rate_periodic(d, params) <= rate_aperiodic_prediction(d, params) + 1e-12

    def test_shares_prediction_floor(self, ar1_params):
        floor = ar1_params.coeffs.sigma_p_sq
        for d in (floor, floor * 0.9):
            with pytest.raises(DistortionBelowFloor):
                rate_periodic(d, ar1_params)
            with pytest.raises(DistortionBelowFloor):
                rate_aperiodic_prediction(d, ar1_params)


class TestUniformAperiodic:
    def test_reference_value(self):
        assert rate_uniform_aperiodic(2.0, AR1_KAPPA0, AR1_SIGMA_P_SQ) == pytest.approx(
            AR1_RATE_UNI_AT_2, rel=1e-12
        )

    def test_zero_at_matched_target(self):
        scale = math.sqrt(2 * math.pi * math.e * (AR1_KAPPA0 + AR1_SIGMA_P_SQ)) / 12.0
        target = AR1_SIGMA_P_SQ + scale
        assert rate_uniform_aperiodic(target, AR1_KAPPA0, AR1_SIGMA_P_SQ) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_quartering_gap_adds_one_bit(self):
        gap = 0.2
        low = rate_uniform_aperiodic(AR1_SIGMA_P_SQ + gap, AR1_KAPPA0, AR1_SIGMA_P_SQ)
        high = rate_uniform_aperiodic(AR1_SIGMA_P_SQ + gap / 4, AR1_KAPPA0, AR1_SIGMA_P_SQ)
        assert high - low == pytest.approx(1.0, abs=1e-12)

    def test_below_floor_raises(self):
        with pytest.raises(DistortionBelowFloor):
            rate_uniform_aperiodic(AR1_SIGMA_P_SQ, AR1_KAPPA0, AR1_SIGMA_P_SQ)


class TestSweep:
    def test_two_points_descending_rate(self, ar1_params):
        curve = sweep(Scheme.PERIODIC, ar1_params, AR1_SIGMA_P_SQ * 1.001, 3.0, 2)
        assert len(curve.points) == 2
        assert curve.points[0].rate >= curve.points[1].rate

    def test_first_point_finite_and_largest(self, ar4_params):
        for scheme in ALL_SCHEMES:
            d_min, d_max = default_distortion_grid(scheme, ar4_params)
            curve = sweep(scheme, ar4_params, d_min, d_max, 20)
            rates = np.array([point.rate for point in curve.points])
            assert math.isfinite(rates[0])
            assert rates[0] == rates.max()
            # close enough to the floor every scheme's rate is strictly positive
            floor = distortion_floor(scheme, ar4_params)
            tight = sweep(scheme, ar4_params, floor * (1 + 1e-9), d_max, 20)
            assert tight.points[0].rate > 0

    def test_curve_invariants(self, ar4_params):
        for scheme in ALL_SCHEMES:
            d_min, d_max = default_distortion_grid(scheme, ar4_params)
            curve = sweep(scheme, ar4_params, d_min, d_max, 30)
            distortions, rates = np.array(curve.points).T
            assert np.all(np.diff(distortions) > 0)
            assert np.all(np.diff(rates) <= 1e-12)
            assert np.all(rates >= 0)

    def test_points_below_floor_are_skipped(self, ar1_params):
        floor = distortion_floor(Scheme.PERIODIC, ar1_params)
        curve = sweep(Scheme.PERIODIC, ar1_params, floor * 0.5, floor * 2, 10)
        assert curve.skipped > 0
        assert len(curve.points) + curve.skipped == 10

    def test_zh_curve_above_prediction_curves(self, ar4_params):
        # common grid starts above the zero-holding floor
        zh_floor = ar4_params.zh.sigma_z_sq
        grid = np.geomspace(zh_floor * 1.001, zh_floor * 4, 15)
        for normalized in (False, True):
            for d in grid:
                zh_rate = rate_aperiodic_zh(float(d), ar4_params, normalized)
                pred_rate = rate_aperiodic_prediction(float(d), ar4_params, normalized)
                per_rate = rate_periodic(float(d), ar4_params)
                assert zh_rate >= pred_rate - 1e-12
                assert zh_rate >= per_rate - 1e-12
            near_floor = float(zh_floor * 1.001)
            assert rate_aperiodic_zh(near_floor, ar4_params, normalized) > rate_aperiodic_prediction(
                near_floor, ar4_params, normalized
            )

    def test_rejects_bad_grid(self, ar1_params):
        with pytest.raises(ValueError):
            sweep(Scheme.PERIODIC, ar1_params, 2.0, 3.0, 1)
        with pytest.raises(ValueError):
            sweep(Scheme.PERIODIC, ar1_params, 3.0, 2.0, 5)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_points_match_per_point_evaluation(self, ar4_params, normalized):
        # the per-point loop sweep ran before it chose the rate once per curve
        def evaluate(scheme, d):
            if scheme is Scheme.APERIODIC_PREDICTION:
                return rate_aperiodic_prediction(d, ar4_params, normalized)
            if scheme is Scheme.APERIODIC_ZH:
                return rate_aperiodic_zh(d, ar4_params, normalized)
            if scheme is Scheme.PERIODIC:
                return rate_periodic(d, ar4_params)
            if scheme is Scheme.UNIFORM_APERIODIC:
                return rate_uniform_aperiodic(
                    d, ar4_params.acov.sigma_x_sq, ar4_params.coeffs.sigma_p_sq
                )
            p = ar4_params
            return analysis.rate_practical(d, p.ar1, p.noise, p.ar1_gain)

        for scheme in ALL_SCHEMES:
            floor = distortion_floor(scheme, ar4_params)
            curve = sweep(scheme, ar4_params, floor * 0.9, floor * 20, 37, normalized)
            expected, skipped = [], 0
            for d in np.geomspace(floor * 0.9, floor * 20, 37):
                try:
                    expected.append((float(d), evaluate(scheme, float(d))))
                except DistortionBelowFloor:
                    skipped += 1
            assert curve.points == expected, scheme
            assert curve.skipped == skipped > 0, scheme
            assert all(type(x) is float for point in curve.points for x in point), scheme

    def test_practical_rate_is_looked_up_per_sweep(self, ar1_params, monkeypatch):
        # a wrapper put on the analysis module after import sees every point
        calls, rate_practical = [], analysis.rate_practical

        def counting(*args, **kwargs):
            calls.append(args[0])
            return rate_practical(*args, **kwargs)

        monkeypatch.setattr(analysis, "rate_practical", counting)
        d_min, d_max = default_distortion_grid(Scheme.PRACTICAL_AR1, ar1_params)
        curve = sweep(Scheme.PRACTICAL_AR1, ar1_params, d_min, d_max, 9)
        assert calls == [point.distortion for point in curve.points]
        assert len(calls) == 9


# every bit of np.geomspace(d_min, d_max, n) for 0 < d_min < d_max; endpoints
# from 1e-300 to 1e300, up to 40 decades apart or a few ulps apart
@settings(derandomize=True, max_examples=1000, deadline=None)
@given(
    low_exponent=st.floats(-300.0, 300.0),
    decades=st.one_of(st.floats(0.0, 40.0), st.just(0.0)),
    ulps=st.integers(1, 4),
    n=st.integers(2, 200),
)
@example(low_exponent=0.0, decades=0.0, ulps=1, n=2)  # 1 and the next double
@example(low_exponent=-2e-16, decades=0.0, ulps=2, n=3)  # across 1
@example(low_exponent=300.0, decades=0.0, ulps=1, n=2)
@example(low_exponent=-300.0, decades=0.0, ulps=1, n=200)
@example(low_exponent=-300.0, decades=40.0, ulps=1, n=2)
@example(low_exponent=1.5, decades=3.25, ulps=1, n=2)
def test_log_grid_is_geomspace(low_exponent, decades, ulps, n):
    d_min = 10.0**low_exponent
    d_max = d_min * 10.0**decades
    if decades == 0.0:  # adjacent endpoints
        for _ in range(ulps):
            d_max = float(np.nextafter(d_max, math.inf))
    assume(math.isfinite(d_max) and 0.0 < d_min < d_max)
    assert _log_grid(d_min, d_max, n).tobytes() == np.geomspace(d_min, d_max, n).tobytes()


class TestFloors:
    def test_floor_separation(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            model = random_stationary_model(rng)
            noise = NoiseSpec(float(rng.uniform(0.0, 2.0)))
            params = make_scheme_params(model, noise)
            assert params.zh.sigma_z_sq >= params.coeffs.sigma_p_sq - 1e-12
            assert distortion_floor(Scheme.APERIODIC_ZH, params) >= distortion_floor(
                Scheme.APERIODIC_PREDICTION, params
            )

    def test_prediction_schemes_share_floor(self, ar4_params):
        assert distortion_floor(Scheme.APERIODIC_PREDICTION, ar4_params) == distortion_floor(
            Scheme.PERIODIC, ar4_params
        )


class TestVarianceShift:
    def test_doubling_drive_increases_all_rates(self, ar4, noise):
        import csi_feedback.analysis as analysis

        doubled = ArModel(coeffs=ar4.coeffs, innovation_var=2.0)
        p1 = make_scheme_params(ar4, noise, 4)
        p2 = make_scheme_params(doubled, noise, 4)

        def practical_rate(params, d):
            approx = analysis.ar1_fit(params.acov)
            lam = analysis.converged_gain(
                ArModel((approx.beta,), approx.iota_var), params.noise, 0.0
            )
            return analysis.rate_practical(d, approx, params.noise, lam, clamp=False)

        evaluators = {
            Scheme.APERIODIC_PREDICTION: lambda p, d: rate_aperiodic_prediction(
                d, p, clamp=False
            ),
            Scheme.APERIODIC_ZH: lambda p, d: rate_aperiodic_zh(d, p, clamp=False),
            Scheme.PERIODIC: lambda p, d: rate_periodic(d, p, clamp=False),
            Scheme.UNIFORM_APERIODIC: lambda p, d: rate_uniform_aperiodic(
                d, p.acov.sigma_x_sq, p.coeffs.sigma_p_sq, clamp=False
            ),
            Scheme.PRACTICAL_AR1: practical_rate,
        }
        for scheme, evaluate in evaluators.items():
            floor = distortion_floor(scheme, p2)
            for d in np.geomspace(floor * 1.001, 10 * p2.acov.sigma_x_sq, 12):
                assert evaluate(p2, float(d)) > evaluate(p1, float(d)), scheme

    def test_clamped_rates_never_decrease(self, ar4, noise):
        doubled = ArModel(coeffs=ar4.coeffs, innovation_var=2.0)
        p1 = make_scheme_params(ar4, noise, 4)
        p2 = make_scheme_params(doubled, noise, 4)
        floor = distortion_floor(Scheme.APERIODIC_ZH, p2)
        for d in np.geomspace(floor * 1.001, 20.0, 10):
            assert rate_aperiodic_zh(float(d), p2) >= rate_aperiodic_zh(float(d), p1)
