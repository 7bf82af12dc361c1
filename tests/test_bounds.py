"""Rate-distortion lower bounds and curve sweeps."""

import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csi_feedback import (
    ArModel,
    Autocovariance,
    NoiseSpec,
    Scheme,
    autocovariance,
    default_distortion_grid,
    distortion_floor,
    log_det_ky,
    make_scheme_params,
    mmse_coefficients,
    nu_variance,
    scheme_rate,
    sweep,
)
from csi_feedback import analysis
from csi_feedback.analysis import TWO_PI_E, _log2, _log2_sqrt_two_pi_e
from csi_feedback.bounds import (
    PredictorCoefficients,
    RdCurve,
    RdPoint,
    _log_grid,
    _rule,
    _sum_log2_theta_sq,
    _uniform_rule,
)
from csi_feedback.errors import (
    CsiFeedbackError,
    DegenerateCovariance,
    DistortionBelowFloor,
    NonFiniteInput,
    SingularSystem,
)
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
# the four analytic schemes
AP, ZH, PER, UNI = (
    Scheme.APERIODIC_PREDICTION,
    Scheme.APERIODIC_ZH,
    Scheme.PERIODIC,
    Scheme.UNIFORM_APERIODIC,
)


def raw_rate(scheme, p, d, normalized=False):
    """The unclamped rate of an analytic scheme's ``_rule`` at one D above its floor."""
    (rate,) = _rule(scheme, p, normalized)[1]([d])
    return rate


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

    def test_zero_channel_is_not_positive_definite(self):
        message = "^kappa_y Toeplitz matrix is not positive definite$"
        with pytest.raises(SingularSystem, match=message):
            log_det_ky(Autocovariance(np.zeros(3)), NoiseSpec(0.0), 2)

    def test_params_hold_the_bits_of_the_public_calls(self, ar1, ar4, noise):
        # make_scheme_params builds one kappa_y matrix for the solve and the determinant
        for model in (ar1, ar4, ArModel(_ar_from_pacf((0.9, -0.5, 0.3, -0.2, 0.1)), 0.1)):
            for order in (1, model.order, model.order + 2):
                params = make_scheme_params(model, noise, order)
                coeffs = mmse_coefficients(params.acov, noise, order)
                assert params.coeffs.theta.tobytes() == coeffs.theta.tobytes()
                assert params.coeffs.sigma_p_sq == coeffs.sigma_p_sq
                assert params.log_det_ky == log_det_ky(params.acov, noise, order)

    def test_diagonal_case(self):
        white = autocovariance(ArModel((0.0,), 2.0), 3)
        noise = NoiseSpec(0.5)
        for order in (1, 2, 3):
            assert log_det_ky(white, noise, order) == pytest.approx(
                order * math.log2(2.5), rel=1e-12
            )


class TestAperiodicPrediction:
    def test_reference_value(self, ar1_params):
        assert scheme_rate(AP, ar1_params, 2.0) == pytest.approx(
            AR1_RATE_AP_AT_2, rel=1e-12
        )

    def test_diverges_at_floor(self, ar1_params):
        rates = [
            scheme_rate(AP, ar1_params, AR1_SIGMA_P_SQ + gap)
            for gap in (1e-2, 1e-4, 1e-6, 1e-8)
        ]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert rates[-1] > 15

    def test_clamped_at_large_distortion(self, ar1_params):
        assert scheme_rate(AP, ar1_params, 1e6) == 0.0
        assert raw_rate(AP, ar1_params, 1e6) < 0.0

    def test_below_floor_raises(self, ar1_params):
        with pytest.raises(DistortionBelowFloor):
            scheme_rate(AP, ar1_params, ar1_params.coeffs.sigma_p_sq)

    def test_normalized_form(self, ar1_params):
        # L=1: normalized halves the entropy and weight terms
        d = 2.0
        expected = (
            (ar1_params.log_det_ky + math.log2(ar1_params.coeffs.theta[0] ** 2)) / 2.0
            - 0.5 * math.log2(d - AR1_SIGMA_P_SQ)
        )
        assert scheme_rate(AP, ar1_params, d, normalized=True) == pytest.approx(
            expected, rel=1e-12
        )


class TestAperiodicZh:
    def test_reference_normalized_value(self, ar1_params):
        assert scheme_rate(ZH, ar1_params, 2.5, normalized=True) == pytest.approx(
            AR1_RATE_ZH_NORM_AT_2P5, rel=1e-12
        )

    def test_diverges_at_floor(self, ar1_params):
        rates = [scheme_rate(ZH, ar1_params, AR1_SIGMA_Z_SQ + gap) for gap in (1e-2, 1e-5, 1e-8)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_noiseless_normalized_weight_drops_out(self, ar1):
        params = make_scheme_params(ar1, NoiseSpec(0.0), order=1)
        d = 1.5
        expected = 0.5 * math.log2(params.acov.sigma_x_sq / (d - params.zh.sigma_z_sq))
        assert scheme_rate(ZH, params, d, normalized=True) == pytest.approx(
            expected, rel=1e-12
        )

    def test_below_floor_raises(self, ar1_params):
        with pytest.raises(DistortionBelowFloor):
            scheme_rate(ZH, ar1_params, AR1_SIGMA_Z_SQ - 0.01)


class TestLogWeightSum:
    def test_stored_sum_matches_the_weights(self, ar1_params, ar1_params_l2, ar4_params):
        for params in (ar1_params, ar1_params_l2, ar4_params):
            assert params.log2_theta_sq_sum == _sum_log2_theta_sq(params.coeffs)

    @pytest.mark.parametrize(
        "theta", [[0.5, -0.0], [math.nan, 0.5], [math.nan, 0.0], [1e-200, 2.0], [-3.0, 0.25, 7.0]]
    )
    def test_sum_keeps_the_bits_of_the_elementwise_form(self, theta):
        theta_sq = np.array(theta) ** 2
        expected = -math.inf if np.any(theta_sq == 0.0) else float(np.sum(np.log2(theta_sq)))
        coeffs = PredictorCoefficients(np.array(theta), 1.0)
        assert repr(_sum_log2_theta_sq(coeffs)) == repr(expected)

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
        assert scheme_rate(PER, ar1_params, 2.0) == pytest.approx(AR1_RATE_PER_AT_2, rel=1e-12)

    def test_zero_crossing(self, ar1_params):
        theta_sq_product = float(np.prod(ar1_params.coeffs.theta ** 2))
        crossing = AR1_SIGMA_P_SQ + AR1_SIGMA_NU_SQ * theta_sq_product
        assert scheme_rate(PER, ar1_params, crossing) == pytest.approx(0.0, abs=1e-9)
        assert scheme_rate(PER, ar1_params, crossing * 0.99) > 0.0
        assert scheme_rate(PER, ar1_params, crossing * 1.01) == 0.0

    def test_periodic_needs_fewer_bits_than_aperiodic(self, ar1_params, ar4_params):
        for params in (ar1_params, ar4_params):
            floor = params.coeffs.sigma_p_sq
            for d in np.geomspace(floor * 1.0001, floor * 4, 12):
                assert scheme_rate(PER, params, d) <= scheme_rate(AP, params, d) + 1e-12

    def test_shares_prediction_floor(self, ar1_params):
        floor = ar1_params.coeffs.sigma_p_sq
        for d in (floor, floor * 0.9):
            for scheme in (PER, AP):
                with pytest.raises(DistortionBelowFloor):
                    scheme_rate(scheme, ar1_params, d)


class TestUniformAperiodic:
    def test_reference_value(self, ar1_params):
        assert scheme_rate(UNI, ar1_params, 2.0) == pytest.approx(AR1_RATE_UNI_AT_2, rel=1e-12)

    def test_zero_at_matched_target(self, ar1_params):
        scale = math.sqrt(2 * math.pi * math.e * (AR1_KAPPA0 + AR1_SIGMA_P_SQ)) / 12.0
        target = AR1_SIGMA_P_SQ + scale
        assert scheme_rate(UNI, ar1_params, target) == pytest.approx(0.0, abs=1e-9)

    def test_quartering_gap_adds_one_bit(self, ar1_params):
        gap, floor = 0.2, ar1_params.coeffs.sigma_p_sq
        low = scheme_rate(UNI, ar1_params, floor + gap)
        high = scheme_rate(UNI, ar1_params, floor + gap / 4)
        assert high - low == pytest.approx(1.0, abs=1e-12)

    def test_below_floor_raises(self, ar1_params):
        with pytest.raises(DistortionBelowFloor):
            scheme_rate(UNI, ar1_params, ar1_params.coeffs.sigma_p_sq)


class TestLogOfFactors:
    @pytest.mark.parametrize("a, b", [(2.68, 0.3), (1e-300, 1e-8), (3.0, 1e300), (TWO_PI_E, 1.0)])
    def test_finite_quotient_and_product_keep_their_bits(self, a, b):
        assert _log2(a, b, "a / b") == math.log2(a / b)
        assert _log2(a, b, "a b", divide=False) == math.log2(a * b)

    @pytest.mark.parametrize("a, b", [(1e-300, 1e30), (1e300, 1e-20)])
    def test_quotient_out_of_range_subtracts_the_logs(self, a, b):
        assert _log2(a, b, "a / b") == math.log2(a) - math.log2(b)

    @pytest.mark.parametrize("a, b", [(TWO_PI_E, 2e307), (1e-200, 1e-200)])
    def test_product_out_of_range_adds_the_logs(self, a, b):
        assert _log2(a, b, "a b", divide=False) == math.log2(a) + math.log2(b)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 2.0), (math.inf, 1.0), (math.nan, 1.0)])
    def test_a_factor_without_a_log_raises(self, a, b):
        for divide in (True, False):
            with pytest.raises(DegenerateCovariance, match="^a b has no log: factors"):
                _log2(a, b, "a b", divide=divide)

    def test_underflowing_periodic_quotient_gives_a_finite_rate(self):
        # sigma_nu^2 = 1.3e-300 over D - sigma_P^2 = 1e30 underflows to 0
        params = make_scheme_params(ArModel((0.5,), 1e-300), NoiseSpec(0.0))
        raw = raw_rate(PER, params, 1e30)
        gap = math.log2(params.sigma_nu_sq) - math.log2(1e30 - params.coeffs.sigma_p_sq)
        assert raw == 0.5 * gap + 0.5 * params.log2_theta_sq_sum
        assert scheme_rate(PER, params, 1e30) == 0.0

    def test_underflowing_uniform_quotient_gives_a_finite_rate(self):
        params = make_scheme_params(ArModel((0.5,), 1e-300), NoiseSpec(0.0))
        assert math.isfinite(raw_rate(UNI, params, 1e300))
        assert scheme_rate(UNI, params, 1e300) == 0.0

    @pytest.mark.parametrize("v", [1e-320, 0.3, 1.0, 2.68, 1e300, 1.05e307])
    def test_finite_gaussian_scale_keeps_its_bits(self, v):
        assert _log2_sqrt_two_pi_e(v, "v") == math.log2(math.sqrt(TWO_PI_E * v))

    def test_overflowing_gaussian_scale_adds_the_logs(self):
        assert _log2_sqrt_two_pi_e(1e308, "v") == 0.5 * (math.log2(TWO_PI_E) + math.log2(1e308))

    @pytest.mark.parametrize("v", [0.0, -1.0, math.inf, math.nan])
    def test_a_variance_without_a_gaussian_scale_raises(self, v):
        with pytest.raises(DegenerateCovariance, match="^2 pi e v has no log: factors"):
            _log2_sqrt_two_pi_e(v, "2 pi e v")

    # a white channel without noise: sigma_x^2 = sigma_P^2 = e_P = sigma_psi^2 and gain 1
    WHITE = (ArModel((0.0,), 5e307), NoiseSpec(0.0))

    def test_overflowing_uniform_scale_gives_a_finite_rate(self):
        # sqrt(2 pi e (sigma_x^2 + sigma_P^2)) overflows once sigma_x^2 exceeds about 5e306
        (raw,) = _uniform_rule(5e307, 5e307)[1]([6e307])
        gap = 6e307 - 5e307
        expected = 0.25 * (math.log2(TWO_PI_E) + math.log2(1e308)) - 0.5 * math.log2(12.0 * gap)
        assert math.isclose(raw, expected, rel_tol=1e-12)
        assert scheme_rate(UNI, make_scheme_params(*self.WHITE), 6e307) == 0.0

    def test_overflowing_practical_scale_gives_a_finite_rate(self):
        # 2 pi e e_P overflows once e_P exceeds about 1.05e307
        approx, noise = analysis.Ar1Approx(beta=0.0, iota_var=5e307), NoiseSpec(0.0)
        assert analysis._ep_variance_from_approx(approx, noise) == 5e307
        raw = analysis.rate_practical(6e307, approx, noise, 1.0)
        # 1/2 log2(1/12) + 1/2 log2 sqrt(2 pi e e_P) - 1/2 log2 sigma_Q^2
        sigma_q_sq = 6e307  # the quantization budget at gain 1
        scale = TWO_PI_E * (5e307 / sigma_q_sq) / sigma_q_sq
        expected = 0.5 * math.log2(1.0 / 12.0) + 0.25 * math.log2(scale)
        assert math.isclose(raw, expected, rel_tol=1e-12)
        params = make_scheme_params(*self.WHITE)
        assert (params.ar1, params.ar1_gain) == (approx, 1.0)
        assert scheme_rate(Scheme.PRACTICAL_AR1, params, 6e307) == 0.0

    def test_overflowing_output_entropy_gives_a_finite_zh_rate(self):
        # 2 pi e sigma_y^2 overflows once sigma_y^2 > 1.05e307
        params = make_scheme_params(ArModel((0.5,), 1.0), NoiseSpec(2e307))
        low, high = default_distortion_grid(Scheme.APERIODIC_ZH, params)
        for d in (low, high):
            assert math.isfinite(raw_rate(ZH, params, d))


@pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("normalized", [False, True], ids=["default", "normalized"])
@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda scheme: scheme.value)
def test_non_finite_distortion_raises_naming_the_scheme(ar1_params, scheme, normalized, d):
    # checked before any arithmetic: a NaN D fails every floor test and its
    # rate would clamp to 0 bits, and an infinite one has no log
    with pytest.raises(NonFiniteInput) as raised:
        scheme_rate(scheme, ar1_params, d, normalized)
    assert str(raised.value) == f"{scheme.value}: distortion {d} is not finite"


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda scheme: scheme.value)
def test_below_the_floor_raises_naming_the_scheme(ar1_params, scheme):
    with pytest.raises(DistortionBelowFloor, match=f"^{scheme.value}: "):
        scheme_rate(scheme, ar1_params, distortion_floor(scheme, ar1_params) * 0.5)


def element_by_element_rate(scheme, p, d, normalized, clamp=True):
    """The four analytic rates at one point, each one expression in the order of its
    formula: the oracle of the rules' bits, errors included."""
    if scheme is Scheme.APERIODIC_ZH and p.zh.alpha == 0.0:
        raise DegenerateCovariance("zero-holding weight alpha underflows to 0")
    floor = p.zh.sigma_z_sq if scheme is Scheme.APERIODIC_ZH else p.coeffs.sigma_p_sq
    if d <= floor:
        raise DistortionBelowFloor(f"{scheme.value}: D={d} <= floor {floor}")
    if scheme is Scheme.APERIODIC_PREDICTION:
        log_weights = p.log2_theta_sq_sum
        gap = -0.5 * math.log2(d - floor)
        if normalized:
            rate = (p.log_det_ky + log_weights) / (2.0 * p.coeffs.order) + gap
        else:
            rate = p.log_det_ky + 0.5 * log_weights + gap
    elif scheme is Scheme.APERIODIC_ZH:
        sigma_y_sq = p.acov.sigma_x_sq + p.noise.obs_noise_var
        if normalized:
            ratio = p.zh.alpha**2 * sigma_y_sq / (d - floor)
            if ratio == 0.0:
                raise DegenerateCovariance(
                    "normalized zero-holding ratio alpha^2 sigma_y^2 / (D - sigma_Z^2) "
                    f"underflows to 0: alpha={p.zh.alpha}"
                )
            rate = 0.5 * math.log2(ratio)
        else:
            rate = (
                0.25 * _log2(TWO_PI_E, sigma_y_sq, "2 pi e sigma_y^2", divide=False)
                + 0.5 * math.log2(p.zh.alpha)
                - 0.5 * math.log2(TWO_PI_E * (d - floor))
            )
    elif scheme is Scheme.PERIODIC:
        gap = _log2(p.sigma_nu_sq, d - floor, "sigma_nu^2 / (D - sigma_P^2)")
        rate = 0.5 * gap + 0.5 * p.log2_theta_sq_sum
    else:
        variance = p.acov.sigma_x_sq + floor
        scale = math.sqrt(TWO_PI_E * variance) / 12.0
        gap = d - floor
        if scale < math.inf:
            what = "sqrt(2 pi e (sigma_x^2 + sigma_P^2)) / 12 / (D - sigma_P^2)"
            rate = 0.5 * _log2(scale, gap, what)
        else:
            rate = 0.5 * (
                _log2_sqrt_two_pi_e(variance, "2 pi e (sigma_x^2 + sigma_P^2)")
                - _log2(12.0, gap, "12 (D - sigma_P^2)", divide=False)
            )
    return max(0.0, rate) if clamp else rate


def outcome(evaluate, *args):
    """What a call gives, bit for bit: its value (a float's hex, or a curve's points
    and skipped count), or the type and message of what it raised."""
    try:
        value = evaluate(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    if isinstance(value, float):
        return value.hex()
    return [(d.hex(), r.hex()) for d, r in value.points], value.skipped


def per_point_curve(scheme, p, grid, normalized):
    """The curve ``sweep`` gives, from one ``scheme_rate`` call per grid point."""
    points, skipped = [], 0
    for d in grid:
        try:
            points.append(RdPoint(d, scheme_rate(scheme, p, d, normalized)))
        except DistortionBelowFloor:
            skipped += 1
    return RdCurve(scheme, points, skipped)


# the AR(1..8) models of TestAnalyticOracles (tests/test_analysis.py), with
# sigma_xi^2 = 0 or sigma_psi^2 times 1e-6..1e6
_BOUND_CASES = st.builds(
    lambda pacf, drive, ratio: (ArModel(_ar_from_pacf(pacf), drive), NoiseSpec(drive * ratio)),
    st.lists(st.floats(-0.98, 0.98), min_size=1, max_size=8),
    st.floats(-3.0, 3.0).map(lambda exponent: 10.0**exponent),
    st.just(0.0) | st.floats(-6.0, 6.0).map(lambda exponent: 10.0**exponent),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    case=_BOUND_CASES,
    normalized=st.booleans(),
    below=st.floats(0.25, 1.0),
    above=st.floats(1.0, 64.0, exclude_min=True),
    n=st.integers(2, 40),
)
# a zero weight theta (log2 weights -inf); alpha underflowing to 0; the normalized
# zero-holding ratio underflowing to 0; an overflowing uniform scale; a grid from the floor
@example(case=(ArModel((0.0,), 1.0), NoiseSpec(0.0)), normalized=False, below=0.5, above=4.0, n=9)
@example(case=(ArModel((0.5,), 1e-300), NoiseSpec(1e300)), normalized=False, below=0.5, above=4.0, n=9)
@example(case=(ArModel((0.5,), 1e-150), NoiseSpec(1e150)), normalized=True, below=0.5, above=4.0, n=9)
@example(case=(ArModel((0.0,), 5e307), NoiseSpec(0.0)), normalized=False, below=0.5, above=3.0, n=9)
@example(case=(ArModel((0.9, -0.2), 1e-3), NoiseSpec(0.0)), normalized=True, below=1.0, above=2.0, n=2)
def test_sweep_matches_the_per_point_rates(case, normalized, below, above, n):
    # every scheme on a grid from below its floor to above it: the same points
    # and skipped count as one scheme_rate call per grid point, or the same
    # error; and each analytic scheme_rate, and the raw rate of its rule above
    # the floor, as the element-by-element oracle
    model, noise = case
    try:
        params = make_scheme_params(model, noise)
    except CsiFeedbackError:
        assume(False)
    for scheme in ALL_SCHEMES:
        try:
            floor = distortion_floor(scheme, params)
        except CsiFeedbackError:
            floor = 0.0
        if floor <= 0.0:  # nothing to straddle: a grid of the channel's scale
            floor = params.acov.sigma_x_sq
        d_min, d_max = floor * below, floor * above
        if not 0.0 < d_min < d_max < math.inf:
            continue
        grid = _log_grid(d_min, d_max, n).tolist()
        swept = outcome(sweep, scheme, params, d_min, d_max, n, normalized)
        assert swept == outcome(per_point_curve, scheme, params, grid, normalized), scheme
        if scheme is Scheme.PRACTICAL_AR1:
            continue
        for d in grid + [floor]:
            args = (scheme, params, d, normalized)
            assert outcome(scheme_rate, *args) == outcome(element_by_element_rate, *args)
            if d > floor:
                assert outcome(raw_rate, *args) == outcome(element_by_element_rate, *args, False)


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
                zh_rate = scheme_rate(ZH, ar4_params, float(d), normalized)
                pred_rate = scheme_rate(AP, ar4_params, float(d), normalized)
                per_rate = scheme_rate(PER, ar4_params, float(d))
                assert zh_rate >= pred_rate - 1e-12
                assert zh_rate >= per_rate - 1e-12
            near_floor = float(zh_floor * 1.001)
            assert scheme_rate(ZH, ar4_params, near_floor, normalized) > scheme_rate(
                AP, ar4_params, near_floor, normalized
            )

    def test_rejects_bad_grid(self, ar1_params):
        with pytest.raises(ValueError):
            sweep(Scheme.PERIODIC, ar1_params, 2.0, 3.0, 1)
        with pytest.raises(ValueError):
            sweep(Scheme.PERIODIC, ar1_params, 3.0, 2.0, 5)

    def test_n_points_must_be_an_integer(self, ar1_params):
        # 2.5 swept a 3-point grid with skipped = -0.5, and 3.0 gave a float skipped
        for n in (2.5, 3.0):
            with pytest.raises(TypeError):
                sweep(Scheme.PERIODIC, ar1_params, 2.0, 3.0, n)
        curve = sweep(Scheme.PERIODIC, ar1_params, 2.0, 3.0, np.int64(3))
        assert (len(curve.points), type(curve.skipped)) == (3, int)

    def test_an_underflowing_practical_gain_raises_before_any_point(self):
        params = make_scheme_params(ArModel((0.5,), 1e-300), NoiseSpec(1e300))
        assert params.ar1_gain == 0.0
        message = re.escape("codec gain of the AR(1) fit underflows to 0")
        with pytest.raises(DegenerateCovariance, match=f"^{message}$"):
            sweep(Scheme.PRACTICAL_AR1, params, 1e-10, 1e300, 5)
        with pytest.raises(DegenerateCovariance, match=f"^{message}$"):
            scheme_rate(Scheme.PRACTICAL_AR1, params, 1.0)

    # a white channel of variance 1e308, whose automatic d_max = 10 sigma_x^2 overflows
    HUGE = (ArModel((0.0,), 1e308), NoiseSpec(0.0))

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda scheme: scheme.value)
    def test_an_infinite_grid_end_raises_naming_the_scheme(self, ar1_params, scheme):
        huge = make_scheme_params(*self.HUGE)
        grids = [(ar1_params, 1.0, math.inf), (huge, *default_distortion_grid(scheme, huge))]
        for params, d_min, d_max in grids:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no numpy warning on the way
                with pytest.raises(CsiFeedbackError, match=f"^{scheme.value}: "):
                    sweep(scheme, params, d_min, d_max, 9)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_points_match_per_point_evaluation(self, ar4_params, normalized):
        for scheme in ALL_SCHEMES:
            floor = distortion_floor(scheme, ar4_params)
            curve = sweep(scheme, ar4_params, floor * 0.9, floor * 20, 37, normalized)
            expected, skipped = [], 0
            for d in np.geomspace(floor * 0.9, floor * 20, 37):
                try:
                    expected.append((float(d), scheme_rate(scheme, ar4_params, float(d), normalized)))
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
            return analysis.rate_practical(d, approx, params.noise, lam)

        evaluators = {s: functools.partial(raw_rate, s) for s in (AP, ZH, PER, UNI)}
        evaluators[Scheme.PRACTICAL_AR1] = practical_rate
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
            assert scheme_rate(ZH, p2, float(d)) >= scheme_rate(ZH, p1, float(d))
