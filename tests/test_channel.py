"""Channel model: stationarity checks, Yule-Walker autocovariance, traces."""

import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csi_feedback import (
    ArModel,
    EncoderState,
    NoiseSpec,
    autocovariance,
    converged_gain,
    cross_autocovariance,
    default_burn_in,
    generate_trace,
    innovation_quantizer,
    make_scheme_params,
    mse_recursion,
    obs_autocovariance,
    validate_stationarity,
)
from csi_feedback import channel
from csi_feedback.channel import STATIONARITY_MARGIN
from csi_feedback.errors import LagOutOfRange, NonStationaryModel
from test_codec import _ar_from_pacf

# closed forms for AR(1) a=0.9, sigma_psi^2=1: kappa0 = 1/(1-a^2), kappa1 = a*kappa0
AR1_KAPPA0 = 5.2631578947368421
AR1_KAPPA1 = 4.7368421052631579


def random_stationary_model(rng) -> ArModel:
    """Random model with sum |a_m| < 1, a sufficient stationarity condition."""
    order = int(rng.integers(1, 6))
    raw = rng.uniform(-1.0, 1.0, size=order)
    scale = rng.uniform(0.1, 0.95) / max(np.sum(np.abs(raw)), 1e-9)
    return ArModel(coeffs=tuple(raw * scale), innovation_var=float(rng.uniform(0.2, 3.0)))


def _roots_radius(a1: float) -> float:
    """max |root| of z - a_1 as np.roots finds it (np.roots always finds its one root)."""
    return float(np.max(np.abs(np.roots([1.0, -a1]))))


def _roots_decision(a1: float) -> bool:
    """The general path's decision for z - a_1: largest np.roots modulus below the margin."""
    return _roots_radius(a1) < 1.0 - STATIONARITY_MARGIN


_EDGE = 1.0 - 1e-9
_ORDER_ONE_EDGES = [
    sign * value
    for value in (
        0.0, 5e-324, 1.0, _EDGE, float(np.nextafter(_EDGE, 0.0)), float(np.nextafter(_EDGE, 2.0))
    )
    for sign in (1.0, -1.0)
]


class TestStationarity:
    def test_ar1_inside_unit_circle(self):
        assert validate_stationarity(ArModel((0.9,), 1.0))

    def test_unit_root_rejected(self):
        assert not validate_stationarity(ArModel((1.0,), 1.0))

    def test_reference_ar4(self, ar4):
        # sufficient condition sum |a_m| < 1 corroborates the root check
        assert sum(abs(a) for a in ar4.coeffs) < 1.0
        assert validate_stationarity(ar4)
        assert np.max(np.abs(ar4.characteristic_roots())) < 1.0 - 1e-9

    def test_explosive_rejected(self):
        assert not validate_stationarity(ArModel((1.2, -0.1), 1.0))

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(
        a1=st.one_of(
            st.floats(-1.5, 1.5),
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from(_ORDER_ONE_EDGES),
        )
    )
    @example(a1=0.0)
    @example(a1=-0.0)
    @example(a1=5e-324)
    @example(a1=-5e-324)
    def test_order_one_matches_the_roots_decision(self, a1):
        model = ArModel((a1,), 1.0)
        assert validate_stationarity(model) == _roots_decision(a1)
        # the same model with the np.roots radius in the cache default_burn_in reads
        oracle = ArModel((a1,), 1.0)
        oracle.__dict__["_spectral_radius"] = _roots_radius(a1)
        assert default_burn_in(model) == default_burn_in(oracle)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        magnitude=st.one_of(
            st.floats(1e-20, 1.0, exclude_max=True),
            st.sampled_from([0.0, 1e-20, float(np.nextafter(1.0, 0.0))]),
        ),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_order_one_radius_is_the_root_modulus(self, magnitude, sign):
        a1 = sign * magnitude
        radius = ArModel((a1,), 1.0)._spectral_radius
        assert struct.pack("<d", radius) == struct.pack("<d", _roots_radius(a1))


class TestAutocovariance:
    def test_ar1_closed_form(self, ar1):
        acov = autocovariance(ar1, 3)
        assert acov.lags[0] == pytest.approx(AR1_KAPPA0, rel=1e-12)
        assert acov.lags[1] == pytest.approx(AR1_KAPPA1, rel=1e-12)
        assert acov.lags[2] == pytest.approx(0.9 * AR1_KAPPA1, rel=1e-12)

    def test_white_noise_case(self):
        acov = autocovariance(ArModel((0.0, 0.0), 2.5), 4)
        assert acov.lags[0] == pytest.approx(2.5, rel=1e-12)
        assert np.allclose(acov.lags[1:], 0.0, atol=1e-15)

    def test_non_stationary_raises(self):
        with pytest.raises(NonStationaryModel):
            autocovariance(ArModel((1.0,), 1.0), 2)

    def test_max_lag_below_order_rejected(self, ar4):
        with pytest.raises(ValueError):
            autocovariance(ar4, 3)

    def test_yule_walker_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            model = random_stationary_model(rng)
            acov = autocovariance(model, model.order + 6)
            for tau in range(1, acov.max_lag + 1):
                predicted = sum(
                    model.coeffs[m - 1] * acov.lags[abs(tau - m)]
                    for m in range(1, model.order + 1)
                )
                assert abs(acov.lags[tau] - predicted) < 1e-9 * acov.lags[0]

    def test_tail_keeps_the_bits_of_a_numpy_scalar_sum(self):
        # the recursion as builtin sum() over numpy scalars, which numpy adds left to right
        rng = np.random.default_rng(4)
        for _ in range(300):
            order = int(rng.integers(1, 9))
            coeffs = _ar_from_pacf(rng.uniform(-0.95, 0.95, size=order))
            model = ArModel(coeffs, float(rng.uniform(0.2, 3.0)))
            expected = np.empty(order + 21)
            expected[: order + 1] = autocovariance(model, order).lags
            for tau in range(order + 1, expected.size):
                expected[tau] = sum(
                    coeffs[m - 1] * expected[tau - m] for m in range(1, order + 1)
                )
            assert autocovariance(model, order + 20).lags.tobytes() == expected.tobytes()

    def test_toeplitz_positive_semidefinite(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            model = random_stationary_model(rng)
            acov = autocovariance(model, model.order + 5)
            from scipy.linalg import toeplitz

            eigenvalues = np.linalg.eigvalsh(toeplitz(acov.lags))
            assert eigenvalues.min() > -1e-9 * acov.lags[0]

    def test_bounded_by_lag_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            model = random_stationary_model(rng)
            acov = autocovariance(model, model.order + 8)
            assert acov.lags[0] > 0
            assert np.all(np.abs(acov.lags) <= acov.lags[0] * (1 + 1e-12))

    def test_matches_sample_variance_10m(self, ar1_trace_10m):
        # closed-form kappa0 against the sample variance of a 1e7-step trace
        sample_var = float(np.var(ar1_trace_10m.x))
        assert abs(sample_var - AR1_KAPPA0) / AR1_KAPPA0 < 0.01

    def test_matches_sample_autocovariance_3se(self, ar4, ar4_acov, ar4_trace_1m):
        x = ar4_trace_1m.x
        n = x.size
        kappa = ar4_acov.lags
        # Bartlett-style standard error from the analytic sequence
        support = autocovariance(ar4, 200).lags
        for tau in range(5):
            shifted = np.concatenate([support[tau:], support[1 : 201 - tau][::-1]])
            var_hat = (np.sum(support**2) + np.sum(support[tau:] * support[: 201 - tau])) / n
            se = np.sqrt(var_hat)
            sample = float(np.mean((x[: n - tau]) * (x[tau:])))
            assert abs(sample - kappa[tau]) < 3 * se, f"lag {tau}"


class TestObsAutocovariance:
    def test_lag_zero_adds_noise_power(self, ar1_acov, noise):
        assert obs_autocovariance(ar1_acov, noise, 0) == pytest.approx(
            AR1_KAPPA0 + 1.0, rel=1e-12
        )

    def test_positive_lags_unchanged(self, ar1_acov, noise):
        for lag in range(1, ar1_acov.max_lag + 1):
            assert obs_autocovariance(ar1_acov, noise, lag) == ar1_acov.lags[lag]

    def test_noiseless_identity(self, ar1_acov):
        clean = NoiseSpec(0.0)
        for lag in range(ar1_acov.max_lag + 1):
            assert obs_autocovariance(ar1_acov, clean, lag) == ar1_acov.lags[lag]

    def test_cross_covariance_is_channel_covariance(self, ar1_acov):
        for lag in range(ar1_acov.max_lag + 1):
            assert cross_autocovariance(ar1_acov, lag) == ar1_acov.lags[lag]

    def test_lag_out_of_range(self, ar1_acov, noise):
        with pytest.raises(LagOutOfRange):
            obs_autocovariance(ar1_acov, noise, ar1_acov.max_lag + 1)
        with pytest.raises(LagOutOfRange):
            obs_autocovariance(ar1_acov, noise, -1)


class TestGenerateTrace:
    def test_deterministic_per_seed(self, ar4, noise):
        a = generate_trace(ar4, noise, 500, seed=11)
        b = generate_trace(ar4, noise, 500, seed=11)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        c = generate_trace(ar4, noise, 500, seed=12)
        assert not np.array_equal(a.x, c.x)

    def test_degenerate_drive(self):
        model = ArModel((0.9,), 0.0)
        trace = generate_trace(model, NoiseSpec(1.0), 1000, seed=0)
        assert np.all(trace.x == 0.0)
        residual = trace.y - trace.x
        assert abs(np.mean(residual)) < 0.15
        assert abs(np.var(residual) - 1.0) < 0.15

    def test_sample_lag1_ratio(self, ar1, noise):
        trace = generate_trace(ar1, noise, 1_000_000, seed=7)
        x = trace.x
        ratio = float(np.mean(x[1:] * x[:-1]) / np.var(x))
        assert 0.89 < ratio < 0.91

    def test_observation_noise_is_white(self, ar4_trace_1m, noise):
        residual = ar4_trace_1m.y - ar4_trace_1m.x
        n = residual.size
        assert abs(np.mean(residual)) < 3 / np.sqrt(n)
        assert abs(np.var(residual) - noise.obs_noise_var) < 3 * np.sqrt(2.0 / n)
        lag1 = np.corrcoef(residual[1:], residual[:-1])[0, 1]
        assert abs(lag1) < 3 / np.sqrt(n)

    def test_rejects_bad_inputs(self, ar4, noise):
        with pytest.raises(NonStationaryModel):
            generate_trace(ArModel((1.01,), 1.0), noise, 10, seed=0)
        with pytest.raises(ValueError):
            generate_trace(ar4, noise, 0, seed=0)

    def test_burn_in_default_capped(self):
        slow = ArModel((0.999999,), 1.0)
        assert default_burn_in(slow) == 10_000
        assert default_burn_in(ArModel((0.0,), 1.0)) == 10


class TestArModelValidation:
    def test_order_matches_coeffs(self, ar4):
        assert ar4.order == len(ar4.coeffs) == 4

    def test_rejects_empty_coeffs(self):
        with pytest.raises(ValueError):
            ArModel((), 1.0)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            ArModel((0.5,), -1.0)
        with pytest.raises(ValueError):
            NoiseSpec(-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="ar_coeffs must be finite"):
            ArModel((0.5, bad), 1.0)
        with pytest.raises(ValueError, match="innovation_var"):
            ArModel((0.5,), bad)
        with pytest.raises(ValueError, match="obs_noise_var"):
            NoiseSpec(bad)


class TestModelSolvedOnce:
    """An ArModel checks stationarity and solves Yule-Walker once, on first use."""

    def test_one_solve_per_model(self, monkeypatch):
        solved = []

        def counting(model):
            solved.append(model)
            return validate_stationarity(model)

        monkeypatch.setattr(channel, "validate_stationarity", counting)
        model = ArModel((0.5, 0.2, 0.1, 0.05), 1.0)  # fresh: nothing cached yet
        noise = NoiseSpec(0.5)
        params = make_scheme_params(model, noise)
        for bits in (2, 5, 8):
            quantizer = innovation_quantizer(model, noise, bits)
            gain = converged_gain(model, noise, quantizer.noise_var)
            mse_recursion(model, noise, gain, quantizer.noise_var, 100_000)
        EncoderState(model, noise, innovation_quantizer(model, noise, 4))
        autocovariance(model, 12)
        # the model itself, then the AR(1) fit behind the practical scheme
        assert len(solved) == 2
        assert solved[0] is model
        assert solved[1] == ArModel((params.ar1.beta,), params.ar1.iota_var)

    def test_one_root_solve_per_model(self, monkeypatch):
        solved = []
        roots = ArModel.characteristic_roots

        def counting(model):
            solved.append(model)
            return roots(model)

        monkeypatch.setattr(ArModel, "characteristic_roots", counting)
        model = ArModel((0.5, 0.2, 0.1, 0.05), 1.0)
        noise = NoiseSpec(0.5)
        make_scheme_params(model, noise)
        default_burn_in(model)
        for seed in range(3):
            generate_trace(model, noise, 50, seed)
        # the AR(1) fit is checked by its closed form, which needs no roots
        assert len(solved) == 1 and solved[0] is model

    def test_order_one_models_find_no_roots(self, monkeypatch):
        def refuse(model):
            raise AssertionError(f"np.roots called for {model}")

        monkeypatch.setattr(ArModel, "characteristic_roots", refuse)
        for a1 in (0.9, -0.3, 0.0, 1.0):
            model = ArModel((a1,), 1.0)
            validate_stationarity(model)
            default_burn_in(model)
        model, noise = ArModel((0.7,), 1.3), NoiseSpec(0.5)
        make_scheme_params(model, noise)
        generate_trace(model, noise, 50, seed=1)
        EncoderState(model, noise, innovation_quantizer(model, noise, 4))

    def test_pickle_drops_the_spectral_radius(self, ar4):
        model = ArModel(ar4.coeffs, ar4.innovation_var)
        radius = model._spectral_radius
        assert radius == float(np.max(np.abs(np.roots([1.0, *(-a for a in ar4.coeffs)]))))
        assert pickle.dumps(model) == pickle.dumps(ArModel(ar4.coeffs, ar4.innovation_var))
        restored = pickle.loads(pickle.dumps(model))
        assert "_spectral_radius" not in restored.__dict__
        assert restored._spectral_radius == radius

    def test_failures_are_raised_on_every_use(self):
        model = ArModel((1.2, -0.1), 1.0)
        for _ in range(2):
            with pytest.raises(NonStationaryModel):
                autocovariance(model, 2)
            with pytest.raises(NonStationaryModel):
                model.sigma_x_sq
        # the stationarity error comes before the max_lag check
        with pytest.raises(NonStationaryModel):
            autocovariance(model, 0)

    def test_equality_hash_repr_and_pickle_ignore_the_cache(self):
        used = ArModel((0.6, -0.2), 0.8)
        autocovariance(used, 5)
        fresh = ArModel((0.6, -0.2), 0.8)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(used))
        assert restored == used
        assert restored.sigma_x_sq == used.sigma_x_sq

    def test_head_read_only_and_lags_fresh(self, ar4):
        model = ArModel(ar4.coeffs, ar4.innovation_var)
        first = autocovariance(model, 8)
        head = model._acov_head
        assert not head.flags.writeable
        with pytest.raises(ValueError):
            head[0] = 0.0
        second = autocovariance(model, 8)
        assert first.lags is not second.lags
        assert first.lags.flags.writeable and second.lags.flags.writeable
        first.lags[:] = -1.0
        assert np.array_equal(autocovariance(model, 8).lags, second.lags)
        assert model.sigma_x_sq == second.sigma_x_sq

    def test_cached_head_is_the_solve(self):
        model = ArModel((0.9, -0.3, 0.2), 1.7)
        solved = channel._solve_yule_walker(ArModel(model.coeffs, model.innovation_var))
        assert autocovariance(model, 3).lags.tobytes() == solved.tobytes()
        assert model.sigma_x_sq == float(solved[0])
