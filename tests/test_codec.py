"""Closed-loop innovation codec: quantizer, encoder/decoder, synchrony."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csi_feedback import (
    ArModel,
    DecoderState,
    EncoderState,
    NoiseSpec,
    UniformQuantizer,
    ar1_fit,
    autocovariance,
    converged_gain,
    decode_sequence,
    encode_batch,
    encode_sequence,
    generate_trace,
    innovation_quantizer,
    pack_indices,
    run_codec,
    steady_state,
    unpack_indices,
)
from csi_feedback import analysis, codec
from csi_feedback.analysis import gain_step, kalman_gain
from csi_feedback.channel import _dot
from csi_feedback.codec import MAX_BITS
from csi_feedback.errors import (
    CsiFeedbackError,
    DegenerateCovariance,
    NonFiniteInput,
    UnknownIndex,
)

# finite quantizer inputs, with magnitudes whose value / step overflows
_FINITE_INPUT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([1e300, -1e300])


# steps at both ends of the float range, and ordinary ones
_STEP = (
    st.floats(5e-324, 2.2250738585072014e-308)
    | st.floats(1e300, 1.7976931348623157e308)
    | st.floats(1e-3, 1e3)
)


@st.composite
def _quantizers_and_values(draw):
    """Quantizers of any width, and inputs on their level boundaries k * step,
    at and beyond their clips, and whose value / step overflows."""
    quantizer = st.builds(UniformQuantizer, st.integers(1, MAX_BITS), _STEP)
    quantizers = draw(st.lists(quantizer, min_size=1, max_size=5))
    values = []
    for q in quantizers:
        half = 1 << (q.bits - 1)
        k = draw(st.integers(-half - 2, half + 1) | st.sampled_from([-half, half - 1, half]))
        beyond = draw(st.floats(1.0, 1e3))
        edges = [k * q.step, q.clip, -q.clip, beyond * q.clip, -beyond * q.clip]
        values += [v for v in edges if math.isfinite(v)]  # the clip of a huge step may not be
    values += draw(st.lists(_FINITE_INPUT, max_size=8))
    return quantizers, draw(st.permutations(values))


class TestUniformQuantizer:
    def test_midrise_rounding(self):
        q = UniformQuantizer(bits=3, step=1.0)
        assert q.clip == 4.0
        assert q.quantize(0.3) == (4, 0.5)
        assert q.quantize(-3.7) == (0, -3.5)

    def test_saturation(self):
        q = UniformQuantizer(bits=3, step=1.0)
        assert q.quantize(10.0) == (7, 3.5)
        assert q.quantize(-10.0) == (0, -3.5)

    def test_zero_input_reproduces_positive_half_step(self):
        q = UniformQuantizer(bits=4, step=0.25)
        index, recon = q.quantize(0.0)
        assert recon == 0.125
        assert index == 8

    def test_round_trip_error_within_half_step(self):
        q = UniformQuantizer(bits=5, step=0.3)
        rng = np.random.default_rng(17)
        values = rng.uniform(-q.clip + 1e-9, q.clip - 1e-9, size=500)
        for v in values:
            index, recon = q.quantize(float(v))
            assert 0 <= index < q.levels
            assert abs(recon - v) <= q.step / 2 + 1e-12
            assert q.dequantize(index) == recon

    def test_quantize_rejects_non_finite(self):
        q = UniformQuantizer(bits=3, step=1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="cannot quantize NaN or infinite values"):
                q.quantize(bad)

    def test_non_finite_input_is_a_toolkit_error_and_a_value_error(self, ar4, noise, either_path):
        assert issubclass(NonFiniteInput, CsiFeedbackError)
        assert issubclass(NonFiniteInput, ValueError)
        q = UniformQuantizer(bits=3, step=1.0)
        with pytest.raises(NonFiniteInput):
            q.quantize(math.nan)
        with pytest.raises(NonFiniteInput):
            q.quantize_many(np.array([0.3, math.inf]))
        with pytest.raises(NonFiniteInput):
            encode_batch([EncoderState(ar4, noise, q)], [np.array([0.3, -math.inf])])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: UniformQuantizer(2.5, 1.0),
            lambda: UniformQuantizer.loaded(2.0, 1.0),
            lambda: pack_indices([0, 1], 2.0),
            lambda: unpack_indices(b"\x00", 2.0, 1),
        ],
        ids=["quantizer", "loaded", "pack", "unpack"],
    )
    def test_a_width_that_is_not_an_integer_is_a_type_error(self, call, either_path):
        # UniformQuantizer failed later, at its first <<, and unpack raised
        # ctypes.ArgumentError through the kernel
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            call()

    def test_an_integral_width_is_stored_as_an_int(self, either_path):
        q = UniformQuantizer(np.int64(3), 1.0)
        assert type(q.bits) is int and q == UniformQuantizer(3, 1.0)
        packed = pack_indices([5, 2], 3)
        assert pack_indices([5, 2], np.int64(3)) == packed
        assert unpack_indices(packed, np.int64(3), 2).tolist() == [5, 2]

    def test_widest_quantizer_saturates_exactly(self):
        q = UniformQuantizer(bits=53, step=1.0)
        indices, _ = q.quantize_many(np.array([1e30, -1e30]))
        assert indices.tolist() == [(1 << 53) - 1, 0]
        assert [q.quantize(v)[0] for v in (1e30, -1e30)] == indices.tolist()

    def test_quantize_many_rejects_non_finite(self):
        q = UniformQuantizer(bits=3, step=1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                q.quantize_many(np.array([0.3, bad]))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        bits=st.integers(1, MAX_BITS),
        step=st.floats(1e-300, 1e300),
        values=st.lists(_FINITE_INPUT, min_size=1, max_size=16),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    # a tiny step makes value / step overflow to inf for finite values
    @example(bits=3, step=1e-300, values=[1e30, -1e30, 0.0, 2.5], bad=math.nan)
    @example(bits=4, step=0.5, values=[1e30, -1e30, 0.0, -3.7, 0.3], bad=math.inf)
    # signed zero and the smallest subnormal, as inputs and as the step
    @example(bits=5, step=0.25, values=[-0.0, 5e-324, -5e-324], bad=-math.inf)
    @example(bits=5, step=5e-324, values=[-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0], bad=math.nan)
    # exactly at the clip, -half * step and half * step, and at (half - 0.5) * step
    @example(bits=3, step=0.5, values=[-2.0, 2.0, 1.75, -1.75], bad=math.nan)
    @example(bits=MAX_BITS, step=1.0, values=[-(2.0**52), 2.0**52, 2.0**52 - 0.5], bad=math.inf)
    # the widest quantizer, whose quotient overflows to inf
    @example(bits=MAX_BITS, step=1e-300, values=[1e300, -1e300, 1e-290, -0.0], bad=math.nan)
    def test_quantize_many_matches_scalar(self, bits, step, values, bad):
        q = UniformQuantizer(bits, step)
        indices, recons = q.quantize_many(np.array(values))
        for v, i, r in zip(values, indices, recons):
            assert q.quantize(v) == (i, r)
        with pytest.raises(ValueError, match="cannot quantize NaN or infinite values"):
            q.quantize(bad)
        with pytest.raises(ValueError, match="cannot quantize NaN or infinite values"):
            q.quantize_many(np.array([*values, bad]))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(case=_quantizers_and_values(), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_reproduced_rows_are_the_reproductions_of_quantize_many(self, case, bad):
        quantizers, values = case
        values = np.array(values)
        rows = np.empty((len(quantizers), values.size))
        # a huge step may reproduce a level beyond the largest float, as inf
        with np.errstate(over="ignore"):
            assert codec._reproduce_rows(quantizers, values, rows) is rows
            for q, row in zip(quantizers, rows):
                recons = q.quantize_many(values)[1]
                # bit for bit, so the sign of a zero too
                assert np.array_equal(row.view(np.int64), recons.view(np.int64))
                assert row.tolist() == [q.quantize(v)[1] for v in values.tolist()]
        rows = np.empty((len(quantizers), values.size + 1))
        for bad_values in (np.array([*values, bad]), np.array([bad, *values])):
            with pytest.raises(NonFiniteInput, match="^cannot quantize NaN or infinite values$"):
                codec._reproduce_rows(quantizers, bad_values, rows)

    def test_quantize_many_leaves_its_input(self):
        values = np.linspace(-3.0, 3.0, 101)
        before = values.copy()
        UniformQuantizer(4, 0.3).quantize_many(values)
        assert np.array_equal(values, before)

    def test_unknown_index(self):
        q = UniformQuantizer(bits=3, step=1.0)
        with pytest.raises(UnknownIndex):
            q.dequantize(8)
        with pytest.raises(UnknownIndex):
            q.dequantize(-1)

    def test_high_resolution_noise_model(self):
        rng = np.random.default_rng(19)
        sigma = 1.7
        samples = rng.normal(0, sigma, size=500_000)
        q = UniformQuantizer.loaded(6, sigma)
        _, recon = q.quantize_many(samples)
        mse = float(np.mean((samples - recon) ** 2))
        assert abs(mse - q.noise_var) / q.noise_var < 0.1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            UniformQuantizer(bits=0, step=1.0)
        with pytest.raises(ValueError):
            UniformQuantizer(bits=54, step=1.0)
        with pytest.raises(ValueError):
            UniformQuantizer(bits=3, step=0.0)
        with pytest.raises(ValueError):
            UniformQuantizer(bits=3, step=math.nan)
        with pytest.raises(ValueError):
            UniformQuantizer.loaded(3, -1.0)

    def test_an_infinite_step_is_rejected_and_a_huge_finite_one_kept(self):
        with pytest.raises(CsiFeedbackError, match="^step must be finite$"):
            UniformQuantizer(bits=4, step=math.inf)
        message = r"^2-bit quantizer step overflows to inf: std=1e\+308$"
        with pytest.raises(DegenerateCovariance, match=message):
            UniformQuantizer.loaded(2, 1e308)
        # the largest finite steps stay legal and quantize exactly
        top = float(np.finfo(float).max)
        assert UniformQuantizer(bits=4, step=top).quantize(0.3) == (8, 0.5 * top)
        assert UniformQuantizer.loaded(1, 4e307).step == 1.6e308


@pytest.fixture
def encoder(ar4, noise):
    return EncoderState(ar4, noise, UniformQuantizer(bits=6, step=0.05))


class TestEncoderPieces:
    def test_predict_zero_history(self, encoder):
        assert _dot(encoder.model.coeffs, encoder.history) == 0.0

    def test_predict_scalar(self):
        assert _dot((0.9,), [2.0]) == pytest.approx(1.8, abs=1e-15)

    def test_predict_matches_naive_sum(self, ar4):
        rng = np.random.default_rng(20)
        history = list(rng.normal(size=4))
        naive = sum(a * h for a, h in zip(ar4.coeffs, history))
        assert _dot(ar4.coeffs, history) == pytest.approx(naive, abs=1e-12)

    def test_gain_limits(self, ar4):
        sigma_x_sq = autocovariance(ar4, 4).sigma_x_sq
        assert kalman_gain(sigma_x_sq, 0.0) == 1.0
        assert kalman_gain(sigma_x_sq, sigma_x_sq) == pytest.approx(0.5, rel=1e-12)

    def test_gain_plug_in(self, noise):
        gain = kalman_gain(1.68067, noise.obs_noise_var)
        assert gain == pytest.approx(0.62695893190881384, rel=1e-12)

    def test_propagate_memoryless(self):
        model, q = ArModel((0.0,), 1.3), UniformQuantizer(bits=3, step=1.0)
        filtered = [model.sigma_x_sq]
        pred_err_var, _, _ = gain_step(model, NoiseSpec(0.0), q.noise_var, filtered, 0.7, 0.0)
        assert pred_err_var == pytest.approx(1.3, rel=1e-12)

    def test_propagate_plug_in(self):
        # 0.81 * 1 + 1 + 0.81 * 0.01 with step chosen so step^2/12 = 0.01
        model = ArModel((0.9,), 1.0)
        q = UniformQuantizer(bits=5, step=float(np.sqrt(0.12)))
        filtered = [model.sigma_x_sq]
        pred_err_var, _, _ = gain_step(model, NoiseSpec(0.0), q.noise_var, filtered, 1.0, 0.0)
        assert pred_err_var == pytest.approx(1.8181, rel=1e-12)

    def test_propagate_vanishing_step_recovers_kalman(self, ar4):
        q = UniformQuantizer(bits=6, step=1e-12)
        filtered = [0.5, 0.4, 0.3, 0.2]
        kalman_only = sum(a * a * f for a, f in zip(ar4.coeffs, [0.9, 0.5, 0.4, 0.3])) + 1.0
        pred_err_var, _, _ = gain_step(ar4, NoiseSpec(0.0), q.noise_var, filtered, 0.9, 0.0)
        assert pred_err_var == pytest.approx(kalman_only, rel=1e-9)

    def test_filtered_never_exceeds_predicted(self, ar4, noise):
        trace = generate_trace(ar4, noise, 2000, seed=23)
        state = EncoderState(ar4, noise, innovation_quantizer(ar4, noise, 5))
        for y_k in trace.y:
            before = state.pred_err_var
            gain = state.gain
            assert 0.0 < gain <= 1.0
            state.encode_step(float(y_k))
            assert (1.0 - gain) * before <= before

    def test_gain_consistent_with_error_variance(self, ar4, noise):
        state = EncoderState(ar4, noise, innovation_quantizer(ar4, noise, 5))
        trace = generate_trace(ar4, noise, 300, seed=24)
        for y_k in trace.y:
            state.encode_step(float(y_k))
            expected = state.pred_err_var / (state.pred_err_var + noise.obs_noise_var)
            assert state.gain == pytest.approx(expected, rel=1e-15)

    def test_gain_is_one_only_without_noise(self, ar4):
        q = innovation_quantizer(ar4, NoiseSpec(0.0), 6)
        state = EncoderState(ar4, NoiseSpec(0.0), q)
        trace = generate_trace(ar4, NoiseSpec(0.0), 200, seed=3)
        for y_k in trace.y:
            state.encode_step(float(y_k))
            assert state.gain == 1.0
        noisy = EncoderState(ar4, NoiseSpec(0.5), q)
        for y_k in trace.y:
            noisy.encode_step(float(y_k))
            assert noisy.gain < 1.0


class TestEncodeStep:
    @pytest.mark.parametrize(
        "model, settles",
        [(ArModel((0.5, 0.2, 0.1, 0.05), 1.0), True), (ArModel((0.9,), 1.0), False)],
    )
    def test_gain_path_matches_stepped_recursion(self, model, settles, noise):
        # the reference AR(4) reaches an exact fixed point, after which encode_step
        # stops stepping the recursion; the AR(1) ends in an ulp-level limit cycle
        q = innovation_quantizer(model, noise, 6)
        state = EncoderState(model, noise, q)
        filtered = [model.sigma_x_sq] * model.order
        pred_err_var = model.sigma_x_sq
        gain = kalman_gain(pred_err_var, noise.obs_noise_var)
        trace = generate_trace(model, noise, 400, seed=31)
        for y_k in trace.y.tolist():
            state.encode_step(y_k)
            pred_err_var, gain, _ = gain_step(
                model, noise, q.noise_var, filtered, pred_err_var, gain
            )
            assert state.gain == gain
            assert state.pred_err_var == pred_err_var
        assert state._settled is settles

    def test_zero_innovation_reproduces_half_step(self, ar4, noise):
        q = UniformQuantizer(bits=4, step=0.2)
        state = EncoderState(ar4, noise, q)
        index, recon = state.encode_step(0.0)  # history is zero, prediction 0
        assert recon == pytest.approx(0.1, abs=1e-15)
        assert index == 8

    def test_noiseless_fine_quantizer_tracks_channel(self, ar4):
        clean = NoiseSpec(0.0)
        trace = generate_trace(ar4, clean, 3000, seed=29)
        q = UniformQuantizer.loaded(14, 2 * float(np.std(trace.x)))
        out = run_codec(ar4, clean, q, trace.y, trace.x)
        # gain is 1, so reconstruction equals y = x up to one quantizer cell
        assert np.max(np.abs(out.encoder_recon - trace.x)) <= q.step / 2 + 1e-12

    def test_empirical_mse_near_steady_state_prediction(self, ar4, noise):
        trace = generate_trace(ar4, noise, 100_000, seed=20240809)
        q = innovation_quantizer(ar4, noise, 6)
        out = run_codec(ar4, noise, q, trace.y, trace.x)
        lam = converged_gain(ar4, noise, q.noise_var)
        predicted = steady_state(ar1_fit(autocovariance(ar4, 4)), noise, lam, q.noise_var)
        mse = float(np.mean((trace.x[10_000:] - out.encoder_recon[10_000:]) ** 2))
        assert abs(mse - predicted.varsigma_inf) / predicted.varsigma_inf < 0.10


def _ar_from_pacf(pacf):
    """Stationary AR coefficients from partial autocorrelations in (-1, 1)."""
    coeffs = []
    for k in pacf:
        coeffs = [a - k * b for a, b in zip(coeffs, reversed(coeffs))] + [k]
    return tuple(coeffs)


_STREAM = st.tuples(
    st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=6),  # partial autocorrelations
    st.sampled_from([0.5, 1.0, 2.0]),  # innovation variance
    st.sampled_from([0.0, 0.3, 1.0]),  # observation noise variance
    st.integers(1, 16),  # quantizer width
    st.booleans(),  # encode the first row's observations instead of its own
)


class TestEncodeBatch:
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(streams=st.lists(_STREAM, min_size=1, max_size=6), seed=st.integers(0, 1 << 16))
    @example(streams=[([-0.6], 1.0, 0.0, 4, False), ([0.9], 1.0, 1.0, 6, True)], seed=5)
    def test_rows_match_scalar_encoder(self, streams, seed):
        # mixed orders, noise-free rows, shared streams, AR(1) with beta < 0 and
        # the AR(1) whose gain recursion ends in a limit cycle
        states, observations, expected = [], [], []
        for r, (pacf, innovation_var, noise_var, bits, shared) in enumerate(streams):
            model = ArModel(_ar_from_pacf(pacf), innovation_var)
            noise = NoiseSpec(noise_var)
            q = innovation_quantizer(model, noise, bits)
            if shared and r > 0:
                y = observations[0]
            else:
                y = generate_trace(model, NoiseSpec(1.0), 400, seed=seed + r).y
            states.append(EncoderState(model, noise, q))
            observations.append(y)
            expected.append(encode_sequence(EncoderState(model, noise, q), y))
        indices, recon = encode_batch(states, observations)
        assert indices.shape == recon.shape == (len(streams), 400)
        for r, (scalar_indices, scalar_recon) in enumerate(expected):
            assert np.array_equal(indices[r], scalar_indices), r
            assert np.array_equal(recon[r], scalar_recon), r

    def test_rejects_non_finite_observations(self, ar4, noise):
        y = generate_trace(ar4, noise, 3000, seed=61).y
        for bad in (math.nan, math.inf, -math.inf):
            corrupted = y.copy()
            corrupted[2500] = bad
            states = [EncoderState(ar4, noise, innovation_quantizer(ar4, noise, b)) for b in (2, 6)]
            with pytest.raises(ValueError, match="cannot quantize NaN or infinite values"):
                encode_batch(states, [y, corrupted])


class TestDecoder:
    def test_synchrony_bit_exact(self, ar4, noise):
        trace = generate_trace(ar4, noise, 10_000, seed=31)
        out = run_codec(ar4, noise, innovation_quantizer(ar4, noise, 6), trace.y, trace.x)
        assert np.array_equal(out.encoder_recon, out.decoder_recon)

    def test_single_index_reproduces_level(self, ar4):
        q = UniformQuantizer(bits=5, step=0.3)
        decoder = DecoderState(ar4, q)
        for index in (0, 7, 31):
            fresh = DecoderState(ar4, q)
            assert fresh.decode_step(index) == q.dequantize(index)

    def test_unknown_index_rejected(self, ar4):
        decoder = DecoderState(ar4, UniformQuantizer(bits=3, step=1.0))
        with pytest.raises(UnknownIndex):
            decoder.decode_step(8)

    def test_non_integral_index_rejected(self):
        # AR(1) beta = 0.5, noise 0.1, 3 bits: 2.7 used to decode to an off-codebook -0.772
        model, noise = ArModel((0.5,), 1.0), NoiseSpec(0.1)
        q = innovation_quantizer(model, noise, 3)
        decoder = DecoderState(model, q)
        for bad in (2.7, -0.5, math.nan):
            with pytest.raises(UnknownIndex):
                q.dequantize(bad)
            with pytest.raises(UnknownIndex):
                decoder.decode_step(bad)
        assert decoder.history == [0.0]
        assert q.dequantize(2.0) == q.dequantize(2)

    def test_corruption_divergence_decays(self, ar4, noise):
        trace = generate_trace(ar4, noise, 4000, seed=37)
        q = innovation_quantizer(ar4, noise, 6)
        out = run_codec(ar4, noise, q, trace.y, trace.x)
        corrupt_at = 1500
        corrupted = list(out.indices)
        corrupted[corrupt_at] = (corrupted[corrupt_at] + q.levels // 2) % q.levels
        recon = decode_sequence(DecoderState(ar4, q), corrupted)
        gap = np.abs(recon - out.encoder_recon)
        assert np.all(gap[:corrupt_at] == 0)
        # after the corruption the mismatch follows the homogeneous AR
        # recursion, so windowed envelopes shrink monotonically
        window = 100
        envelopes = [
            gap[corrupt_at + i * window : corrupt_at + (i + 1) * window].max() for i in range(4)
        ]
        assert all(b < a for a, b in zip(envelopes, envelopes[1:]))
        assert envelopes[-1] < 1e-2 * envelopes[0]

    def test_no_quantization_noise_accumulation(self, ar4, noise):
        trace = generate_trace(ar4, noise, 40_000, seed=41)
        out = run_codec(ar4, noise, innovation_quantizer(ar4, noise, 6), trace.y, trace.x)
        err_sq = (trace.x - out.encoder_recon) ** 2
        first = float(np.mean(err_sq[10_000:20_000]))
        second = float(np.mean(err_sq[20_000:40_000]))
        assert abs(first - second) / first < 0.05


class TestErrorOrthogonality:
    @pytest.fixture(scope="class")
    def centred_error(self, ar4, noise, ar4_trace_1m):
        trace = ar4_trace_1m
        encoder = EncoderState(ar4, noise, innovation_quantizer(ar4, noise, 6))
        _, recon = encode_sequence(encoder, trace.y)
        err = (trace.x - recon)[20_000:]
        return err - err.mean()

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "zero cross-correlation of reconstruction errors at adjacent lags is an "
            "approximation: the closed-loop error follows an AR recursion with "
            "coefficients (1-lambda)a_m, and the measured lag-1 correlation is about "
            "0.26 for the reference codec, far above the 3/sqrt(N) sampling bound"
        ),
    )
    def test_adjacent_lag_cross_terms_statistically_zero(self, centred_error):
        err = centred_error
        bound = 3.0 / np.sqrt(err.size)
        for lag in range(1, 5):
            r = float(np.mean(err[lag:] * err[:-lag]) / np.mean(err * err))
            assert abs(r) < bound, f"lag {lag}"

    def test_distant_lag_cross_terms_statistically_zero(self, centred_error):
        err = centred_error
        bound = 3.0 / np.sqrt(err.size)
        for lag in (50, 80):
            r = float(np.mean(err[lag:] * err[:-lag]) / np.mean(err * err))
            assert abs(r) < bound, f"lag {lag}"


class TestIndexStream:
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, data):
        for bits in range(1, MAX_BITS + 1):
            indices = data.draw(st.lists(st.integers(0, (1 << bits) - 1), max_size=40))
            packed = pack_indices(indices, bits)
            n_bits = len(indices) * bits
            assert len(packed) == (n_bits + 7) // 8
            if n_bits % 8:  # the last byte is zero-padded
                assert packed[-1] & ((1 << (8 - n_bits % 8)) - 1) == 0
            assert unpack_indices(packed, bits, len(indices)).tolist() == indices
        assert pack_indices([], MAX_BITS) == b""
        assert unpack_indices(b"", MAX_BITS, 0).tolist() == []

    def test_msb_first_layout(self):
        # two 3-bit indices 0b101, 0b001 pack as 10100100
        assert pack_indices([5, 1], 3) == bytes([0b10100100])

    def test_range_and_length_errors(self):
        with pytest.raises(UnknownIndex):
            pack_indices([8], 3)
        with pytest.raises(ValueError):
            unpack_indices(b"\x00", 3, 10)
        with pytest.raises(TypeError):  # a count is taken through operator.index
            unpack_indices(b"\x00", 3, 2.0)

    def test_stream_replays_decoder(self, ar4, noise):
        trace = generate_trace(ar4, noise, 3000, seed=47)
        q = innovation_quantizer(ar4, noise, 5)
        out = run_codec(ar4, noise, q, trace.y, trace.x)
        packed = pack_indices(out.indices, q.bits)
        replayed = unpack_indices(packed, q.bits, len(out.indices))
        recon = decode_sequence(DecoderState(ar4, q), replayed)
        assert np.array_equal(recon, out.encoder_recon)


class TestQuantizerSizing:
    def test_clip_matches_steady_innovation(self, ar4, noise):
        from csi_feedback.analysis import converged_prediction_state

        gain, pred_var = converged_prediction_state(ar4, noise, 0.0)
        q = innovation_quantizer(ar4, noise, 6)
        expected = 4.0 * gain * float(np.sqrt(pred_var + noise.obs_noise_var))
        assert q.clip == pytest.approx(expected, rel=1e-12)

    def test_clip_rarely_active(self, ar4, noise):
        trace = generate_trace(ar4, noise, 50_000, seed=53)
        q = innovation_quantizer(ar4, noise, 6)
        out = run_codec(ar4, noise, q, trace.y, trace.x)
        outermost = (0, q.levels - 1)
        clipped = sum(1 for i in out.indices if i in outermost)
        assert clipped / len(out.indices) < 0.01

    def test_ar8_start_up_transient_stays_inside_the_quantizer(self, either_path):
        # The gain fixed point stops after 4 steps on this AR(8) (sigma_x^2 = 4681), at
        # (0.99999976, 88874), far from the recursion's true fixed point (0.99148625,
        # 2.4624929).  A quantizer sized from the true one cannot absorb the start-up
        # transient, a reconstruction from 0 against sigma_x ~ 68, and the loop never
        # recovers: its long-run MSE is 2.2e5.  The shipped sizing gives 0.47.
        model = ArModel(
            (
                2.1831545299901833, -2.9435055608133407, 2.1635616741560972,
                0.05231970636373928, -2.207651172559616, 2.9353339170207935,
                -2.141386185582266, 0.9535254597508533,
            ),
            1.684715411618765,
        )
        noise = NoiseSpec(0.021145065481650932)
        trace = generate_trace(model, noise, 20_000, seed=1)
        out = run_codec(model, noise, innovation_quantizer(model, noise, 10), trace.y, trace.x)
        long_run = float(np.mean((out.encoder_recon[5000:] - trace.x[5000:]) ** 2))
        assert long_run < 0.01 * model.sigma_x_sq

    def test_a_step_whose_noise_variance_overflows_is_rejected(self):
        # the clip is 4e154: at 1 and 2 bits step^2 overflows before the division by 12
        model, noise = ArModel((0.0,), 1e308), NoiseSpec(1.0)
        for bits in (1, 2):
            with pytest.raises(DegenerateCovariance, match=f"{bits}-bit quantizer noise variance"):
                innovation_quantizer(model, noise, bits)
        assert math.isfinite(innovation_quantizer(model, noise, 3).noise_var)

    def test_widths_of_one_channel_solve_the_gain_once(self, monkeypatch):
        calls = []
        solve = analysis.converged_prediction_state

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(analysis, "converged_prediction_state", counted)
        model = ArModel((0.61, -0.17), 1.3)
        quantizers = [innovation_quantizer(model, NoiseSpec(0.4), bits) for bits in range(1, 11)]
        assert len(calls) == 1
        assert len({q.clip for q in quantizers}) == 1
        innovation_quantizer(model, NoiseSpec(0.8), 6)
        assert len(calls) == 2


class TestRunCodecScore:
    """run_codec scores through codec._mean_squares and codec._finite."""

    def test_mse_keeps_the_bits_of_np_mean(self, ar4, noise, either_path):
        trace = generate_trace(ar4, noise, 100_000, seed=7)
        out = run_codec(ar4, noise, innovation_quantizer(ar4, noise, 6), trace.y, trace.x)
        assert out.empirical_mse == float(np.mean((trace.x - out.encoder_recon) ** 2))

    def test_finite_mean_whose_sum_overflows(self, either_path):
        # squares of x ~ 3e153 are finite and so is their mean, not their sum
        model, clean = ArModel((0.0,), 1e307), NoiseSpec(0.0)
        trace = generate_trace(model, clean, 100_000, seed=1)
        out = run_codec(model, clean, innovation_quantizer(model, clean, 2), trace.y, trace.x)
        with np.errstate(over="ignore"):
            assert np.mean((trace.x - out.encoder_recon) ** 2) == math.inf
        assert out.empirical_mse == codec._mean_squares(trace.x.copy(), out.encoder_recon)
        assert math.isfinite(out.empirical_mse)

    def test_squared_error_that_overflows_raises(self, ar4, noise, either_path):
        trace = generate_trace(ar4, noise, 2000, seed=3)
        reference = trace.x.copy()
        reference[1000] = 1e200
        q = innovation_quantizer(ar4, noise, 4)
        with pytest.raises(DegenerateCovariance, match="run_codec: mean squared error overflows"):
            run_codec(ar4, noise, q, trace.y, reference)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_reference_is_rejected_before_encoding(
        self, ar4, noise, either_path, monkeypatch, bad
    ):
        # a NaN or infinite true state is bad input, not an overflow of the score
        encoded, encode = [], codec.encode_sequence
        monkeypatch.setattr(codec, "encode_sequence", lambda *a: encoded.append(a) or encode(*a))
        trace = generate_trace(ar4, noise, 100, seed=3)
        reference = trace.x.copy()
        reference[3], reference[50] = bad, math.nan
        q = innovation_quantizer(ar4, noise, 4)
        message = rf"^run_codec: reference is NaN or infinite at sample 3 \({bad}\)$"
        with pytest.raises(NonFiniteInput, match=message):
            run_codec(ar4, noise, q, trace.y, reference)
        assert not encoded
        run_codec(ar4, noise, q, trace.y, trace.x)  # the wrapper passes a finite one through
        assert len(encoded) == 1

    @pytest.mark.parametrize(
        "n, reference",
        [
            (0, np.zeros(0)),
            (10, np.zeros(5)),
            (10, np.zeros((2, 10))),
            (10, 0.0),
            (10, None),
            (10, [[0.0], [0.0, 1.0]]),
            (10, "reference"),
        ],
        ids=["empty", "short", "2-D", "scalar", "None", "ragged", "string"],
    )
    def test_reference_of_another_shape_is_rejected(self, ar4, noise, either_path, n, reference):
        trace = generate_trace(ar4, noise, 10, seed=3)
        q = innovation_quantizer(ar4, noise, 4)
        with pytest.raises(CsiFeedbackError, match="reference must be a one-dimensional") as caught:
            run_codec(ar4, noise, q, trace.y[:n], reference)
        assert type(caught.value) is CsiFeedbackError
