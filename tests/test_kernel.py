"""The compiled loops against the Python loops they replace.

``EncoderState.encode_step``, ``DecoderState.decode_step`` and the Python
loops of ``analysis.converged_prediction_state`` and ``analysis.mse_recursion``
are the oracles: every kernel output and every state it leaves behind must
equal theirs bit for bit.  ``scipy.signal.lfilter``, which only the tests
import, is the oracle of the AR trace filter on both paths, the kernel's
``ar_trace`` and the Python loop of ``channel._ar_filter``.
"""

import array
import ctypes
import logging
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import csi_feedback
from csi_feedback import (
    ArModel,
    DecoderState,
    EncoderState,
    NoiseSpec,
    decode_sequence,
    encode_batch,
    encode_sequence,
    generate_trace,
    innovation_quantizer,
    pack_indices,
    unpack_indices,
)
from csi_feedback import _kernel, analysis, channel, codec, harness
from csi_feedback.codec import MAX_BITS, UniformQuantizer
from csi_feedback.errors import CsiFeedbackError, NonConvergence, NonFiniteInput, UnknownIndex
from shared import REF_AR1, REF_AR4, UNIT_NOISE
from test_codec import _FINITE_INPUT, _STEP, _ar_from_pacf


def step_encode(state, observations):
    pairs = [state.encode_step(y) for y in np.asarray(observations).tolist()]
    return [i for i, _ in pairs], np.array([r for _, r in pairs])


def step_decode(state, indices):
    return np.array([state.decode_step(int(i)) for i in indices])


def encoder_state(state):
    """Everything the next encode_step reads or writes."""
    return state.history, state._filtered, state.pred_err_var, state.gain, state._settled


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def assert_ar_filter_matches_lfilter(coeffs, psi):
    denominator = np.concatenate(([1.0], -np.asarray(coeffs)))
    assert same_bits(channel._ar_filter(coeffs, psi), lfilter([1.0], denominator, psi))


_ROW = st.tuples(
    st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=8),  # partial autocorrelations
    st.sampled_from([0.5, 1.0, 2.0]),  # innovation variance
    st.sampled_from([0.0, 0.3, 1.0]),  # observation noise variance
    st.integers(1, MAX_BITS),  # quantizer width
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=4), seed=st.integers(0, 1 << 16))
@example(rows=[([-0.6], 1.0, 1.0, 4)], seed=5)  # beta < 0
@example(rows=[([0.9], 1.0, 1.0, 6), ([0.9], 1.0, 0.0, 53)], seed=7)  # gain limit cycle
def test_kernel_matches_step_loops(rows, seed):
    states, oracles, observations = [], [], []
    for r, (pacf, innovation_var, noise_var, bits) in enumerate(rows):
        model = ArModel(_ar_from_pacf(pacf), innovation_var)
        noise = NoiseSpec(noise_var)
        quantizer = innovation_quantizer(model, noise, bits)
        psi = np.random.default_rng(seed + r).normal(size=500)
        assert_ar_filter_matches_lfilter(model.coeffs, psi)
        states.append(EncoderState(model, noise, quantizer))
        oracles.append(EncoderState(model, noise, quantizer))
        observations.append(generate_trace(model, NoiseSpec(1.0), 300, seed=seed + r).y)

    indices, recon = encode_batch(states, observations)
    for r, (state, oracle, y) in enumerate(zip(states, oracles, observations)):
        expected_indices, expected_recon = step_encode(oracle, y)
        assert indices[r].tolist() == expected_indices, r
        assert same_bits(recon[r], expected_recon), r
        assert encoder_state(state) == encoder_state(oracle), r

        decoder = DecoderState(state.model, state.quantizer)
        decoder_oracle = DecoderState(state.model, state.quantizer)
        decoded = decode_sequence(decoder, expected_indices)
        assert same_bits(decoded, step_decode(decoder_oracle, expected_indices)), r
        assert same_bits(decoded, expected_recon), r
        assert decoder.history == decoder_oracle.history, r


def encoder_block_rows():
    """Rows the compiled encoder steps together: its work holds two rings per row of a block."""
    return _kernel.load().encode_rows_work(1 << 20, 1) // 4


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_blocks_match_step_loops_across_boundaries(data):
    if _kernel.load() is None:
        pytest.skip("without the compiled kernel the rows run through the step loop itself")
    block = encoder_block_rows()
    edges = st.sampled_from([block - 1, block, block + 1, 2 * block, 2 * block + 1])
    n_rows = data.draw(edges | st.integers(1, 2 * block + 1), label="rows")
    n = data.draw(st.integers(1, 120), label="samples")
    seed = data.draw(st.integers(0, 1 << 16), label="seed")
    states, oracles, observations = [], [], []
    for r in range(n_rows):
        # AR(1..12), so rows of different orders share a block
        pacf = data.draw(st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=12))
        model = ArModel(_ar_from_pacf(pacf), data.draw(st.sampled_from([0.5, 1.0, 2.0])))
        noise = NoiseSpec(data.draw(st.sampled_from([0.0, 0.3, 1.0])))
        quantizer = innovation_quantizer(model, noise, data.draw(st.integers(1, MAX_BITS)))
        states.append(EncoderState(model, noise, quantizer))
        oracles.append(EncoderState(model, noise, quantizer))
        if r > 0 and data.draw(st.booleans(), label="shared"):
            observations.append(observations[data.draw(st.integers(0, r - 1))])
        else:
            observations.append(generate_trace(model, NoiseSpec(1.0), n, seed=seed + r).y.copy())
    if data.draw(st.booleans(), label="failure"):
        row, k = data.draw(st.integers(0, n_rows - 1)), data.draw(st.integers(0, n - 1))
        # every row that shares this stream sees it
        observations[row][k] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with_indices = data.draw(st.booleans(), label="with_indices")

    # rows run in order: those before the first failing one whole, that one up
    # to its sample, the rows after it never
    expected, failed = [], False
    for oracle, y in zip(oracles, observations):
        try:
            expected.append(step_encode(oracle, y))
        except ValueError:
            failed = True
            break
    if failed:
        with pytest.raises(ValueError, match="cannot quantize NaN or infinite values") as caught:
            codec.encode_batch(states, observations, with_indices=with_indices)
        assert caught.value.row == len(expected)
    else:
        indices, recon = codec.encode_batch(states, observations, with_indices=with_indices)
        for r, (expected_indices, expected_recon) in enumerate(expected):
            if with_indices:
                assert indices[r].tolist() == expected_indices, r
            assert same_bits(recon[r], expected_recon), r
    assert [encoder_state(s) for s in states] == [encoder_state(o) for o in oracles]


@st.composite
def _quantizer_edges(draw):
    """Quantizers of any width, and one stream of inputs on their level
    boundaries k * step and one ulp below them, at -0.0, at the levels -half,
    half - 1 and half, beyond the clips, and whose value / step overflows.
    Each step keeps its noise variance step^2 / 12 finite, as
    innovation_quantizer requires, so every reconstruction and the encoder
    state stay finite."""
    quantizer = st.builds(UniformQuantizer, st.integers(1, MAX_BITS), _STEP)
    quantizer = quantizer.filter(lambda q: math.isfinite(q.noise_var))
    quantizers = draw(st.lists(quantizer, min_size=1, max_size=3))
    values = [-0.0, 0.0, 1.7976931348623157e308, -1.7976931348623157e308]
    for q in quantizers:
        half = 1 << (q.bits - 1)
        levels = st.integers(-half - 2, half + 1) | st.sampled_from([-half, half - 1, half])
        for k in draw(st.lists(levels, min_size=1, max_size=4)):
            values += [k * q.step, math.nextafter(k * q.step, -math.inf)]
        beyond = draw(st.floats(1.0, 1e3))
        values += [beyond * q.clip, -beyond * q.clip]
    values += draw(st.lists(_FINITE_INPUT, max_size=8))
    # k * step or a multiple of the clip may overflow
    return quantizers, draw(st.permutations([v for v in values if math.isfinite(v)]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(edges=_quantizer_edges())
@example(edges=([UniformQuantizer(1, 5e-324)], [-0.0, -5e-324, 0.0, 5e-324]))  # -0.0 levels
@example(edges=([UniformQuantizer(53, 0.1)], [1e308, -1e308, -0.1, 0.1]))  # value / step is inf
def test_quantizer_step_matches_the_step_loop_at_its_edges(edges):
    # noise-free AR(1) with a zero coefficient: the gain is 1 and the prediction
    # +0.0, so every quantizer input is its observation, bit for bit
    if _kernel.load() is None:
        pytest.skip("without the compiled kernel the rows run through the step loop itself")
    quantizers, values = edges
    model, clean = ArModel((0.0,), 1.0), NoiseSpec(0.0)
    states = [EncoderState(model, clean, q) for q in quantizers]
    oracles = [EncoderState(model, clean, q) for q in quantizers]
    y = np.array(values)
    indices, recon = encode_batch(states, [y] * len(states))
    for r, oracle in enumerate(oracles):
        expected_indices, expected_recon = step_encode(oracle, y)
        assert indices[r].tolist() == expected_indices, r
        assert same_bits(recon[r], expected_recon), r  # the sign of a zero too
    assert [encoder_state(s) for s in states] == [encoder_state(o) for o in oracles]


def test_state_passed_twice_is_rejected(either_path):
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 6)
    y = generate_trace(REF_AR4, UNIT_NOISE, 200, seed=101).y
    state, other, fresh = [EncoderState(REF_AR4, UNIT_NOISE, quantizer) for _ in range(3)]
    with pytest.raises(ValueError, match="each row needs its own encoder state"):
        encode_batch([state, other, state], [y, y, y[::-1]])
    assert encoder_state(state) == encoder_state(other) == encoder_state(fresh)


@pytest.mark.parametrize("model", [REF_AR4, REF_AR1], ids=["settling AR(4)", "limit-cycle AR(1)"])
def test_split_stream_continues_with_steps(model):
    quantizer = innovation_quantizer(model, UNIT_NOISE, 6)
    y = generate_trace(model, UNIT_NOISE, 1000, seed=71).y
    oracle = EncoderState(model, UNIT_NOISE, quantizer)
    expected_indices, expected_recon = step_encode(oracle, y)

    state = EncoderState(model, UNIT_NOISE, quantizer)
    head_indices, head_recon = encode_sequence(state, y[:500])
    tail_indices, tail_recon = step_encode(state, y[500:])
    assert head_indices.tolist() + tail_indices == expected_indices
    assert same_bits(np.concatenate([head_recon, tail_recon]), expected_recon)
    assert encoder_state(state) == encoder_state(oracle)

    decoder = DecoderState(model, quantizer)
    decoded = np.concatenate(
        [decode_sequence(decoder, expected_indices[:500]), step_decode(decoder, expected_indices[500:])]
    )
    assert same_bits(decoded, expected_recon)


@pytest.mark.parametrize("coeffs", [(0.0,), (-0.0,), (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0)])
def test_zero_reconstructions_keep_the_sign_the_step_loops_give(coeffs):
    # with the smallest subnormal step, level -1 reproduces -0.5 * step = -0.0
    # and level 0 +0.0; from a history of -0.0 and a first level of -1, the
    # kernel's prediction sum, which does not start from 0.0, is -0.0 where
    # the step loops' sum is +0.0, and only the sign restored at the store
    # makes them agree
    model, quantizer = ArModel(coeffs, 1.0), UniformQuantizer(3, 5e-324)
    rng = np.random.default_rng(len(coeffs))
    levels = rng.integers(-1, 1, 3000)
    levels[0] = -1
    indices = (levels + quantizer.levels // 2).tolist()
    decoder, oracle = DecoderState(model, quantizer), DecoderState(model, quantizer)
    decoder.history = [-0.0] * model.order
    oracle.history = [-0.0] * model.order
    assert same_bits(decode_sequence(decoder, indices), step_decode(oracle, indices))
    assert same_bits(decoder.history, oracle.history)

    y = rng.choice([-5e-324, -0.0, 0.0, 5e-324], 3000)
    y[0] = -5e-324  # level -1
    noise = NoiseSpec(0.0)  # gain 1: the innovation reaches the quantizer as it is
    state, oracle = EncoderState(model, noise, quantizer), EncoderState(model, noise, quantizer)
    state.history = [-0.0] * model.order
    oracle.history = [-0.0] * model.order
    encoded, recon = encode_sequence(state, y)
    expected_indices, expected_recon = step_encode(oracle, y)
    assert encoded.tolist() == expected_indices
    assert same_bits(recon, expected_recon)
    assert same_bits(state.history, oracle.history)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_observation_stops_where_the_step_loop_stops(bad):
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 6)
    y = generate_trace(REF_AR4, UNIT_NOISE, 400, seed=73).y
    corrupted = y.copy()
    corrupted[250] = bad

    oracle = EncoderState(REF_AR4, UNIT_NOISE, quantizer)
    with pytest.raises(ValueError, match="cannot quantize NaN or infinite values"):
        step_encode(oracle, corrupted)
    state = EncoderState(REF_AR4, UNIT_NOISE, quantizer)
    with pytest.raises(ValueError, match="cannot quantize NaN or infinite values"):
        encode_sequence(state, corrupted)
    assert encoder_state(state) == encoder_state(oracle)

    # rows run in order: the first is encoded whole, the last never starts
    rows = [EncoderState(REF_AR4, UNIT_NOISE, quantizer) for _ in range(3)]
    with pytest.raises(ValueError, match="cannot quantize NaN or infinite values"):
        encode_batch(rows, [y, corrupted, y])
    full = EncoderState(REF_AR4, UNIT_NOISE, quantizer)
    step_encode(full, y)
    fresh = EncoderState(REF_AR4, UNIT_NOISE, quantizer)
    assert [encoder_state(s) for s in rows] == [encoder_state(s) for s in (full, oracle, fresh)]


def test_non_finite_input_names_its_row_and_sample(either_path):
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 6)
    y = generate_trace(REF_AR4, UNIT_NOISE, 400, seed=73).y
    corrupted = y.copy()
    corrupted[250] = np.nan
    rows = [EncoderState(REF_AR4, UNIT_NOISE, quantizer) for _ in range(3)]
    message = "^cannot quantize NaN or infinite values at sample 250$"
    with pytest.raises(NonFiniteInput, match=message) as caught:
        encode_batch(rows, [y, corrupted, corrupted])
    assert caught.value.row == 1
    with pytest.raises(NonFiniteInput, match="at sample 0$") as caught:
        encode_sequence(EncoderState(REF_AR4, UNIT_NOISE, quantizer), corrupted[250:])
    assert caught.value.row == 0


def test_only_a_batch_the_kernel_gives_up_on_is_replayed(monkeypatch):
    if _kernel.load() is None:
        pytest.skip("without the compiled kernel every batch runs through the step loop")
    replayed, steps = [], codec._encode_steps
    monkeypatch.setattr(
        codec, "_encode_steps", lambda state, y, row: replayed.append(row) or steps(state, y, row)
    )
    quantizers = [innovation_quantizer(REF_AR4, UNIT_NOISE, 2 + r % 9) for r in range(30)]

    def fresh():
        return [EncoderState(REF_AR4, UNIT_NOISE, q) for q in quantizers]

    y = generate_trace(REF_AR4, UNIT_NOISE, 2000, seed=83).y
    codec.encode_batch(fresh(), [y] * 30)
    assert replayed == []  # a finished batch never runs the step loop

    # row 17 lies in the third block of 8 rows
    corrupted = y.copy()
    corrupted[500] = np.nan
    states = fresh()
    message = "^cannot quantize NaN or infinite values at sample 500$"
    with pytest.raises(NonFiniteInput, match=message) as caught:
        codec.encode_batch(states, [y] * 17 + [corrupted] + [y] * 12)
    assert caught.value.row == 17
    assert replayed == list(range(18))
    oracles = fresh()
    for oracle in oracles[:17]:
        step_encode(oracle, y)
    with pytest.raises(NonFiniteInput):
        step_encode(oracles[17], corrupted)
    assert [encoder_state(s) for s in states] == [encoder_state(o) for o in oracles]


@pytest.mark.parametrize("bad", [-1, 64, 1 << 63, 1 << 70])
def test_unknown_index_stops_where_the_step_loop_stops(bad):
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 6)
    y = generate_trace(REF_AR4, UNIT_NOISE, 400, seed=79).y
    indices, _ = encode_sequence(EncoderState(REF_AR4, UNIT_NOISE, quantizer), y)
    if not -(1 << 63) <= bad < 1 << 63:
        indices = list(indices)  # an array('q') cannot hold it
    indices[250] = bad

    oracle = DecoderState(REF_AR4, quantizer)
    with pytest.raises(UnknownIndex):
        step_decode(oracle, indices)
    decoder = DecoderState(REF_AR4, quantizer)
    with pytest.raises(UnknownIndex, match=f"index {bad} outside"):
        decode_sequence(decoder, indices)
    assert decoder.history == oracle.history


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    pacf=st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=12), seed=st.integers(0, 1 << 16)
)
def test_ar_filter_matches_lfilter_on_the_fallback(pacf, seed):
    # the kernel's ar_trace is checked against lfilter in test_kernel_matches_step_loops
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "load", lambda: None)
        psi = np.random.default_rng(seed).normal(size=500)
        assert_ar_filter_matches_lfilter(_ar_from_pacf(pacf), psi)


@pytest.mark.parametrize("coeffs", [(0.5,), (0.5, -0.2, 0.1)])
def test_ar_filter_keeps_lfilter_order_on_signed_zeros_and_inf(either_path, coeffs):
    # lfilter adds 0 * x to every delay; that term shows only on such inputs
    psi = np.array([-0.0, 0.0, -0.0, 1.0, -1.0, np.inf, 2.0, 0.0])
    assert_ar_filter_matches_lfilter(coeffs, psi)


@pytest.mark.parametrize("bad", [2.7, -0.5, np.nan, np.inf])
@pytest.mark.parametrize("as_array", [False, True])
def test_non_integral_index_stops_where_the_step_loop_stops(either_path, bad, as_array):
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 6)
    y = generate_trace(REF_AR4, UNIT_NOISE, 400, seed=89).y
    indices, _ = encode_sequence(EncoderState(REF_AR4, UNIT_NOISE, quantizer), y)
    corrupted = [float(i) for i in indices]
    corrupted[250] = bad
    if as_array:
        corrupted = np.array(corrupted)

    oracle = DecoderState(REF_AR4, quantizer)
    step_decode(oracle, indices[:250])
    with pytest.raises(UnknownIndex):
        oracle.decode_step(bad)
    decoder = DecoderState(REF_AR4, quantizer)
    with pytest.raises(UnknownIndex, match=f"index {bad} "):
        decode_sequence(decoder, corrupted)
    assert decoder.history == oracle.history


def test_integral_floats_decode_like_ints(either_path):
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 5)
    y = generate_trace(REF_AR4, UNIT_NOISE, 300, seed=97).y
    indices, _ = encode_sequence(EncoderState(REF_AR4, UNIT_NOISE, quantizer), y)
    expected = decode_sequence(DecoderState(REF_AR4, quantizer), indices)
    for stream in ([float(i) for i in indices], np.array(indices, dtype=float)):
        assert same_bits(decode_sequence(DecoderState(REF_AR4, quantizer), stream), expected)


def test_pack_rejects_non_integral_indices(either_path):
    for stream in ([2.7, 5.9], np.array([2.7, 5.9]), [2, 5.9], [2, 5, np.nan]):
        with pytest.raises(UnknownIndex, match="is not a 3-bit codeword"):
            pack_indices(stream, 3)
    assert pack_indices(np.array([5.0, 1.0]), 3) == pack_indices([5, 1], 3)
    assert pack_indices([5.0, 1], 3) == pack_indices(np.array([5, 1], dtype=np.uint8), 3)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_packing_matches_the_bit_matrix(data):
    for bits in range(1, MAX_BITS + 1):
        indices = data.draw(st.lists(st.integers(0, (1 << bits) - 1), max_size=100))
        stream = np.array(indices, dtype=np.int64) if data.draw(st.booleans()) else indices
        packed = on_path(False, pack_indices, stream, bits)
        assert packed == on_path(True, pack_indices, stream, bits), bits
        assert len(packed) == (len(indices) * bits + 7) // 8
        for fallback in (False, True):
            assert on_path(fallback, unpack_indices, packed, bits, len(indices)).tolist() == indices
        # a foreign payload: nonzero padding, and bytes beyond the count
        payload = data.draw(st.binary(max_size=100))
        count = data.draw(st.integers(0, len(payload) * 8 // bits))
        assert on_path(False, unpack_indices, payload, bits, count) == on_path(
            True, unpack_indices, payload, bits, count
        ), bits


@pytest.mark.parametrize("bits", [31, 32, 33])
def test_packing_around_the_word_loops_widest_width_matches_the_fallback(bits):
    # the kernel moves 32-bit words up to 32 bits and single bytes beyond, and
    # finishes every stream's last bytes singly
    rng = np.random.default_rng(bits)
    for count in [*range(70), 1000, 4097]:
        values = rng.integers(0, 1 << bits, count)
        values[:1] = (1 << bits) - 1
        packed = on_path(False, pack_indices, values, bits)
        assert packed == on_path(True, pack_indices, values, bits), count
        for payload in (packed, rng.bytes(len(packed))):
            unpacked = on_path(False, unpack_indices, payload, bits, count)
            assert unpacked == on_path(True, unpack_indices, payload, bits, count), count


@pytest.mark.parametrize("bits", [1, 10, MAX_BITS])
def test_unknown_codeword_is_named_alike_on_both_paths(bits):
    top, nan = 1 << bits, float("nan")
    for stream, named in [
        ([0, -1, 1], -1),
        (np.array([0, -1, 1]), -1),
        ([1, top, 0], top),
        (np.array([1, top, 0]), top),
        ([1, 2.7, 0], 2.7),
        ([0, nan, 1], nan),
        ([1, 1 << 70], 1 << 70),
        # an integral entry out of range is named first, unless an entry that
        # is not an integer cuts the stream before it
        ([0, top, 2.7, -1], top),
        ([0, 2.7, top, -1], 2.7),
    ]:
        for fallback in (False, True):
            with pytest.raises(UnknownIndex) as info:
                on_path(fallback, pack_indices, stream, bits)
            assert str(info.value) == f"index {named} is not a {bits}-bit codeword", stream


_INT_RANGES = {"int64": (-(1 << 63), (1 << 63) - 1), "uint64": (0, (1 << 64) - 1)}


def codeword_entries(bits, container):
    """Entries of an index stream: mostly codewords, and every kind of entry
    that is not one, as far as an array of ``container`` holds it as drawn."""
    top = 1 << bits
    lo, hi = _INT_RANGES.get(container, (-(1 << 66), 1 << 66))
    bad = [
        st.integers(top, hi),
        st.sampled_from([v for v in (top, 1 << 63, 1 << 64) if v <= hi]),  # 2^bits, 2^63, 2^64
    ]
    if lo < 0:
        bad.append(st.integers(lo, -1))
    if container not in _INT_RANGES:
        bad += [
            st.integers(-2, top + 1).map(float),  # integral floats, in range and just out
            st.floats(-2.0 * top, 2.0 * top).filter(lambda x: not x.is_integer()),
            st.sampled_from([math.nan, math.inf, -math.inf]),
        ]
    return st.one_of(*[st.integers(0, top - 1)] * 6, *bad)


def as_container(entries, container):
    if container == "list":
        return entries
    return np.array(entries, dtype=object if container == "object" else container)


def first_non_codeword(entries, bits):
    """The first entry that is not an integer in [0, 2^bits), as pack_indices
    names it: an integral one that fits in int64 as an int."""
    for entry in entries:
        integral = math.isfinite(entry) and entry == int(entry)
        if not (integral and 0 <= entry < 1 << bits):
            return int(entry) if integral and -(1 << 63) <= entry < 1 << 63 else entry
    return None


def step_decode_until_unknown(state, entries):
    """decode_step per entry up to the first UnknownIndex: (reconstructions, whether it raised)."""
    recon = []
    try:
        for entry in entries:
            recon.append(state.decode_step(entry))
    except UnknownIndex:
        return recon, True
    return recon, False


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_codeword_rule_matches_the_step_loop_on_both_paths(data):
    bits = data.draw(st.integers(1, MAX_BITS))
    container = data.draw(st.sampled_from(["list", "int64", "uint64", "float64", "object"]))
    drawn = data.draw(st.lists(codeword_entries(bits, container), max_size=40))
    stream = as_container(drawn, container)
    entries = stream.tolist() if isinstance(stream, np.ndarray) else stream
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, bits)
    oracle = DecoderState(REF_AR4, quantizer)
    expected, raised = step_decode_until_unknown(oracle, entries)
    named = first_non_codeword(entries, bits)
    assert raised == (named is not None)
    for fallback in (False, True):
        decoder = DecoderState(REF_AR4, quantizer)
        if raised:
            with pytest.raises(UnknownIndex):
                on_path(fallback, decode_sequence, decoder, stream)
            with pytest.raises(UnknownIndex) as info:
                on_path(fallback, pack_indices, stream, bits)
            assert str(info.value) == f"index {named} is not a {bits}-bit codeword"
        else:
            assert same_bits(on_path(fallback, decode_sequence, decoder, stream), expected)
            packed = on_path(fallback, pack_indices, stream, bits)
            assert unpack_indices(packed, bits, len(entries)).tolist() == [int(e) for e in entries]
        assert decoder.history == oracle.history, fallback


def test_streams_of_another_shape_are_rejected_by_pack_and_decode(either_path):
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 3)
    ragged = [1, [2], 0], [1, np.array([2]), 0]  # an entry that is itself a sequence
    for stream in (np.array([[1, 2], [3, 0]]), np.array([[5]]), np.array(4), *ragged):
        with pytest.raises(CsiFeedbackError, match="^index stream must be one-dimensional$"):
            pack_indices(stream, 3)
        decoder = DecoderState(REF_AR4, quantizer)
        with pytest.raises(CsiFeedbackError, match="^index stream must be one-dimensional$"):
            decode_sequence(decoder, stream)
        assert decoder.history == DecoderState(REF_AR4, quantizer).history
    assert pack_indices(np.array([1, 2, 3, 0]), 3) == pack_indices([1, 2, 3, 0], 3)


def test_out_of_range_entry_before_a_non_integral_one_stops_decode_there(either_path):
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 4)
    oracle = DecoderState(REF_AR4, quantizer)
    step_decode(oracle, [3, 9])
    decoder = DecoderState(REF_AR4, quantizer)
    with pytest.raises(UnknownIndex, match="index 16 outside"):
        decode_sequence(decoder, [3, 9, 16, 2.7, 5])
    assert decoder.history == oracle.history


def test_none_entry_is_an_unknown_index(either_path):
    # it used to end the stream unnoticed: decode and pack kept the entries before it
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 3)
    stream = [1, 2, None, 3]
    oracle = DecoderState(REF_AR4, quantizer)
    step_decode(oracle, stream[:2])
    for entries in (stream, np.array(stream, dtype=object)):
        decoder = DecoderState(REF_AR4, quantizer)
        with pytest.raises(UnknownIndex, match="index None is not an integer"):
            decode_sequence(decoder, entries)
        assert decoder.history == oracle.history
        with pytest.raises(UnknownIndex, match="index None is not a 3-bit codeword"):
            pack_indices(entries, 3)
    with pytest.raises(UnknownIndex, match="index None is not an integer"):
        DecoderState(REF_AR4, quantizer).decode_step(None)


@pytest.mark.parametrize(
    "payload, bits, count",
    [(b"\x00", 3, 10), (b"", 1, 1), (b"\xff" * 6, MAX_BITS, 1), (b"\x00", 1, 1 << 63)],
    ids=["10 in 1 byte", "1 in none", "53 bits in 6 bytes", "2^63 in 1 byte"],
)
def test_short_stream_is_named_alike_on_both_paths(payload, bits, count):
    messages = []
    for fallback in (False, True):
        with pytest.raises(ValueError, match="stream too short") as info:
            on_path(fallback, unpack_indices, payload, bits, count)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def traced_peak(function, *args):
    """(result, peak bytes that tracemalloc saw while ``function(*args)`` ran)."""
    tracemalloc.start()
    try:
        result = function(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_packing_allocates_near_the_stream_size():
    if _kernel.load() is None:
        pytest.skip("the numpy fallback builds a bit matrix of 64 bytes per index")
    values = np.random.default_rng(11).integers(0, 1 << 10, 10**6)
    packed, pack_peak = traced_peak(pack_indices, values, 10)
    indices, unpack_peak = traced_peak(unpack_indices, packed, 10, values.size)
    assert indices.tolist() == values.tolist()
    # a 64-column bit matrix takes 84 MB and 111 MB here; what must remain is
    # 1.25 MB packed and, for the read, the 8 MB array('q') it unpacks into
    # (8.0 MB measured) plus at most one copy of it: 1e6 Python ints and the
    # list that holds them take about 30 MB more
    assert pack_peak < 8e6
    assert unpack_peak < 17e6


def test_streams_are_int64_arrays_read_in_place(either_path, tmp_path):
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 6)
    trace = generate_trace(REF_AR4, UNIT_NOISE, 500, seed=107)
    encoded, _ = encode_sequence(EncoderState(REF_AR4, UNIT_NOISE, quantizer), trace.y)
    unpacked = unpack_indices(pack_indices(encoded, 6), 6, len(encoded))
    output = codec.run_codec(REF_AR4, UNIT_NOISE, quantizer, trace.y, trace.x)
    harness.write_index_stream(tmp_path / "stream.bin", encoded, 6)
    read, _ = harness.read_index_stream(tmp_path / "stream.bin")
    for stream in (encoded, unpacked, output.indices, read):
        assert type(stream) is array.array and stream.typecode == "q"
        assert stream == encoded
    codes, bad = codec._codewords(unpacked, 6)
    assert np.shares_memory(codes, unpacked) and bad == ()
    del codes  # the view pins the array's size until it goes

    # an edit in place is seen by the very next call, with no copy to go stale
    unpacked[5] = 1 << 6
    with pytest.raises(UnknownIndex, match="index 64 outside") as decoding:
        decode_sequence(DecoderState(REF_AR4, quantizer), unpacked)
    with pytest.raises(UnknownIndex, match="index 64 is not a 6-bit codeword") as packing:
        pack_indices(unpacked, 6)
    # neither traceback, still held here, keeps a view of the array
    assert decoding.tb is not None and packing.tb is not None
    unpacked.append(0)
    assert len(unpacked) == 501

    # other containers of the same codes still pack to the same bytes
    codes = encoded.tolist()
    for stream in (codes, np.array(codes, dtype=np.int64), (code for code in codes)):
        assert pack_indices(stream, 6) == pack_indices(encoded, 6)


def run_everything():
    trace = generate_trace(REF_AR4, UNIT_NOISE, 2000, seed=83)
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 5)
    indices, recon = encode_sequence(EncoderState(REF_AR4, UNIT_NOISE, quantizer), trace.y)
    states = [EncoderState(REF_AR4, UNIT_NOISE, quantizer) for _ in range(2)]
    batch = encode_batch(states, [trace.y, trace.x])
    decoded = decode_sequence(DecoderState(REF_AR4, quantizer), indices)
    return [trace.x, trace.y, np.array(indices), recon, *batch, decoded]


def test_fallback_without_compiler_gives_the_same_bits(monkeypatch, caplog):
    compiled = run_everything()  # the Python loops too when this host cannot build the kernel

    def no_compiler():
        raise FileNotFoundError("no C compiler")

    monkeypatch.setattr(_kernel, "_build", no_compiler)
    _kernel.load.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger=_kernel.__name__):
            fallback = run_everything()
            run_everything()
        assert _kernel.load() is None
    finally:
        _kernel.load.cache_clear()  # the next test loads the real kernel again
    assert len(caplog.records) == 1
    assert "no C compiler" in caplog.records[0].getMessage()
    assert all(same_bits(a, b) for a, b in zip(compiled, fallback))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_source_that_does_not_compile_falls_back_with_the_compilers_message(
    tmp_path, monkeypatch, caplog
):
    broken = tmp_path / "broken.c"
    broken.write_text("int broken(void) { return undeclared_name; }\n")
    monkeypatch.setattr(_kernel, "SOURCE", broken)
    monkeypatch.setenv("HOME", str(tmp_path))  # the cache of this host stays as it is
    _kernel.load.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger=_kernel.__name__):
            assert _kernel.load() is None
            assert _kernel.load() is None
    finally:
        _kernel.load.cache_clear()  # the next test loads the real kernel again
    assert len(caplog.records) == 1
    message = caplog.records[0].getMessage()
    assert message.startswith("compiling broken.c failed, using the Python loops: ")
    assert "error" in message and "undeclared_name" in message  # the compiler's stderr
    assert not any((tmp_path / ".cache" / "csi_feedback").iterdir())  # no partial build left


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_source_compiles_without_warnings(tmp_path):
    # this host's command and the one without the x86 flag, with warnings as
    # errors, into a private directory
    for command in {_kernel._command(platform.machine()), _kernel.COMPILE}:
        subprocess.run(
            [*command, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "kernel.so"),
             str(_kernel.SOURCE)],
            check=True,
            capture_output=True,
        )


@pytest.mark.parametrize(
    "machine, cpuinfo, flagged",
    [
        ("x86_64", b"processor\t: 0\nflags\t\t: fpu sse2 ssse3 sse4_1 sse4_2\n", True),
        ("x86_64", b"processor\t: 0\nflags\t\t: fpu sse2 ssse3\n", False),
        # only the first flags line counts
        ("x86_64", b"flags\t\t: fpu sse2\n\nflags\t\t: fpu sse2 sse4_1\n", False),
        ("x86_64", b"vmx flags\t: sse4_1\nprocessor\t: 0\n", False),
        ("x86_64", None, False),  # unreadable
        ("aarch64", b"flags\t\t: fpu sse2 sse4_1\n", False),
        ("AMD64", b"flags\t\t: fpu sse2 sse4_1\n", False),
    ],
    ids=["sse4_1", "no-sse4_1", "second-line", "vmx-flags", "unreadable", "aarch64", "amd64"],
)
def test_sse41_flag_only_where_the_cpu_names_it(tmp_path, machine, cpuinfo, flagged):
    path = tmp_path / "cpuinfo"
    if cpuinfo is not None:
        path.write_bytes(cpuinfo)
    command = _kernel._command(machine, path)
    expected = (*_kernel.COMPILE, _kernel.SSE41) if flagged else _kernel.COMPILE
    assert command == expected
    # the flag enters the cache key through the command
    assert (_kernel._library(command) != _kernel._library(_kernel.COMPILE)) is flagged


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_a_new_build_prunes_all_but_the_two_newest(tmp_path, monkeypatch):
    monkeypatch.setattr(Path, "home", lambda: tmp_path)
    cache = tmp_path / ".cache" / "csi_feedback"
    cache.mkdir(parents=True)

    def entry(name, mtime, directory=False):
        path = cache / name
        if directory:
            path.mkdir()
        else:
            path.write_bytes(b"")
        os.utime(path, (mtime, mtime))
        return name

    machine = platform.machine()
    partial = entry(f"kernel-{machine}-a-x1.tmp", 0)
    entry(f"kernel-{machine}-a.so", 1)
    stuck = entry(f"kernel-{machine}-b.so", 2, directory=True)  # its unlink fails
    entry(f"kernel-{machine}-c.so", 3)
    newest = entry(f"kernel-{machine}-d.so", 4)
    foreign = entry("kernel-other-e.so", 0)

    library = _kernel._build()
    kept = {library.name, newest, stuck, partial, foreign}
    assert {path.name for path in cache.iterdir()} == kept


# Packs a stream and unpacks foreign payloads of at least 4 KiB at every
# width, encodes two blocks and a remainder of rows that mix AR(1) and AR(4),
# and decodes a row, through the kernel build named on the command line,
# through the Python loops given "fallback", else through _kernel.load();
# prints the sha256 of every output.
_KERNEL_RUN = """
import hashlib, sys
import numpy as np
import csi_feedback as c
from csi_feedback import _kernel
lib = _kernel.load()
assert lib is not None
block = lib.encode_rows_work(1 << 20, 1) // 4
if len(sys.argv) > 1:
    lib = None if sys.argv[1] == "fallback" else _kernel._open(sys.argv[1])
    _kernel.load = lambda: lib
digest = hashlib.sha256()
rng = np.random.default_rng(3)
for bits in range(1, c.codec.MAX_BITS + 1):
    values = rng.integers(0, 1 << bits, 37 + bits)
    values[:2] = 0, (1 << bits) - 1
    packed = c.pack_indices(values, bits)
    assert c.unpack_indices(packed, bits, values.size).tolist() == values.tolist()
    digest.update(packed)
    # payloads of 4 KiB and more in bytes objects of just the size their count
    # needs, one for each place of their last byte in a 4-byte word that this
    # width can give: a read past a payload leaves its allocation
    counts, least = {}, (4096 * 8 + bits - 1) // bits
    for count in range(least, least + 32):
        counts.setdefault((count * bits + 7) // 8 % 4, count)
    for count in counts.values():
        digest.update(c.unpack_indices(rng.bytes((count * bits + 7) // 8), bits, count))
model, noise = c.ArModel((0.5, 0.2, 0.1, 0.05), 1.0), c.NoiseSpec(1.0)
ar1 = c.ArModel((0.9,), 0.19)
trace = c.generate_trace(model, noise, 300, seed=3)
models = [model if r % 2 else ar1 for r in range(2 * block + 1)]
quantizers = [c.innovation_quantizer(m, noise, 2 + r % 7) for r, m in enumerate(models)]
states = [c.EncoderState(m, noise, q) for m, q in zip(models, quantizers)]
observations = [trace.x if r % 3 else trace.y for r in range(len(states))]
indices, recon = c.encode_batch(states, observations)
decoded = c.decode_sequence(c.DecoderState(model, quantizers[1]), indices[1])
for output in (trace.y, indices, recon, decoded):
    digest.update(np.ascontiguousarray(output).tobytes())
print(digest.hexdigest())
"""


def kernel_run_digest(*build, **env):
    """The digest _KERNEL_RUN prints through ``build`` (a library path or
    "fallback", else the normal build), with ``env`` added; it must exit 0."""
    src = str(Path(csi_feedback.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _KERNEL_RUN, *build],
        env=dict(os.environ, PYTHONPATH=src, **env),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def build_kernel(path, command):
    subprocess.run(
        [*command, "-o", str(path), str(_kernel.SOURCE)], check=True, capture_output=True
    )
    return str(path)


def assert_sanitized_build_runs_clean(tmp_path, flags, **env):
    """Build _kernel.c with ``flags`` and run _KERNEL_RUN through it, with
    ``env`` added, and through the normal build: both exit 0 with one digest."""
    if _kernel.load() is None:
        pytest.skip("the kernel cannot be built on this host")
    command = ["cc", *flags, "-ffp-contract=off", "-shared", "-fPIC"]
    sanitized = build_kernel(tmp_path / "kernel-sanitized.so", command)
    assert kernel_run_digest() == kernel_run_digest(sanitized, **env)


@pytest.mark.skipif(
    shutil.which("cc") is None or _kernel.SSE41 not in _kernel._command(platform.machine()),
    reason="needs an x86-64 CPU with SSE4.1 and a C compiler",
)
def test_builds_with_and_without_sse41_give_the_fallback_bits(tmp_path):
    # floor is exact with the SSE2 emulation and with roundsd alike
    builds = [
        build_kernel(tmp_path / "kernel-sse2.so", _kernel.COMPILE),
        build_kernel(tmp_path / "kernel-sse41.so", (*_kernel.COMPILE, _kernel.SSE41)),
        "fallback",
    ]
    assert len({kernel_run_digest(build) for build in builds}) == 1


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_runs_clean_under_undefined_behaviour_sanitizer(tmp_path):
    flags = ["-O1", "-fsanitize=undefined", "-fno-sanitize-recover=all"]
    assert_sanitized_build_runs_clean(tmp_path, flags)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_runs_clean_under_address_sanitizer(tmp_path):
    libasan = subprocess.run(
        ["cc", "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    if not os.path.isabs(libasan):  # the bare name comes back when it is missing
        pytest.skip("no libasan")
    flags = ["-O1", "-g", "-fsanitize=address", "-fno-omit-frame-pointer"]
    # the interpreter is not built with ASan: its runtime must load first, and
    # the interpreter's own allocations at exit are not this test's leaks
    assert_sanitized_build_runs_clean(
        tmp_path, flags, LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0"
    )


# Runs every command on a config with scipy unimportable, through the kernel
# or, given "fallback", the Python loops, writing to <out>/<path>-<command>.csv;
# prints the exit codes last.
_NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from csi_feedback import _kernel, cli
path, config, out = sys.argv[1:]
if path == "fallback":
    _kernel.load = lambda: None
commands = ("theory", "codec", "validate", "trace")
codes = [cli.main([c, "--config", config, "--out", f"{out}/{path}-{c}.csv"]) for c in commands]
print(*codes)
"""


def test_commands_load_no_scipy(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(
        "ar_coeffs = 0.5, 0.2\nn_points = 5\nquantizer_bits = 2, 6\n"
        "trials = 1\nsamples_per_trial = 2000\nseed = 3\n"
    )
    src = str(Path(csi_feedback.__file__).resolve().parents[1])
    codes = {}
    for path in ("kernel", "fallback"):
        result = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_RUN, path, str(config), str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        codes[path] = [int(c) for c in result.stdout.splitlines()[-1].split()]
    theory, codec_, validate, trace = codes["kernel"]
    assert (theory, codec_, trace) == (0, 0, 0) and validate in (0, 2)
    assert codes["fallback"] == codes["kernel"]
    kernel_trace = (tmp_path / "kernel-trace.csv").read_bytes()
    assert kernel_trace.count(b"\n") == 2001
    assert (tmp_path / "fallback-trace.csv").read_bytes() == kernel_trace


def on_path(fallback, function, *args):
    """``function(*args)``, with ``fallback`` through the Python loops."""
    with pytest.MonkeyPatch.context() as patch:
        if fallback:
            patch.setattr(_kernel, "load", lambda: None)
        return function(*args)


def outcome(function, *args, fallback=False):
    """What ``function(*args)`` returns, as bytes, or the error it raises; with
    ``fallback``, through the Python loops."""
    try:
        result = on_path(fallback, function, *args)
    except CsiFeedbackError as exc:
        return type(exc), str(exc)
    return np.asarray(result, dtype=float).tobytes(), len(result)


def assert_same_on_both_paths(function, *args):
    compiled = outcome(function, *args)
    assert compiled == outcome(function, *args, fallback=True)
    return compiled


# AR(1..12) from partial autocorrelations; a first one near +-1 puts a root near the unit circle
_PACF = st.builds(
    lambda first, rest: [first, *rest],
    st.floats(-0.99, 0.99) | st.sampled_from([0.999, -0.999, 0.99999]),
    st.lists(st.floats(-0.9, 0.9), max_size=11),
)
_SIGMA_Q_SQ = st.sampled_from([0.0, 1e-12, 1e3]) | st.floats(0.0, 1e3)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    pacf=_PACF,
    innovation_var=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    noise_var=st.sampled_from([0.0, 1e-3, 0.3, 1.0, 10.0]),
    sigma_q_sq=_SIGMA_Q_SQ,
    lam=st.floats(1e-3, 1.0),
)
@example(pacf=[0.999], innovation_var=1.0, noise_var=1.0, sigma_q_sq=0.0, lam=0.003)
@example(pacf=[0.9, -0.5], innovation_var=0.0, noise_var=0.3, sigma_q_sq=0.3, lam=0.5)
def test_steady_state_loops_match_python_loops(pacf, innovation_var, noise_var, sigma_q_sq, lam):
    model, noise = ArModel(_ar_from_pacf(pacf), innovation_var), NoiseSpec(noise_var)
    with mock.patch.object(analysis, "GAIN_MAX_ITER", 20_000):
        assert_same_on_both_paths(analysis.converged_prediction_state, model, noise, sigma_q_sq)
    assert_same_on_both_paths(analysis.mse_recursion, model, noise, lam, sigma_q_sq, 5000)


@pytest.mark.parametrize("sigma_q_sq", [0.0, 1e-12, 1.0, 1e3])
def test_noiseless_gain_is_one_on_both_paths(sigma_q_sq):
    state = assert_same_on_both_paths(
        analysis.converged_prediction_state, REF_AR4, NoiseSpec(0.0), sigma_q_sq
    )
    assert np.frombuffer(state[0])[0] == 1.0


def test_zero_innovation_variance_on_both_paths():
    model = ArModel((0.5, -0.2), 0.0)
    gain, pred_var = np.frombuffer(
        assert_same_on_both_paths(analysis.converged_prediction_state, model, UNIT_NOISE, 0.0)[0]
    )
    assert gain == pred_var == 0.0
    trajectory = assert_same_on_both_paths(analysis.mse_recursion, model, UNIT_NOISE, 0.5, 0.3, 100)
    assert np.frombuffer(trajectory[0])[0] == 0.0


@pytest.mark.parametrize("budget", [-1, 0, 1, 2])
def test_small_budgets_raise_non_convergence_on_both_paths(budget, monkeypatch):
    monkeypatch.setattr(analysis, "GAIN_MAX_ITER", budget)
    for function, args in [
        (analysis.converged_prediction_state, (REF_AR4, UNIT_NOISE, 0.0)),
        (analysis.mse_recursion, (REF_AR4, UNIT_NOISE, 0.5, 0.01, budget)),
    ]:
        assert assert_same_on_both_paths(function, *args)[0] is NonConvergence


def test_overflow_stops_at_its_step_on_both_paths(monkeypatch):
    # with (1 - lam)^2 sum a_m^2 > 1 the trajectory overflows at step 1833 and
    # turns NaN through 0 * inf at step 1836; the first non-finite value raises.
    # The kernel fills its 2048-value buffer past both, so a NaN must never pass
    # its convergence test: max(NaN, 1e-12) is NaN, where C's fmax is not
    args = (ArModel((1.2, -0.3, 0.0), 1.0), UNIT_NOISE, 0.01, 0.0, 10**6)
    message = "MSE recursion value inf at step 1833 is not finite"
    assert assert_same_on_both_paths(analysis.mse_recursion, *args) == (NonConvergence, message)
    sums = []
    dot = analysis._dot
    monkeypatch.setattr(analysis, "_dot", lambda *terms: sums.append(dot(*terms)) or sums[-1])
    with pytest.raises(NonConvergence):
        on_path(True, analysis.mse_recursion, *args)
    assert len(sums) == 1833  # the fallback stopped at the overflow
    # a budget that ends before the overflow runs out as before, and one that ends on it names it
    short = args[:-1]
    assert assert_same_on_both_paths(analysis.mse_recursion, *short, 1832) == (
        NonConvergence,
        "MSE recursion not converged after 1832 steps",
    )
    assert assert_same_on_both_paths(analysis.mse_recursion, *short, 1833) == (NonConvergence, message)


@pytest.mark.parametrize("sigma_q_sq", [math.nan, math.inf, -math.inf])
def test_non_finite_quantization_noise_raises(either_path, sigma_q_sq):
    for function, args in [
        (analysis.converged_prediction_state, (REF_AR4, UNIT_NOISE, sigma_q_sq)),
        (analysis.converged_prediction_state, (REF_AR4, NoiseSpec(0.0), sigma_q_sq)),
        (analysis.mse_recursion, (REF_AR4, UNIT_NOISE, 0.5, sigma_q_sq, 1000)),
        (analysis.steady_state, (analysis.Ar1Approx(0.9, 0.19), UNIT_NOISE, 0.5, sigma_q_sq)),
    ]:
        with pytest.raises(NonFiniteInput, match=f"sigma_q_sq {sigma_q_sq} is not finite"):
            function(*args)


def test_negative_quantization_noise_raises(either_path):
    for function, args in [
        (analysis.converged_prediction_state, (REF_AR4, UNIT_NOISE, -5.0)),
        (analysis.mse_recursion, (REF_AR4, UNIT_NOISE, 0.5, -5.0, 1000)),
        (analysis.mse_recursion, (REF_AR4, UNIT_NOISE, 0.5, -1e-300, 10**9)),
        (analysis.steady_state, (analysis.Ar1Approx(0.9, 0.19), UNIT_NOISE, 0.5, -5.0)),
    ]:
        with pytest.raises(ValueError, match="sigma_q_sq must be non-negative"):
            function(*args)


def test_long_trajectory_crosses_buffer_growth_on_both_paths():
    model = ArModel((0.999,), 1.0)

    def trajectory(steps):
        return assert_same_on_both_paths(analysis.mse_recursion, model, UNIT_NOISE, 0.003, 0.0, steps)

    # contraction (1 - lam)^2 beta^2 close to 1: over two doublings of the buffer
    length = trajectory(10**6)[1]
    assert length > 2 * analysis._MSE_CHUNK
    assert trajectory(length - 1)[1] == length
    assert trajectory(length - 2)[0] is NonConvergence


def test_huge_step_budget_allocates_by_trajectory_length():
    expected = analysis.mse_recursion(REF_AR4, UNIT_NOISE, 0.5, 0.01, 100)
    trajectory, peak = traced_peak(analysis.mse_recursion, REF_AR4, UNIT_NOISE, 0.5, 0.01, 10**9)
    assert same_bits(trajectory, expected)
    assert peak < 1 << 20  # 10**9 doubles would be 8 GB


_C_TYPES = {"void": None, "double": ctypes.c_double, "int64_t": ctypes.c_int64}


def _ctype(parameter):
    """ctypes type of a C parameter declaration such as ``const double *a``."""
    return ctypes.c_void_p if "*" in parameter else _C_TYPES[parameter.split()[0]]


def test_every_exported_kernel_function_has_its_signature():
    source = _kernel.SOURCE.read_text()
    # a definition outside `static` starts at column 0 with its return type
    definitions = re.findall(r"^(?!static\b)(\w+) (\w+)\(([^)]*)\)\s*\{", source, re.M)
    assert {name for _, name, _ in definitions} == set(_kernel._SIGNATURES)
    for restype, name, parameters in definitions:
        argtypes = [_ctype(p) for p in parameters.split(",")]
        assert _kernel._SIGNATURES[name] == (_C_TYPES[restype], argtypes), name
    lib = _kernel.load()
    if lib is None:
        pytest.skip("the kernel cannot be built on this host")
    for name in _kernel._SIGNATURES:
        assert hasattr(lib, name), name
