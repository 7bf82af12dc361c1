"""The compiled loops against the Python loops they replace.

``EncoderState.encode_step``, ``DecoderState.decode_step`` and the Python
loops of ``analysis.converged_prediction_state`` and ``analysis.mse_recursion``
are the oracles: every kernel output and every state it leaves behind must
equal theirs bit for bit.  ``scipy.signal.lfilter``, which only the tests
import, is the oracle of the AR trace filter on both paths, the kernel's
``ar_trace`` and the Python loop of ``channel._ar_filter``.
"""

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
from csi_feedback import _kernel, analysis, channel, codec
from csi_feedback.codec import MAX_BITS
from csi_feedback.errors import CsiFeedbackError, NonConvergence, NonFiniteInput, UnknownIndex
from shared import REF_AR1, REF_AR4, UNIT_NOISE
from test_codec import _ar_from_pacf


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
    assert head_indices + tail_indices == expected_indices
    assert same_bits(np.concatenate([head_recon, tail_recon]), expected_recon)
    assert encoder_state(state) == encoder_state(oracle)

    decoder = DecoderState(model, quantizer)
    decoded = np.concatenate(
        [decode_sequence(decoder, expected_indices[:500]), step_decode(decoder, expected_indices[500:])]
    )
    assert same_bits(decoded, expected_recon)


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


@pytest.mark.parametrize("bad", [-1, 64, 1 << 63, 1 << 70])
def test_unknown_index_stops_where_the_step_loop_stops(bad):
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 6)
    y = generate_trace(REF_AR4, UNIT_NOISE, 400, seed=79).y
    indices, _ = encode_sequence(EncoderState(REF_AR4, UNIT_NOISE, quantizer), y)
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
            assert on_path(fallback, unpack_indices, packed, bits, len(indices)) == indices
        # a foreign payload: nonzero padding, and bytes beyond the count
        payload = data.draw(st.binary(max_size=100))
        count = data.draw(st.integers(0, len(payload) * 8 // bits))
        assert on_path(False, unpack_indices, payload, bits, count) == on_path(
            True, unpack_indices, payload, bits, count
        ), bits


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
            assert unpack_indices(packed, bits, len(entries)) == [int(e) for e in entries]
        assert decoder.history == oracle.history, fallback


def test_streams_of_another_shape_are_rejected_by_pack_and_decode(either_path):
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 3)
    for stream in (np.array([[1, 2], [3, 0]]), np.array([[5]]), np.array(4)):
        with pytest.raises(ValueError, match="^index stream must be one-dimensional$"):
            pack_indices(stream, 3)
        decoder = DecoderState(REF_AR4, quantizer)
        with pytest.raises(ValueError, match="^index stream must be one-dimensional$"):
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
    assert indices == values.tolist()
    # a 64-column bit matrix takes 84 MB and 111 MB here; what must remain is
    # 1.25 MB packed, 8 MB of int64 and 1e6 Python ints
    assert pack_peak < 8e6
    assert unpack_peak < 60e6


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
def test_kernel_source_compiles_without_warnings(tmp_path):
    flags = ["-O2", "-ffp-contract=off", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror"]
    subprocess.run(
        ["cc", *flags, "-o", str(tmp_path / "kernel.so"), str(_kernel.SOURCE)],
        check=True,
        capture_output=True,
    )


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


# Packs a stream at every width, encodes two blocks and a remainder of rows
# that mix AR(1) and AR(4), and decodes a row, through the kernel build named on
# the command line, else through _kernel.load(); prints the sha256 of every
# output.
_KERNEL_RUN = """
import hashlib, sys
import numpy as np
import csi_feedback as c
from csi_feedback import _kernel
if len(sys.argv) > 1:
    lib = _kernel._open(sys.argv[1])
    _kernel.load = lambda: lib
assert _kernel.load() is not None
digest = hashlib.sha256()
rng = np.random.default_rng(3)
for bits in range(1, c.codec.MAX_BITS + 1):
    values = rng.integers(0, 1 << bits, 37 + bits)
    values[:2] = 0, (1 << bits) - 1
    packed = c.pack_indices(values, bits)
    assert c.unpack_indices(packed, bits, values.size) == values.tolist()
    digest.update(packed)
model, noise = c.ArModel((0.5, 0.2, 0.1, 0.05), 1.0), c.NoiseSpec(1.0)
ar1 = c.ArModel((0.9,), 0.19)
trace = c.generate_trace(model, noise, 300, seed=3)
block = _kernel.load().encode_rows_work(1 << 20, 1) // 4
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


def assert_sanitized_build_runs_clean(tmp_path, flags, **env):
    """Build _kernel.c with ``flags`` and run _KERNEL_RUN through it, with
    ``env`` added, and through the normal build: both exit 0 with one digest."""
    if _kernel.load() is None:
        pytest.skip("the kernel cannot be built on this host")
    sanitized = tmp_path / "kernel-sanitized.so"
    flags = [*flags, "-ffp-contract=off", "-shared", "-fPIC"]
    subprocess.run(
        ["cc", *flags, "-o", str(sanitized), str(_kernel.SOURCE)], check=True, capture_output=True
    )
    src = str(Path(csi_feedback.__file__).resolve().parents[1])
    digests = []
    for build, extra in (([], {}), ([str(sanitized)], env)):
        result = subprocess.run(
            [sys.executable, "-c", _KERNEL_RUN, *build],
            env=dict(os.environ, PYTHONPATH=src, **extra),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout)
    assert digests[0] == digests[1]


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


def test_nan_runs_to_the_budget_on_both_paths(monkeypatch):
    # max(NaN, 1e-12) is NaN, where C's fmax is not: a NaN must never pass
    steps = []
    propagate = analysis.propagate_pred_err
    monkeypatch.setattr(
        analysis, "propagate_pred_err", lambda *args: steps.append(1) or propagate(*args)
    )
    nan = float("nan")
    monkeypatch.setattr(analysis, "GAIN_MAX_ITER", 300)
    gain_state = assert_same_on_both_paths(
        analysis.converged_prediction_state, REF_AR4, UNIT_NOISE, nan
    )
    assert gain_state[0] is NonConvergence
    assert len(steps) == 300  # the fallback ran out its budget
    trajectory = assert_same_on_both_paths(analysis.mse_recursion, REF_AR4, UNIT_NOISE, 0.5, nan, 300)
    assert trajectory[0] is NonConvergence
    # without noise the gain stays 1 and settles; only the variance is NaN
    noiseless = assert_same_on_both_paths(
        analysis.converged_prediction_state, REF_AR4, NoiseSpec(0.0), nan
    )
    gain, pred_var = np.frombuffer(noiseless[0])
    assert gain == 1.0 and np.isnan(pred_var)


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
