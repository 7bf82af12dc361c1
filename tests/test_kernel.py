"""The compiled codec and trace loops against the per-sample Python loops they replace.

``EncoderState.encode_step``, ``DecoderState.decode_step`` and
``scipy.signal.lfilter`` are the oracles: every kernel output and every state
it leaves behind must equal theirs bit for bit.
"""

import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

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
)
from csi_feedback import _kernel, channel
from csi_feedback.codec import MAX_BITS
from csi_feedback.errors import UnknownIndex
from conftest import REF_AR1, REF_AR4, UNIT_NOISE
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
        denominator = np.concatenate(([1.0], -np.asarray(model.coeffs)))
        assert same_bits(channel._ar_filter(model.coeffs, psi), lfilter([1.0], denominator, psi))
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


@pytest.mark.parametrize("coeffs", [(0.5,), (0.5, -0.2, 0.1)])
def test_ar_filter_keeps_lfilter_order_on_signed_zeros_and_inf(coeffs):
    # lfilter adds 0 * x to every delay; that term shows only on such inputs
    psi = np.array([-0.0, 0.0, -0.0, 1.0, -1.0, np.inf, 2.0, 0.0])
    denominator = np.concatenate(([1.0], -np.asarray(coeffs)))
    assert same_bits(channel._ar_filter(coeffs, psi), lfilter([1.0], denominator, psi))


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


@pytest.fixture(params=["kernel", "fallback"])
def decode_path(request, monkeypatch):
    """Run the test through the compiled kernel and through the no-compiler fallback."""
    if request.param == "fallback":
        monkeypatch.setattr(_kernel, "load", lambda: None)
    return request.param


@pytest.mark.parametrize("bad", [2.7, -0.5, np.nan, np.inf])
@pytest.mark.parametrize("as_array", [False, True])
def test_non_integral_index_stops_where_the_step_loop_stops(decode_path, bad, as_array):
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


def test_integral_floats_decode_like_ints(decode_path):
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 5)
    y = generate_trace(REF_AR4, UNIT_NOISE, 300, seed=97).y
    indices, _ = encode_sequence(EncoderState(REF_AR4, UNIT_NOISE, quantizer), y)
    expected = decode_sequence(DecoderState(REF_AR4, quantizer), indices)
    for stream in ([float(i) for i in indices], np.array(indices, dtype=float)):
        assert same_bits(decode_sequence(DecoderState(REF_AR4, quantizer), stream), expected)


def test_pack_rejects_non_integral_indices(decode_path):
    for stream in ([2.7, 5.9], np.array([2.7, 5.9]), [2, 5.9], [2, 5, np.nan]):
        with pytest.raises(UnknownIndex, match="is not a 3-bit codeword"):
            pack_indices(stream, 3)
    assert pack_indices(np.array([5.0, 1.0]), 3) == pack_indices([5, 1], 3)
    assert pack_indices([5.0, 1], 3) == pack_indices(np.array([5, 1], dtype=np.uint8), 3)


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


def test_commands_load_no_scipy():
    if _kernel.load() is None:
        pytest.skip("without the compiled kernel, traces come from scipy's lfilter")
    script = (
        "import sys, csi_feedback as c\n"
        "m = c.ArModel((0.5,), 1.0)\n"
        "c.generate_trace(m, c.NoiseSpec(1.0), 100, seed=1)\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(csi_feedback.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
        capture_output=True,
        text=True,
    )
    assert result.stdout.strip() == "[]"
