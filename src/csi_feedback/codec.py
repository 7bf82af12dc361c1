"""Closed-loop innovation codec: Kalman-gain weighting plus uniform quantization.

The encoder predicts the next channel state from its own reconstructions,
weights the innovation y_k - prediction by a Kalman-style gain, quantizes the
weighted innovation and adds the quantized value back, so quantization noise
cannot accumulate.  The decoder mirrors the reconstruction loop exactly, which
makes encoder and decoder states bit-identical when they start equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis
from .channel import ArModel, NoiseSpec, autocovariance
from .errors import UnknownIndex

# widest quantizer: beyond 2^53 the float clip bound 2^(bits-1) - 1 is not exact
MAX_BITS = 53

# clip of every uniform quantizer in the experiments, in standard deviations of its input
CLIP_LOADING = 4.0

# samples per block of encode_batch's per-row observation and index buffers
_CHUNK = 1024


@dataclass(frozen=True)
class UniformQuantizer:
    """Midrise uniform quantizer with 2^bits levels and half-range clip.

    Reproduction values are +-(i + 1/2) * step; there is no zero level, and a
    zero input reproduces +step/2.  Inputs beyond the clip saturate to the
    outermost level.  Widths run from 1 to ``MAX_BITS``.
    """

    bits: int
    step: float

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= MAX_BITS:
            raise ValueError(f"bits must lie in 1..{MAX_BITS}")
        if self.step <= 0:
            raise ValueError("step must be positive")

    @classmethod
    def with_clip(cls, bits: int, clip: float) -> "UniformQuantizer":
        """Quantizer whose half-range equals ``clip``."""
        if clip <= 0:
            raise ValueError("clip must be positive")
        return cls(bits=bits, step=clip / (1 << (bits - 1)))

    @property
    def levels(self) -> int:
        return 1 << self.bits

    @property
    def clip(self) -> float:
        return (1 << (self.bits - 1)) * self.step

    @property
    def noise_var(self) -> float:
        """High-resolution quantization-noise model step^2 / 12."""
        return self.step * self.step / 12.0

    def quantize(self, value: float) -> tuple[int, float]:
        """Nearest midrise level as (codeword index, reproduction value).

        NaN or infinite values raise ValueError, as in ``quantize_many``.
        """
        half = 1 << (self.bits - 1)
        try:
            index = int(math.floor(value / self.step)) + half
        except (OverflowError, ValueError):
            if not math.isfinite(value):
                raise ValueError("cannot quantize NaN or infinite values") from None
            index = -1 if value < 0 else self.levels  # value / step overflowed: saturate
        if index < 0:
            index = 0
        elif index >= self.levels:
            index = self.levels - 1
        return index, (index - half + 0.5) * self.step

    def quantize_many(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized quantize for offline experiments; NaN or infinite values raise."""
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise ValueError("cannot quantize NaN or infinite values")
        half = 1 << (self.bits - 1)
        # saturate in float, where value / step may overflow to inf: an
        # out-of-range int64 cast wraps around
        with np.errstate(over="ignore"):
            levels = np.floor(values / self.step)
        indices = np.clip(levels, -half, half - 1).astype(np.int64) + half
        return indices, (indices - half + 0.5) * self.step

    def dequantize(self, index: int) -> float:
        """Reproduction value of a codeword index."""
        if not 0 <= index < self.levels:
            raise UnknownIndex(f"index {index} outside [0, {self.levels})")
        return (index - (1 << (self.bits - 1)) + 0.5) * self.step


def _predict(coeffs: tuple[float, ...], history: list[float]) -> float:
    # shared by encoder and decoder so both sides run identical arithmetic
    total = 0.0
    for a, h in zip(coeffs, history):
        total += a * h
    return total


class EncoderState:
    """Sequential closed-loop encoder.

    Tracks the last L reconstructions, a ring of the last L filtered error
    variances (the per-lag terms of the prediction-error recursion), the
    current prediction-error variance and the matching gain.  The recursion
    never reads the data, so once a step leaves it exactly unchanged it has
    reached its fixed point and is no longer stepped.
    """

    def __init__(self, model: ArModel, noise: NoiseSpec, quantizer: UniformQuantizer):
        self.model = model
        self.noise = noise
        self.quantizer = quantizer
        self._coeffs = model.coeffs
        self.history = [0.0] * model.order  # most recent reconstruction first
        sigma_x_sq = autocovariance(model, model.order).sigma_x_sq
        self._filtered = [sigma_x_sq] * model.order
        self.pred_err_var = sigma_x_sq
        self.update_gain()
        self._settled = False

    def predict_from_history(self) -> float:
        """Model-based forecast of the current state from past reconstructions."""
        return _predict(self._coeffs, self.history)

    def update_gain(self) -> float:
        """Refresh the gain from the current prediction-error variance."""
        self.gain = analysis.kalman_gain(self.pred_err_var, self.noise.obs_noise_var)
        return self.gain

    def propagate_pred_err(self, filtered_err_var: float) -> float:
        """Advance the prediction-error variance by one step.

        Pushes the newest filtered error variance into the per-lag ring and
        accumulates sum_m a_m^2 (filtered_m + step^2/12) + sigma_psi^2.
        """
        self.pred_err_var = analysis.propagate_pred_err(
            self._coeffs,
            self.model.innovation_var,
            self._filtered,
            filtered_err_var,
            self.quantizer.noise_var,
        )
        return self.pred_err_var

    def encode_step(self, y_k: float) -> tuple[int, float]:
        """Encode one noisy observation; returns (codeword index, reconstruction)."""
        prediction = self.predict_from_history()
        gain = self.gain
        innovation = y_k - prediction
        index, quantized = self.quantizer.quantize(gain * innovation)
        reconstruction = prediction + quantized
        self.history.insert(0, reconstruction)
        self.history.pop()
        if not self._settled:
            pred_err_var, filtered = self.pred_err_var, list(self._filtered)
            self.propagate_pred_err((1.0 - gain) * pred_err_var)
            self.update_gain()
            self._settled = self.pred_err_var == pred_err_var and self._filtered == filtered
        return index, reconstruction


class DecoderState:
    """Sequential decoder mirroring the encoder's reconstruction loop."""

    def __init__(self, model: ArModel, quantizer: UniformQuantizer):
        self.model = model
        self.quantizer = quantizer
        self._coeffs = model.coeffs
        self.history = [0.0] * model.order

    def decode_step(self, index: int) -> float:
        """Reconstruct one channel state from a codeword index."""
        value = _predict(self._coeffs, self.history) + self.quantizer.dequantize(index)
        self.history.insert(0, value)
        self.history.pop()
        return value


@dataclass(eq=False)
class CodecOutput:
    """Index stream plus both reconstructions and the encoder-side MSE."""

    indices: list[int]
    encoder_recon: np.ndarray
    decoder_recon: np.ndarray
    empirical_mse: float


def encode_sequence(state: EncoderState, observations) -> tuple[list[int], np.ndarray]:
    """Encode a whole observation stream through one encoder state."""
    indices: list[int] = []
    recon: list[float] = []
    step = state.encode_step
    for y_k in np.asarray(observations, dtype=float).tolist():
        index, value = step(y_k)
        indices.append(index)
        recon.append(value)
    return indices, np.asarray(recon)


def encode_batch(states, observations) -> tuple[np.ndarray, np.ndarray]:
    """Encode one observation stream per encoder state, every stream in lockstep.

    Returns (indices, reconstructions), both of shape (streams, samples).  Row
    r is bit-identical to ``encode_sequence(states[r], observations[r])``:
    each sample is one numpy step over all rows with the arithmetic of
    ``encode_step``, so one Python iteration serves every stream.  The states
    are only read, never advanced; pass fresh ones to encode a stream from its
    start.  Rows may share one observation array, which is then stored once.
    NaN or infinite values raise ValueError, as in the scalar quantizer.
    """
    states = list(states)
    observations = list(observations)  # holds each stream while ids are compared
    if len(observations) != len(states):
        raise ValueError("need one observation stream per encoder state")
    n_rows = len(states)
    stream_of: dict[int, int] = {}
    streams = []
    row_stream = np.empty(n_rows, dtype=np.intp)
    for r, obs in enumerate(observations):
        if id(obs) not in stream_of:
            stream_of[id(obs)] = len(streams)
            streams.append(np.asarray(obs, dtype=float))
        row_stream[r] = stream_of[id(obs)]
    table = np.stack(streams, axis=1)  # (samples, distinct streams)
    if table.ndim != 2:
        raise ValueError("observation streams must be one-dimensional")

    # Lags are zero-padded to the largest order: a padded lag adds an exact
    # zero to the prediction and to the prediction-error sum.
    order = max(s.model.order for s in states)
    n_steps = table.shape[0]
    recon = np.zeros((order + n_steps, n_rows))  # first `order` rows: initial histories
    coeffs = np.zeros((order, n_rows))  # coeffs[order - 1 - m] weights lag m + 1
    for r, s in enumerate(states):
        coeffs[order - s.model.order :, r] = s._coeffs[::-1]
        recon[order - s.model.order : order, r] = s.history[::-1]
    step = np.array([s.quantizer.step for s in states])
    half = np.array([float(1 << (s.quantizer.bits - 1)) for s in states])
    low, high = -half, half - 1.0
    zero, one_half = np.zeros(n_rows), np.full(n_rows, 0.5)
    gain = np.array([s.gain for s in states])

    # Only noisy rows have a gain that can move: without noise it is exactly 1.
    moving = [r for r, s in enumerate(states) if s.noise.obs_noise_var > 0.0 and not s._settled]
    if moving:
        lag_coeffs = [coeffs[order - 1 - m, moving] for m in range(order)]
        innovation_var = np.array([states[r].model.innovation_var for r in moving])
        noise_var = np.array([states[r].noise.obs_noise_var for r in moving])
        sigma_q_sq = np.array([states[r].quantizer.noise_var for r in moving])
        pred_err_var = np.array([states[r].pred_err_var for r in moving])
        ring = np.zeros((order, len(moving)))
        for j, r in enumerate(moving):
            ring[: states[r].model.order, j] = states[r]._filtered
        filtered = list(ring)
        moving_gain = gain[moving]

    indices = np.empty((n_steps, n_rows), dtype=np.int64)
    products = np.empty((order, n_rows))
    terms = list(products[::-1])  # a_1 h_1 first, as in _predict
    pred, quantized = np.empty(n_rows), np.empty(n_rows)
    # Per chunk of samples: gather observations per row, keep the quantizer
    # inputs to check them and the clipped levels to write the indices.
    weighted = np.empty((_CHUNK, n_rows))
    levels = np.empty((_CHUNK, n_rows))
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, n_steps, _CHUNK):
            stop = min(start + _CHUNK, n_steps)
            ys = table[start:stop].take(row_stream, axis=1)
            for k, y, value, level in zip(range(start, stop), ys, weighted, levels):
                np.multiply(coeffs, recon[k : k + order], out=products)
                np.add(zero, terms[0], out=pred)
                for term in terms[1:]:
                    np.add(pred, term, out=pred)
                np.subtract(y, pred, out=value)
                np.multiply(gain, value, out=value)
                np.divide(value, step, out=level)
                np.floor(level, out=level)
                np.maximum(level, low, out=level)
                np.minimum(level, high, out=level)
                np.add(level, one_half, out=quantized)
                np.multiply(quantized, step, out=quantized)
                np.add(pred, quantized, out=recon[order + k])
                if moving:
                    last_var, last_ring = pred_err_var, list(filtered)
                    pred_err_var = analysis.propagate_pred_err(
                        lag_coeffs,
                        innovation_var,
                        filtered,
                        (1.0 - moving_gain) * pred_err_var,
                        sigma_q_sq,
                    )
                    moving_gain = analysis.kalman_gain(pred_err_var, noise_var)
                    gain[moving] = moving_gain
                    if (pred_err_var == last_var).all() and all(
                        (now == then).all() for now, then in zip(filtered, last_ring)
                    ):
                        moving = []
            if not np.isfinite(weighted[: stop - start]).all():
                raise ValueError("cannot quantize NaN or infinite values")
            np.add(levels[: stop - start], half, out=indices[start:stop], casting="unsafe")
    return indices.T, recon[order:].T


def decode_sequence(state: DecoderState, indices) -> np.ndarray:
    """Decode a whole index stream through one decoder state."""
    step = state.decode_step
    return np.asarray([step(int(i)) for i in indices])


def run_codec(
    model: ArModel,
    noise: NoiseSpec,
    quantizer: UniformQuantizer,
    observations,
    reference=None,
) -> CodecOutput:
    """Encode observations and decode the index stream with fresh states.

    ``reference`` (the true channel states) is only used for the empirical
    MSE; without it the MSE field is NaN.
    """
    encoder = EncoderState(model, noise, quantizer)
    decoder = DecoderState(model, quantizer)
    indices, encoder_recon = encode_sequence(encoder, observations)
    decoder_recon = decode_sequence(decoder, indices)
    if reference is None:
        mse = math.nan
    else:
        mse = float(np.mean((np.asarray(reference, dtype=float) - encoder_recon) ** 2))
    return CodecOutput(
        indices=indices,
        encoder_recon=encoder_recon,
        decoder_recon=decoder_recon,
        empirical_mse=mse,
    )


def innovation_quantizer(model: ArModel, noise: NoiseSpec, bits: int) -> UniformQuantizer:
    """Quantizer sized for the codec's steady-state weighted innovation.

    The clip is ``CLIP_LOADING`` standard deviations of the weighted innovation
    lambda * (y - prediction) at the quantization-free steady state, which
    keeps the clip probability below 1e-2 for Gaussian innovations.
    """
    gain, pred_var = analysis.converged_prediction_state(model, noise, sigma_q_sq=0.0)
    zeta_std = gain * math.sqrt(pred_var + noise.obs_noise_var)
    return UniformQuantizer.with_clip(bits, CLIP_LOADING * zeta_std)


def pack_indices(indices, bits: int) -> bytes:
    """Pack codeword indices into bytes, most significant bit first."""
    accumulator = 0
    pending = 0
    out = bytearray()
    mask = (1 << bits) - 1
    for index in indices:
        index = int(index)
        if not 0 <= index <= mask:
            raise UnknownIndex(f"index {index} does not fit in {bits} bits")
        accumulator = (accumulator << bits) | index
        pending += bits
        while pending >= 8:
            pending -= 8
            out.append((accumulator >> pending) & 0xFF)
            accumulator &= (1 << pending) - 1
    if pending:
        out.append((accumulator << (8 - pending)) & 0xFF)
    return bytes(out)


def unpack_indices(data: bytes, bits: int, count: int) -> list[int]:
    """Recover ``count`` codeword indices from an MSB-first packed stream."""
    accumulator = 0
    pending = 0
    out: list[int] = []
    mask = (1 << bits) - 1
    for byte in data:
        accumulator = (accumulator << 8) | byte
        pending += 8
        while pending >= bits and len(out) < count:
            pending -= bits
            out.append((accumulator >> pending) & mask)
            accumulator &= (1 << pending) - 1
    if len(out) < count:
        raise ValueError(f"stream too short: got {len(out)} of {count} indices")
    return out
