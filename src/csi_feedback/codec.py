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


@dataclass(frozen=True)
class UniformQuantizer:
    """Midrise uniform quantizer with 2^bits levels and half-range clip.

    Reproduction values are +-(i + 1/2) * step; there is no zero level, and a
    zero input reproduces +step/2.  Inputs beyond the clip saturate to the
    outermost level.
    """

    bits: int
    step: float

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
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
        """Nearest midrise level as (codeword index, reproduction value)."""
        half = 1 << (self.bits - 1)
        index = int(math.floor(value / self.step)) + half
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
        # saturate in float: an out-of-range int64 cast wraps around
        indices = np.clip(np.floor(values / self.step), -half, half - 1).astype(np.int64) + half
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
            self.model, self._filtered, filtered_err_var, self.quantizer.noise_var
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


def innovation_quantizer(
    model: ArModel,
    noise: NoiseSpec,
    bits: int,
    loading: float = 4.0,
) -> UniformQuantizer:
    """Quantizer sized for the codec's steady-state weighted innovation.

    The clip is ``loading`` standard deviations of the weighted innovation
    lambda * (y - prediction) at the quantization-free steady state, which
    keeps the clip probability below 1e-2 for Gaussian innovations at the
    default loading of 4.
    """
    gain, pred_var = analysis.converged_prediction_state(model, noise, sigma_q_sq=0.0)
    zeta_std = gain * math.sqrt(pred_var + noise.obs_noise_var)
    return UniformQuantizer.with_clip(bits, loading * zeta_std)


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
