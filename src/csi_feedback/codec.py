"""Closed-loop innovation codec: Kalman-gain weighting plus uniform quantization.

The encoder predicts the next channel state from its own reconstructions,
weights the innovation y_k - prediction by a Kalman-style gain, quantizes the
weighted innovation and adds the quantized value back, so quantization noise
cannot accumulate.  The decoder mirrors the reconstruction loop exactly, which
makes encoder and decoder states bit-identical when they start equal.
"""

from __future__ import annotations

import array
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernel, analysis
from .channel import ArModel, NoiseSpec, _dot
from .errors import CsiFeedbackError, DegenerateCovariance, NonFiniteInput, UnknownIndex

# widest quantizer: beyond 2^53 the float clip bound 2^(bits-1) - 1 is not exact
MAX_BITS = 53

# clip of every uniform quantizer in the experiments, in standard deviations of its input
CLIP_LOADING = 4.0

_INT64 = np.iinfo(np.int64)


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
        _check_width(self.bits)
        if not self.step > 0:  # NaN too
            raise CsiFeedbackError("step must be positive")

    @classmethod
    def loaded(cls, bits: int, std: float) -> "UniformQuantizer":
        """Quantizer whose half-range is ``CLIP_LOADING`` times the std of its input.

        A step that underflows to 0 raises DegenerateCovariance, naming the width.
        """
        _check_width(bits)
        if std <= 0:
            raise CsiFeedbackError("std must be positive")
        step = CLIP_LOADING * std / (1 << (bits - 1))
        if step == 0.0:
            raise DegenerateCovariance(f"{bits}-bit quantizer step underflows to 0: std={std}")
        return cls(bits=bits, step=step)

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

        NaN or infinite values raise NonFiniteInput, as in ``quantize_many``.
        """
        if not math.isfinite(value):
            raise NonFiniteInput("cannot quantize NaN or infinite values")
        half = 1 << (self.bits - 1)
        # saturate before the floor, where value / step may overflow to inf
        level = value / self.step
        if level < -half:
            level = -half
        elif level > half - 1:
            level = half - 1
        index = math.floor(level) + half
        return index, (index - half + 0.5) * self.step

    def quantize_many(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized quantize for offline experiments; NaN or infinite values raise."""
        half = 1 << (self.bits - 1)
        levels = _levels(np.asarray(values, dtype=float), self.step, half)
        indices = levels.astype(np.int64)
        indices += half
        levels += 0.5  # levels is exactly indices - half, an integer of at most 2^52
        levels *= self.step
        return indices, levels

    def dequantize(self, index: int) -> float:
        """Reproduction value of a codeword index; UnknownIndex unless an integer in range."""
        try:
            inside = 0 <= index < self.levels
        except TypeError:  # None, a string
            raise UnknownIndex(f"index {index!r} is not an integer") from None
        if not inside:
            raise UnknownIndex(f"index {index} outside [0, {self.levels})")
        if index != int(index):
            raise UnknownIndex(f"index {index} is not an integer")
        return (index - (1 << (self.bits - 1)) + 0.5) * self.step


def _levels(values: np.ndarray, step, half, out=None) -> np.ndarray:
    """Signed levels floor(values / step) saturated to [-half, half - 1], as floats.

    ``step`` and ``half`` are scalars or ``(widths, 1)`` columns that
    broadcast against ``values``.  NaN or infinite values raise
    NonFiniteInput.
    """
    if not np.isfinite(values).all():
        raise NonFiniteInput("cannot quantize NaN or infinite values")
    # saturate in float, where value / step may overflow to inf: an
    # out-of-range int64 cast wraps around
    with np.errstate(over="ignore"):
        levels = np.divide(values, step, out=out)
    return np.clip(np.floor(levels, out=levels), -half, half - 1, out=levels)


def _reproduce_rows(quantizers, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row i of ``out`` becomes ``quantizers[i].quantize_many(values)[1]``, bit for bit.

    One broadcast pass over every width; ``out`` has shape
    ``(len(quantizers), values.size)``.
    """
    step = np.array([[q.step] for q in quantizers])
    half = np.array([[1 << (q.bits - 1)] for q in quantizers], dtype=float)
    levels = _levels(values, step, half, out)
    levels += 0.5
    levels *= step
    return levels


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
        self._filtered, self.pred_err_var, self.gain = analysis._recursion_start(model, noise)
        self._settled = False

    def encode_step(self, y_k: float) -> tuple[int, float]:
        """Encode one noisy observation; returns (codeword index, reconstruction).

        ``_kernel.c`` repeats this arithmetic operation by operation; change
        both together.
        """
        prediction = _dot(self._coeffs, self.history)
        gain = self.gain
        innovation = y_k - prediction
        index, quantized = self.quantizer.quantize(gain * innovation)
        reconstruction = prediction + quantized
        self.history.insert(0, reconstruction)
        self.history.pop()
        if not self._settled:
            self.pred_err_var, self.gain, self._settled = analysis.gain_step(
                self.model, self.noise, self.quantizer.noise_var, self._filtered,
                self.pred_err_var, gain,
            )
        return index, reconstruction


class DecoderState:
    """Sequential decoder mirroring the encoder's reconstruction loop."""

    def __init__(self, model: ArModel, quantizer: UniformQuantizer):
        self.model = model
        self.quantizer = quantizer
        self._coeffs = model.coeffs
        self.history = [0.0] * model.order

    def decode_step(self, index: int) -> float:
        """Reconstruct one channel state from a codeword index.

        ``_kernel.c`` repeats this arithmetic operation by operation; change
        both together.
        """
        value = _dot(self._coeffs, self.history) + self.quantizer.dequantize(index)
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


def _encode_steps(
    state: EncoderState, observations: np.ndarray, row: int
) -> tuple[list[int], list[float]]:
    """The per-sample encoder loop of row ``row``, run without the kernel or after it gives up."""
    indices: list[int] = []
    recon: list[float] = []
    step = state.encode_step
    try:
        for y_k in observations.tolist():
            index, value = step(y_k)
            indices.append(index)
            recon.append(value)
    except NonFiniteInput:
        error = NonFiniteInput(f"cannot quantize NaN or infinite values at sample {len(indices)}")
        error.row = row  # names the stream
        raise error from None
    return indices, recon


def encode_batch(
    states, observations, *, with_indices: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Encode one observation stream per encoder state and advance every state.

    Returns (indices, reconstructions), both of shape (streams, samples);
    indices is None unless ``with_indices``.  Row r is bit-identical to
    ``encode_sequence(states[r], observations[r])`` and advances ``states[r]``
    as that call would; pass fresh states to encode the streams from their
    start.  The compiled kernel steps blocks of rows sample by sample, each
    row in its own operation order.  The streams must have equal lengths;
    rows may share one observation array, but not one state (CsiFeedbackError,
    before any row is encoded).  A NaN or infinite quantizer input raises
    NonFiniteInput, naming the sample and carrying the row in its ``row``
    attribute, with the rows before it encoded whole, its row advanced up to
    that sample and the rows after it untouched, as the per-sample loop
    leaves them.  The kernel gives up on such a batch without advancing any
    state, and the per-sample loop replays it, at Python speed.
    """
    states = list(states)
    if len({id(state) for state in states}) < len(states):
        raise CsiFeedbackError("each row needs its own encoder state")
    streams = [np.ascontiguousarray(obs, dtype=float) for obs in observations]
    if len(streams) != len(states):
        raise CsiFeedbackError("need one observation stream per encoder state")
    n_rows, n = len(states), streams[0].size if streams else 0
    if any(y.ndim != 1 or y.size != n for y in streams):
        raise CsiFeedbackError("observation streams must be one-dimensional and of equal length")

    lib = _kernel.load()
    if lib is not None:
        orders = np.array([s.model.order for s in states], dtype=np.int64)
        coeffs = np.array([a for s in states for a in s._coeffs])
        # per-row parameter and state records, in the field order of _kernel.c
        params = np.array(
            [
                [
                    s.quantizer.step,
                    float(1 << (s.quantizer.bits - 1)),
                    s.model.innovation_var,
                    s.noise.obs_noise_var,
                    s.quantizer.noise_var,
                ]
                for s in states
            ]
        )
        history = np.array([h for s in states for h in s.history])
        filtered = np.array([f for s in states for f in s._filtered])
        record = np.array([[s.pred_err_var, s.gain, s._settled] for s in states], dtype=float)
        indices = np.empty((n_rows, n), dtype=np.int64) if with_indices else None
        recon = np.empty((n_rows, n))
        work = np.empty(lib.encode_rows_work(n_rows, int(orders.max(initial=1))))
        finished = lib.encode_rows(
            n_rows,
            n,
            (ctypes.c_void_p * n_rows)(*[y.ctypes.data for y in streams]),
            orders.ctypes.data,
            coeffs.ctypes.data,
            params.ctypes.data,
            history.ctypes.data,
            filtered.ctypes.data,
            record.ctypes.data,
            None if indices is None else indices.ctypes.data,
            recon.ctypes.data,
            work.ctypes.data,
        )
        if finished:
            offset = 0
            for s, (pred_err_var, gain, settled) in zip(states, record.tolist()):
                order = s.model.order
                s.history = history[offset : offset + order].tolist()
                s._filtered = filtered[offset : offset + order].tolist()
                s.pred_err_var, s.gain, s._settled = pred_err_var, gain, bool(settled)
                offset += order
            return indices, recon

    rows = [_encode_steps(state, y, row) for row, (state, y) in enumerate(zip(states, streams))]
    recon = np.array([values for _, values in rows]).reshape(n_rows, n)
    if not with_indices:
        return None, recon
    return np.array([codes for codes, _ in rows], dtype=np.int64).reshape(n_rows, n), recon


def encode_sequence(state: EncoderState, observations) -> tuple[list[int], np.ndarray]:
    """Encode a whole observation stream through one encoder state.

    Bit-identical to ``encode_step`` per sample, and leaves the state where
    that loop would, so the stream can go on with either.  The index list
    carries its codes, so ``decode_sequence`` and ``pack_indices`` do not
    convert it while it is unchanged.
    """
    indices, recon = encode_batch([state], [observations])
    return _listed(indices[0], state.quantizer.bits), recon[0]


class _IndexList(list):
    """A ``list[int]`` of codewords that keeps the integer array it was listed from.

    ``codes`` is that array, read-only, until a list method or operator
    changes the list, which sets it to None; ``_codewords`` widens it to
    int64 instead of converting the list.  Copies, slices and pickles are
    plain lists.  An edit through ``list``'s own methods called on the
    object (``list.append(stream, 2)``) goes round the subclass and is not
    seen.
    """

    __slots__ = ("codes",)

    def __reduce__(self):
        return list, (list(self),)


def _forgets_codes(method):
    @functools.wraps(method)
    def edit(self, *args, **kwargs):
        self.codes = None
        return method(self, *args, **kwargs)

    return edit


# every method and operator of list that changes the list in place
for _name in ("__init__", "__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend",
              "insert", "pop", "remove", "reverse", "sort", "clear"):
    setattr(_IndexList, _name, _forgets_codes(getattr(list, _name)))


def _listed(codes: np.ndarray, bits: int) -> list[int]:
    """``codes.tolist()``, as a list that carries ``codes`` for ``_codewords``.

    The list keeps them in the narrowest signed type that holds a ``bits``-bit
    codeword, 1 to 8 bytes per index beside the list's own 40.
    """
    narrow = codes.astype(np.min_scalar_type(-(1 << bits)))
    narrow.flags.writeable = False
    listed = _IndexList(memoryview(narrow))  # iterates as the Python ints tolist() makes
    listed.codes = narrow
    return listed


def _is_int64(value) -> bool:
    try:
        return _INT64.min <= value <= _INT64.max and value == int(value)
    except (TypeError, ValueError, OverflowError):
        return False


def _codewords(indices, bits: int) -> tuple[np.ndarray, tuple]:
    """The longest prefix of a one-dimensional stream of ``bits``-bit codewords, as int64.

    A codeword is an integer in [0, 2^bits).  Returns that prefix and () if it
    is the whole stream, else the 1-tuple of the entry that ends it, so that a
    None entry is not taken for the end.  A list of ints or an integer array
    needs no check per entry, only one pass over the values for the range,
    and a list that ``_listed`` handed out is not converted while it is
    unchanged: its codes are only widened.
    """
    if isinstance(indices, np.ndarray):
        values = indices
    elif type(indices) is _IndexList and indices.codes is not None:
        values = indices.codes
    else:
        if not isinstance(indices, list):
            indices = list(indices)
        try:  # a float raises TypeError, an int beyond int64 OverflowError
            values = np.frombuffer(array.array("q", indices), dtype=np.int64)
        except (TypeError, OverflowError):
            try:
                values = np.asarray(indices)
            except ValueError:  # an entry that is itself a sequence
                raise CsiFeedbackError("index stream must be one-dimensional") from None
    if values.ndim != 1:
        raise CsiFeedbackError("index stream must be one-dimensional")
    bad = ()
    if np.can_cast(values.dtype, np.int64):
        codes = np.ascontiguousarray(values, dtype=np.int64)
    else:
        # check the entries themselves: numpy turns a list that mixes int64
        # values with larger ints into floats
        entries = values.tolist() if values is indices else indices
        k = next((k for k, entry in enumerate(entries) if not _is_int64(entry)), len(entries))
        codes, bad = np.array(entries[:k], dtype=np.int64), tuple(entries[k : k + 1])
    # an integer out of range comes before the entry that ends the integers;
    # read as uint64, a negative one is 2^63 or more
    unsigned = codes.view(np.uint64)
    if unsigned.size and unsigned.max() >> bits:
        k = np.flatnonzero(unsigned >> bits)[0]
        codes, bad = codes[:k], (int(codes[k]),)
    return codes, bad


def decode_sequence(state: DecoderState, indices) -> np.ndarray:
    """Decode a whole index stream through one decoder state.

    Bit-identical to ``decode_step`` per index, and leaves the state where
    that loop would; an index outside the codebook or not an integer raises
    UnknownIndex after the indices before it are decoded.
    """
    codes, bad = _codewords(indices, state.quantizer.bits)
    lib = _kernel.load()
    if lib is None:
        step = state.decode_step
        recon = np.asarray([step(i) for i in codes.tolist()])
    else:
        coeffs = np.array(state._coeffs)
        history = np.array(state.history, dtype=float)
        recon = np.empty(codes.size)
        work = np.empty(2 * state.model.order)
        lib.decode_row(
            codes.size,
            state.model.order,
            coeffs.ctypes.data,
            state.quantizer.step,
            float(1 << (state.quantizer.bits - 1)),
            codes.ctypes.data,
            history.ctypes.data,
            recon.ctypes.data,
            work.ctypes.data,
        )
        state.history = history.tolist()
    if bad:
        state.quantizer.dequantize(*bad)  # raises UnknownIndex
    return recon


def run_codec(
    model: ArModel,
    noise: NoiseSpec,
    quantizer: UniformQuantizer,
    observations,
    reference,
) -> CodecOutput:
    """Encode observations and decode the index stream with fresh states.

    ``reference`` (the true channel states) scores the encoder's
    reconstruction: the empirical MSE is finite, or DegenerateCovariance
    when a squared error overflows to inf.
    """
    encoder = EncoderState(model, noise, quantizer)
    decoder = DecoderState(model, quantizer)
    indices, encoder_recon = encode_sequence(encoder, observations)
    decoder_recon = decode_sequence(decoder, indices)
    with np.errstate(over="ignore"):  # an overflow is checked by _finite
        mse = _mean_squares(np.asarray(reference, dtype=float) - encoder_recon)
    return CodecOutput(
        indices=indices,
        encoder_recon=encoder_recon,
        decoder_recon=decoder_recon,
        empirical_mse=_finite(mse, "run_codec"),
    )


def _mean_squares(errors: np.ndarray):
    """``np.square(errors).mean(axis=-1).tolist()``, squaring ``errors`` in place.

    Each finite mean keeps np.mean's bits.  A row of n squares whose mean is
    not finite is averaged again as ldexp(mean(ldexp(squares, -k)), k) with
    k = n.bit_length(): a power-of-two scaling moves no bit of a normal
    float, and n < 2^k finite squares below 2^(1024 - k) cannot sum past the
    largest float, so only a mean that itself overflows, or a square that
    did, stays inf, for ``_finite`` to report.  Callers run it under
    ``np.errstate(over="ignore")``.
    """
    means = np.square(errors, out=errors).mean(axis=-1)
    if math.isfinite(means.sum()):  # no mean is negative, so each one is finite
        return means.tolist()
    rows, means = errors.reshape(-1, errors.shape[-1]), means.reshape(-1)
    k = rows.shape[1].bit_length()
    for row in np.flatnonzero(~np.isfinite(means)):
        means[row] = np.ldexp(np.ldexp(rows[row], -k).mean(), k)
    return means.reshape(errors.shape[:-1]).tolist()


def _finite(mse: float, what: str) -> float:
    """The mean squared error itself; DegenerateCovariance when it overflowed."""
    if not math.isfinite(mse):
        raise DegenerateCovariance(f"{what}: mean squared error overflows to {mse}")
    return mse


def innovation_quantizer(model: ArModel, noise: NoiseSpec, bits: int) -> UniformQuantizer:
    """Quantizer sized for the codec's steady-state weighted innovation.

    The clip is ``CLIP_LOADING`` standard deviations of the weighted innovation
    lambda * (y - prediction) at the quantization-free steady state, which
    keeps the clip probability below 1e-2 for Gaussian innovations.  When the
    gain underflows to 0 (the observation noise swamps the channel), there
    is nothing to size it for, and it raises DegenerateCovariance; so it does
    when the step is so narrow that it underflows to 0, or so wide that its
    noise variance step^2 / 12 overflows, which the gain recursion would read.
    """
    gain, pred_var = _noise_free_state(model, noise)
    zeta_std = gain * math.sqrt(pred_var + noise.obs_noise_var)
    if not zeta_std > 0.0:
        raise DegenerateCovariance(
            f"weighted innovation has no spread: gain={gain}, prediction-error variance={pred_var}"
        )
    quantizer = UniformQuantizer.loaded(bits, zeta_std)
    if quantizer.noise_var == math.inf:
        raise DegenerateCovariance(
            f"{bits}-bit quantizer noise variance overflows: step={quantizer.step}"
        )
    return quantizer


# callers size every width of one channel in a row, so one entry is enough
@functools.lru_cache(maxsize=1)
def _noise_free_state(model: ArModel, noise: NoiseSpec) -> tuple[float, float]:
    return analysis.converged_prediction_state(model, noise, sigma_q_sq=0.0)


def _check_width(bits: int) -> None:
    if not 1 <= bits <= MAX_BITS:
        raise CsiFeedbackError(f"bits must lie in 1..{MAX_BITS}")


def pack_indices(indices, bits: int) -> bytes:
    """Pack codeword indices into bytes, most significant bit first.

    Each index takes ``bits`` bits and the last byte is zero-padded.  An
    entry that is not a ``bits``-bit codeword raises UnknownIndex, and a
    stream that is not one-dimensional CsiFeedbackError.  The compiled kernel packs
    them; without it, numpy cuts each index to the low ``bits`` bits of a
    big-endian 64-bit word, one row of a (indices, bits) bit matrix that
    np.packbits packs row after row, to the same bytes.
    """
    _check_width(bits)
    values, bad = _codewords(indices, bits)
    if bad:
        raise UnknownIndex(f"index {bad[0]} is not a {bits}-bit codeword")
    lib = _kernel.load()
    if lib is None:
        words = values.astype(">u8").view(np.uint8).reshape(-1, 8)
        return np.packbits(np.unpackbits(words, axis=1)[:, 64 - bits :]).tobytes()
    packed = np.empty((values.size * bits + 7) // 8, dtype=np.uint8)
    lib.pack_bits(values.size, bits, values.ctypes.data, packed.ctypes.data)
    return packed.tobytes()


def unpack_indices(data: bytes, bits: int, count: int) -> list[int]:
    """Recover ``count`` codeword indices from an MSB-first packed stream.

    The compiled kernel unpacks them; without it, numpy unpacks the bits into
    the low columns of a (count, 64) bit matrix and packs its rows back into
    big-endian 64-bit words.  The list carries its codes, as
    ``encode_sequence``'s does.
    """
    _check_width(bits)
    payload = np.frombuffer(data, dtype=np.uint8)
    count = max(count, 0)
    # before any allocation: the count may come from a corrupt header
    if payload.size * 8 < count * bits:
        raise CsiFeedbackError(f"stream too short: got {payload.size * 8 // bits} of {count} indices")
    lib = _kernel.load()
    if lib is None:
        matrix = np.zeros((count, 64), dtype=np.uint8)
        matrix[:, 64 - bits :] = np.unpackbits(payload, count=count * bits).reshape(count, bits)
        values = np.packbits(matrix, axis=1).view(">u8").reshape(-1)
    else:
        values = np.empty(count, dtype=np.int64)
        lib.unpack_bits(count, bits, payload.ctypes.data, values.ctypes.data)
    return _listed(values, bits)
