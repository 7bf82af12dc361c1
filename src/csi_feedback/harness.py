"""Monte Carlo experiment runner: theory sweeps, codec experiments, validation.

Experiments are described by a flat key=value config file and emit CSV rows
with a fixed schema, so runs are reproducible byte for byte from
(config, seed).  Theory rows never depend on the seed; simulation rows record
the base seed and trials use disjoint streams seed + trial_index.
"""

from __future__ import annotations

import array
import logging
import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from . import analysis, bounds, codec, predictor
from .channel import ArModel, NoiseSpec, generate_trace
from .errors import ConfigError, DegenerateCovariance, NonFiniteInput

log = logging.getLogger(__name__)

# scheme tags for the quantized-feedback comparison
DIRECT_QUANTIZATION = "direct_quantization"
AR1_OPEN_LOOP = "ar1_open_loop"
CLOSED_LOOP = "closed_loop"


class CsvRow(NamedTuple):
    """One (scheme, distortion, rate) record of an experiment run."""

    scheme: str
    sigma_psi_sq: float
    sigma_xi_sq: float
    distortion: float
    rate_bits: float
    source: str
    seed: int
    n_samples: int


CSV_HEADER = CsvRow._fields
_new = tuple.__new__  # a CsvRow from a tuple of all eight fields, without its __new__


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description parsed from a flat key=value file."""

    model: ArModel
    noise: NoiseSpec
    predictor_order: int
    schemes: tuple[bounds.Scheme, ...]
    d_min: float | None
    d_max: float | None
    n_points: int
    quantizer_bits: tuple[int, ...]
    trials: int
    samples_per_trial: int
    seed: int
    normalized_bounds: bool
    output_path: str


_DEFAULTS = {
    "innovation_var": "1.0",
    "obs_noise_var": "1.0",
    "schemes": ",".join(s.value for s in bounds.Scheme),
    "d_min": "auto",
    "d_max": "auto",
    "n_points": "25",
    "quantizer_bits": "4,6,8",
    "trials": "3",
    "samples_per_trial": "100000",
    "seed": "12345",
    "normalized_bounds": "false",
    "output_path": "rd.csv",
}

_KNOWN_KEYS = set(_DEFAULTS) | {"ar_coeffs", "predictor_order"}
_SCHEMES = {scheme.value: scheme for scheme in bounds.Scheme}

# grid points per theory curve; each point costs memory in every scheme's rows
MAX_POINTS = 10_000


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_float_list(raw: str, key: str, lags: bool = False) -> tuple[float, ...]:
    fields = [part.strip() for part in raw.split(",")]
    while fields and not fields[-1]:
        fields.pop()
    if lags and "" in fields:  # skipping it would shift every later lag
        raise ConfigError(f"{key}: empty field before a coefficient in {raw!r}")
    try:
        return tuple(float(part) for part in fields if part)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected comma-separated numbers, got {raw!r}") from exc


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate config text (one key=value per line, # comments)."""
    values = dict(_DEFAULTS)
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        values[key] = raw

    if "ar_coeffs" not in values:
        raise ConfigError("missing required key ar_coeffs")
    coeffs = _parse_float_list(values["ar_coeffs"], "ar_coeffs", lags=True)
    if not coeffs:
        raise ConfigError("ar_coeffs must list at least one coefficient")

    def as_float(key: str) -> float:
        try:
            return float(values[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: expected a number, got {values[key]!r}") from exc

    def as_int(key: str) -> int:
        try:
            return int(values[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: expected an integer, got {values[key]!r}") from exc

    try:
        model = ArModel(coeffs=coeffs, innovation_var=as_float("innovation_var"))
        noise = NoiseSpec(obs_noise_var=as_float("obs_noise_var"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    order = as_int("predictor_order") if "predictor_order" in values else model.order
    if order < 1:
        raise ConfigError("predictor_order must be >= 1")

    schemes = []
    for tag in values["schemes"].split(","):
        tag = tag.strip()
        if not tag:
            continue
        if tag not in _SCHEMES:
            raise ConfigError(f"unknown scheme {tag!r}")
        schemes.append(_SCHEMES[tag])
    if not schemes:
        raise ConfigError("schemes must not be empty")

    def as_optional_float(key: str) -> float | None:
        raw = values[key].strip().lower()
        value = None if raw in ("auto", "") else as_float(key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        return value

    d_min = as_optional_float("d_min")
    d_max = as_optional_float("d_max")
    if d_min is not None and d_max is not None and not 0 < d_min < d_max:
        raise ConfigError("need 0 < d_min < d_max")

    n_points = as_int("n_points")
    if not 2 <= n_points <= MAX_POINTS:
        raise ConfigError(f"n_points must lie in 2..{MAX_POINTS}")

    widths = _parse_float_list(values["quantizer_bits"], "quantizer_bits")
    if not widths or not all(w.is_integer() and 1 <= w <= codec.MAX_BITS for w in widths):
        raise ConfigError(f"quantizer_bits must list integers in 1..{codec.MAX_BITS}")
    bits_list = tuple(int(w) for w in widths)

    trials = as_int("trials")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    samples = as_int("samples_per_trial")
    if samples < 10 * order:
        raise ConfigError(f"samples_per_trial must be >= 10 * predictor_order ({10 * order})")
    seed = as_int("seed")
    if seed < 0:
        raise ConfigError("seed must be >= 0")

    return ExperimentConfig(
        model=model,
        noise=noise,
        predictor_order=order,
        schemes=tuple(schemes),
        d_min=d_min,
        d_max=d_max,
        n_points=n_points,
        quantizer_bits=bits_list,
        trials=trials,
        samples_per_trial=samples,
        seed=seed,
        normalized_bounds=_parse_bool(values["normalized_bounds"], "normalized_bounds"),
        output_path=values["output_path"],
    )


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a UTF-8 config file."""
    return parse_config_text(_read_utf8(path, "config file"))


def _read(path: str | Path, what: str) -> bytes:
    """The bytes of a file; ConfigError("<what> not found: <path>") unless it is a regular file."""
    path = Path(path)
    if not path.is_file():  # missing, or a directory
        raise ConfigError(f"{what} not found: {path}")
    return path.read_bytes()


def _read_utf8(path: str | Path, what: str) -> str:
    """The text of a UTF-8 file, read by ``_read``; ConfigError naming the first bad byte."""
    path = Path(path)
    try:
        return _read(path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc


# the bytes of f"{x:.17g}", so floats read back exactly
_FLOAT = "%.17g"
# CsvRow's field types, which write_csv formats and read_csv parses
_CSV_TYPES = tuple(get_type_hints(CsvRow).values())
_CSV_FORMATS = [_FLOAT if kind is float else "%s" for kind in _CSV_TYPES]
# a CSV row in three pieces: the fields before distortion, distortion and rate, the rest
_FIRST, _LAST = CSV_HEADER.index("distortion"), CSV_HEADER.index("rate_bits") + 1
_HEAD_FORMAT = "".join(f"{spec}," for spec in _CSV_FORMATS[:_FIRST])
_POINT_FORMAT = ",".join(_CSV_FORMATS[_FIRST:_LAST])
_TAIL_FORMAT = "".join(f",{spec}" for spec in _CSV_FORMATS[_LAST:])


def format_rows(header: str, row_format: str, rows) -> str:
    """Text of the header line and one ``row_format % row`` line per row tuple."""
    lines = [header]
    lines += [row_format % row for row in rows]
    return "\n".join(lines) + "\n"


def format_csv(rows) -> str:
    """Render rows with the fixed schema; floats keep 17 significant digits.

    Only distortion and rate are formatted on every row.  The other fields
    are formatted once per run of rows that carry the very same objects
    (compared with ``is``, so 0.0 and -0.0, or two equal ints of other
    types, are formatted apart).
    """
    lines = [",".join(CSV_HEADER)]
    shared = head = tail = None
    for scheme, psi_sq, xi_sq, distortion, rate, source, seed, n_samples in rows:
        if not (
            shared is not None
            and scheme is shared[0]
            and psi_sq is shared[1]
            and xi_sq is shared[2]
            and source is shared[3]
            and seed is shared[4]
            and n_samples is shared[5]
        ):
            shared = (scheme, psi_sq, xi_sq, source, seed, n_samples)
            head = _HEAD_FORMAT % shared[:3]
            tail = _TAIL_FORMAT % shared[3:]
        lines.append(head + _POINT_FORMAT % (distortion, rate) + tail)
    return "\n".join(lines) + "\n"


def write_csv(path: str | Path, rows) -> None:
    Path(path).write_text(format_csv(rows))


def write_trace(path: str | Path, trace) -> None:
    """Write a channel trace as CSV columns k,x,y, floats as in write_csv."""
    rows = zip(range(len(trace.x)), trace.x.tolist(), trace.y.tolist())
    Path(path).write_text(format_rows("k,x,y", f"%d,{_FLOAT},{_FLOAT}", rows))


# index-stream dump header: magic, width (1 byte), count (8 bytes, big-endian)
_DUMP_HEADER = struct.Struct(">4sBQ")
_DUMP_MAGIC = b"CSIF"


def write_index_stream(path: str | Path, indices, bits: int) -> None:
    """Binary dump of a codec index stream: 'CSIF', bits, count, packed payload.

    The payload packs one unsigned integer per sample, most significant bit
    first, so a dump plus the decoder state is enough to replay a
    transmission and check encoder/decoder synchrony offline.
    """
    if not isinstance(indices, (list, array.array, np.ndarray)):
        indices = list(indices)
    payload = codec.pack_indices(indices, bits)  # a width outside 1..53 raises CsiFeedbackError
    Path(path).write_bytes(_DUMP_HEADER.pack(_DUMP_MAGIC, bits, len(indices)) + payload)


def read_index_stream(path: str | Path) -> tuple[array.array, int]:
    """Read a dump written by write_index_stream; returns (indices, bits).

    The indices come as an ``array('q')``, as from ``codec.unpack_indices``.
    A missing file, a directory, a file that is not such a dump, one whose
    header claims a width outside 1..``codec.MAX_BITS``, or whose payload is
    not exactly the ceil(count * bits / 8) bytes that write_index_stream
    writes, raises ConfigError.
    """
    blob = _read(path, "index-stream dump")
    if len(blob) < _DUMP_HEADER.size or not blob.startswith(_DUMP_MAGIC):
        raise ConfigError(f"not an index-stream dump: {path}")
    _, bits, count = _DUMP_HEADER.unpack_from(blob)
    payload = memoryview(blob)[_DUMP_HEADER.size :]
    try:
        indices = codec.unpack_indices(payload, bits, count)
    except ValueError as exc:  # a width outside 1..53, or fewer bytes than the count needs
        raise ConfigError(f"corrupt index-stream dump {path}: {exc}") from exc
    size = (count * bits + 7) // 8
    if len(payload) != size:  # a count cut short, or bytes appended
        raise ConfigError(
            f"corrupt index-stream dump {path}: {count} {bits}-bit indices take {size} bytes,"
            f" the payload has {len(payload)}"
        )
    return indices, bits


def read_csv(path: str | Path) -> list[CsvRow]:
    """Parse a UTF-8 CSV file written by write_csv back into rows.

    A missing file, a directory, a file that is not UTF-8, a header other
    than ``CSV_HEADER``, or a row with another field count or a field that
    its type cannot parse raises ConfigError.
    """
    lines = _read_utf8(path, "CSV file").splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header in {path}")
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = zip(_CSV_TYPES, line.split(","), strict=True)
        try:  # a field count other than the header's raises ValueError too
            rows.append(CsvRow._make(kind(part) for kind, part in fields))
        except ValueError:
            raise ConfigError(f"malformed CSV line: {line!r}") from None
    return rows


def run_theory_sweep(config: ExperimentConfig) -> list[CsvRow]:
    """Rate-distortion rows for every configured scheme on its distortion grid.

    Silent per-point failures are impossible: points below a scheme's floor
    are skipped by the sweep and surfaced here through a log diagnostic.
    """
    params = bounds.make_scheme_params(config.model, config.noise, config.predictor_order)
    sigma_psi_sq, sigma_xi_sq = config.model.innovation_var, config.noise.obs_noise_var
    rows: list[CsvRow] = []
    skipped_total = 0
    for scheme in config.schemes:
        auto_min, auto_max = bounds.default_distortion_grid(scheme, params)
        d_min = config.d_min if config.d_min is not None else auto_min
        d_max = config.d_max if config.d_max is not None else auto_max
        curve = bounds.sweep(
            scheme, params, d_min, d_max, config.n_points, normalized=config.normalized_bounds
        )
        skipped_total += curve.skipped
        tag = scheme.value
        rows += [
            _new(CsvRow, (tag, sigma_psi_sq, sigma_xi_sq, distortion, rate, "theory", 0, 0))
            for distortion, rate in curve.points
        ]
    if skipped_total:
        log.info("theory sweep skipped %d grid points below scheme floors", skipped_total)
    return rows


def _encode(states, observations, labels) -> np.ndarray:
    """Reconstructions of ``codec.encode_batch`` without indices; a NaN or infinite
    quantizer input raises NonFiniteInput naming the label of its row."""
    try:
        return codec.encode_batch(states, observations, with_indices=False)[1]
    except NonFiniteInput as exc:
        raise NonFiniteInput(f"{labels[exc.row]}: {exc}") from exc


def _input_std(scheme: str, terms: str, variance: float) -> float:
    """Std of a scheme's quantizer input; DegenerateCovariance when its variance overflowed."""
    if not math.isfinite(variance):
        raise DegenerateCovariance(
            f"{scheme}: quantizer input variance {terms} overflows to {variance}"
        )
    return math.sqrt(variance)


def run_codec_experiment(config: ExperimentConfig) -> list[CsvRow]:
    """Mean reconstruction MSE per quantizer width for three practical schemes.

    Per bit width: (1) direct uniform quantization of the MMSE-predicted
    state, (2) an AR(1) innovation codec that ignores the observation noise,
    which is the closed-loop codec run on the AR(1) fit with a gain of 1
    (``NoiseSpec(0)``), (3) the proposed closed-loop codec.  Each is averaged
    over ``trials`` seeded traces, each generated once; the two codec schemes
    of every width and trial are encoded together by one kernel call, which
    keeps no indices, and the direct reproductions of every width are formed
    and scored together, one trial at a time.  A quantizer-input variance
    that overflows raises DegenerateCovariance naming the scheme, before any
    trace is drawn; a mean squared error that overflows to inf raises it
    naming the scheme and the width, and a NaN or infinite quantizer input
    NonFiniteInput naming the scheme, the width, the trial and the sample.
    """
    model, noise = config.model, config.noise
    params = bounds.make_scheme_params(model, noise, config.predictor_order)
    coeffs, approx = params.coeffs, params.ar1
    open_loop_model = ArModel((approx.beta,), approx.iota_var)

    direct_std = _input_std(
        DIRECT_QUANTIZATION, "sigma_x^2 + sigma_P^2", params.acov.sigma_x_sq + coeffs.sigma_p_sq
    )
    # gain-1 innovation is iota + xi - beta * xi (plus quantization residue)
    open_loop_std = _input_std(
        AR1_OPEN_LOOP,
        "iota + (1 + beta^2) sigma_xi^2",
        approx.iota_var + (1.0 + approx.beta**2) * noise.obs_noise_var,
    )

    traces = [
        generate_trace(model, noise, config.samples_per_trial, config.seed + trial)
        for trial in range(config.trials)
    ]
    order = coeffs.theta.size
    predictions = [predictor._forecasts(trace.y, coeffs.theta)[:-1] for trace in traces]
    states, observations, labels = [], [], []
    for bits in config.quantizer_bits:
        open_loop_q = codec.UniformQuantizer.loaded(bits, open_loop_std)
        closed_loop_q = codec.innovation_quantizer(model, noise, bits)
        for trial, trace in enumerate(traces):
            states.append(codec.EncoderState(open_loop_model, NoiseSpec(0.0), open_loop_q))
            states.append(codec.EncoderState(model, noise, closed_loop_q))
            observations += [trace.y, trace.y]
            where = f"at {bits} bits, trial {trial}"
            labels += [f"{AR1_OPEN_LOOP} {where}", f"{CLOSED_LOOP} {where}"]
    recon = _encode(states, observations, labels)
    # rows run width-major, then trial, then (open loop, closed loop)
    recon = recon.reshape(len(config.quantizer_bits), config.trials, 2, -1)

    rows: list[CsvRow] = []
    n_total = config.trials * config.samples_per_trial
    # per trial, the (width, scheme) errors of each row along its contiguous last axis
    codec_errors = [
        codec._mean_squares(recon[:, trial], trace.x) for trial, trace in enumerate(traces)
    ]
    del recon  # the direct block below then does not add to the peak memory
    direct_qs = [codec.UniformQuantizer.loaded(bits, direct_std) for bits in config.quantizer_bits]
    # the direct reproductions of every width, one trial at a time, in one reused block
    block = np.empty((len(direct_qs), predictions[0].size))
    direct_errors = []
    for trace, predicted in zip(traces, predictions):
        codec._reproduce_rows(direct_qs, predicted, block)
        direct_errors.append(codec._mean_squares(block, trace.x[order:]))
    per_width = zip(config.quantizer_bits, zip(*direct_errors), zip(*codec_errors))
    for bits, direct, per_trial in per_width:
        sums = {DIRECT_QUANTIZATION: 0.0, AR1_OPEN_LOOP: 0.0, CLOSED_LOOP: 0.0}
        for direct_error, (open_loop, closed_loop) in zip(direct, per_trial):
            sums[DIRECT_QUANTIZATION] += direct_error
            sums[AR1_OPEN_LOOP] += open_loop
            sums[CLOSED_LOOP] += closed_loop

        for scheme, total in sums.items():
            rows.append(
                CsvRow(
                    scheme=scheme,
                    sigma_psi_sq=model.innovation_var,
                    sigma_xi_sq=noise.obs_noise_var,
                    distortion=codec._finite(total / config.trials, f"{scheme} at {bits} bits"),
                    rate_bits=float(bits),
                    source="simulation",
                    seed=config.seed,
                    n_samples=n_total,
                )
            )
    return rows


@dataclass(frozen=True)
class ValidationEntry:
    name: str
    analytic: float
    empirical: float
    tolerance: float

    @property
    def rel_err(self) -> float:
        """|empirical - analytic| / |analytic|; at analytic 0, 0 if empirical is 0, else inf."""
        if self.analytic == 0.0:
            return 0.0 if self.empirical == 0.0 else math.inf
        return abs(self.empirical - self.analytic) / abs(self.analytic)

    @property
    def passed(self) -> bool:
        return self.rel_err < self.tolerance


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[ValidationEntry, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def format(self) -> str:
        lines = []
        for e in self.entries:
            status = "pass" if e.passed else "FAIL"
            lines.append(
                f"{status}  {e.name}: analytic={e.analytic:.6g} empirical={e.empirical:.6g} "
                f"rel_err={e.rel_err:.3%} (tol {e.tolerance:.0%})"
            )
        lines.append("all checks passed" if self.passed else "validation FAILED")
        return "\n".join(lines)


def validate_theory(config: ExperimentConfig) -> ValidationReport:
    """Cross-check the closed-form MSEs against seeded simulation.

    Checks sigma_P^2 and sigma_Z^2 at 2% and the codec steady-state MSE at 15%
    for every configured quantizer width; failures become report entries, not
    exceptions, except an empirical MSE that overflows to inf, which raises
    DegenerateCovariance naming the entry, and a NaN or infinite quantizer
    input, which raises NonFiniteInput naming the entry and the sample.  The
    sigma_z_sq entry compares the paper's form, which drops the hold/filter
    cross term, with the realised MSE of the zero-holding forecast, so it
    fails on fast-varying channels.
    """
    model, noise, order = config.model, config.noise, config.predictor_order
    params = bounds.make_scheme_params(model, noise, order)
    coeffs, zh = params.coeffs, params.zh
    trace = generate_trace(model, noise, config.samples_per_trial, config.seed)

    predictions = predictor._forecasts(trace.y, coeffs.theta)[:-1]
    empirical_p = codec._mean_squares(trace.x[order:].copy(), predictions)
    empirical_z = codec._mean_squares(zh.alpha * trace.y[:-1], trace.x[1:])

    entries = [
        ValidationEntry(name, analytic, codec._finite(empirical, name), 0.02)
        for name, analytic, empirical in [
            ("sigma_p_sq", coeffs.sigma_p_sq, empirical_p),
            ("sigma_z_sq", zh.sigma_z_sq, empirical_z),
        ]
    ]

    warmup = min(config.samples_per_trial // 4, 10_000)
    names = [f"varsigma_inf[bits={bits}]" for bits in config.quantizer_bits]
    states, predicted = [], []
    for bits in config.quantizer_bits:
        quantizer = codec.innovation_quantizer(model, noise, bits)
        sigma_q_sq = quantizer.noise_var
        gain = analysis.converged_gain(model, noise, sigma_q_sq)
        predicted.append(analysis.steady_state(params.ar1, noise, gain, sigma_q_sq).varsigma_inf)
        states.append(codec.EncoderState(model, noise, quantizer))
    # every width in one call, which the kernel interleaves; each row keeps its own bits
    recon = _encode(states, [trace.y] * len(states), names)
    long_runs = codec._mean_squares(recon[:, warmup:], trace.x[warmup:])
    for name, analytic, long_run in zip(names, predicted, long_runs):
        entries.append(ValidationEntry(name, analytic, codec._finite(long_run, name), 0.15))

    return ValidationReport(entries=tuple(entries))


def with_overrides(
    config: ExperimentConfig,
    seed: int | None = None,
    output_path: str | None = None,
    normalized_bounds: bool | None = None,
) -> ExperimentConfig:
    """Copy of the config with CLI-level overrides applied."""
    changes = {}
    if seed is not None:
        if seed < 0:
            raise ConfigError("seed must be >= 0")
        changes["seed"] = seed
    if output_path is not None:
        changes["output_path"] = output_path
    if normalized_bounds is not None:
        changes["normalized_bounds"] = normalized_bounds
    return replace(config, **changes) if changes else config
