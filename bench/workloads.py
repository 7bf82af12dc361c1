"""The three benchmark workloads: set-up, one job, and the output checks.

A job is a list of items (one CLI run, one model, one stream).  Each item
records its wall time and start, a summary that repeat, trace and reference
checks compare, the exception the program raised (if any) and the output
checks it failed.  ``run_job`` calls ``between_items`` after each item, where
the caller may take a calibration sample outside every item's timing.  Every
program call goes through a module attribute, so the wrappers that
``spans.Tracer.patch`` installs see it.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from csi_feedback import analysis, channel, cli, codec, harness
from csi_feedback.channel import ArModel

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# exceptions the program is known to raise on valid input; an item that
# raises one counts as failed but does not make the run incorrect
KNOWN_DEFECTS = {
    "ValueError: spectral variance needs beta in (0, 1)": (
        "analysis._spectral_variance rejects beta = kappa(1)/kappa(0) <= 0, so the "
        "practical_ar1 sweep of a model with kappa(1) <= 0 raises"
    ),
}

CSV_HEADER = "scheme,sigma_psi_sq,sigma_xi_sq,distortion,rate_bits,source,seed,n_samples"
CODEC_SCHEMES = ("direct_quantization", "ar1_open_loop", "closed_loop")
# ulp drift allowed in simulated distortions (e.g. from reordered sums)
CODEC_DISTORTION_RTOL = 1e-12
# theory values are stored to 12 digits; 1e-10 also admits replacing the
# quadrature of the AR(1) spectrum by its closed form (1.6e-11 apart at beta=0.999)
THEORY_RTOL = 1e-10
THEORY_ATOL = 1e-12
INDEX_DUMP_HEADER = 13  # b"CSIF", bits, 8-byte count
MSE_RECURSION_STEPS = 100_000


@dataclass
class Item:
    seconds: float
    summary: object
    error: str | None = None
    problems: list[str] = field(default_factory=list)
    start: float = 0.0
    scale: float = 1.0  # host-speed calibration factor, set by the worker

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def _nothing() -> None:
    pass


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _close(actual: float, expected: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(actual - expected) <= rtol * abs(expected) + atol


def parse_rows(text: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:] if line]
    if any(len(row) != 8 for row in rows):
        raise ValueError("CSV row with the wrong number of fields")
    return rows


def load_reference(name: str) -> dict:
    plain = REFERENCE_DIR / f"{name}.json"
    if plain.exists():
        return json.loads(plain.read_text())
    with gzip.open(REFERENCE_DIR / f"{name}.json.gz", "rt") as handle:
        return json.load(handle)


def save_reference(name: str, record: dict, compress: bool = False) -> Path:
    REFERENCE_DIR.mkdir(exist_ok=True)
    text = json.dumps(record, indent=None if compress else 1, sort_keys=True) + "\n"
    if compress:
        path = REFERENCE_DIR / f"{name}.json.gz"
        # mtime=0 keeps the file byte-identical when regenerated
        path.write_bytes(gzip.compress(text.encode(), mtime=0))
    else:
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(text)
    return path


# --------------------------------------------------------------- reference_codec


@dataclass
class CodecState:
    config_path: Path
    out_path: Path
    config: harness.ExperimentConfig


class ReferenceCodec:
    """``csi-feedback codec`` in-process on the reference config."""

    name = "reference_codec"

    def setup(self, inputs: dict, workdir: Path) -> CodecState:
        config_path = workdir / "reference_codec.cfg"
        config_path.write_text(inputs["config"])
        return CodecState(config_path, workdir / "practical.csv", harness.parse_config(config_path))

    def run_job(self, state: CodecState, between_items=_nothing) -> list[Item]:
        state.out_path.unlink(missing_ok=True)
        argv = ["codec", "--config", str(state.config_path), "--out", str(state.out_path)]
        start = perf_counter()
        try:
            code = cli.main(argv)
            error = None if code == 0 else f"exit code {code}"
        except Exception as exc:  # item boundary: record and go on
            error = describe(exc)
        seconds = perf_counter() - start
        if error is not None:
            return [Item(seconds, None, error, [f"unexpected error {error}"], start)]
        text = state.out_path.read_text()
        return [Item(seconds, text, None, check_codec_csv(text, state.config), start)]

    def reference_record(self, state: CodecState, items: list[Item]) -> dict:
        return {"csv": items[0].summary}

    def check_reference(self, state: CodecState, items: list[Item], reference: dict) -> None:
        if items[0].summary is not None:
            items[0].problems += compare_codec_csv(items[0].summary, reference["csv"])


def check_codec_csv(text: str, config: harness.ExperimentConfig) -> list[str]:
    """Schema and invariants of ``codec`` output for the given config."""
    try:
        rows = parse_rows(text)
    except ValueError as exc:
        return [str(exc)]
    expected = [(s, bits) for bits in config.quantizer_bits for s in CODEC_SCHEMES]
    if [(r[0], float(r[4])) for r in rows] != [(s, float(b)) for s, b in expected]:
        return ["codec rows are not (scheme, bits) in the configured order"]
    problems = []
    n_total = config.trials * config.samples_per_trial
    for row in rows:
        fixed = (float(row[1]), float(row[2]), row[5], int(row[6]), int(row[7]))
        want = (config.model.innovation_var, config.noise.obs_noise_var, "simulation", config.seed, n_total)
        if fixed != want:
            problems.append(f"codec row {row} has fields {fixed}, expected {want}")
        distortion = float(row[3])
        if not (math.isfinite(distortion) and distortion > 0):
            problems.append(f"codec row {row} has a distortion that is not finite and positive")
    return problems


def compare_codec_csv(text: str, reference: str) -> list[str]:
    """Rows equal the stored ones; distortion may drift by CODEC_DISTORTION_RTOL."""
    rows, stored = parse_rows(text), parse_rows(reference)
    if len(rows) != len(stored):
        return [f"{len(rows)} codec rows, {len(stored)} stored"]
    problems = []
    for row, want in zip(rows, stored):
        same_fields = row[:3] + row[4:] == want[:3] + want[4:]
        if not same_fields or not _close(float(row[3]), float(want[3]), CODEC_DISTORTION_RTOL):
            problems.append(f"codec row {','.join(row)} differs from stored {','.join(want)}")
    return problems


# ------------------------------------------------------------------- theory_grid


@dataclass
class TheoryState:
    configs: list[str]
    bits: tuple[int, ...]


def _theory_item(text: str, bits: tuple[int, ...]):
    """parse -> all-scheme sweep -> CSV, then the steady state per bit width."""
    config = harness.parse_config_text(text)
    try:
        table, sweep_error = harness.format_csv(harness.run_theory_sweep(config)), None
    except Exception as exc:  # a failed sweep is recorded; the analysis still runs
        table, sweep_error = None, describe(exc)
    model, noise = config.model, config.noise
    approx = analysis.ar1_fit(channel.autocovariance(model, model.order))
    quant = []
    for width in bits:
        quantizer = codec.innovation_quantizer(model, noise, width)
        sigma_q_sq = quantizer.noise_var
        gain = analysis.converged_gain(model, noise, sigma_q_sq)
        varsigma = analysis.steady_state(approx, noise, gain, sigma_q_sq).varsigma_inf
        trajectory = analysis.mse_recursion(model, noise, gain, sigma_q_sq, MSE_RECURSION_STEPS)
        quant.append((quantizer.step, gain, varsigma, float(trajectory[-1])))
    return table, sweep_error, tuple(quant)


class TheoryGrid:
    """Bound sweeps and steady-state analysis over a grid of Jakes AR(L) fits."""

    name = "theory_grid"

    def setup(self, inputs: dict, workdir: Path) -> TheoryState:
        return TheoryState(list(inputs["configs"]), tuple(inputs["bits"]))

    def run_job(self, state: TheoryState, between_items=_nothing) -> list[Item]:
        items = []
        for text in state.configs:
            start = perf_counter()
            try:
                summary = _theory_item(text, state.bits)
                error = summary[1]
            except Exception as exc:  # item boundary: record and go on
                summary, error = None, describe(exc)
            item = Item(perf_counter() - start, summary, error, start=start)
            item.problems = check_theory_item(item)
            items.append(item)
            between_items()
        return items

    def reference_record(self, state: TheoryState, items: list[Item]) -> dict:
        return {"models": [theory_record(item.summary) for item in items]}

    def check_reference(self, state: TheoryState, items: list[Item], reference: dict) -> None:
        stored = reference["models"]
        if len(stored) != len(items):
            items[0].problems.append(f"{len(items)} models, {len(stored)} stored")
            return
        for index, (item, want) in enumerate(zip(items, stored)):
            if item.summary is not None:
                item.problems += [f"model {index}: {p}" for p in compare_theory(item.summary, want)]


def check_theory_item(item: Item) -> list[str]:
    """Invariants: only known defects raise; rates finite and >= 0."""
    if item.error is not None and item.error not in KNOWN_DEFECTS:
        return [f"unexpected error {item.error}"]
    if item.summary is None:
        return []
    table, _, quant = item.summary
    problems = []
    if table is not None:
        try:
            rows = parse_rows(table)
        except ValueError as exc:
            return [str(exc)]
        for row in rows:
            distortion, rate = float(row[3]), float(row[4])
            if not (math.isfinite(rate) and rate >= 0.0):
                problems.append(f"rate {rate} of {row[0]} is not finite and >= 0")
            if not (math.isfinite(distortion) and distortion > 0.0):
                problems.append(f"distortion {distortion} of {row[0]} is not finite and > 0")
            if row[5:] != ["theory", "0", "0"]:
                problems.append(f"theory row {','.join(row)} has wrong source/seed/n_samples")
    if not all(math.isfinite(v) and v > 0.0 for values in quant for v in values):
        problems.append(f"steady-state values {quant} not all finite and positive")
    return problems


def theory_record(summary) -> dict:
    """What the stored reference keeps of one model: rows to 12 digits."""
    table, sweep_error, quant = summary
    record = {"quant": [[_round12(v) for v in values] for values in quant]}
    if table is None:
        record["error"] = sweep_error
        return record
    rows = parse_rows(table)
    schemes: list[list] = []
    for row in rows:
        if schemes and schemes[-1][0] == row[0]:
            schemes[-1][1] += 1
        else:
            schemes.append([row[0], 1])
    record["schemes"] = schemes
    record["rows"] = [[_round12(float(r[3])), _round12(float(r[4]))] for r in rows]
    return record


def compare_theory(summary, want: dict) -> list[str]:
    """Rows and steady-state values match the stored ones within THEORY_RTOL.

    A model stored as raising a known defect may instead return rows (the
    defect fixed); those rows are covered by the invariant checks only.
    """
    actual = theory_record(summary)
    problems = []
    for got, ref in zip(actual["quant"], want["quant"]):
        if not all(_close(g, r, THEORY_RTOL, THEORY_ATOL) for g, r in zip(got, ref)):
            problems.append(f"steady state {got} differs from stored {ref}")
    if len(actual["quant"]) != len(want["quant"]):
        problems.append("number of bit widths differs from stored")
    if "error" in want:
        if "error" in actual and actual["error"] != want["error"]:
            problems.append(f"raised {actual['error']!r}, stored {want['error']!r}")
        return problems
    if "error" in actual:
        return problems + [f"raised {actual['error']!r}, stored rows"]
    if actual["schemes"] != want["schemes"]:
        return problems + [f"scheme row counts {actual['schemes']} differ from stored {want['schemes']}"]
    for got, ref in zip(actual["rows"], want["rows"]):
        if not all(_close(g, r, THEORY_RTOL, THEORY_ATOL) for g, r in zip(got, ref)):
            problems.append(f"row (distortion, rate) {got} differs from stored {ref}")
    return problems


# ------------------------------------------------------------------- link_replay


@dataclass
class Stream:
    path: Path
    model: ArModel
    quantizer: codec.UniformQuantizer
    bits: int
    indices: list[int]
    recon: np.ndarray
    dump: bytes


class LinkReplay:
    """Receiver side: read dumped index streams, decode them, pack them again."""

    name = "link_replay"

    def setup(self, inputs: dict, workdir: Path) -> list[Stream]:
        streams = []
        for number, spec in enumerate(inputs["streams"]):
            config = harness.parse_config_text(spec["config"])
            model, noise, bits = config.model, config.noise, spec["bits"]
            trace = channel.generate_trace(model, noise, spec["samples"], spec["trace_seed"])
            quantizer = codec.innovation_quantizer(model, noise, bits)
            encoder = codec.EncoderState(model, noise, quantizer)
            indices, recon = codec.encode_sequence(encoder, trace.y)
            path = workdir / f"stream{number}-{bits}bit.csif"
            harness.write_index_stream(path, indices, bits)
            streams.append(Stream(path, model, quantizer, bits, indices, recon, path.read_bytes()))
        return streams

    def run_job(self, state: list[Stream], between_items=_nothing) -> list[Item]:
        items = []
        for stream in state:
            between_items()
            start = perf_counter()
            try:
                indices, bits = harness.read_index_stream(stream.path)
                decoder = codec.DecoderState(stream.model, stream.quantizer)
                recon = codec.decode_sequence(decoder, indices)
                packed = codec.pack_indices(indices, bits)
            except Exception as exc:  # item boundary: record and go on
                error = describe(exc)
                items.append(Item(perf_counter() - start, None, error, [f"unexpected error {error}"], start))
                continue
            item = Item(perf_counter() - start, None, start=start)
            item.summary = (_sha(np.asarray(indices, dtype=np.int64)), _sha(recon), _sha(packed))
            if bits != stream.bits:
                item.problems.append(f"dump says {bits} bits, written with {stream.bits}")
            if indices != stream.indices:
                item.problems.append(f"{stream.bits}-bit stream: unpacked indices differ from encoded")
            if not np.array_equal(recon, stream.recon):
                item.problems.append(f"{stream.bits}-bit stream: decoder output differs from encoder")
            if packed != stream.dump[INDEX_DUMP_HEADER:]:
                item.problems.append(f"{stream.bits}-bit stream: re-packed bytes differ from the dump")
            items.append(item)
        return items

    def reference_record(self, state: list[Stream], items: list[Item]) -> dict:
        return {
            "streams": [
                {
                    "bits": s.bits,
                    "dump_sha256": _sha(s.dump),
                    "recon_sum": math.fsum(s.recon.tolist()),
                    "recon_sumsq": math.fsum((s.recon * s.recon).tolist()),
                }
                for s in state
            ]
        }

    def check_reference(self, state: list[Stream], items: list[Item], reference: dict) -> None:
        actual = self.reference_record(state, items)["streams"]
        for item, got, want in zip(items, actual, reference["streams"]):
            if got["bits"] != want["bits"] or got["dump_sha256"] != want["dump_sha256"]:
                item.problems.append(f"{want['bits']}-bit dump differs from stored")
            for key in ("recon_sum", "recon_sumsq"):
                if not _close(got[key], want[key], CODEC_DISTORTION_RTOL):
                    item.problems.append(f"{want['bits']}-bit encoder {key} {got[key]} != stored {want[key]}")


WORKLOADS = {w.name: w for w in (ReferenceCodec(), TheoryGrid(), LinkReplay())}
