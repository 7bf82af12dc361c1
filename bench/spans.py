"""Span tracing of csi_feedback's public functions, done from outside the package.

``Tracer.patch()`` replaces each traced function by a wrapper under every
name that binds it in a ``csi_feedback`` module namespace (so
``harness.generate_trace``, imported by name, is traced as well as
``channel.generate_trace``) and puts the originals back on exit.  A span is
``[job, name, parent, start, end]``; spans stay in memory until ``write``
dumps them at the end of a run.

Per-layer figures of one job:

- ``<layer>.calls``: spans of the layer, nested ones included;
- ``<layer>.busy_s``: wall time covered by the layer's spans, callees in other
  layers included;
- ``<layer>.self_s``: sum over the layer's spans of the span's duration minus
  the part of it covered by its direct child spans.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter


def _count(key, measure):
    def counter(counts, args, kwargs, result):
        counts[key] += measure(args, kwargs, result)

    return counter


def _file_size(args, kwargs, result):
    return os.path.getsize(kwargs.get("path", args[0] if args else None))


def _count_sweep(counts, args, kwargs, result):
    counts["bounds.points"] += len(result.points)
    counts["bounds.skipped"] += result.skipped


_rows = _count("harness.rows", lambda a, k, r: len(r))
_io = _count("harness.io_bytes", _file_size)

# (span name, module, attribute, counter); the layer is the name minus its last part
TARGETS = (
    ("channel.generate_trace", "channel", "generate_trace",
     _count("channel.samples", lambda a, k, r: len(r.x))),
    ("channel.autocovariance", "channel", "autocovariance", None),
    ("channel.obs_autocovariance", "channel", "obs_autocovariance", None),
    ("channel.cross_autocovariance", "channel", "cross_autocovariance", None),
    ("predictor.mmse_coefficients", "predictor", "mmse_coefficients", None),
    ("predictor.predict_one_step", "predictor", "predict_one_step", None),
    ("predictor.zh_estimator", "predictor", "zh_estimator", None),
    ("predictor.zh_estimate", "predictor", "zh_estimate", None),
    ("bounds.make_scheme_params", "bounds", "make_scheme_params", None),
    ("bounds.default_distortion_grid", "bounds", "default_distortion_grid", None),
    ("bounds.distortion_floor", "bounds", "distortion_floor", None),
    ("bounds.log_det_ky", "bounds", "log_det_ky", None),
    ("bounds.nu_variance", "bounds", "nu_variance", None),
    ("bounds.sweep", "bounds", "sweep", _count_sweep),
    ("analysis.ar1_fit", "analysis", "ar1_fit", None),
    ("analysis.mse_recursion", "analysis", "mse_recursion", None),
    ("analysis.steady_state", "analysis", "steady_state", None),
    ("analysis.ep_variance", "analysis", "ep_variance", None),
    ("analysis.rate_practical", "analysis", "rate_practical", None),
    ("analysis.converged_prediction_state", "analysis", "converged_prediction_state", None),
    ("analysis.converged_gain", "analysis", "converged_gain", None),
    ("codec.innovation_quantizer", "codec", "innovation_quantizer", None),
    ("codec.run_codec", "codec", "run_codec", None),
    ("codec.encode_sequence", "codec", "encode_sequence",
     _count("codec.encode.samples", lambda a, k, r: len(r[0]))),
    ("codec.decode_sequence", "codec", "decode_sequence",
     _count("codec.decode.samples", lambda a, k, r: len(r))),
    ("codec.quantize_many", "codec", "UniformQuantizer.quantize_many", None),
    ("codec.pack_indices", "codec", "pack_indices",
     _count("codec.pack.bytes", lambda a, k, r: len(r))),
    ("codec.unpack_indices", "codec", "unpack_indices", None),
    ("harness.parse_config", "harness", "parse_config", None),
    ("harness.parse_config_text", "harness", "parse_config_text", None),
    ("harness.with_overrides", "harness", "with_overrides", None),
    ("harness.format_csv", "harness", "format_csv", None),
    ("harness.run_theory_sweep", "harness", "run_theory_sweep", _rows),
    ("harness.run_codec_experiment", "harness", "run_codec_experiment", _rows),
    ("harness.validate_theory", "harness", "validate_theory", None),
    ("harness.io.write_csv", "harness", "write_csv", _io),
    ("harness.io.write_index_stream", "harness", "write_index_stream", _io),
    ("harness.io.read_index_stream", "harness", "read_index_stream", _io),
    ("cli.main", "cli", "main", None),
)


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Tracer:
    """Collects spans and boundary counts, one counter set per job."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.job = -1
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            record = [self.job, name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self.counts[record[0]], args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patch(self, job: int):
        """Trace every target while the block runs; spans are tagged ``job``."""
        self.job = job
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "csi_feedback"]
        restore = []
        try:
            for name, module, attribute, counter in TARGETS:
                owner = sys.modules[f"csi_feedback.{module}"]
                if "." in attribute:  # method: patch the class attribute
                    cls_name, attribute = attribute.split(".")
                    owner = getattr(owner, cls_name)
                    bindings = [owner]
                else:
                    bindings = modules
                original = getattr(owner, attribute)
                wrapper = self._wrap(name, original, counter)
                for namespace in bindings:
                    for bound, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, bound, wrapper)
                            restore.append((namespace, bound, original))
            yield self
        finally:
            for namespace, attribute, original in reversed(restore):
                setattr(namespace, attribute, original)
            self.job = -1

    def write(self, path) -> None:
        """Dump all spans, with their self times, as gzip'd JSON lines."""
        own = self_times([(s[2], s[3], s[4]) for s in self.spans])
        with gzip.open(path, "wt") as out:
            for index, (job, name, parent, start, end) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "job": job, "name": name, "parent": parent,
                    "start": start, "end": end, "self": own[index],
                }) + "\n")


def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def self_times(spans) -> list[float]:
    """Self time of each (parent, start, end) span: its duration minus the
    part of its interval that its direct children cover."""
    children = defaultdict(list)
    for parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    own = []
    for index, (_, start, end) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(index, ()) if e > start and s < end]
        own.append((end - start) - union_length(clipped))
    return own


def job_metrics(tracer: Tracer, job: int) -> dict[str, float]:
    """Per-layer metrics of one traced job."""
    indices = [i for i, s in enumerate(tracer.spans) if s[0] == job]
    if not indices:
        raise ValueError(f"no spans recorded for job {job}")
    local = {g: i for i, g in enumerate(indices)}
    spans = [tracer.spans[i] for i in indices]
    own = self_times([(local.get(s[2], -1), s[3], s[4]) for s in spans])
    counts = tracer.counts[job]

    def pick(pred):
        return [i for i, s in enumerate(spans) if pred(s[1])]

    def layer(name):
        return pick(lambda n: layer_of(n) == name)

    def busy(selected):
        return union_length([(spans[i][3], spans[i][4]) for i in selected])

    def self_sum(selected):
        return sum(own[i] for i in selected)

    def per_sample(seconds, samples):
        return 1e6 * seconds / samples if samples else 0.0

    encode = busy(pick(lambda n: n == "codec.encode_sequence"))
    decode = busy(pick(lambda n: n == "codec.decode_sequence"))
    points, skipped = counts["bounds.points"], counts["bounds.skipped"]
    return {
        "channel.calls": len(layer("channel")),
        "channel.samples": counts["channel.samples"],
        "channel.busy_s": busy(layer("channel")),
        "predictor.calls": len(layer("predictor")),
        "predictor.busy_s": busy(layer("predictor")),
        "bounds.sweep.calls": len(pick(lambda n: n == "bounds.sweep")),
        "bounds.points": points,
        "bounds.skipped_frac": skipped / (points + skipped) if points + skipped else 0.0,
        "bounds.self_s": self_sum(layer("bounds")),
        "analysis.calls": len(layer("analysis")),
        "analysis.rate_practical.calls": len(pick(lambda n: n == "analysis.rate_practical")),
        "analysis.busy_s": busy(layer("analysis")),
        "codec.encode.samples": counts["codec.encode.samples"],
        "codec.encode.busy_s": encode,
        "codec.encode.us_per_sample": per_sample(encode, counts["codec.encode.samples"]),
        "codec.decode.samples": counts["codec.decode.samples"],
        "codec.decode.busy_s": decode,
        "codec.decode.us_per_sample": per_sample(decode, counts["codec.decode.samples"]),
        "codec.decode_per_encode": (
            counts["codec.decode.samples"] / counts["codec.encode.samples"]
            if counts["codec.encode.samples"] else 0.0
        ),
        "codec.quantize_many.busy_s": busy(pick(lambda n: n == "codec.quantize_many")),
        "codec.pack.bytes": counts["codec.pack.bytes"],
        "codec.pack.busy_s": busy(pick(lambda n: n == "codec.pack_indices")),
        "codec.unpack.busy_s": busy(pick(lambda n: n == "codec.unpack_indices")),
        "harness.self_s": self_sum(layer("harness")),
        "harness.rows": counts["harness.rows"],
        "harness.io_s": self_sum(layer("harness.io")),
        "harness.io_bytes": counts["harness.io_bytes"],
        "cli.self_s": self_sum(layer("cli")),
    }
