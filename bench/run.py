"""Benchmark of the csi_feedback toolkit: three closed-loop, single-process workloads.

    python3 bench/run.py --workload {reference_codec,theory_grid,link_replay}
                         --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it measures the ``src/`` tree of
that checkout.  One caller issues jobs back to back with BLAS/OpenMP pinned
to one thread.  Each set-up sample is a fresh interpreter (worker.py); the
last one goes on to run jobs for ``--seconds`` and to check every output.

- ``reference_codec``: ``csi-feedback codec`` in-process on
  demos/reference.cfg with shorter trials; the codec hot path.
- ``theory_grid``: parse -> all-scheme bound sweep -> CSV, plus steady-state
  analysis per bit width, over seeded AR(1..8) fits of Jakes channels.
- ``link_replay``: read dumped index streams, decode them and pack them
  again; set-up encodes them.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: spawn of a fresh interpreter until its first job could start
  (import, config parsing, workload set-up), median of SETUP_SAMPLES;
- ``job_s``: median job wall time (the sum of its items' times);
- ``item_ms_p50`` / ``item_ms_p90``: percentiles over the items of a job of
  each item's median wall time over the jobs, where an item is a model
  (theory_grid), a stream (link_replay) or the whole CLI run
  (reference_codec, so both equal ``job_s`` there); the median over jobs
  keeps host hiccups out of the tail, so p90 tracks the slow items;
- ``peak_rss_mb``: peak resident memory of the measuring interpreter;
- ``ok_frac``: 1 - fail_frac, the share of items that neither raised nor
  failed an output check (fail_frac itself is 0 on two workloads, and a
  metric that can be 0 has no relative spread).

Job and item times are scaled by the host-speed calibration of
calibration.py to a reference machine, because the shared cores of a sandbox
change speed by tens of percent from minute to minute; the raw medians are
printed beside.  Set-up times stay raw: a calibration sample in a fresh
interpreter, next to its imports, spread them three times wider than no
calibration at all.

``--trace 1`` reports the per-layer ones, taken from spans around the public
functions of each module (spans.py) on every second job.  The last stdout
line is the JSON result; the lines before it spell out every metric with its
unit, spread and sample count, the failures with their cause, and the run
metadata.  The full result and the spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from statistics import median, quantiles

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5  # fresh interpreters per run; the median is reported
DEADLINE_S = 170.0  # the whole run, workers included
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "channel.calls": "count",
    "channel.samples": "count",
    "channel.busy_s": "s",
    "predictor.calls": "count",
    "predictor.busy_s": "s",
    "bounds.sweep.calls": "count",
    "bounds.points": "count",
    "bounds.skipped_frac": "ratio",
    "bounds.self_s": "s",
    "analysis.calls": "count",
    "analysis.rate_practical.calls": "count",
    "analysis.busy_s": "s",
    "codec.encode.samples": "count",
    "codec.encode.busy_s": "s",
    "codec.encode.us_per_sample": "us",
    "codec.decode.samples": "count",
    "codec.decode.busy_s": "s",
    "codec.decode.us_per_sample": "us",
    "codec.decode_per_encode": "ratio",
    "codec.quantize_many.busy_s": "s",
    "codec.pack.bytes": "bytes",
    "codec.pack.busy_s": "s",
    "codec.unpack.busy_s": "s",
    "harness.self_s": "s",
    "harness.rows": "count",
    "harness.io_s": "s",
    "harness.io_bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Runner:
    def __init__(self, args, run_dir: Path):
        self.args = args
        self.run_dir = run_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONHASHSEED="0", **PINNED_THREADS)
        self.env.pop("PYTHONPATH", None)
        self.count = 0

    def spawn(self, mode: str, spans_path: Path | None = None) -> dict:
        self.count += 1
        result = self.run_dir / f"result-{self.count}.json"
        command = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.args.workload,
            "--inputs", str(self.run_dir / "inputs.json"),
            "--workdir", str(self.run_dir / f"work-{self.count}"),
            "--result", str(result),
            "--mode", mode,
            "--seconds", str(self.args.seconds),
            "--trace", str(self.args.trace),
        ]
        if spans_path is not None:
            command += ["--spans", str(spans_path)]
        stderr_path = self.run_dir / f"stderr-{self.count}.txt"
        with open(stderr_path, "w") as stderr:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                command + ["--spawned", repr(spawned)],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker ({mode}) did not finish within the {DEADLINE_S:.0f} s budget")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            tail = stderr_path.read_text()[-3000:]
            raise BenchError(f"worker ({mode}) exited with code {code}:\n{tail}")
        return json.loads(result.read_text())


def _scaled(values, scales):
    return [v * f for v, f in zip(values, scales)]


def _end_to_end(setups, final) -> tuple[dict, list[str]]:
    setup_s = [s["setup_s"] for s in setups]
    job_s = _scaled(final["job_s"], final["job_scale"])
    item_ms = [1e3 * v for v in _scaled(final["item_s"], final["item_scale"])]
    # every job runs the same items in the same order (worker._check_repeat)
    per_job = len(item_ms) // len(job_s)
    item_medians = [median(item_ms[i::per_job]) for i in range(per_job)]
    if per_job > 1:
        p50, p90 = (quantiles(item_medians, n=10, method="inclusive")[i] for i in (4, 8))
    else:
        p50 = p90 = item_medians[0]
    values = {
        "setup_s": median(setup_s),
        "job_s": median(job_s),
        "item_ms_p50": p50,
        "item_ms_p90": p90,
        "peak_rss_mb": final["peak_rss_mb"],
        "ok_frac": 1.0 - final["failed"] / final["attempted"],
    }
    notes = {
        "setup_s": "median of %d fresh interpreters, q1 %.4f q3 %.4f (raw)" % (len(setup_s), *_quartiles(setup_s)),
        "job_s": "median of %d jobs, q1 %.4f q3 %.4f (raw median %.4f)"
        % (len(job_s), *_quartiles(job_s), median(final["job_s"])),
        "item_ms_p50": "over %d items of their median over %d jobs" % (per_job, len(job_s)),
        "item_ms_p90": "over %d items, %d beyond it" % (per_job, sum(v > p90 for v in item_medians)),
        "peak_rss_mb": "max resident set of the measuring interpreter",
        "ok_frac": "fail_frac %.6f = %d failed of %d attempted items"
        % (final["failed"] / final["attempted"], final["failed"], final["attempted"]),
    }
    lines = [f"{k:<14} {v:>14.6f} {END_TO_END_UNITS[k]:<6} {notes[k]}" for k, v in values.items()]
    return values, lines


def _per_layer(setups, final) -> tuple[dict, list[str]]:
    values = dict(final["layers"])
    values["setup.import_s"] = median(s["import_s"] for s in setups)
    traced = median(_scaled(final["traced_job_s"], final["traced_job_scale"]))
    values["trace.overhead_frac"] = traced / median(_scaled(final["job_s"], final["job_scale"])) - 1.0
    values = {k: values[k] for k in PER_LAYER_UNITS}
    lines = [f"{k:<30} {v:>16.6f} {PER_LAYER_UNITS[k]}" for k, v in values.items()]
    lines.append(
        "(median over %d traced jobs; overhead against %d untraced jobs)"
        % (len(final["traced_job_s"]), len(final["job_s"]))
    )
    return values, lines


def _error_lines(final) -> list[str]:
    lines = []
    known = final["known_defects"]
    for error, count in Counter(final["errors"]).most_common():
        cause = f" -- known defect: {known[error]}" if error in known else ""
        lines.append(f"  {count} x {error}{cause}")
    lines += [f"  check failed: {p}" for p in final["problems"]]
    if final["problem_count"] > len(final["problems"]):
        lines.append(f"  ... {final['problem_count'] - len(final['problems'])} more failed checks")
    return lines


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # a terminated run still stops and reaps its worker (Runner.spawn's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    src = ROOT / "src"
    reference_cfg = ROOT / "demos" / "reference.cfg"
    if not (src / "csi_feedback" / "__init__.py").is_file() or not reference_cfg.is_file():
        print(f"error: no csi_feedback checkout at {ROOT} (need src/csi_feedback and demos/reference.cfg)",
              file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        run_inputs = inputs.make_inputs(args.workload, args.seed, ROOT)
        reference_inputs = inputs.make_inputs(args.workload, inputs.DEFAULT_SEED, ROOT)
        (run_dir / "inputs.json").write_text(json.dumps({
            "run": run_inputs,
            "canary": None if args.seed == inputs.DEFAULT_SEED else reference_inputs,
            "reference_inputs_sha256": inputs.digest(reference_inputs),
        }))
        # every interpreter then loads the same cached bytecode
        compileall.compile_dir(src, quiet=1)
        compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
        runner = Runner(args, run_dir)
        setups = [runner.spawn("setup") for _ in range(SETUP_SAMPLES - 1)]
        # spans are large: keep only the latest traced run per workload
        final = runner.spawn("run", out_dir / f"spans-{args.workload}.jsonl.gz" if args.trace else None)
        setups.append(final)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": _src_sha256(src),
        "python": final["python"],
        "numpy": final["numpy"],
        "scipy": final["scipy"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": PINNED_THREADS,
        "closed_loop_callers": 1,
    }
    if args.trace:
        metrics, lines = _per_layer(setups, final)
        units = PER_LAYER_UNITS
    else:
        metrics, lines = _end_to_end(setups, final)
        units = END_TO_END_UNITS
    correct = final["problem_count"] == 0
    report = {
        "correct": correct,
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps({
        **report, "meta": meta, "setups": setups[:-1], "run": final,
    }, indent=1))

    print("# meta " + json.dumps(meta))
    print("\n".join(lines))
    print(f"correct {str(correct).lower()}: {final['failed']} of {final['attempted']} items failed")
    for line in _error_lines(final):
        print(line)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
