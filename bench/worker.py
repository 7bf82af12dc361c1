"""One benchmark process: import csi_feedback, set up a workload, run its jobs.

run.py starts this script in a fresh interpreter for every set-up sample.  In
``--mode setup`` it stops once the first job could start; in ``--mode run`` it
then runs jobs back to back for ``--seconds``, checks every output and writes
a JSON result file.  With ``--trace 1`` every second job runs traced, so the
untraced jobs give the tracing overhead and the traced outputs are compared
with the untraced ones.  The calibration kernel runs between jobs and between
items, and every job and item time is reported both raw and scaled
(calibration.py).
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

import calibration

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
MIN_JOBS = 3  # per kind (untraced, traced) even when one job outlasts --seconds
MAX_PROBLEMS_REPORTED = 20
# host speed changes within a second or two, so long jobs are calibrated
# between their items as well as between jobs
CALIBRATE_EVERY_S = 0.3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    return parser.parse_args(argv)


def _check_repeat(first, items, traced: bool) -> None:
    """A job repeats the first job's outputs, traced or not."""
    if len(items) != len(first):
        items[0].problems.append(f"{len(items)} items, first job had {len(first)}")
        return
    for item, reference in zip(items, first):
        if item.summary != reference.summary:
            what = "traced output differs from untraced" if traced else "output differs from the first job"
            item.problems.append(what)


class Calibrations:
    """Calibration kernel samples of one run: when each was taken, and its time."""

    def __init__(self, kernel_s: float):
        self.times = [time.perf_counter()]
        self.kernels = [kernel_s]

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() - self.times[-1] >= CALIBRATE_EVERY_S:
            self.kernels.append(calibration.kernel_seconds())
            self.times.append(time.perf_counter())

    def scale(self, start: float) -> float:
        """Scale for an item started at ``start``: the samples just before and after it."""
        after = bisect.bisect_left(self.times, start)
        return calibration.scale(self.kernels[after - 1], self.kernels[min(after, len(self.kernels) - 1)])


def _run_jobs(workload, state, seconds: float, tracer, clock: Calibrations):
    """Jobs back to back.  A job's time is the sum of its items' times, which
    leaves out the calibration samples taken between items."""
    jobs = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(jobs) % 2 == 1
        if traced:
            with tracer.patch(len(jobs)):
                items = workload.run_job(state, clock.sample)
        else:
            items = workload.run_job(state, clock.sample)
        clock.sample(force=True)
        if jobs:
            _check_repeat(jobs[0]["items"], items, traced)
            for item in items:  # keep memory flat: only the first job's outputs stay
                item.summary = None
        jobs.append({"traced": traced, "items": items})
        kinds = Counter(job["traced"] for job in jobs)
        enough = kinds[False] >= MIN_JOBS and (tracer is None or kinds[True] >= MIN_JOBS)
        if enough and time.perf_counter() - start >= seconds:
            break
    for job in jobs:
        for item in job["items"]:
            item.scale = clock.scale(item.start)
        job["seconds"] = sum(item.seconds for item in job["items"])
        job["scale"] = sum(item.seconds * item.scale for item in job["items"]) / job["seconds"]
    return jobs


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import csi_feedback

    import_s = time.perf_counter() - start
    if SRC.resolve() not in Path(csi_feedback.__file__).resolve().parents:
        raise SystemExit(f"imported csi_feedback from {csi_feedback.__file__}, not from {SRC}")

    import numpy
    import scipy
    import spans
    import workloads

    inputs = json.loads(args.inputs.read_text())
    workload = workloads.WORKLOADS[args.workload]
    run_dir = args.workdir / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    state = workload.setup(inputs["run"], run_dir)
    result = {"setup_s": time.monotonic() - args.spawned, "import_s": import_s}
    if args.mode == "setup":
        args.result.write_text(json.dumps(result))
        return 0

    tracer = spans.Tracer() if args.trace else None
    jobs = _run_jobs(workload, state, args.seconds, tracer, Calibrations(calibration.kernel_seconds()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    reference = workloads.load_reference(args.workload)
    if reference.get("inputs_sha256") != inputs["reference_inputs_sha256"]:
        problems.append("stored reference was made from other inputs; rerun bench/make_reference.py")
    all_items = [item for job in jobs for item in job["items"]]
    if inputs["canary"] is None:
        workload.check_reference(state, jobs[0]["items"], reference)
    else:
        # the run's seed has no stored outputs: check one untimed job at the reference seed
        canary_dir = args.workdir / "canary"
        canary_dir.mkdir(parents=True, exist_ok=True)
        canary_state = workload.setup(inputs["canary"], canary_dir)
        canary = workload.run_job(canary_state)
        workload.check_reference(canary_state, canary, reference)
        all_items += canary
    problems += [p for item in all_items for p in item.problems]

    untraced = [job for job in jobs if not job["traced"]]
    result.update(
        {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "peak_rss_mb": peak_rss_mb,
            "job_s": [job["seconds"] for job in untraced],
            "job_scale": [job["scale"] for job in untraced],
            "item_s": [item.seconds for job in untraced for item in job["items"]],
            "item_scale": [item.scale for job in untraced for item in job["items"]],
            "attempted": len(all_items),
            "failed": sum(item.failed for item in all_items),
            "errors": Counter(item.error for item in all_items if item.error),
            "known_defects": workloads.KNOWN_DEFECTS,
            "problems": problems[:MAX_PROBLEMS_REPORTED],
            "problem_count": len(problems),
        }
    )
    if tracer is not None:
        traced = [(index, job) for index, job in enumerate(jobs) if job["traced"]]
        per_job = []
        for index, job in traced:
            metrics = spans.job_metrics(tracer, index)
            for key in metrics:
                if key.endswith(("_s", "us_per_sample")):
                    metrics[key] *= job["scale"]
            per_job.append(metrics)
        result["layers"] = {key: median(m[key] for m in per_job) for key in per_job[0]}
        result["traced_job_s"] = [job["seconds"] for _, job in traced]
        result["traced_job_scale"] = [job["scale"] for _, job in traced]
        if args.spans is not None:
            tracer.write(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
