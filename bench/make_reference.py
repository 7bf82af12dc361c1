"""Regenerate the stored reference outputs under bench/reference/.

    python3 bench/make_reference.py [workload ...]

Runs one job of each workload at the reference seed (inputs.DEFAULT_SEED)
against the checkout's src/ tree and stores what the output checks compare
with.  Only rerun it when an output change is intended, and say so.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[variable] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(inputs.WORKLOADS)
    for name in names:
        workload = workloads.WORKLOADS[name]
        seeded = inputs.make_inputs(name, inputs.DEFAULT_SEED, ROOT)
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as workdir:
            state = workload.setup(seeded, Path(workdir))
            items = workload.run_job(state)
            record = workload.reference_record(state, items)
        problems = [p for item in items for p in item.problems]
        if problems:
            print(f"{name}: output checks failed, nothing stored: {problems[:5]}", file=sys.stderr)
            return 1
        record["seed"] = inputs.DEFAULT_SEED
        record["inputs_sha256"] = inputs.digest(seeded)
        path = workloads.save_reference(name, record, compress=name == "theory_grid")
        errors = sum(item.error is not None for item in items)
        print(f"{name}: {len(items)} items, {errors} raised a known defect -> {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
