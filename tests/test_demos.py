"""The demos run end to end and write their CSVs."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import csi_feedback
from csi_feedback import read_csv

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "script, csv, rows",
    [
        ("closed_loop_codec.py", None, 0),
        ("rate_distortion_bounds.py", "rd_curves.csv", 400),
        ("theory_vs_simulation.py", "practical_mse.csv", 15),
    ],
    ids=["closed_loop_codec", "rate_distortion_bounds", "theory_vs_simulation"],
)
def test_demo_writes_its_csv(tmp_path, script, csv, rows):
    # a copy writes its CSV next to itself, in tmp_path
    shutil.copy(DEMOS / script, tmp_path)
    result = run_python([str(tmp_path / script)], tmp_path)
    assert result.returncode == 0, result.stderr
    if csv is not None:
        assert len(read_csv(tmp_path / csv)) == rows


def test_readme_quick_start_runs(tmp_path):
    # README's one Python block, so that an API change cannot leave it stale
    (block,) = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    result = run_python(["-c", block], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "bits at D=1.25:" in result.stdout


def run_python(args, cwd):
    """``python *args`` in ``cwd`` on the package under test, as a user runs it."""
    src = str(Path(csi_feedback.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
