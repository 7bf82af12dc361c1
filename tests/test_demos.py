"""The demos run end to end and write their CSVs."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import csi_feedback
from csi_feedback import read_csv

DEMOS = Path(__file__).resolve().parents[1] / "demos"


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
    src = str(Path(csi_feedback.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, str(tmp_path / script)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    if csv is not None:
        assert len(read_csv(tmp_path / csv)) == rows
