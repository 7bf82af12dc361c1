"""The test suite itself: a failing property test is reported like any other failure."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING_AND_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    # the suite's ini options (filterwarnings = error among them) and its
    # conftest, loaded as a plugin, on a directory outside the suite
    (tmp_path / "test_pair.py").write_text(FAILING_AND_PASSING)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest"]
    command += ["-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path)]
    result = subprocess.run(
        command + [str(tmp_path)],
        cwd=tmp_path,  # where Hypothesis writes the patch of its failing example
        env=dict(os.environ, PYTHONPATH=str(TESTS)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr, result.stdout
    assert "1 failed, 1 passed" in result.stdout, result.stdout
