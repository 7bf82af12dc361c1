"""The benchmark records at the repository root: each names its change and host."""

import json
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


def test_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_names_its_change_and_host(path):
    record = json.loads(path.read_text())
    assert isinstance(record["change"], str)
    assert isinstance(record["host"], str)
