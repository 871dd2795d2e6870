"""The committed benchmark records stay readable as `ntangle bench` changes."""

import json
from pathlib import Path

import pytest

from ntangle import bench

RECORDS = sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))


def _rows(record):
    """Every row of the record's runs: before, after and, where taken, the repeated pair."""
    runs = [record["before"], record["after"]]
    runs += [record["repeat"][side] for side in ("before", "after")] if "repeat" in record else []
    return [row for run in runs for row in run["rows"]]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_bench_record_format(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["schema"] == 1
    assert record["machine"]["cpu_model"]
    commands = record["commands"]
    assert commands and all(isinstance(command, str) for command in commands)
    rows = _rows(record)
    assert rows
    for row in rows:
        # a measure `ntangle bench` still times, and its count for the row's full label
        assert row["measure"].split(":")[0] in bench._PARITY, row
        assert row["op_count"] == bench.op_count(row["measure"], row["n"]), row
