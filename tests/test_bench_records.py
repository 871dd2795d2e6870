"""The committed benchmark records stay readable as `ntangle bench` changes."""

import json
from pathlib import Path

import pytest

from ntangle import bench

RECORDS = sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))


# R counted (n + 2) * 2**(n-1) products until its one-pass kernel, which BENCH_24.json
# times as its "after" side: a run of older code keeps the count of the code it timed
ONE_PASS_R = 24


# the quartic oracle counted its 3 * 2**(4n) term products until it summed by index parity;
# BENCH_31.json, the last record with a quartic row, timed that dense contraction
DENSE_QUARTIC = 31


def _count(path, side, row):
    count = bench.op_count(row["measure"], row["n"])
    number = int(path.stem.split("_")[1])
    if row["measure"] == "quartic" and number <= DENSE_QUARTIC:
        return 3 << (4 * row["n"])
    older = number < ONE_PASS_R or (number == ONE_PASS_R and side == "before")
    if row["measure"] in ("r", "batch:r") and older:
        return count // (row["n"] + 1) * (row["n"] + 2)
    return count


def _rows(record):
    """(side, row) of every row of the record's runs: before, after and, where taken, the repeated pair."""
    runs = [("before", record["before"]), ("after", record["after"])]
    runs += [(side, record["repeat"][side]) for side in ("before", "after")] if "repeat" in record else []
    return [(side, row) for side, run in runs for row in run["rows"]]


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
    for side, row in rows:
        # a measure `ntangle bench` still times, and its count for the row's full label
        assert row["measure"].split(":")[0] in bench._PARITY, row
        assert row["op_count"] == _count(path, side, row), row
        # rows timed since bench kept quartiles carry them, in order; older rows have none
        if "q1_ns" in row:
            assert row["q3_ns"] >= row["median_ns"] >= row["q1_ns"] >= row["min_ns"] >= 0, row
