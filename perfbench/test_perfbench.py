"""Tests of the benchmark itself: names, emitted metrics, checks and seeding.

Run with the rest of the suite (``PYTHONPATH=src python -m pytest``); they
use small states only and take a few seconds.
"""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import qsvio  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ntangle import measures, state  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_plain_and_match_benchmark_json():
    names = [n for n, _, _ in metrics.END_TO_END + metrics.PER_LAYER]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == list(metrics.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(metrics.WORKLOADS)
    assert set(workloads.WORKLOADS) == set(metrics.WORKLOADS)


def _fake_run(latencies, walls):
    return {"samples": [{"req": 0, "latency_s": x, "ok": True} for x in latencies],
            "pass_walls": walls, "peak_rss_kb": 123_456}


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
@pytest.mark.parametrize("count", [1, 5, 39, 40, 1000])
def test_every_end_to_end_metric_or_a_reason(workload, count):
    latencies = [0.1 + 0.001 * i for i in range(count)]
    summary = metrics.end_to_end([1.0, 1.2, 1.1], _fake_run(latencies, [sum(latencies)]))
    assert set(summary["metrics"]) == {n for n, _, _ in metrics.END_TO_END}
    assert all(math.isfinite(v) and v > 0 for v in summary["metrics"].values())
    assert summary["latency_p50_s"] > 0
    p, value = summary["tail"]
    if p is None:
        assert "needs at least" in value
    else:
        beyond = sum(1 for x in latencies if x > value)
        assert beyond >= 10
        assert p == max(q for q in metrics.TAIL_PERCENTILES
                        if count - math.ceil(count * q / 100) >= 10)


def test_wrong_reference_value_counts_as_failed():
    psi = state.random_state(6, 3)
    good = workloads.Kernels._tau_request(psi)
    wrong = workloads.Request("tau n=6 wrong", good.run, workloads._value_check(
        lambda: 1.01 * workloads.reference_tau(psi)))
    requests = [good, wrong]
    samples = []
    walls = [worker.run_pass(requests, tracing.NullTracer(), samples)]
    failures = worker.check_all(requests, samples)
    assert len(failures) == 1 and failures[0].startswith("tau n=6 wrong")
    run = {"samples": samples, "pass_walls": walls, "peak_rss_kb": 1}
    summary = metrics.end_to_end([1.0], run)
    assert (summary["attempted"], summary["failed"], summary["failed_ratio"]) == (2, 1, 0.5)


def test_cli_and_export_checks_reject_wrong_outputs(tmp_path):
    check = workloads._cli_check(lambda: 0.25)
    assert check((0, json.dumps({"value": 0.25}), "")) is None
    assert check((0, json.dumps({"value": 0.26}), "")) is not None
    assert check((2, "", "error: bad")) is not None

    exporter = workloads.Export()
    spec = {"text": "ghz:3@3,1,4 x bell@5,2", "value": 3 / 5, "ops_seed": 5}
    exporter.prepare({"exports": [spec]}, tmp_path, tracing.NullTracer())
    request = exporter._request(0, spec)
    path = request.run(tracing.NullTracer(), 0)
    assert request.check(path) is None
    path = request.run(tracing.NullTracer(), 0)
    data = path.read_bytes().split(b"\n")
    data[2] = b"0.5 0.5"
    path.write_bytes(b"\n".join(data))
    assert "differs" in request.check(path)


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]()
    assert json.dumps(wl.plan(11)) == json.dumps(wl.plan(11))
    assert json.dumps(wl.plan(11)) != json.dumps(wl.plan(12))


def test_generated_states_are_seeded_byte_for_byte():
    one = qsvio.format_qsv(workloads.state_amps(8, 4))
    assert one == qsvio.format_qsv(workloads.state_amps(8, 4))
    assert one != qsvio.format_qsv(workloads.state_amps(8, 5))


def test_qsv_round_trip_is_bit_exact_both_ways(tmp_path):
    amps = workloads.state_amps(7, 9) * 1e-3
    path = tmp_path / "a.qsv"
    qsvio.write_qsv(path, amps)
    assert np.array_equal(state.read_qsv(path).amps.view(np.uint64), amps.view(np.uint64))
    state.write_qsv(state.StateVector(7, amps), path)
    assert np.array_equal(qsvio.read_qsv(path).view(np.uint64), amps.view(np.uint64))


@pytest.mark.parametrize("seed", range(4))
def test_product_expressions_have_the_stated_exact_values(seed):
    rng = np.random.default_rng(seed)
    text, value = workloads.even_product(rng, (4, 2, 2, 2))
    psi = state.build_product(state.parse_product_expression(text))
    assert measures.tau(psi).value == pytest.approx(value, abs=1e-12)
    text, value = workloads.odd_product(rng, (5, 4, 2))
    psi = state.build_product(state.parse_product_expression(text))
    assert value == 5 / 11
    assert measures.r_tangle(psi).value == pytest.approx(value, abs=1e-12)
    ops = workloads.unitaries(seed, 11)
    moved = state.apply_local(psi, ops)
    assert workloads.reference_r(moved) == pytest.approx(value, abs=1e-12)
    with pytest.raises(ValueError):
        workloads.odd_product(rng, (4, 5))


def test_references_agree_with_the_timed_kernels():
    psi = state.random_state(9, 2)
    assert workloads.reference_tau(psi) == pytest.approx(measures.tau(psi).value, rel=1e-9)
    assert workloads.reference_r(psi) == pytest.approx(measures.r_tangle(psi).value, rel=1e-9)
    for i in (1, 4, 9):
        assert workloads.reference_residual(psi, i) == pytest.approx(
            measures.tau_residual(psi, i).value, rel=1e-9)


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "request", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 0, "start": 3.0, "end": 6.0},
        {"id": 3, "name": "c", "parent": 2, "start": 3.5, "end": 4.5},
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 5.0, 1: 3.0, 2: 2.0, 3: 1.0})


def test_tracer_records_parent_request_and_failure(tmp_path):
    tracer = tracing.Tracer()
    with tracer.span("request", 3):
        with pytest.raises(ValueError):
            with tracer.span("inner", 3):
                raise ValueError("boom")
    tracer.write(tmp_path / "spans.json")
    outer, inner = json.loads((tmp_path / "spans.json").read_text())
    assert (inner["parent"], inner["request"], inner["failed"]) == (outer["id"], 3, True)
    assert outer["failed"] is False and outer["start"] <= inner["start"] <= inner["end"]
