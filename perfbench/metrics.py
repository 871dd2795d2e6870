"""Metric names and units, and how each is derived from worker results and spans.

End-to-end metrics come from untraced runs; per-layer metrics from the spans
of a traced run, each taken from the workload that exercises its layer most
(``SPAN_HOMES``). A ``.s`` metric is the summed self time of that span name
over the set-up and the traced pass; ``.calls`` and ``.failed`` count the
same spans.
"""

from __future__ import annotations

import math
import statistics

from tracing import layer_totals, self_times

WORKLOADS = ("cli-compute", "kernels", "export", "verify")

# the ten suites in scripts/run_all_suites.py order
SUITES = (
    "bitops",
    "closed-form",
    "oracle-n3",
    "golden-examples",
    "covariance-even",
    "covariance-odd",
    "permutation",
    "product",
    "monotone",
    "range",
)

# (name, unit, better) of the metrics in the result line. latency_p50_s,
# latency_tail_s and failed_ratio are printed for every workload but left out
# of it: on verify the median falls between two sub-second suites and moves
# by a third from run to run, the tail needs more samples than a run has,
# and failed_ratio is 0 on a correct program.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

SPAN_HOMES = {
    "state.read_qsv": "cli-compute",
    "state.normalized": "cli-compute",
    "state.parse_product_expression": "export",
    "state.build_product": "export",
    "state.apply_local": "export",
    "state.write_qsv": "export",
    "state.random_state": "kernels",
    "measures.tau_even": "kernels",
    "measures.tau_odd": "kernels",
    "measures.tau_residual": "kernels",
    "measures.r_tangle": "kernels",
    **{f"suites.{s}": "verify" for s in SUITES},
}


def _per_layer_names() -> tuple:
    out = [
        ("cli.startup_s", "s", "lower"),
        ("cli.overhead_s", "s", "lower"),
    ]
    for span in SPAN_HOMES:
        out.append((f"{span}.s", "s", "lower"))
        if span in ("state.read_qsv", "state.write_qsv"):
            out.append((f"{span}.amps_per_s", "1/s", "higher"))
        if span in ("measures.tau_even", "measures.tau_odd"):
            out.append((f"{span}.computed_gbps", "GB/s", "higher"))
        if span == "measures.r_tangle":
            out.append((f"{span}.peak_traced_mb", "MB", "lower"))
            out.append((f"{span}.retained_traced_mb", "MB", "lower"))
        if span.startswith("suites."):
            out.append((f"{span}.checks", "count", "higher"))
        out.append((f"{span}.calls", "count", "higher"))
        out.append((f"{span}.failed", "count", "lower"))
    out.append(("host.copy_gbps", "GB/s", "higher"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return tuple(out)


PER_LAYER = _per_layer_names()

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(latencies: list) -> tuple:
    """(percentile, value) of the highest listed percentile with at least ten
    samples beyond it, or (None, reason) when there are too few samples."""
    ordered = sorted(latencies)
    count = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(count * p / 100.0)  # nearest rank
        if count - rank >= 10:
            return p, ordered[rank - 1]
    need = int(10 / (1 - TAIL_PERCENTILES[-1] / 100.0))
    return None, f"{count} samples; p{TAIL_PERCENTILES[-1]:g} needs at least {need}"


def end_to_end(setups: list, run: dict) -> dict:
    """End-to-end figures of one workload from its set-up and run results."""
    latencies = [s["latency_s"] for s in run["samples"]]
    attempted = len(run["samples"])
    failed = sum(1 for s in run["samples"] if not s["ok"])
    by_request = {}
    for s in run["samples"]:
        by_request.setdefault(s["req"], []).append(s["latency_s"])
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(run["pass_walls"]),
            "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        },
        "latency_p50_s": statistics.median(latencies),
        "request_p50_s": {r: statistics.median(v) for r, v in sorted(by_request.items())},
        "passes": len(run["pass_walls"]),
        "setups": len(setups),
        "tail": tail(latencies),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
    }


def _amps(spans) -> int:
    return sum(1 << s["attrs"]["n"] for s in spans)


def per_layer(spans: dict, overhead: dict) -> dict:
    """Per-layer metrics from the spans of each workload's traced run.

    ``overhead`` maps each workload whose tracing cost is reported to its
    untraced pass wall time; the ratio is over their sum.
    """
    out = {}
    totals = {w: layer_totals(spans[w]) for w in spans}
    cli = spans["cli-compute"]
    out["cli.startup_s"] = statistics.median(
        s["end"] - s["start"] for s in cli if s["name"] == "cli.startup")
    out["cli.overhead_s"] = statistics.median(_cli_overheads(cli))

    for span, home in SPAN_HOMES.items():
        t = totals[home][span]
        out[f"{span}.s"] = t["s"]
        if span in ("state.read_qsv", "state.write_qsv"):
            out[f"{span}.amps_per_s"] = _amps(t["spans"]) / t["s"]
        if span in ("measures.tau_even", "measures.tau_odd"):
            out[f"{span}.computed_gbps"] = 16 * _amps(t["spans"]) / t["s"] / 1e9
        if span == "measures.r_tangle":
            # over every call, the cold one in the warm-up included
            mem = [s["attrs"] for s in spans[home] if s["name"] == span and s["attrs"]]
            out[f"{span}.peak_traced_mb"] = max(a["peak_bytes"] for a in mem) / 2**20
            out[f"{span}.retained_traced_mb"] = sum(a["retained_bytes"] for a in mem) / 2**20
        if span.startswith("suites."):
            out[f"{span}.checks"] = sum(s["attrs"]["checks"] for s in t["spans"])
        out[f"{span}.calls"] = t["calls"]
        out[f"{span}.failed"] = t["failed"]

    copies = [s for s in spans["kernels"] if s["name"] == "host.copy"]
    out["host.copy_gbps"] = statistics.median(
        s["attrs"]["bytes"] / (s["end"] - s["start"]) for s in copies) / 1e9
    traced = sum(s["end"] - s["start"] for w in overhead for s in spans[w]
                 if s["name"] == "request" and s["phase"] == "pass")
    out["trace.overhead_ratio"] = traced / sum(overhead.values())
    return out


def _cli_overheads(cli) -> list:
    """Per request: CLI process latency minus the same stages run in-process."""
    compute = {s["request"]: s["end"] - s["start"] for s in cli
               if s["name"] == "cli.compute" and s["phase"] == "pass"}
    replay_ids = {s["id"]: s["request"] for s in cli if s["name"] == "cli.replay"}
    stages = dict.fromkeys(replay_ids.values(), 0.0)
    for s in cli:
        if s["parent"] in replay_ids:
            stages[replay_ids[s["parent"]]] += s["end"] - s["start"]
    return [compute[r] - stages[r] for r in compute if r in stages]


def shares(spans) -> list:
    """(span name, share) of self time over the traced pass, largest first.

    The CLI process spans are left out, so for cli-compute the shares split
    the in-process stage sum; ``request`` is the benchmark's own bookkeeping.
    """
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        if s["phase"] == "pass" and s["name"] not in ("cli.compute", "cli.replay"):
            by_name[s["name"]] = by_name.get(s["name"], 0.0) + selfs[s["id"]]
    total = sum(by_name.values()) or 1.0
    return sorted(((k, v / total) for k, v in by_name.items()), key=lambda kv: -kv[1])
