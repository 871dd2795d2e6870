"""One workload in one process: set-up, then timed passes or a traced pass.

Started by run.py, never by hand. ``--t0`` is the driver's CLOCK_MONOTONIC
reading just before it started this process, so set-up time includes the
interpreter start and ``import ntangle``. The last stdout line is a JSON
object for the driver.

Modes:
  setup  set up (inputs plus one untimed warm-up pass), report, exit
  run    set up, then run the request list until --seconds of timed work
         have passed (at least once), then check every output
  trace  set up under spans, optionally one untimed pass for the overhead
         ratio, one traced pass, write the spans to --spans, check outputs
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import ntangle  # noqa: F401  (the import is part of set-up)

from tracing import NullTracer, Tracer
from workloads import WORKLOADS


def run_pass(requests, tracer, samples) -> float:
    """One closed-loop pass over the request list; returns its timed wall time."""
    wall = 0.0
    for rid, req in enumerate(requests):
        start = time.perf_counter()
        try:
            with tracer.span("request", rid):
                output = req.run(tracer, rid)
            error = None
        except Exception as exc:  # a failed request is counted, the run goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        wall += latency
        samples.append({"req": rid, "latency_s": latency, "output": output, "error": error})
    return wall


def check_all(requests, samples) -> list:
    """Reasons for every failed sample; fills in each sample's ``ok``."""
    failures = []
    for s in samples:
        req = requests[s["req"]]
        reason = s["error"] or req.check(s["output"])
        s["ok"] = reason is None
        if reason is not None:
            failures.append(f"{req.label}: {reason}")
    return failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--tmp", type=Path, required=True)
    p.add_argument("--spans", type=Path)
    p.add_argument("--overhead", action="store_true")
    args = p.parse_args(argv)

    tracer = Tracer() if args.mode == "trace" else NullTracer()
    workload = WORKLOADS[args.workload]()
    plan = workload.plan(args.seed)
    requests = workload.prepare(plan, args.tmp, tracer)
    tracer.phase = "warmup"
    workload.warm_up(requests, tracer)
    result = {
        "setup_s": time.monotonic() - args.t0,
        "labels": [r.label for r in requests],
        "largest_array_bytes": workload.largest_array_bytes(plan),
    }

    samples = []
    if args.mode == "run":
        walls = []
        while not walls or sum(walls) < args.seconds:
            walls.append(run_pass(requests, tracer, samples))
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-compute" else resource.RUSAGE_SELF
        result["pass_walls"] = walls
        result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    elif args.mode == "trace":
        if args.overhead:
            result["untraced_wall_s"] = run_pass(requests, NullTracer(), [])
        tracer.phase = "pass"
        run_pass(requests, tracer, samples)
        workload.trace_extras(requests, tracer)
        tracer.write(args.spans)

    result["failures"] = check_all(requests, samples)
    result["samples"] = [{"req": s["req"], "latency_s": s["latency_s"], "ok": s["ok"]}
                         for s in samples]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
