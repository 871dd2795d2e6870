#!/usr/bin/env python3
"""ntangle benchmark driver: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree holding ``src/ntangle``; nothing needs
installing. Every workload is a closed loop with one client, and at most one
worker process (plus, for cli-compute, one request process) runs at a time.

--trace 0  For each workload, three worker processes set up in turn (set-up:
           interpreter start, ``import ntangle``, input generation and one
           untimed warm-up pass); ``setup_s`` is their median. The third then
           repeats the workload's fixed request list until --seconds of timed
           work have passed, and every output is checked afterwards.
--trace 1  Every workload runs one traced pass, so that every per-layer
           metric has the workload that exercises its layer; the named
           workload also runs one untraced pass for ``trace.overhead_ratio``.
           cli-compute then replays each request's stages in-process, since
           spans cannot reach inside the CLI processes. Spans are written to
           .perfbench_out/ and the metrics derived from them.

Inputs and outputs live in a temporary directory under .perfbench_tmp/ that
is removed at the end. No machine setting is changed: caches are not dropped
and nothing is pinned, so figures include whatever else the host runs.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0  # per workload: a run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    cap = nproc()
    for var in THREAD_VARS:
        try:
            want = int(env.get(var, cap))
        except ValueError:
            want = cap
        env[var] = str(max(1, min(want, cap)))
    return env


def run_child(cmd, env, deadline: float, cwd=None) -> subprocess.CompletedProcess:
    """Run one child in its own process group; kill the group if it overruns."""
    with subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{cmd[1:4]} overran the {RUN_BUDGET_S:.0f} s budget") from None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stray grandchildren, if any
            except ProcessLookupError:
                pass
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


class Driver:
    def __init__(self, args, tmp: Path, deadline: float):
        self.args = args
        self.tmp = tmp
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def worker(self, workload: str, mode: str, *extra) -> dict:
        self.count += 1
        wdir = self.tmp / f"{self.count}-{workload}-{mode}"
        wdir.mkdir()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
               "--mode", mode, "--tmp", str(wdir), *extra]
        cmd += ["--t0", repr(time.monotonic())]
        try:
            proc = run_child(cmd, self.env, self.deadline)
        finally:
            shutil.rmtree(wdir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def end_to_end(self, workload: str) -> dict:
        self.deadline = time.monotonic() + RUN_BUDGET_S
        results = [self.worker(workload, "setup") for _ in range(SETUP_REPEATS - 1)]
        results.append(self.worker(workload, "run"))
        summary = metrics.end_to_end([r["setup_s"] for r in results], results[-1])
        summary["labels"] = results[-1]["labels"]
        summary["failures"] = results[-1]["failures"]
        summary["largest_array_bytes"] = results[-1]["largest_array_bytes"]
        return summary

    def traced(self, named: str) -> dict:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans, results, overhead = {}, {}, {}
        for w in metrics.WORKLOADS:
            path = out_dir / f"spans-{w}-seed{self.args.seed}.json"
            extra = ["--spans", str(path)]
            if named in (w, "all"):
                extra.append("--overhead")
            results[w] = self.worker(w, "trace", *extra)
            spans[w] = json.loads(path.read_text(encoding="ascii"))
            if named in (w, "all"):
                overhead[w] = results[w]["untraced_wall_s"]
        return {"per_layer": metrics.per_layer(spans, overhead), "results": results,
                "shares": {w: metrics.shares(spans[w]) for w in spans}}


# ---------------------------------------------------------------------------
# environment and sizes
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def llc_bytes() -> int | None:
    """Size of the highest-level cache cpu0 reports, or None."""
    best = None
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.exists() else []:
        level = _read(f"{index}/level").strip()
        size = _read(f"{index}/size").strip()
        if level.isdigit() and size[:-1].isdigit() and size[-1:] in ("K", "M", "G"):
            nbytes = int(size[:-1]) << {"K": 10, "M": 20, "G": 30}[size[-1]]
            if best is None or int(level) >= best[0]:
                best = (int(level), nbytes)
    return best[1] if best else None


def environment(seed: int, sizes: dict) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    llc = llc_bytes()
    largest = max(sizes.values()) if sizes else 0
    env = {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": nproc(),
        "cpu_model": model,
        "llc_bytes": llc,
        "ram_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "seed": seed,
        "largest_array_bytes": sizes,
    }
    if llc and largest:
        relation = "smaller" if largest < 4 * llc else "not smaller"
        env["note"] = (f"the largest array ({largest / 2**20:.0f} MiB) is {relation} than four"
                       f" times the reported LLC ({llc / 2**20:.0f} MiB), so computed_gbps"
                       f" {'is not' if largest < 4 * llc else 'may be'} a DRAM roofline;"
                       " caches were not dropped and nothing was pinned")
    return env


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_end_to_end(workload: str, s: dict, why: str) -> None:
    units = {name: unit for name, unit, _ in metrics.END_TO_END}
    m = s["metrics"]
    print(f"workload {workload}: {why}")
    print("  closed loop, 1 client; median latency per request: " + "; ".join(
        f"{s['labels'][r]} {v:.3f} s" for r, v in s["request_p50_s"].items()))
    print(f"  setup_s         {m['setup_s']:.4f} {units['setup_s']}"
          f"  (median of {s['setups']} set-ups)")
    print(f"  wall_s          {m['wall_s']:.4f} {units['wall_s']}"
          f"  (median of {s['passes']} passes of the request list)")
    print(f"  latency_p50_s   {s['latency_p50_s']:.4f} s  ({s['attempted']} samples)")
    p, tail = s["tail"]
    if p is None:
        print(f"  latency_tail_s  omitted: {tail}")
    else:
        print(f"  latency_tail_s  {tail:.4f} s  (p{p:g}, {s['attempted']} samples)")
    print(f"  peak_rss_mb     {m['peak_rss_mb']:.1f} {units['peak_rss_mb']}"
          f"  ({'largest request process' if workload == 'cli-compute' else 'worker process'})")
    print(f"  failed_ratio    {s['failed_ratio']:g} ({s['failed']}/{s['attempted']})")
    for reason in s["failures"]:
        print(f"  FAILED {reason}")


def print_traced(t: dict) -> None:
    units = {name: unit for name, unit, _ in metrics.PER_LAYER}
    for name, value in t["per_layer"].items():
        print(f"  {name:<44} {value:.6g} {units[name]}")
    for w, rows in t["shares"].items():
        top = ", ".join(f"{name} {share:.0%}" for name, share in rows[:4])
        print(f"  self-time share, {w}: {top}")
    for w, r in t["results"].items():
        for reason in r["failures"]:
            print(f"  FAILED {w} {reason}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all",) + metrics.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=6.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "ntangle" / "__init__.py").is_file():
        print(f"error: no ntangle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated driver unwinds, so run_child kills the running worker's group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env()
    # byte-compile once so that no set-up pays for it
    build = run_child([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                      env, deadline)
    if build.returncode != 0:
        print(f"error: byte-compiling failed:\n{build.stdout}{build.stderr}", file=sys.stderr)
        return 2

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    selected = metrics.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        driver = Driver(args, tmp, deadline)
        if args.trace:
            t = driver.traced(args.workload)
            sizes = {w: r["largest_array_bytes"] for w, r in t["results"].items()}
            print(f"traced run, overhead ratio from {args.workload}")
            print_traced(t)
            samples = [s for r in t["results"].values() for s in r["samples"]]
            attempted, failed = len(samples), sum(1 for s in samples if not s["ok"])
            values = t["per_layer"]
            units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        else:
            summaries = {w: driver.end_to_end(w) for w in selected}
            sizes = {w: s["largest_array_bytes"] for w, s in summaries.items()}
            bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
            why = {w["name"]: w["why"] for w in bench["workloads"]}
            for w, s in summaries.items():
                print_end_to_end(w, s, why[w])
            attempted = sum(s["attempted"] for s in summaries.values())
            failed = sum(s["failed"] for s in summaries.values())
            units = {name: unit for name, unit, _ in metrics.END_TO_END}
            if len(selected) == 1:
                values = summaries[selected[0]]["metrics"]
            else:
                units = {f"{w}.{k}": u for w in selected for k, u in units.items()}
                values = {f"{w}.{k}": v for w, s in summaries.items()
                          for k, v in s["metrics"].items()}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass

    print("env " + json.dumps(environment(args.seed, sizes), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
