"""Timing and operation-count records for the measures' kernels and the qsv reader and writer.

Wall times are environment noise; operation counts are exact. Each row makes one untimed
call, then keeps the median, min and quartiles of its timed ones. Each measure row
(quadratic, odd, r; residual at every qubit 1..n) times the kernel of its row of
``measures.MEASURES`` at the sizes it takes and counts its ``products``; the quartic row
times wong's oracle, ``measures._QUARTIC``. The read and write rows time ``read_qsv`` and ``write_qsv`` of a
seeded state in a temporary directory, written before the read is timed, and count its 2**n
amplitudes. The batch rows time the kernels as the suites call them, on a seeded batch of
2**(22-n) states at every size up to 22: ``batch:tau`` (tau_even or tau_odd by parity), and
``batch:r`` at odd n; each counts its single-state products once per state. The text output
names the worker count of the kernels, the reader and the writer; the JSON output carries
the environment the rows were timed in. Nothing here asserts absolute speed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import qsv, state
from .errors import DomainError, UsageError
from .measures import _QUARTIC, MEASURES, _check_wong_cap, _r_tangle, _tau_any, _tau_kind

__all__ = ["BenchRecord", "op_count", "run_bench", "records_to_csv",
           "records_to_json", "CSV_HEADER"]

CSV_HEADER = "n,measure,median_ns,min_ns,op_count,q1_ns,q3_ns"
# thread counts a BLAS library reads at start; the kernels make no BLAS call,
# but other numpy calls in the process (random states) do
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class BenchRecord:
    n: int
    measure: str  # quadratic | quartic | r | odd | residual:<i> | read | write | batch:tau | batch:r
    median_ns: int
    min_ns: int
    op_count: int
    q1_ns: int  # the first and third quartiles of the timed calls
    q3_ns: int


# each label's row of MEASURES, the quartic oracle's in wong's place, and its sizes (None: every n)
_TIMED = {row.bench: row for row in {**MEASURES, "wong_tangle": _QUARTIC}.values() if row.bench}
_PARITY = {k: row.sizes for k, row in _TIMED.items()} | dict.fromkeys(("read", "write", "batch"))
BATCH_BITS = 22  # a batch row's states hold 2**22 amplitudes (64 MiB) in all


def _rows(measure: str, psi: state.StateVector, tmp: str, seed: int) -> list:
    """(label, timed call) of each row a measure times on psi, or on a batch drawn from seed."""
    n = psi.n
    if measure == "batch":
        amps = state.random_state_batch(n, 1 << (BATCH_BITS - n), seed)
        rows = [("batch:tau", lambda: _tau_any(amps, n))]
        return rows + [("batch:r", lambda: _r_tangle(amps, n))] if n % 2 else rows
    if measure == "read":
        path = os.path.join(tmp, f"state{n}.qsv")
        qsv.write_qsv(psi, path)
        return [("read", lambda: qsv.read_qsv(path))]
    if measure == "write":
        path = os.path.join(tmp, f"state{n}.qsv")
        return [("write", lambda: qsv.write_qsv(psi, path))]
    kernel = _TIMED[measure].kernel
    if measure == "residual":
        return [(f"residual:{i}", lambda i=i: kernel(psi.amps, n, i)) for i in range(1, n + 1)]
    return [(measure, lambda: kernel(psi.amps, n))]


def _takes(measure: str, n: int) -> bool:
    return _PARITY[measure] in (None, "odd n" if n % 2 else "even n")


def op_count(label: str, n: int) -> int:
    """Exact product (or amplitude) count of a row label run_bench writes, at n qubits."""
    kind, _, qubit = label.partition(":")
    if label in ("read", "write"):
        return 1 << n
    if label in ("batch:tau", "batch:r"):
        kind = "r_tangle" if qubit == "r" else _tau_kind(n)
        return MEASURES[kind].products(n) << (BATCH_BITS - n)
    residual = kind == "residual" and qubit.isascii() and qubit.isdigit()
    if residual or label in _TIMED.keys() - {"residual"}:
        return _TIMED[kind].products(n)
    raise DomainError(f"unknown bench measure {label!r}")


def _time_call(fn, repetitions: int) -> tuple[int, int, int, int]:
    """(median, min, first quartile, third quartile) in ns of fn's timed calls, each one of the times."""
    fn()  # untimed: the first call of a row pays for its caches and its pool's threads
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
    samples.sort()
    return samples[repetitions // 2], samples[0], samples[repetitions // 4], samples[3 * repetitions // 4]


def run_bench(ns, measures=("quadratic",), repetitions: int = 5, seed: int = 7) -> list:
    """Time each requested measure on seeded random states of the sizes of its parity.

    The whole request is checked before the first state is drawn: a size,
    measure or repetition count it cannot time raises UsageError, a size past
    the qubit capacity CapacityError, and a quartic size past its cap or a
    measure with no size of its parity in the range DomainError.
    """
    ns = list(ns)
    if not ns:
        raise UsageError("bench needs at least one size")
    if repetitions < 1:
        raise UsageError(f"bench repetitions must be at least 1, got {repetitions}")
    for n in ns:
        if n < 2:
            raise UsageError(f"bench sizes must be >= 2, got n={n}")
        state._check_capacity(f"bench size n={n}", n)
        if "quartic" in measures and _takes("quartic", n):
            _check_wong_cap(n)
        if "batch" in measures and n > BATCH_BITS:
            raise UsageError(f"batch bench at n={n} exceeds the batch of 2**{BATCH_BITS} amplitudes")
    for measure in measures:
        if measure not in _PARITY:
            raise UsageError(f"unknown bench measure {measure!r}")
        if not any(_takes(measure, n) for n in ns):
            parity = _PARITY[measure].removesuffix(" n")
            raise DomainError(f"bench measure {measure!r} needs an {parity} size in the range")
    records = []
    with tempfile.TemporaryDirectory(prefix="ntangle-bench-") as tmp:
        for n in ns:
            todo = [m for m in measures if _takes(m, n)]
            if not todo:
                continue
            psi = state.random_state(n, seed + n)
            for measure in todo:
                for label, call in _rows(measure, psi, tmp, seed + n):
                    median, low, q1, q3 = _time_call(call, repetitions)
                    records.append(BenchRecord(n, label, median, low, op_count(label, n), q1, q3))
    return records


def records_to_csv(records) -> str:
    rows = [",".join(str(value) for value in dataclasses.astuple(r)) for r in records]
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def cpu_model():
    """The CPU's model name: from /proc/cpuinfo where it has one, else from platform; or None."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    return value.strip()
    except OSError:  # no /proc here
        pass
    return platform.processor() or None


def records_to_json(records) -> str:
    """Schema 1: an ``env`` block and one row per record, as one JSON object."""
    env = {"numpy": np.__version__, "workers": state._WORKERS, "cpu_count": os.cpu_count(),
           "cpu_model": cpu_model(),
           "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}
    rows = [dataclasses.asdict(r) for r in records]
    return json.dumps({"schema": 1, "env": env, "rows": rows}, sort_keys=True) + "\n"


def records_to_text(records) -> str:
    lines = [f"{'n':>4} {'measure':<12} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'op_count':>16}"]
    for r in records:
        times = (f"{ns / 1e6:>10.3f}ms" for ns in (r.median_ns, r.q1_ns, r.q3_ns, r.min_ns))
        lines.append(f"{r.n:>4} {r.measure:<12} {' '.join(times)} {r.op_count:>16}")
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.n, {})[r.measure] = r.op_count
    for n, kinds in sorted(by_kind.items()):
        if {"quadratic", "quartic"} <= kinds.keys():
            lines.append(f"op-count ratio at n={n}: quartic/quadratic ="
                         f" {kinds['quartic'] // kinds['quadratic']}")
    lines.append(f"workers: {state._WORKERS} (one per CPU in the affinity mask: kernels, qsv reader"
                 f" and writer)")
    return "\n".join(lines) + "\n"
