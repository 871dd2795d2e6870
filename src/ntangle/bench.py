"""Timing and operation-count records for the tangles and the quartic oracle.

Wall times are environment noise; the operation counts are exact numbers of
amplitude products: the quadratic even measure needs 2**(n-1), the quartic
contraction 3 * 2**(4n), and R at odd n (n + 2) * 2**(n-1): its cross pass
sums the 2**(n-1) products a_j a_~j once by rows and once by columns, and
each of the n splits adds two half-length self forms of 2**(n-2) products.
The odd measure tau_odd and each residual (timed at qubits 1 and n-1, one row
each) need 2**n: the cross form's 2**(n-1) and two self forms of 2**(n-2).
The read row times ``read_qsv`` of a seeded state written to a temporary file
before the timing starts; its count is the 2**n amplitudes parsed. The write
row times ``write_qsv`` of the same state to a file in that temporary
directory; its count is the 2**n amplitudes formatted. The batch rows time
the kernels as the suites call them, on a seeded (2**(22-n), 2**n) batch of
2**22 amplitudes: ``batch:tau`` (tau_even or tau_odd by parity) at every
size, ``batch:r`` at the odd ones; each counts its single-state products once
per state. The quadratic and quartic rows take the even sizes of a range, the
odd, R and residual rows the odd ones, the read and write rows every size,
and the batch rows every size up to 22. The text output names the
worker count of the kernels, the reader and the writer; the JSON output
carries the environment the rows were timed in. Nothing here asserts
absolute speed.
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

from . import state
from .errors import DomainError
from .measures import (DEFAULT_WONG_CAP, _r_tangle, _residual, _tau_any, _tau_even, _tau_odd,
                       _wong_tangle)

__all__ = ["BenchRecord", "op_count", "check_sizes", "run_bench", "records_to_csv",
           "records_to_json", "CSV_HEADER"]

CSV_HEADER = "n,measure,median_ns,min_ns,op_count"
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


_KERNELS = {"quadratic": _tau_even, "quartic": _wong_tangle, "r": _r_tangle, "odd": _tau_odd,
            "residual": _residual}
# the parity of the sizes each measure takes; None takes every size
_PARITY = {"quadratic": 0, "quartic": 0, "r": 1, "odd": 1, "residual": 1, "read": None,
           "write": None, "batch": None}
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
        state.write_qsv(psi, path)
        return [("read", lambda: state.read_qsv(path))]
    if measure == "write":
        path = os.path.join(tmp, f"state{n}.qsv")
        return [("write", lambda: state.write_qsv(psi, path))]
    kernel = _KERNELS[measure]
    if measure == "residual":
        return [(f"residual:{i}", lambda i=i: kernel(psi.amps, n, i)) for i in (1, n - 1)]
    return [(measure, lambda: kernel(psi.amps, n))]


def op_count(measure: str, n: int) -> int:
    """Exact product (or amplitude) count of a measure or a row label at n qubits."""
    if measure.startswith("batch"):
        kernel = "r" if measure == "batch:r" else "odd" if n % 2 else "quadratic"
        return op_count(kernel, n) << (BATCH_BITS - n)
    measure = measure.split(":")[0]
    if measure == "quadratic":
        return 1 << (n - 1)
    if measure == "quartic":
        return 3 * (1 << (4 * n))
    if measure == "r":
        return (n + 2) << (n - 1)
    if measure in ("odd", "residual", "read", "write"):
        return 1 << n
    raise DomainError(f"unknown bench measure {measure!r}")


def _time_call(fn, repetitions: int) -> tuple[int, int]:
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
    samples.sort()
    return samples[len(samples) // 2], samples[0]


def check_sizes(ns, measures) -> None:
    """Raise DomainError unless ns is a non-empty list of sizes every measure can time."""
    if not ns:
        raise DomainError("bench needs at least one size")
    for n in ns:
        if n < 2:
            raise DomainError(f"bench sizes must be >= 2, got n={n}")
        if n > state.DEFAULT_MAX_QUBITS:
            raise DomainError(f"bench size n={n} exceeds capacity {state.DEFAULT_MAX_QUBITS}")
        if "quartic" in measures and n % 2 == 0 and n > DEFAULT_WONG_CAP:
            raise DomainError(f"quartic bench at n={n} exceeds the oracle cap of {DEFAULT_WONG_CAP}")
        if "batch" in measures and n > BATCH_BITS:
            raise DomainError(f"batch bench at n={n} exceeds the batch of 2**{BATCH_BITS} amplitudes")


def run_bench(ns, measures=("quadratic",), repetitions: int = 5, seed: int = 7) -> list:
    """Time each requested measure on seeded random states of the sizes of its parity.

    Every size is checked, by check_sizes, before the first kernel is timed.
    """
    ns = list(ns)
    check_sizes(ns, measures)
    for measure in measures:
        if measure not in _PARITY:
            raise DomainError(f"unknown bench measure {measure!r}")
        if _PARITY[measure] is not None and not any(n % 2 == _PARITY[measure] for n in ns):
            parity = "odd" if _PARITY[measure] else "even"
            raise DomainError(f"bench measure {measure!r} needs an {parity} size in the range")
    records = []
    with tempfile.TemporaryDirectory(prefix="ntangle-bench-") as tmp:
        for n in ns:
            todo = [m for m in measures if _PARITY[m] in (None, n % 2)]
            if not todo:
                continue
            psi = state.random_state(n, seed + n)
            for measure in todo:
                for label, call in _rows(measure, psi, tmp, seed + n):
                    median_ns, min_ns = _time_call(call, repetitions)
                    records.append(BenchRecord(n=n, measure=label, median_ns=median_ns,
                                               min_ns=min_ns, op_count=op_count(label, n)))
    return records


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.n},{r.measure},{r.median_ns},{r.min_ns},{r.op_count}")
    return "\n".join(lines) + "\n"


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
    lines = [f"{'n':>4} {'measure':<12} {'median':>12} {'min':>12} {'op_count':>16}"]
    for r in records:
        lines.append(
            f"{r.n:>4} {r.measure:<12} {r.median_ns / 1e6:>10.3f}ms {r.min_ns / 1e6:>10.3f}ms"
            f" {r.op_count:>16}"
        )
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
