"""The four benchmark workloads: seeded plans, requests and output checks.

A plan is plain data drawn from the workload seed; ``prepare`` turns it into
inputs (files, states) and a fixed list of requests. Each request runs one
unit of user-visible work and returns a small output; its ``check`` compares
that output with a reference from another code path and returns ``None`` or
the reason it is wrong. Checks run after the timed passes, never inside them.

Spans wrap the benchmark's own calls into ntangle's public functions; with a
``NullTracer`` they record nothing.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

from ntangle import measures, state
from ntangle.suites import SuiteConfig, run_suite

import qsvio
from metrics import SUITES

# relative and absolute tolerance of a measure against its reference
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass
class Request:
    label: str
    run: Callable  # (tracer, request id) -> output
    check: Callable  # output -> None, or the reason it is wrong
    replay: Callable | None = None  # (tracer, request id): the CLI's stages in-process


class Workload:
    """Defaults: the warm-up pass runs every request once; no extra spans."""

    def warm_up(self, requests, tracer) -> None:
        for rid, req in enumerate(requests):
            req.run(tracer, rid)

    def trace_extras(self, requests, tracer) -> None:
        pass


def _rng(seed: int, workload: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload])


def _close(got: float, want: float) -> str | None:
    if abs(got - want) <= ABS_TOL + REL_TOL * abs(want):
        return None
    return f"value {got!r}, reference {want!r}"


def state_amps(n: int, seed: int) -> np.ndarray:
    """Seeded complex Gaussian amplitudes; ntangle normalizes them on read."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)


# ---------------------------------------------------------------------------
# references, computed from a different code path than the one timed
# ---------------------------------------------------------------------------

def reference_tau(psi) -> float:
    """tau from the complementary-pair forms (and the half forms for odd n)."""
    if psi.n % 2 == 0:
        return 2.0 * abs(measures.even_invariant_pairs(psi).value)
    b = measures.odd_invariant_pairs(psi).value
    lo = measures.low_half_invariant(psi).value
    hi = measures.high_half_invariant(psi).value
    return 4.0 * abs(b * b - 4.0 * lo * hi)


def reference_residual(psi, i: int) -> float:
    """tau^(i) as tau_odd of the state with qubits 1 and i swapped."""
    swapped = state.permute(psi, state.QubitPermutation.transposition(psi.n, 1, i))
    return measures.tau_odd(swapped).value


def reference_r(psi) -> float:
    return sum(reference_residual(psi, i) for i in range(1, psi.n + 1)) / psi.n


# ---------------------------------------------------------------------------
# product expressions whose measures the product-state theorems fix exactly
# ---------------------------------------------------------------------------

def _expression(rng, sizes: tuple) -> str:
    """Factors of the given sizes on seeded labels; two-qubit kinds are seeded too."""
    labels = (rng.permutation(sum(sizes)) + 1).tolist()
    factors = []
    for size in sizes:
        own, labels = labels[:size], labels[size:]
        kind = str(rng.choice(["bell", "ghz:2", "w:2"])) if size == 2 else f"ghz:{size}"
        factors.append(f"{kind}@{','.join(map(str, own))}")
    return " x ".join(factors)


def even_product(rng, sizes: tuple) -> tuple:
    """(expression, tau): even-size factors of measure 1 multiply to tau = 1."""
    if any(size % 2 for size in sizes):
        raise ValueError(f"factor sizes {sizes} are not all even")
    return _expression(rng, sizes), 1.0


def odd_product(rng, sizes: tuple) -> tuple:
    """(expression, R): one odd GHZ factor (the first) among even GHZ factors.

    Each residual is 1 on the k qubits of the odd factor and 0 elsewhere, so
    R = k / n under any relabeling.
    """
    if sizes[0] % 2 == 0 or any(size % 2 for size in sizes[1:]):
        raise ValueError(f"factor sizes {sizes} need exactly one odd size, first")
    return _expression(rng, sizes), sizes[0] / sum(sizes)


def unitaries(seed: int, count: int) -> np.ndarray:
    """Seeded Haar-like 2x2 unitaries; they leave every measure unchanged."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


# ---------------------------------------------------------------------------
# cli-compute: fresh `python -m ntangle compute` processes
# ---------------------------------------------------------------------------

class CliCompute(Workload):
    """Each request starts a new process, so each pays import, parse and cold caches."""

    index = 1
    file_sizes = (20, 19)
    # fixed factor sizes, seeded labels: every seed does the same work
    even_factors = (8, 6, 4, 2, 2)
    odd_factors = (5, 8, 4, 2)

    def plan(self, seed: int) -> dict:
        rng = _rng(seed, self.index)
        files = [{"n": n, "seed": int(rng.integers(2**62))} for n in self.file_sizes]
        even_text, even_value = even_product(rng, self.even_factors)
        odd_text, odd_value = odd_product(rng, self.odd_factors)
        return {
            "files": files,
            "residual": int(rng.integers(2, self.file_sizes[1] + 1)),
            "exprs": [
                {"text": even_text, "measure": "tau", "value": even_value},
                {"text": odd_text, "measure": "r", "value": odd_value},
            ],
        }

    def largest_array_bytes(self, plan: dict) -> int:
        return 16 << max(self.file_sizes + (sum(self.even_factors), sum(self.odd_factors)))

    def prepare(self, plan: dict, tmp: Path, tracer) -> list:
        paths = []
        for f in plan["files"]:
            path = tmp / f"state{f['n']}.qsv"
            qsvio.write_qsv(path, state_amps(f["n"], f["seed"]))
            paths.append(path)
        self.paths = paths
        k = plan["residual"]
        (big, big_path), (small, small_path) = zip(map(_normalized, plan["files"]), paths)
        reqs = [
            self._file_request(big_path, "tau", lambda: reference_tau(big())),
            self._file_request(small_path, "r", lambda: reference_r(small())),
            self._file_request(small_path, f"residual:{k}",
                               lambda: reference_residual(small(), k)),
        ]
        for e in plan["exprs"]:
            reqs.append(self._expr_request(e["text"], e["measure"], e["value"]))
        return reqs

    def warm_up(self, requests, tracer) -> None:
        # Every request is a new process, so nothing in-process carries over.
        # Warm what does: the interpreter's and ntangle's files, and the inputs.
        subprocess.run([sys.executable, "-c", "import ntangle"], check=True)
        for path in self.paths:
            path.read_bytes()

    def trace_extras(self, requests, tracer) -> None:
        # the same stages in-process, for cli.overhead_s and the stage split
        for rid, req in enumerate(requests):
            with tracer.span("cli.replay", rid):
                req.replay(tracer, rid)
        tracer.phase = "extra"
        for _ in range(3):
            with tracer.span("cli.startup"):
                subprocess.run([sys.executable, "-c", "import ntangle"], check=True)

    @staticmethod
    def _file_request(path: Path, measure: str, reference: Callable) -> Request:
        def replay(tracer, rid):
            with tracer.span("state.read_qsv", rid) as a:
                psi = state.read_qsv(path)
                a["n"] = psi.n
            with tracer.span("state.normalized", rid):
                psi = psi.normalized()
            _replay_measure(tracer, rid, psi, measure)

        return Request(f"file {path.name} {measure}",
                       _cli_run(["--file", str(path), "--measure", measure]),
                       _cli_check(cache(reference)), replay)

    @staticmethod
    def _expr_request(text: str, measure: str, value: float) -> Request:
        def replay(tracer, rid):
            with tracer.span("state.parse_product_expression", rid):
                expr = state.parse_product_expression(text)
            with tracer.span("state.build_product", rid) as a:
                psi = state.build_product(expr)
                a["n"] = psi.n
            with tracer.span("state.normalized", rid):
                psi = psi.normalized()
            _replay_measure(tracer, rid, psi, measure)

        return Request(f"expr n={_qubits(text)} {measure}",
                       _cli_run(["--expr", text, "--measure", measure]),
                       _cli_check(lambda: value), replay)


def _normalized(spec: dict) -> Callable:
    return cache(lambda: state.StateVector(
        spec["n"], state_amps(spec["n"], spec["seed"])).normalized())


def _qubits(text: str) -> int:
    return sum(len(f.split("@")[1].split(",")) for f in text.split(" x "))


def _cli_run(args: list) -> Callable:
    cmd = [sys.executable, "-m", "ntangle", "compute", *args, "--format", "json"]

    def run(tracer, rid):
        with tracer.span("cli.compute", rid):
            proc = subprocess.run(cmd, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr[-500:]

    return run


def _cli_check(reference: Callable) -> Callable:
    def check(output):
        code, out, err = output
        if code != 0:
            return f"exit {code}: {err.strip()}"
        try:
            value = json.loads(out)["value"]
        except (ValueError, KeyError) as exc:
            return f"unreadable output {out[:200]!r}: {exc}"
        return _close(value, reference())

    return check


def _replay_measure(tracer, rid, psi, measure: str) -> None:
    if measure == "tau":
        with tracer.span(f"measures.tau_{'even' if psi.n % 2 == 0 else 'odd'}", rid) as a:
            measures.tau(psi)
            a["n"] = psi.n
    elif measure == "r":
        with tracer.span("measures.r_tangle", rid):
            measures.r_tangle(psi)
    else:
        with tracer.span("measures.tau_residual", rid):
            measures.tau_residual(psi, int(measure.split(":")[1]))


# ---------------------------------------------------------------------------
# kernels: in-process measures on states already in memory
# ---------------------------------------------------------------------------

class Kernels(Workload):
    """Warm library calls with no I/O: the measures layer does nearly all the work."""

    index = 2
    tau_sizes = (24, 23)
    r_size = 21

    def plan(self, seed: int) -> dict:
        rng = _rng(seed, self.index)
        sizes = self.tau_sizes + (self.r_size,)
        return {
            "states": [{"n": n, "seed": int(rng.integers(2**62))} for n in sizes],
            "residual": int(rng.integers(2, self.r_size + 1)),
        }

    def largest_array_bytes(self, plan: dict) -> int:
        return 16 << max(self.tau_sizes)

    def prepare(self, plan: dict, tmp: Path, tracer) -> list:
        states = []
        for s in plan["states"]:
            with tracer.span("state.random_state") as a:
                states.append(state.random_state(s["n"], s["seed"]))
                a["n"] = s["n"]
        self.states = states
        *taus, psi_r = states
        k = plan["residual"]
        reqs = [self._tau_request(psi) for psi in taus]
        reqs.append(Request(f"r_tangle n={psi_r.n}", self._r_run(psi_r),
                            _value_check(lambda: reference_r(psi_r))))

        def residual(tracer, rid):
            with tracer.span("measures.tau_residual", rid):
                return measures.tau_residual(psi_r, k).value

        reqs.append(Request(f"tau_residual n={psi_r.n} i={k}", residual,
                            _value_check(lambda: reference_residual(psi_r, k))))
        return reqs

    @staticmethod
    def _tau_request(psi) -> Request:
        name = f"measures.tau_{'even' if psi.n % 2 == 0 else 'odd'}"

        def run(tracer, rid):
            with tracer.span(name, rid) as a:
                a["n"] = psi.n
                return measures.tau(psi).value

        return Request(f"tau n={psi.n}", run, _value_check(lambda: reference_tau(psi)))

    @staticmethod
    def _r_run(psi) -> Callable:
        def run(tracer, rid):
            with tracer.span("measures.r_tangle", rid) as a:
                if not tracer.enabled:
                    return measures.r_tangle(psi).value
                # memory still traced after the call returns is cache
                tracemalloc.start()
                try:
                    value = measures.r_tangle(psi).value
                    held, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                a["peak_bytes"], a["retained_bytes"] = peak, held
                return value

        return run

    def trace_extras(self, requests, tracer) -> None:
        # bandwidth reference for computed_gbps: copy the largest state
        tracer.phase = "extra"
        src = self.states[0].amps
        dst = np.empty_like(src)
        for _ in range(5):
            with tracer.span("host.copy") as a:
                np.copyto(dst, src)
                a["bytes"] = src.nbytes


def _value_check(reference: Callable) -> Callable:
    reference = cache(reference)
    return lambda value: _close(value, reference())


# ---------------------------------------------------------------------------
# export: parse, build, transform and write states
# ---------------------------------------------------------------------------

class Export(Workload):
    """The state layer the other way round from cli-compute: build and write."""

    index = 3
    # fixed factor sizes (n=19 and n=18), seeded labels and operators
    factors = ((5, 8, 4, 2), (8, 6, 4))

    def plan(self, seed: int) -> dict:
        rng = _rng(seed, self.index)
        out = []
        for sizes in self.factors:
            text, value = (odd_product if sizes[0] % 2 else even_product)(rng, sizes)
            out.append({"text": text, "value": value, "ops_seed": int(rng.integers(2**62))})
        return {"exports": out}

    def largest_array_bytes(self, plan: dict) -> int:
        return 16 << max(map(sum, self.factors))

    def prepare(self, plan: dict, tmp: Path, tracer) -> list:
        self.tmp = tmp
        self.written = itertools.count()
        return [self._request(i, e) for i, e in enumerate(plan["exports"])]

    def _request(self, index: int, spec: dict) -> Request:
        text = spec["text"]
        n = _qubits(text)
        ops = unitaries(spec["ops_seed"], n)

        def run(tracer, rid):
            path = self.tmp / f"export{index}-{next(self.written)}.qsv"
            with tracer.span("state.parse_product_expression", rid):
                expr = state.parse_product_expression(text)
            with tracer.span("state.build_product", rid) as a:
                psi = state.build_product(expr)
                a["n"] = psi.n
            with tracer.span("state.apply_local", rid):
                psi = state.apply_local(psi, ops)
            with tracer.span("state.write_qsv", rid) as a:
                state.write_qsv(psi, path)
                a["n"] = psi.n
            return path

        @cache
        def expected():
            return state.apply_local(state.build_product(state.parse_product_expression(text)), ops)

        def check(path):
            try:
                amps = qsvio.read_qsv(path)
            except (OSError, ValueError) as exc:
                return f"unreadable export {path.name}: {exc}"
            finally:
                path.unlink(missing_ok=True)
            want = expected()
            if amps.shape != want.amps.shape or not np.array_equal(
                    amps.view(np.uint64), want.amps.view(np.uint64)):
                return f"export {path.name} differs from the state in memory"
            # unitary local operators keep the product-theorem value
            measure = reference_r if n % 2 else reference_tau
            return _close(measure(state.StateVector(n, amps)), spec["value"])

        return Request(f"export n={n}", run, check)


# ---------------------------------------------------------------------------
# verify: the ten suites at their defaults
# ---------------------------------------------------------------------------

class Verify(Workload):
    """Many small calls through suites, locc and bitops; one suite per request."""

    index = 4

    def plan(self, seed: int) -> dict:
        return {"seed": seed, "suites": list(SUITES)}

    def largest_array_bytes(self, plan: dict) -> int:
        # the largest default batches: range at n=9 x 10000, closed-form at n=12 x 1000
        return max(16 * 10_000 << 9, 16 * 1000 << 12)

    def prepare(self, plan: dict, tmp: Path, tracer) -> list:
        self.seed = plan["seed"]
        return [self._request(name, plan["seed"]) for name in plan["suites"]]

    def warm_up(self, requests, tracer) -> None:
        # a one-trial pass up to n=6 loads every code path and small cache;
        # the full pass would double the run of a workload users run cold
        for req in requests:
            run_suite(SuiteConfig(suite=req.label, seed=self.seed, trials=1, n_max=6))

    @staticmethod
    def _request(name: str, seed: int) -> Request:
        def run(tracer, rid):
            with tracer.span(f"suites.{name}", rid) as a:
                report = run_suite(SuiteConfig(suite=name, seed=seed))
                a["checks"] = len(report.checks)
            return [c.name for c in report.checks if not c.passed], len(report.checks)

        def check(output):
            failing, count = output
            if count == 0:
                return "suite ran no checks"
            return f"failing checks: {', '.join(failing)}" if failing else None

        return Request(name, run, check)


WORKLOADS = {
    "cli-compute": CliCompute,
    "kernels": Kernels,
    "export": Export,
    "verify": Verify,
}
