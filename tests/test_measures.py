import gc
import inspect
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np
import pytest

import ntangle
from ntangle import measures
from ntangle import state as state_module
from ntangle.errors import CapacityError, DomainError
from ntangle.measures import (
    _even_invariant,
    _halves,
    _high_half_invariant,
    _low_half_invariant,
    _odd_invariant,
    _pair,
    _r_tangle,
    _residual,
    _residuals,
    _self_pair,
    _tau_even,
    _tau_odd,
    concurrence,
    even_invariant,
    even_invariant_pairs,
    high_half_invariant,
    low_half_invariant,
    odd_invariant,
    odd_invariant_pairs,
    r_tangle,
    tau,
    tau_even,
    tau_odd,
    tau_residual,
    three_tangle,
    wong_tangle,
)
from ntangle.state import (
    ProductExpression,
    ProductFactor,
    QubitPermutation,
    StateVector,
    build_product,
    named_state,
    parse_product_expression,
    permute,
    random_state,
    tensor,
)

RT2 = 1.0 / math.sqrt(2.0)


def ghz(n):
    return named_state("ghz", n)


def bell():
    return named_state("bell", 2)


def rand(n, seed):
    return random_state(n, seed)


# --- even invariant ----------------------------------------------------------

def test_even_invariant_examples():
    assert abs(even_invariant(bell()).value - 0.5) < 1e-15
    assert abs(even_invariant(ghz(4)).value - 0.5) < 1e-15
    # every product in the weight-1 state pairs a nonzero amplitude with a
    # zero one, so the sum vanishes identically
    assert abs(even_invariant(named_state("w", 4)).value) < 1e-15


def test_even_invariant_pairs_examples():
    assert abs(even_invariant_pairs(bell()).value - 0.5) < 1e-15
    assert abs(even_invariant_pairs(ghz(6)).value - 0.5) < 1e-15
    for n in (2, 4, 6):
        for s in range(25):
            psi = rand(n, 1000 + s)
            assert abs(even_invariant(psi).value - even_invariant_pairs(psi).value) < 1e-12


def test_even_invariant_parity():
    with pytest.raises(DomainError):
        even_invariant(ghz(3))
    with pytest.raises(DomainError):
        even_invariant_pairs(ghz(5))


# --- odd invariants ----------------------------------------------------------

def test_odd_invariant_examples():
    assert abs(odd_invariant(ghz(3)).value - 0.5) < 1e-15
    assert abs(odd_invariant(ghz(5)).value - 0.5) < 1e-15
    assert abs(odd_invariant(named_state("w", 3)).value) < 1e-15


def test_odd_invariant_pairs_examples():
    assert abs(odd_invariant_pairs(ghz(3)).value - 0.5) < 1e-15
    assert abs(odd_invariant_pairs(named_state("basis", 3, extra=0)).value) < 1e-15
    for n in (3, 5, 7):
        for s in range(25):
            psi = rand(n, 2000 + s)
            assert abs(odd_invariant(psi).value - odd_invariant_pairs(psi).value) < 1e-12


def test_half_invariants():
    g = ghz(3)
    assert abs(low_half_invariant(g).value) < 1e-15
    assert abs(high_half_invariant(g).value) < 1e-15

    one_bell = tensor(named_state("basis", 1, extra=1), bell())
    assert abs(high_half_invariant(one_bell).value - 0.5) < 1e-15
    assert abs(low_half_invariant(one_bell).value) < 1e-15

    zero_bell = tensor(named_state("basis", 1, extra=0), bell())
    assert abs(low_half_invariant(zero_bell).value - 0.5) < 1e-15
    assert abs(high_half_invariant(zero_bell).value) < 1e-15

    with pytest.raises(DomainError):
        low_half_invariant(ghz(4))


# --- measures ---------------------------------------------------------------

def test_tau_even_product_examples():
    e1 = tensor(bell(), bell())
    assert abs(tau_even(e1).value - 1.0) < 1e-9
    e2 = tensor(ghz(3), ghz(3))
    assert abs(tau_even(e2).value) < 1e-9


def test_tau_odd_examples():
    assert abs(tau_odd(tensor(bell(), ghz(3))).value) < 1e-9
    assert abs(tau_odd(tensor(ghz(3), bell())).value - 1.0) < 1e-9
    assert abs(tau_odd(ghz(5)).value - 1.0) < 1e-9


def test_tau_dispatch():
    assert abs(tau(ghz(4)).value - 1.0) < 1e-9
    assert abs(tau(ghz(3)).value - 1.0) < 1e-9
    for n in range(2, 7):
        assert tau(named_state("basis", n, extra=0)).value < 1e-15
    with pytest.raises(DomainError):
        tau(named_state("basis", 1, extra=0))


def test_tau_parity_errors():
    with pytest.raises(DomainError):
        tau_even(ghz(3))
    with pytest.raises(DomainError, match="at least 2 qubits"):
        tau_even(named_state("basis", 1, extra=0))
    with pytest.raises(DomainError):
        tau_odd(ghz(4))


def test_tau_residual_examples():
    psi = tensor(bell(), ghz(3))
    assert abs(tau_residual(psi, 5).value - 1.0) < 1e-9
    assert abs(tau_residual(psi, 1).value) < 1e-9
    # swapping qubits 1 and 5 by hand gives the same value
    swapped = permute(psi, QubitPermutation.transposition(5, 1, 5))
    assert abs(tau_residual(psi, 5).value - tau_odd(swapped).value) < 1e-15
    with pytest.raises(DomainError):
        tau_residual(ghz(4), 2)
    with pytest.raises(DomainError):
        tau_residual(ghz(5), 6)


def test_three_qubit_residuals_all_equal():
    for s in range(100):
        psi = rand(3, 3000 + s)
        vals = [tau_residual(psi, i).value for i in (1, 2, 3)]
        assert max(vals) - min(vals) < 1e-9


def test_r_tangle_examples():
    assert abs(r_tangle(ghz(3)).value - 1.0) < 1e-9

    rep = r_tangle(tensor(bell(), ghz(3)))
    assert abs(rep.value - 0.6) < 1e-9
    assert np.allclose(rep.residuals, (0.0, 0.0, 1.0, 1.0, 1.0), atol=1e-9)
    assert abs(rep.value - sum(rep.residuals) / 5) < 1e-15

    w3 = named_state("w", 3)
    assert r_tangle(w3).value < 1e-9
    assert three_tangle(w3).value < 1e-9  # independent confirmation

    with pytest.raises(DomainError):
        r_tangle(ghz(4))


def test_concurrence_examples():
    assert abs(concurrence(bell()).value - 1.0) < 1e-9
    assert concurrence(named_state("basis", 2, extra=0)).value < 1e-15
    flat = StateVector(2, np.full(4, 0.5))
    assert concurrence(flat).value < 1e-15
    for s in range(50):
        psi = rand(2, 4000 + s)
        assert abs(concurrence(psi).value - tau_even(psi).value) < 1e-15
    with pytest.raises(DomainError):
        concurrence(ghz(3))


def test_homogeneity():
    rng = np.random.default_rng(77)
    for s in range(25):
        c = complex(rng.standard_normal(), rng.standard_normal())
        psi4 = rand(4, 5000 + s)
        scaled4 = StateVector(4, c * psi4.amps)
        assert abs(tau_even(scaled4).value - abs(c) ** 2 * tau_even(psi4).value) < 1e-9
        psi5 = rand(5, 6000 + s)
        scaled5 = StateVector(5, c * psi5.amps)
        assert abs(tau_odd(scaled5).value - abs(c) ** 4 * tau_odd(psi5).value) < 1e-9


def test_report_carries_norm_of_unnormalized_input():
    doubled = StateVector(2, 2.0 * bell().amps)
    rep = tau_even(doubled)
    assert abs(rep.norm - 2.0) < 1e-12
    assert abs(rep.value - 4.0) < 1e-9  # raw homogeneous value, not clamped


# --- the pair-form kernel against the staggered oracles ---------------------

def _staggered_tau_odd(amps, n):
    b = _odd_invariant(amps, n)
    return 4.0 * np.abs(b * b - 4.0 * _low_half_invariant(amps, n) * _high_half_invariant(amps, n))


@pytest.mark.parametrize("n", range(2, 12))
def test_pair_kernel_matches_staggered_oracles_with_batch_axes(n):
    rng = np.random.default_rng(900 + n)
    amps = rng.standard_normal((3, 2, 1 << n)) + 1j * rng.standard_normal((3, 2, 1 << n))
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    rows = np.moveaxis(amps, -1, 0)  # the kernels' own layout: amplitudes first, batch trailing
    for i in range(1, n + 1):
        lo, hi = _halves(rows, n, i)
        assert np.shares_memory(lo, amps) and np.shares_memory(hi, amps)  # strided, no copy
    if n % 2 == 0:
        got = _tau_even(amps, n)
        assert got.shape == (3, 2)
        np.testing.assert_allclose(got, 2.0 * np.abs(_even_invariant(amps, n)), rtol=0, atol=1e-12)
        return
    tau = _tau_odd(amps, n)
    assert tau.shape == (3, 2)
    np.testing.assert_allclose(tau, _staggered_tau_odd(amps, n), rtol=0, atol=1e-12)
    residuals = _residuals(amps, n)
    assert residuals.shape == (n, 3, 2)
    for i in range(1, n + 1):
        one = _residual(amps, n, i)
        np.testing.assert_allclose(residuals[i - 1], one, rtol=0, atol=1e-12)
        swap = QubitPermutation.transposition(n, 1, i)
        for idx in np.ndindex(3, 2):
            swapped = permute(StateVector(n, amps[idx]), swap).amps
            staggered = float(_staggered_tau_odd(swapped, n))
            assert abs(one[idx] - float(_tau_odd(swapped, n))) < 1e-12
            assert abs(one[idx] - staggered) < 1e-12
            assert abs(residuals[i - 1][idx] - staggered) < 1e-12
    np.testing.assert_allclose(_r_tangle(amps, n), residuals.mean(axis=0), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", (3, 5, 7, 9))
def test_self_pair_is_the_full_pair_form(n):
    rng = np.random.default_rng(950 + n)
    amps = rng.standard_normal((1 << n, 4)) + 1j * rng.standard_normal((1 << n, 4))
    for i in range(1, n + 1):
        for x in _halves(amps, n, i):
            np.testing.assert_allclose(_self_pair(x), _pair(x, x), rtol=0, atol=1e-12)


def test_tau_even_kernel_is_the_concurrence_at_n2():
    rng = np.random.default_rng(31)
    amps = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    inline = 2.0 * np.abs(amps[:, 0] * amps[:, 3] - amps[:, 1] * amps[:, 2])
    np.testing.assert_allclose(_tau_even(amps, 2), inline, rtol=1e-15, atol=0)
    assert _tau_even(amps[:0], 2).shape == (0,)  # an empty batch keeps its shape
    assert _residuals(np.zeros((2, 0, 8), dtype=complex), 3).shape == (3, 2, 0)


def test_residuals_keep_no_permutation_cache():
    # the qsv powers of ten and the writer's format tables are the caches state may keep
    caches = [name for name, obj in vars(state_module).items() if hasattr(obj, "cache_info")]
    assert caches == ["_powers_of_ten", "_format_tables"]
    psi = rand(9, 4242)
    gc.collect()
    tracemalloc.start()
    try:
        r_tangle(psi)
        for i in range(1, 10):
            tau_residual(psi, i)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 4096  # less than one 512-entry int64 gather map at n=9


@pytest.mark.parametrize("n", (19, 21))
def test_r_tangle_memory_stays_far_below_the_state(n):
    # two chunk buffers a worker, and the chunks' partial sums: 2**(n-15) rows of a few hundred
    psi = rand(n, 4343)
    r_tangle(psi)  # fill the sign-table caches
    gc.collect()
    tracemalloc.start()
    try:
        r_tangle(psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (2 * state_module._WORKERS + 1) * 16 * measures._R_CHUNK


# --- fan-out: split kernels against the serial ones --------------------------

@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("n", range(9, 14))
def test_split_kernels_are_bit_identical_to_serial(monkeypatch, workers, n):
    assert 1 << (n - 1) < measures._SPLIT_MIN  # so the first pass is the serial path
    rng = np.random.default_rng(970 + n)
    amps = rng.standard_normal((3, 2, 1 << n)) + 1j * rng.standard_normal((3, 2, 1 << n))

    one = rand(15, 975).amps  # R's tasks fan out at any size, below _SPLIT_MIN too
    assert 1 << 14 < measures._SPLIT_MIN

    def values():
        out = []
        for i in range(1, n + 1):
            lo, hi = _halves(np.moveaxis(amps, -1, 0), n, i)
            out += [_pair(lo, hi), _pair(hi, lo), _pair(lo, lo)]
        out.append(_residuals(one, 15))
        if n % 2 == 0:
            return out + [_tau_even(amps, n)]
        assert amps[0].shape[0] <= measures._chunk_rows(n)  # a batch of one chunk
        return out + [_tau_odd(amps, n), _residuals(amps, n), _residuals(amps[0], n)]

    with monkeypatch.context() as serial_pass:
        serial_pass.setattr(state_module, "_WORKERS", 1)  # no pool at all
        serial = values()
    monkeypatch.setattr(state_module, "_WORKERS", workers)
    monkeypatch.setattr(measures, "_SPLIT_MIN", 1)  # every block splits
    monkeypatch.setattr(state_module, "_pool", None)
    try:
        split = values()
        assert (state_module._pool is not None) == (workers > 1)  # the slices did run on the pool
    finally:
        if state_module._pool is not None:
            state_module._pool.shutdown()
    for want, got in zip(serial, split, strict=True):
        assert got.shape == want.shape
        assert (got == want).all()  # the same reductions: equal, not close


def test_fan_out_from_many_threads_gives_the_serial_values(monkeypatch):
    # states above the split threshold, called from more threads than CPUs at once
    monkeypatch.setattr(measures, "_SPLIT_MIN", 1 << 12)
    even, odd = rand(16, 8181), rand(15, 8282)
    assert 1 << (odd.n - 3) >= measures._SPLIT_MIN  # R's self forms split too

    def call():
        # a batch drawn in blocks and measured in chunks, both on the pool
        batch = state_module.random_state_batch(11, 300, 8383)
        return (tau(even).value, tau(odd).value, r_tangle(odd).residuals, batch.tobytes(),
                _r_tangle(batch, 11).tobytes())

    with monkeypatch.context() as serial:
        serial.setattr(state_module, "_WORKERS", 1)
        want = call()

    monkeypatch.setattr(state_module, "_WORKERS", max(2, state_module._WORKERS))  # a pool, even on one CPU
    measures._block_signs.cache_clear()  # the threads race to fill the sign tables
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    users = ThreadPoolExecutor(4)
    try:
        futures = [users.submit(call) for _ in range(16)]
        _, not_done = wait(futures, timeout=60)
        assert not not_done  # a task waiting on its own pool would hang here
        assert [f.result() for f in futures] == [want] * 16
    finally:
        sys.setswitchinterval(interval)
        users.shutdown(wait=False, cancel_futures=True)


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
def test_forked_child_fans_out_on_a_pool_of_its_own(monkeypatch):
    monkeypatch.setattr(state_module, "_WORKERS", 2)
    monkeypatch.setattr(state_module, "_pool", None)
    psi = rand(20, 20)
    assert 1 << (psi.n - 1) >= measures._SPLIT_MIN  # tau's half splits over the pool
    try:
        tau(psi)
        assert state_module._pool is not None
        pid = os.fork()
        if pid == 0:  # the parent's pool threads are not in this process
            code = 1
            try:
                code = 0 if state_module._fan_out(abs, [-1, -2]) == [1, 2] else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while not (reaped := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
            time.sleep(0.01)
        if not reaped[0]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the child's fan-out waited on the parent's pool")
        assert os.waitstatus_to_exitcode(reaped[1]) == 0
    finally:
        if state_module._pool is not None:
            state_module._pool.shutdown()


# A BLAS call above OpenBLAS's threading threshold leaves its threads spinning
# on the CPUs for ~0.1 s after it returns. R at n=19 ends well within that
# window on any host; R's tasks go to the pool at n=19 as at n=21, public call
# or not, and the suite-sized batch of 10000 states at n=9 fans out by chunks
# of rows.
_SPINNER_PROBE = """
import resource, time
from ntangle import measures, state

def cpu_ms():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return 1e3 * (usage.ru_utime + usage.ru_stime)

a19, a21 = state.random_state(19, 19).amps, state.random_state(21, 21).amps
batch9, psi19 = state.random_state_batch(9, 10_000, 9), state.random_state(19, 1919)
for label, call in ((19, lambda: measures._r_tangle(a19, 19)),
                    (21, lambda: measures._r_tangle(a21, 21)),
                    ("batch9", lambda: measures._r_tangle(batch9, 9)),
                    ("public19", lambda: measures.r_tangle(psi19))):
    time.sleep(0.3)  # whatever building the state started goes quiet
    call()
    call()
    start = cpu_ms()
    time.sleep(0.3)
    print(label, cpu_ms() - start)
"""


@pytest.mark.skipif(state_module._WORKERS < 2, reason="needs two CPUs")
def test_r_tangle_leaves_no_thread_spinning():
    src = str(Path(ntangle.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items()  # BLAS at its default thread count
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SPINNER_PROBE], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    busy = dict(line.split() for line in proc.stdout.splitlines())
    assert busy.keys() == {"19", "21", "batch9", "public19"}
    for label, busy_ms in busy.items():
        assert float(busy_ms) < 20, f"{busy_ms} ms of CPU in a 300 ms sleep after R on {label}"


def test_a_raw_value_past_the_float_range_is_refused():
    raw = StateVector(2, 1e200 * bell().amps)
    with pytest.raises(DomainError, match="tau_even of these raw amplitudes overflows"):
        tau_even(raw)
    assert tau_even(raw.normalized()).value == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(DomainError, match="r_tangle of these raw amplitudes overflows"):
        r_tangle(StateVector(3, 1e100 * ghz(3).amps))  # degree 4: 1e400 per residual
    with pytest.raises(DomainError, match="overflows"):  # a norm past the float range
        tau_even(StateVector(2, np.array([1.7e308, 1.7e308, 0, 0])))


def test_report_norm_is_computed_once_per_state(monkeypatch):
    psi = StateVector(17, 3.0 * rand(17, 8383).amps)  # four slices of the norm's sum
    # each square rounds by at most half an ulp and fsum adds them exactly, so
    # this reference lies within about 2e-16 of the exact norm
    flat = psi.amps.view(np.float64)
    want = math.sqrt(math.fsum((flat * flat).tolist()))
    calls = []
    norm = state_module._norm

    def counted(amps):
        calls.append(amps)
        return norm(amps)

    monkeypatch.setattr(state_module, "_norm", counted)
    got = tau_odd(psi).norm
    assert abs(got - want) <= 1e-15 * want
    assert r_tangle(psi).norm == got
    assert tau_residual(psi, 3).norm == got
    assert len(calls) == 1
    zero = StateVector(3, np.zeros(8))
    for _ in range(2):  # the memoized zero is refused as the computed one was
        with pytest.raises(DomainError):
            zero.normalized()


# --- quartic cross-reference ------------------------------------------------

def test_wong_tangle_examples():
    assert wong_tangle(named_state("basis", 2, extra=0)).value < 1e-15
    assert abs(wong_tangle(ghz(4)).value - 1.0) < 1e-9
    # the quartic contraction is the squared even measure at every even n up to the cap
    # (the squared concurrence at n=2)
    for n in range(2, measures.DEFAULT_WONG_CAP + 1, 2):
        for s in range(10 if n < 8 else 2):
            psi = rand(n, 7000 + 100 * (n - 2) + s)
            assert abs(wong_tangle(psi).value - tau_even(psi).value ** 2) < 1e-12, (n, s)


def test_wong_tangle_permutation_invariance():
    rng = np.random.default_rng(8)
    for s in range(20):
        psi = rand(4, 8000 + s)
        base = wong_tangle(psi).value
        pi = QubitPermutation(map(int, rng.permutation(np.arange(1, 5))))
        assert abs(wong_tangle(permute(psi, pi)).value - base) < 1e-9


def test_wong_tangle_takes_batches():
    rng = np.random.default_rng(9)
    for shape in ((5, 16), (2, 3, 16)):
        amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        batched = measures._wong_tangle(amps, 4)
        assert batched.shape == shape[:-1]
        for idx in np.ndindex(shape[:-1]):
            assert batched[idx] == measures._wong_tangle(amps[idx], 4)
    assert type(wong_tangle(ghz(4)).value) is float


def test_wong_tangle_cap():
    with pytest.raises(DomainError, match="cap of 10"):
        wong_tangle(ghz(12))
    # below the cap, a ghz state keeps value 1 at any even size
    assert abs(wong_tangle(ghz(6)).value - 1.0) < 1e-9
    with pytest.raises(DomainError):
        wong_tangle(ghz(5))


# --- independent three-qubit oracle -----------------------------------------

def test_three_tangle_examples():
    assert abs(three_tangle(ghz(3)).value - 1.0) < 1e-12
    assert three_tangle(named_state("w", 3)).value < 1e-12
    with pytest.raises(DomainError):
        three_tangle(ghz(5))


def test_three_tangle_matches_tau_odd():
    for s in range(200):
        psi = rand(3, 9000 + s)
        assert abs(three_tangle(psi).value - tau_odd(psi).value) < 1e-9


def test_invariant_metadata():
    val = even_invariant(bell())
    assert val.degree == 2 and val.kind == "even"
    assert odd_invariant(ghz(3)).kind == "odd"
    assert low_half_invariant(ghz(3)).kind == "low"
    assert high_half_invariant(ghz(3)).kind == "high"


def test_invariants_scale_quadratically():
    rng = np.random.default_rng(55)
    for s in range(10):
        c = complex(rng.standard_normal(), rng.standard_normal())
        psi4 = rand(4, 100 + s)
        scaled = StateVector(4, c * psi4.amps)
        assert abs(even_invariant(scaled).value - c ** 2 * even_invariant(psi4).value) < 1e-12
        psi5 = rand(5, 200 + s)
        scaled = StateVector(5, c * psi5.amps)
        assert abs(odd_invariant(scaled).value - c ** 2 * odd_invariant(psi5).value) < 1e-12
        assert abs(low_half_invariant(scaled).value
                   - c ** 2 * low_half_invariant(psi5).value) < 1e-12
        assert abs(high_half_invariant(scaled).value
                   - c ** 2 * high_half_invariant(psi5).value) < 1e-12


def test_public_functions_take_no_capacity_or_label():
    # the capacity is DEFAULT_MAX_QUBITS and a report's label is the CLI's
    for name in ntangle.__all__:
        obj = getattr(ntangle, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters
            assert not {"max_qubits", "state"} & params.keys(), (name, list(params))


# the sizes each public function takes, as its refusals name them (tau takes every n >= 2)
_PUBLIC_SIZES = {"tau_even": "even n", "tau_odd": "odd n", "tau": "", "tau_residual": "odd n",
                 "r_tangle": "odd n", "concurrence": "n=2", "three_tangle": "n=3", "wong_tangle": "even n"}
_RESIDUAL_LABELS = {"0": lambda n: 0, "1": lambda n: 1, "n": lambda n: n, "n+1": lambda n: n + 1}


@pytest.mark.parametrize("function, label", [(f, None) for f in _PUBLIC_SIZES if f != "tau_residual"]
                         + [("tau_residual", label) for label in _RESIDUAL_LABELS])
@pytest.mark.parametrize("n, zero", [(1, False), (2, False), (3, False), (4, False), (12, False),
                                     (2, True), (3, True)])
def test_public_functions_keep_each_refusal_and_value(function, label, n, zero):
    # a basis state or the zero vector: each refusal keeps its type and message, and each
    # measure that takes the state reports value 0 with the state's norm, exactly
    psi = StateVector(n, np.zeros(1 << n)) if zero else named_state("basis", n, extra=0)
    args = (_RESIDUAL_LABELS[label](n),) if label else ()
    sizes = _PUBLIC_SIZES[function]
    if n < 2 and not sizes.startswith("n="):
        error = f"{function} needs at least 2 qubits, got n={n}"
    elif sizes and sizes not in (f"n={n}", "odd n" if n % 2 else "even n"):
        error = f"{function} is defined for {sizes} only, got n={n}"
    elif function == "wong_tangle" and n > 10:
        error = ("wong_tangle at n=12 exceeds the cap of 10: the dense contraction holds several "
                 "(2**n, 2**n) complex arrays of 256 MiB each")
    elif args and not 1 <= args[0] <= n:
        error = f"qubit label {args[0]} out of range 1..{n}"
    else:
        kind = ("tau_odd" if n % 2 else "tau_even") if function == "tau" else function
        residuals = (0.0,) * n if function == "r_tangle" else None
        want = measures.MeasureReport(kind, 0.0, n, 0.0 if zero else 1.0, residuals)
        assert getattr(measures, function)(psi, *args) == want
        return
    with pytest.raises(DomainError) as info:
        getattr(measures, function)(psi, *args)
    assert (type(info.value), str(info.value)) == (DomainError, error)


# --- a product expression, factor by factor ----------------------------------

def _on_product_state(expr, function, *args, normalize=True):
    """The measure of build_product(expr) as compute takes it on a state: the reference."""
    psi = build_product(expr)
    if function in measures.MEASURES:
        measures._row(function, psi.n)
    if normalize:
        psi = psi.normalized()
    return getattr(measures, function)(psi, *args)


def _requests(n, rng):
    """(function, args) of every function compute takes at n; a residual about a seeded qubit."""
    if n % 2:
        requests = [("tau", ()), ("tau_odd", ()), ("r_tangle", ()), ("tau_residual", (int(rng.integers(1, n + 1)),))]
    else:
        requests = [("tau", ()), ("tau_even", ())]
    fits = {"concurrence": n == 2, "three_tangle": n == 3,
            "wong_tangle": n % 2 == 0 and n <= measures.DEFAULT_WONG_CAP}
    return requests + [(kind, ()) for kind, ok in fits.items() if ok]


def _seeded_product(rng, sizes):
    """Seeded factors of these sizes on shuffled labels, each at a seeded complex scale."""
    labels = (rng.permutation(sum(sizes)) + 1).tolist()
    factors = []
    for size in sizes:
        own, labels = labels[:size], labels[size:]
        c = 10.0 ** rng.uniform(-2, 2) * np.exp(2j * np.pi * rng.uniform())
        amps = c * random_state(size, int(rng.integers(2**31))).amps
        factors.append(ProductFactor(StateVector(size, amps), tuple(own)))
    return ProductExpression(tuple(factors))


# Factor sizes: one-qubit factors, several odd factors at even and odd n, and products up to
# n=20, beside seeded ones. Each value is compared relative to norm**degree, the most the
# measure can take at that norm (1 for a normalized state); the worst gap seen was 4.4e-16.
_PRODUCT_SIZES = [(1, 2), (2, 1, 2), (1, 1), (1, 1, 3), (3, 5), (3, 3, 3), (5, 1, 2), (4, 1),
                  (2, 2, 2, 2), (7, 2), (8, 6, 4, 2), (5, 8, 4, 2), (9, 10), (1, 9, 10)]
_PRODUCT_RTOL = 1e-14


def test_product_measure_matches_the_product_state():
    rng = np.random.default_rng(2607)
    seeded = [tuple(int(s) for s in rng.integers(1, 7, rng.integers(2, 5))) for _ in range(40)]
    for sizes in _PRODUCT_SIZES + seeded:
        expr = _seeded_product(rng, sizes)
        for function, args in _requests(expr.n, rng):
            for normalize in (True, False):
                got = measures.product_measure(expr, function, *args, normalize=normalize)
                want = _on_product_state(expr, function, *args, normalize=normalize)
                scale = 1.0 if normalize else want.norm ** measures.MEASURES[want.kind].degree
                where = (sizes, function, args, normalize)
                assert (got.kind, got.n) == (want.kind, want.n), where
                assert abs(got.value - want.value) <= _PRODUCT_RTOL * scale, where
                assert abs(got.norm - want.norm) <= _PRODUCT_RTOL * want.norm, where
                assert (got.residuals is None) == (want.residuals is None), where
                for a, b in zip(got.residuals or (), want.residuals or (), strict=True):
                    assert abs(a - b) <= _PRODUCT_RTOL * scale, where


def test_product_measure_of_one_factor_in_label_order_keeps_the_bits():
    # raw, the bits of the kernel; normalized, those bits over the state's sum of squares to
    # half the degree (the rule by homogeneity), and norm 1
    rng = np.random.default_rng(2608)
    states = [rand(n, 300 + n) for n in range(2, 10)] + [ghz(3), ghz(4), named_state("w", 5), bell()]
    for psi in states:
        expr = ProductExpression((ProductFactor(psi, tuple(range(1, psi.n + 1))),))
        squares = state_module._sum_of_squares(psi.amps.view(np.float64))
        for function, args in _requests(psi.n, rng):
            raw = _on_product_state(expr, function, *args, normalize=False)
            assert measures.product_measure(expr, function, *args, normalize=False) == raw
            scale = squares if measures.MEASURES[raw.kind].degree == 2 else squares * squares
            if raw.residuals is None:
                want = measures.MeasureReport(raw.kind, raw.value / scale, raw.n, 1.0)
            else:
                residuals = tuple(r / scale for r in raw.residuals)
                want = measures.MeasureReport(raw.kind, sum(residuals) / raw.n, raw.n, 1.0, residuals)
            assert measures.product_measure(expr, function, *args) == want


def test_normalized_product_measure_makes_no_copy_of_an_ordinary_state():
    # the value is taken by homogeneity, on the raw amplitudes: under a quarter of the state is
    # traced at n = 18 and 19 (a slice of the sum of squares, 512 KiB, is the most of it). A
    # state whose squares leave [2**-256, 2**256] is scaled on a copy.
    for psi in (rand(18, 2918), rand(19, 2919), StateVector(18, 1e200 * rand(18, 2918).amps)):
        expr = ProductExpression((ProductFactor(psi, tuple(range(1, psi.n + 1))),))
        measures.product_measure(expr, "tau")  # first call outside the trace: the pool, the tables
        tracemalloc.start()
        try:
            report = measures.product_measure(expr, "tau")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.norm == 1.0 and 0 < report.value < 1
        assert (peak < psi.amps.nbytes / 4) == (psi.norm() < 2.0 ** 128), (psi.n, peak)


def test_product_measure_takes_the_named_products_exactly():
    # each normalized factor is scaled to norm 1 exactly, so 1/sqrt(2) roundings do not compound
    cases = [("ghz:3@1,2,3 x bell@4,5", "tau", ()), ("bell@1,2 x ghz:3@3,4,5", "r_tangle", ()),
             ("bell@1,2 x ghz:3@3,4,5", "tau_residual", (5,)), ("bell@1,2 x bell@3,4", "tau", ())]
    for text, function, args in cases:
        report = measures.product_measure(parse_product_expression(text), function, *args)
        assert report.value == (0.6 if function == "r_tangle" else 1.0)
    r = measures.product_measure(parse_product_expression("bell@1,2 x ghz:3@3,4,5"), "r_tangle")
    assert r.residuals == (0.0, 0.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("text, function, args, normalize", [
    ("bell@1,2 x bell@2,3", "tau", (), True),                 # labels do not partition
    ("bell@1,2 x ghz:3@3,4,5", "tau_even", (), True),         # a size the measure refuses
    ("bell@1,2 x bell@3,4", "r_tangle", (), True),
    ("zero@1,2 x ghz:3@3,4,5", "tau_residual", (6,), True),   # the zero vector before the label
    ("zero@1,2 x ghz:3@3,4,5", "tau_residual", (6,), False),  # raw: the label
    ("zero@1,2 x bell@3,4", "tau_odd", (), True),             # the size before the zero vector
    ("zero@1", "tau", (), True),                              # tau: the zero vector before n >= 2
    ("basis:1:0@1", "tau", (), True),
    ("basis:1:0@1", "r_tangle", (), False),
    ("bell@1,2 x ghz:3@3,4,5", "tau_residual", (0,), True),
])
def test_product_measure_refuses_as_the_product_state_does(text, function, args, normalize):
    def factor(token):
        head, labels = token.split("@")
        labels = tuple(map(int, labels.split(",")))
        if head == "zero":
            return ProductFactor(StateVector(len(labels), np.zeros(1 << len(labels))), labels)
        return parse_product_expression(token).factors[0]

    expr = ProductExpression(tuple(factor(token) for token in text.split(" x ")))
    errors = []
    for route in (measures.product_measure, _on_product_state):
        with pytest.raises(DomainError) as info:
            route(expr, function, *args, normalize=normalize)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


def test_product_measure_past_its_cap_is_refused_before_any_factor_is_normalized(monkeypatch):
    def refuse(psi):
        raise AssertionError("normalized a factor of a product past the cap")

    monkeypatch.setattr(measures, "_homogeneous", refuse)
    cap = measures._PRODUCT_CAP
    expr = parse_product_expression(" x ".join(f"bell@{2 * k + 1},{2 * k + 2}" for k in range(cap // 2))
                                    + f" x basis:1:0@{cap + 1}")
    with pytest.raises(CapacityError, match=f"^product of {cap + 1} qubits exceeds the cap of {cap}"
                                            " qubits of a product measure$"):
        measures.product_measure(expr, "tau")


def test_product_measure_holds_each_factor_to_the_capacity(monkeypatch):
    expr = ProductExpression((ProductFactor(named_state("ghz", 5), (1, 2, 3, 4, 5)),))
    monkeypatch.setattr(state_module, "DEFAULT_MAX_QUBITS", 4)  # the product's n may pass it
    for text, n in (("ghz:3@1,2,3 x bell@4,5 x bell@6,7", 7), ("ghz:4@4,3,2,1 x bell@5,6", 6)):
        report = measures.product_measure(parse_product_expression(text), "tau")
        assert (report.value, report.n, report.norm) == (1.0, n, 1.0)
    with pytest.raises(CapacityError, match="^factor of 5 qubits exceeds the capacity of 4 qubits$"):
        measures.product_measure(expr, "tau")
    with pytest.raises(CapacityError, match="^product of 5 qubits exceeds the capacity of 4 qubits$"):
        build_product(parse_product_expression("ghz:3@1,2,3 x bell@4,5"))


def test_product_measure_of_500_bell_pairs():
    expr = parse_product_expression(" x ".join(f"bell@{2 * k + 2},{2 * k + 1}" for k in range(500)))
    for function in ("tau", "tau_even"):
        assert measures.product_measure(expr, function) == measures.MeasureReport("tau_even", 1.0, 1000, 1.0)
        raw = measures.product_measure(expr, function, normalize=False)
        assert raw.n == 1000 and raw.norm == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError, match="^wong_tangle at n=1000 exceeds the cap of 10"):
        measures.product_measure(expr, "wong_tangle")  # the quartic cap holds on the product's n
