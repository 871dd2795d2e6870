import ast
import math
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from ntangle import bitops, measures, state, suites
from ntangle.errors import CapacityError, DomainError, UsageError
from ntangle.locc import PovmPair, _completion, branch, monotone_average
from ntangle.measures import r_tangle, tau, tau_even, tau_odd, tau_residual
from ntangle.state import (QubitPermutation, StateVector, _contraction, _ginibre, _unitary,
                           named_state, permute, random_state_batch)
from ntangle.suites import (_ETA_GRID, SUITES, SuiteConfig, _check, _focus_axes, _gather,
                            _random_axes, _rng, run_suite)

# trimmed-down configs so the whole module stays fast; the acceptance module
# runs everything at full contract scale
QUICK = {
    "bitops": SuiteConfig("bitops", n_max=8),
    "closed-form": SuiteConfig("closed-form", trials=50, n_max=6),
    "oracle-n3": SuiteConfig("oracle-n3", trials=100),
    "covariance-even": SuiteConfig("covariance-even", trials=10, n_max=6),
    "covariance-odd": SuiteConfig("covariance-odd", trials=10, n_max=5),
    "permutation": SuiteConfig("permutation", trials=20, n_max=5),
    "product": SuiteConfig("product", trials=5, n_max=5),
    "monotone": SuiteConfig("monotone", trials=40, n_max=4),
    "range": SuiteConfig("range", trials=200, n_max=5),
    "golden-examples": SuiteConfig("golden-examples"),
}


def test_registry_matches_quick_configs():
    assert set(QUICK) == set(SUITES)


def test_benchmark_repeats_every_suite_in_run_order():
    # perfbench/metrics.py keeps its own tuple of the suites its verify workload runs
    path = Path(__file__).resolve().parent.parent / "perfbench" / "metrics.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    listed = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["SUITES"]]
    assert listed == [tuple(SUITES)]


@pytest.mark.parametrize("name", sorted(QUICK))
def test_suite_passes_quick(name):
    report = run_suite(QUICK[name])
    assert report.passed, report.to_text()
    assert report.checks, "suite produced no checks"


@pytest.mark.parametrize("request_, fixed", [
    ({"suite": "bitops", "tol": 1e-3, "trials": 3}, {"tolerance": 0.0, "trials": 1}),
    ({"suite": "golden-examples", "trials": 25, "n_max": 9}, {"trials": 1, "n_max": 6}),
    ({"suite": "oracle-n3", "n_max": 7}, {"n_max": 3}),
    # past the capacity of 26 qubits: a fixed n_max is never checked against the request's
    ({"suite": "golden-examples", "n_max": 27}, {"n_max": 6}),
    ({"suite": "oracle-n3", "n_max": 30}, {"n_max": 3}),
])
def test_a_suite_reports_the_settings_it_fixes_whatever_the_request(request_, fixed):
    cfg = SuiteConfig(**request_)
    report = run_suite(cfg)
    assert report == SUITES[cfg.suite](cfg)
    assert {key: getattr(report, key) for key in fixed} == fixed
    if "tolerance" in fixed:
        assert {c.tol for c in report.checks} == {fixed["tolerance"]}
    assert report.passed, report.to_text()


def test_reports_are_deterministic():
    for cfg in (SuiteConfig("closed-form", trials=20, n_max=4, seed=123),
                SuiteConfig("monotone", trials=12, n_max=5, seed=123),
                SuiteConfig("permutation", trials=12, n_max=7, seed=123)):
        first = run_suite(cfg)
        second = run_suite(cfg)
        assert first.to_json_dict() == second.to_json_dict()
        assert first.to_text() == second.to_text()


def _povm(a1, g):
    """The POVM the suite builds from contraction a1 and the Gaussian matrix g of its unitary."""
    sv = np.linalg.svd(a1, compute_uv=False)
    return PovmPair(a1=a1, a2=_completion(a1[None], _unitary(g)[None])[0],
                    a=float(min(sv[0], 1.0)), b=float(sv[1]))


def _monotone_per_trial(seed, trials, n_max, tol=1e-9):
    """The monotone suite evaluated one trial at a time through the public API: the oracle.

    It draws the suite's batches with the suite's calls, in the suite's order,
    then evaluates each trial on its own.
    """
    checks = []
    for n in [x for x in (3, 4, 5, 6) if x <= n_max]:
        even = n % 2 == 0
        rng = _rng(seed, 14, n)
        amps, ks = random_state_batch(n, trials, rng), rng.integers(1, n + 1, trials)
        a1 = _contraction(_ginibre(rng, (trials,)), rng.uniform(0.25, 1.0, trials))
        g2 = _ginibre(rng, (trials,))
        uniform = iter(rng.uniform(0.01, 1.0, trials // 4))
        etas = [float(next(uniform)) if t % 4 == 3 else _ETA_GRID[t % 4] for t in range(trials)]
        foci = None if even else rng.integers(0, n, trials) + 1
        worst_tau = worst_res = worst_r = worst_comp = worst_raw = worst_rescale = 0.0
        for t in range(trials):
            psi, k, povm, eta = StateVector(n, amps[t]), int(ks[t]), _povm(a1[t], g2[t]), etas[t]
            b1, b2 = branch(psi, k, povm)
            worst_comp = max(worst_comp, abs(b1.probability + b2.probability - 1.0))
            base = tau(psi).value
            avg = monotone_average(psi, k, povm, eta, tau_even if even else tau_odd)
            worst_tau = max(worst_tau, avg - base ** eta)
            if not even:
                i = int(foci[t])
                worst_res = max(worst_res, monotone_average(psi, k, povm, eta, lambda s: tau_residual(s, i))
                                - tau_residual(psi, i).value ** eta)
                worst_r = max(worst_r, monotone_average(psi, k, povm, eta, r_tangle)
                              - r_tangle(psi).value ** eta)
            degree = 1 if even else 2
            det1 = (povm.a * povm.b) ** degree
            det2 = ((1.0 - povm.a ** 2) * (1.0 - povm.b ** 2)) ** (degree / 2.0)
            for out, det_factor in ((b1, det1), (b2, det2)):
                raw_val = tau(out.raw).value
                worst_raw = max(worst_raw, abs(raw_val - base * det_factor))
                if out.state is not None:
                    worst_rescale = max(worst_rescale, abs(raw_val - tau(out.state).value
                                                           * out.probability ** degree))
        checks.append(_check(f"average-vs-input-n{n}", worst_tau, tol, trials))
        if not even:
            checks.append(_check(f"average-vs-input-residual-n{n}", worst_res, tol, trials))
            checks.append(_check(f"average-vs-input-r-n{n}", worst_r, tol, trials))
        checks.append(_check(f"branch-probability-sum-n{n}", worst_comp, 1e-10, trials))
        checks.append(_check(f"raw-branch-covariance-n{n}", worst_raw, tol, 2 * trials))
        checks.append(_check(f"normalized-branch-rescaling-n{n}", worst_rescale, tol, 2 * trials))

    rng = _rng(seed, 15)
    amps, p = random_state_batch(4, 25, rng), rng.uniform(0.1, 0.9, 25)
    g1, g2, ks = _ginibre(rng, (25,)), _ginibre(rng, (25,)), rng.integers(1, 5, 25)
    worst = 0.0
    for t in range(25):
        psi = StateVector(4, amps[t])
        povm = _povm(np.sqrt(p[t]) * _unitary(g1[t]), g2[t])
        eta = _ETA_GRID[t % 3]
        worst = max(worst, abs(monotone_average(psi, int(ks[t]), povm, eta, tau_even)
                               - tau(psi).value ** eta))
    checks.append(_check("unitary-povm-equality-n4", worst, tol, 25))

    ghz4 = named_state("ghz", 4)
    grid = np.linspace(0.05, 1.0, 8)
    g = _ginibre(_rng(seed, 16), (len(grid) ** 2 * 4,))
    worst = 0.0
    count = 0
    for a in grid:
        for b in grid:
            for k in range(1, 5):
                povm = _povm(np.diag([a, b]).astype(np.complex128), g[count])
                closed = (a * b + np.sqrt((1.0 - a * a) * (1.0 - b * b))) * tau(ghz4).value
                worst = max(worst, abs(monotone_average(ghz4, k, povm, 1.0, tau_even) - closed))
                count += 1
    checks.append(_check("diagonal-closed-form-ghz4", worst, tol, count))
    return checks


def test_batched_monotone_matches_the_per_trial_oracle():
    report = run_suite(SuiteConfig("monotone", trials=40, n_max=5, seed=123))
    oracle = _monotone_per_trial(seed=123, trials=40, n_max=5)
    assert [(c.name, c.count, c.passed) for c in report.checks] == \
        [(c.name, c.count, c.passed) for c in oracle]
    for got, want in zip(report.checks, oracle):
        assert abs(got.worst - want.worst) <= 1e-14, (got.name, got.worst, want.worst)


def test_suite_batches_fan_out_to_the_serial_reports(monkeypatch):
    # suite batches run in chunks of rows on the pool, and range and closed-form
    # draw their largest batch there beside their other sizes; the chunks depend
    # on n alone and each size has its own generator, so every report, each
    # worst value included, is the serial one
    monkeypatch.setattr(state, "_WORKERS", 1)
    serial = [run_suite(SuiteConfig(name, seed=7)) for name in SUITES]
    monkeypatch.setattr(state, "_WORKERS", 2)
    fan_out, draw, sizes, draws = state._fan_out, suites.random_state_batch, [], []
    caller = threading.current_thread().name

    def spy(fn, items):
        sizes.append(len(items))
        return fan_out(fn, items)

    def spy_draw(n, count, seed):
        draws.append((suite, n, threading.current_thread().name))
        return draw(n, count, seed)

    monkeypatch.setattr(state, "_fan_out", spy)
    monkeypatch.setattr(suites, "random_state_batch", spy_draw)
    for want in serial:
        suite = want.suite
        assert want.passed, suite
        assert run_suite(SuiteConfig(suite, seed=7)) == want, suite
    assert max(sizes) > 1  # range's n=9 batch is 40 chunks
    pooled = [(suite, n) for suite, n, thread in draws if thread != caller]
    assert sorted(pooled) == [("closed-form", 12), ("range", 9)]
    assert all(thread.startswith("ntangle") for _, _, thread in draws if thread != caller)


def test_each_size_draws_the_last_size_beside_the_others_and_drops_each_batch(monkeypatch):
    monkeypatch.setattr(state, "_WORKERS", 2)
    sizes = (2, 3, 20)  # one state of 20 qubits spans more than one draw block
    caller = threading.current_thread().name
    started, finished, threads, held = threading.Event(), threading.Event(), {}, []

    def draw(n):
        threads[n] = threading.current_thread().name
        batch = np.full(3, n)
        if n == sizes[-1]:
            started.set()
            time.sleep(0.2)  # still drawing while the caller works
            finished.set()
        else:
            assert all(ref() is None for ref in held)  # no finished batch is still held
            held.append(weakref.ref(batch))
        return batch

    def work(n, batch):
        assert started.wait(5)  # the last draw was submitted before any work
        return n, int(batch[0])

    assert suites._each_size(sizes, 1, draw, work) == [(2, 2), (3, 3), (20, 20)]
    assert threads[2] == threads[3] == caller and threads[20].startswith("ntangle")

    def fail(n, batch):
        raise ZeroDivisionError(n)

    started.clear()
    finished.clear()
    with pytest.raises(ZeroDivisionError):
        suites._each_size(sizes, 1, draw, fail)
    assert finished.is_set()  # the pooled draw ended before the error left

    # a batch within one block is drawn on the caller, as random_state_batch keeps it off the pool
    threads.clear()
    assert suites._each_size((2, 3), 1, draw, lambda n, batch: n) == [2, 3]
    assert set(threads.values()) == {caller}


def test_run_all_suites_script_runs_from_an_uninstalled_checkout(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_all_suites.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(script), "--quick"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all suites passed" in proc.stdout


def test_json_schema_version():
    report = run_suite(SuiteConfig("golden-examples"))
    payload = report.to_json_dict()
    assert payload["schema"] == 1
    assert payload["passed"] is True
    assert {c["name"] for c in payload["checks"]} >= {"bell12-bell34", "ghz123-ghz456"}


def test_failure_is_reported_not_raised():
    # an absurd tolerance turns float noise into failures; exit handling is
    # the CLI's job, the suite just reports
    report = run_suite(SuiteConfig("closed-form", trials=10, n_max=4, tol=1e-30))
    assert not report.passed
    assert any(not c.passed for c in report.checks)


def test_unknown_suite():
    with pytest.raises(DomainError, match="unknown suite 'nonsense'"):
        SuiteConfig("nonsense")  # the config refuses it before any suite can run


@pytest.mark.parametrize("name, n_max", [("covariance-even", 2), ("covariance-odd", 2),
                                         ("permutation", 2), ("product", 2), ("monotone", 2),
                                         ("range", 1)])
def test_a_suite_that_checks_nothing_fails(name, n_max):
    report = run_suite(SuiteConfig(name, n_max=n_max))
    assert report.checks == ()
    assert not report.passed
    assert report.to_json_dict()["passed"] is False
    assert report.to_text().endswith("result FAIL (0/0 checks)\n")


@pytest.mark.parametrize("name", list(SUITES))
@pytest.mark.parametrize("trials", [0, -1])
def test_trials_below_one_are_refused(name, trials):
    with pytest.raises(DomainError, match="trials must be at least 1"):
        SuiteConfig(name, trials=trials)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_tolerances_not_above_zero_are_refused(tol):
    with pytest.raises(DomainError, match="tol must be positive"):
        SuiteConfig("range", tol=tol)


def test_bitops_past_capacity_builds_no_grid(monkeypatch):
    monkeypatch.setattr(state, "DEFAULT_MAX_QUBITS", 8)
    assert run_suite(SuiteConfig("bitops", n_max=8)).passed  # the capacity itself still runs

    def spy(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(suites, "_violations", spy)
    monkeypatch.setattr(suites, "_complement_counts", spy)
    with pytest.raises(CapacityError, match="bitops up to n=9 exceeds the capacity of 8 qubits"):
        run_suite(SuiteConfig("bitops", n_max=9))


@pytest.mark.parametrize("name", list(SUITES))
def test_every_suite_past_capacity_is_refused_when_its_config_is_built(monkeypatch, name):
    def spy(*args):
        raise AssertionError("work started past the capacity")

    for work in ("random_state_batch", "_violations", "_complement_counts"):
        monkeypatch.setattr(suites, work, spy)
    monkeypatch.setattr(state, "DEFAULT_MAX_QUBITS", 8)  # read when the config is built
    SuiteConfig(name, n_max=8, trials=1)  # one state a size fits at the capacity itself
    if "n_max" in SUITES[name].fixed:  # the suite runs at its own n_max: the request's is ignored
        assert SUITES[name].settings(SuiteConfig(name, n_max=9, trials=1))[1] == SUITES[name].n_max <= 8
        return
    with pytest.raises(CapacityError, match=f"^{name} up to n=9 exceeds the capacity of 8 qubits$"):
        SuiteConfig(name, n_max=9)


def test_trials_past_capacity_are_refused_before_any_draw(monkeypatch):
    def spy(*args):
        raise AssertionError("a state was drawn")

    monkeypatch.setattr(suites, "random_state_batch", spy)
    # closed-form draws `trials` states at every size up to n_max: 2**26 amplitudes at n=13
    SuiteConfig("closed-form", n_max=13, trials=1 << 13)
    with pytest.raises(CapacityError, match="^a draw of 8193 random states of 13 qubits exceeds"
                                            " the capacity of 26 qubits$"):
        SuiteConfig("closed-form", n_max=13, trials=(1 << 13) + 1)
    # a suite with sizes of its own checks the largest it reaches, whatever n_max
    SuiteConfig("monotone", n_max=20, trials=1 << 20)  # its states stop at 6 qubits
    with pytest.raises(CapacityError, match="of 6 qubits"):
        SuiteConfig("monotone", n_max=20, trials=(1 << 20) + 1)
    with pytest.raises(CapacityError, match="of 3 qubits"):
        SuiteConfig("oracle-n3", trials=(1 << 23) + 1)
    # suites that draw no batch take any trial count
    for name in ("bitops", "golden-examples"):
        SuiteConfig(name, trials=1 << 40)
    for name in SUITES:  # the defaults and the --quick settings
        SuiteConfig(name)
        SuiteConfig(name, trials=25, n_max=None if name == "bitops" else 6)


@pytest.mark.parametrize("request_", [{"suite": "nope"}, {"suite": "range", "trials": 0},
                                      {"suite": "range", "tol": 0.0}])
def test_a_request_that_names_no_run_is_a_usage_error(request_):
    with pytest.raises(UsageError) as exc:
        SuiteConfig(**request_)
    assert isinstance(exc.value, DomainError)  # library callers still catch DomainError


@pytest.mark.parametrize("n", range(2, 8))
def test_gather_matches_permute_bit_for_bit(n):
    amps = random_state_batch(n, 6, _rng(5, n))

    def permuted(row, axes):
        # the axis order permute transposes to is the inverse of its mapping
        return permute(StateVector(n, row), QubitPermutation(np.argsort(axes) + 1)).amps

    # one axis order per row, drawn as the suites draw them
    for axes in (_random_axes(_rng(9, n), n, len(amps)),
                 _random_axes(_rng(10, n), n, len(amps), fix_first=True),
                 _focus_axes(_rng(11, n), n, np.arange(len(amps)) % n)):
        got = _gather(amps, n, axes)
        want = np.stack([permuted(row, ax) for row, ax in zip(amps, axes)])
        assert np.array_equal(got.view(np.float64), want.view(np.float64))
    # axis orders shared by every row
    shared = _random_axes(_rng(12, n), n, 4)
    got = _gather(amps[:, None], n, shared[None])
    assert got.shape == (len(amps), len(shared), 1 << n)
    for r, row in enumerate(amps):
        for s, ax in enumerate(shared):
            assert np.array_equal(got[r, s].view(np.float64), permuted(row, ax).view(np.float64))


def test_random_axes_are_permutations_fixing_what_they_must():
    count = 2000
    for n in range(2, 6):
        rng = _rng(4, n)
        foci = rng.integers(0, n, count)
        free, first, focus = (_random_axes(rng, n, count), _random_axes(rng, n, count, True),
                              _focus_axes(rng, n, foci))
        for axes in (free, first, focus):
            assert axes.shape == (count, n)
            assert (np.sort(axes, axis=-1) == np.arange(n)).all()
        assert (first[:, 0] == 0).all()
        assert (np.take_along_axis(focus, foci[:, None], -1)[:, 0] == foci).all()
        # every order the constraint allows turns up
        assert len({tuple(row) for row in free}) == math.factorial(n)
        assert len({tuple(row) for row in first}) == math.factorial(n - 1)
        for f in range(n):
            assert len({tuple(row) for row in focus[foci == f]}) == math.factorial(n - 1)


def test_bitops_suite_catches_one_flipped_sign(monkeypatch):
    real = bitops.sgn_star_table

    def flipped(n):
        table = real(n)
        if n == 7:
            table = table.copy()
            table[5] = -table[5]
        return table

    monkeypatch.setattr(bitops, "sgn_star_table", flipped)
    report = run_suite(SuiteConfig("bitops", n_max=12))
    assert not report.passed
    assert any(c.worst > 0 for c in report.checks)
