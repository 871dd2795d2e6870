import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ntangle.errors import DomainError
from ntangle.locc import _branches, _completion, branch, make_povm, monotone_average
from ntangle.measures import _residual, _tau_even, r_tangle, tau_even, tau_odd, tau_residual
from ntangle.state import (StateVector, named_state, random_operator, random_state,
                           random_state_batch)


def ghz(n):
    return named_state("ghz", n)


def test_make_povm_scalar_case():
    p = 0.3
    povm = make_povm(np.sqrt(p) * np.eye(2), seed=1)
    assert povm.completeness_defect() < 1e-12
    sv2 = np.linalg.svd(povm.a2, compute_uv=False)
    assert np.allclose(sv2, np.sqrt(1 - p), atol=1e-12)
    assert abs(povm.a - np.sqrt(p)) < 1e-12 and abs(povm.b - np.sqrt(p)) < 1e-12


def test_make_povm_identity_degenerate_branch():
    povm = make_povm(np.eye(2), seed=2)
    assert np.allclose(povm.a2, 0.0, atol=1e-12)
    b1, b2 = branch(ghz(2), 1, povm)
    assert b2.probability == 0.0
    assert b2.state is None
    assert abs(b1.probability - 1.0) < 1e-12


def test_make_povm_completeness_seeded():
    for s in range(1000):
        a1 = random_operator("contraction", 10_000 + s)
        povm = make_povm(a1, seed=s)
        assert povm.completeness_defect() < 1e-10
        # second element's singular values complete the first element's
        expected = sorted((math.sqrt(1 - povm.a ** 2), math.sqrt(1 - povm.b ** 2)))
        got = sorted(np.linalg.svd(povm.a2, compute_uv=False))
        assert np.allclose(got, expected, atol=1e-9)


def test_make_povm_rejects_expansions():
    with pytest.raises(DomainError):
        make_povm(2.0 * np.eye(2), seed=3)


def test_branch_scalar_povm_keeps_state():
    p = 0.4
    psi = random_state(3, 5)
    povm = make_povm(np.sqrt(p) * np.eye(2), seed=4)
    b1, b2 = branch(psi, 2, povm)
    assert abs(b1.probability - p) < 1e-12
    assert abs(b2.probability - (1 - p)) < 1e-12
    # first element is proportional to the identity: branch 1 is the input
    assert abs(abs(np.vdot(b1.state.amps, psi.amps)) - 1.0) < 1e-12
    # second element is the completing unitary times a scalar: branch 2 is
    # locally equivalent, so the measure agrees even though the vector moved
    assert abs(tau_odd(b2.state).value - tau_odd(psi).value) < 1e-12


def test_branch_projector_on_ghz2():
    povm = make_povm(np.diag([1.0, 0.0]), seed=6)
    b1, b2 = branch(ghz(2), 1, povm)
    assert abs(b1.probability - 0.5) < 1e-12
    expected = np.zeros(4, dtype=complex)
    expected[0] = 1.0
    assert np.allclose(b1.state.amps, expected, atol=1e-12)
    assert abs(b2.probability - 0.5) < 1e-12


def test_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(13)
    for s in range(200):
        n = int(rng.integers(2, 6))
        psi = random_state(n, 20_000 + s)
        k = int(rng.integers(1, n + 1))
        povm = make_povm(random_operator("contraction", 30_000 + s), seed=s)
        b1, b2 = branch(psi, k, povm)
        assert abs(b1.probability + b2.probability - 1.0) < 1e-10


def test_branch_label_out_of_range():
    povm = make_povm(np.eye(2) * 0.5, seed=7)
    with pytest.raises(DomainError):
        branch(ghz(2), 3, povm)


def test_monotone_average_unitary_equality():
    psi = random_state(4, 21)
    base = tau_even(psi).value
    for s, eta in enumerate((0.25, 0.5, 1.0)):
        u = random_operator("unitary", 40_000 + s)
        povm = make_povm(math.sqrt(0.6) * u, seed=s)
        avg = monotone_average(psi, 1 + s, povm, eta, tau_even)
        assert abs(avg - base ** eta) < 1e-12


def test_monotone_average_diagonal_closed_form_ghz4():
    base = tau_even(ghz(4)).value
    for a, b in ((0.2, 0.9), (0.5, 0.5), (1.0, 0.3)):
        povm = make_povm(np.diag([a, b]), seed=8)
        avg = monotone_average(ghz(4), 2, povm, 1.0, tau_even)
        closed = (a * b + math.sqrt((1 - a * a) * (1 - b * b))) * base
        assert abs(avg - closed) < 1e-12


def test_monotone_average_never_exceeds_input():
    rng = np.random.default_rng(17)
    for s in range(200):
        n = int(rng.integers(3, 6))
        psi = random_state(n, 50_000 + s)
        k = int(rng.integers(1, n + 1))
        povm = make_povm(random_operator("contraction", 60_000 + s), seed=s)
        eta = float(rng.uniform(0.05, 1.0))
        if n % 2 == 0:
            base = tau_even(psi).value
            avg = monotone_average(psi, k, povm, eta, tau_even)
        else:
            base = tau_odd(psi).value
            avg = monotone_average(psi, k, povm, eta, tau_odd)
        assert avg <= base ** eta + 1e-9


def test_monotone_average_zero_probability_branch():
    psi = named_state("bell", 2)
    povm = make_povm(np.eye(2), seed=9)  # second branch impossible
    avg = monotone_average(psi, 1, povm, 1.0, tau_even)
    assert abs(avg - tau_even(psi).value) < 1e-12


def test_null_branch_of_a_batch_contributes_exactly_zero():
    n, trials = 4, 6
    amps = random_state_batch(n, trials, 71)
    a1 = np.broadcast_to(np.eye(2, dtype=complex), (trials, 2, 2))
    w = np.stack([random_operator("unitary", 80 + t) for t in range(trials)])
    eta = np.linspace(0.1, 1.0, trials)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning fails the test
        a2 = _completion(a1, w)
        _, p, states = _branches(amps, n, 2, a1, a2)
        values = _tau_even(states, n)
        average = (p * values ** eta).sum(0)
        psi = StateVector(n, amps[0])
        single = monotone_average(psi, 2, make_povm(np.eye(2), 9), 0.5)
    assert abs(single - tau_even(psi).value ** 0.5) < 1e-12
    assert np.all(p[1] == 0.0) and np.all(states[1] == 0.0) and np.all(values[1] == 0.0)
    assert np.all(p[1] * values[1] ** eta == 0.0)
    assert np.array_equal(average, p[0] * values[0] ** eta)
    assert np.allclose(p[0], 1.0, atol=1e-12)
    assert np.all(_residual(states[1], n, 3) == 0.0)


def test_branch_results_are_adopted_without_a_copy():
    # two raw and two normalized branches; one more copy of any of them reads 5x
    psi = random_state(16, 43)
    povm = make_povm(random_operator("contraction", 44), seed=45)
    branch(psi, 9, povm)
    tracemalloc.start()
    try:
        out = branch(psi, 9, povm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    assert peak <= 4.1 * psi.amps.nbytes


def test_monotone_average_argument_checks():
    psi = ghz(4)
    povm = make_povm(0.5 * np.eye(2), seed=10)
    with pytest.raises(DomainError):
        monotone_average(psi, 1, povm, 0.0, tau_even)
    with pytest.raises(DomainError):
        monotone_average(psi, 1, povm, 1.5, tau_even)
    with pytest.raises(DomainError):
        monotone_average(psi, 1, povm, 0.5, tau_odd)  # parity mismatch
    with pytest.raises(DomainError):
        monotone_average(ghz(3), 1, povm, 0.5, lambda s: tau_residual(s, 4))


def test_monotone_average_residual_and_r():
    psi = random_state(5, 23)
    povm = make_povm(random_operator("contraction", 24), seed=11)
    for measure in (r_tangle, lambda s: tau_residual(s, 2), lambda s: tau_residual(s, 5)):
        avg = monotone_average(psi, 3, povm, 0.5, measure)
        assert np.isfinite(avg) and avg >= 0.0
