import ast
import fractions
import io
import math
import mmap
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ntangle import state as state_module
from ntangle.errors import CapacityError, DomainError, ParseError
from ntangle.state import (
    _QSV_BLOCK,
    _apply_at,
    _apply_each,
    _contraction,
    _ginibre,
    _scan_qsv,
    _special_linear,
    _unitary,
    ProductExpression,
    ProductFactor,
    QubitPermutation,
    StateVector,
    apply_local,
    apply_single,
    build_product,
    named_state,
    parse_product_expression,
    permute,
    random_operator,
    random_state,
    random_state_batch,
    read_qsv,
    tensor,
    write_qsv,
)

RT2 = 1.0 / math.sqrt(2.0)


def bell():
    return named_state("bell", 2)


def ghz(n):
    return named_state("ghz", n)


# --- tensor -----------------------------------------------------------------

def test_tensor_bell_bell():
    psi = tensor(bell(), bell())
    # amplitude rule a[k*2^m + i] = b[k]*c[i] with k, i in {0, 3}
    expected = np.zeros(16, dtype=complex)
    expected[[0, 3, 12, 15]] = 0.5
    assert np.allclose(psi.amps, expected, atol=1e-15)


def test_tensor_basis_states():
    for n1, k in ((2, 1), (3, 5)):
        for n2, i in ((2, 2), (1, 1)):
            left = named_state("basis", n1, extra=k)
            right = named_state("basis", n2, extra=i)
            out = tensor(left, right)
            assert out.amps[k * 2 ** n2 + i] == 1.0
            assert np.count_nonzero(out.amps) == 1


def test_tensor_ghz3_ghz3():
    psi = tensor(ghz(3), ghz(3))
    expected = np.zeros(64, dtype=complex)
    expected[[0, 7, 56, 63]] = 0.5  # 7*8 = 56, 56 + 7 = 63
    assert np.allclose(psi.amps, expected, atol=1e-15)


def test_tensor_associative():
    # float products only regroup exactly when the operands make the two
    # rounding orders coincide, as for basis states; random amplitudes agree
    # to the last ulp
    left_basis = tensor(tensor(named_state("basis", 2, extra=1), bell()), ghz(2))
    right_basis = tensor(named_state("basis", 2, extra=1), tensor(bell(), ghz(2)))
    assert np.array_equal(left_basis.amps, right_basis.amps)

    rng = np.random.default_rng(3)
    a = StateVector(2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    b = StateVector(1, rng.standard_normal(2) + 1j * rng.standard_normal(2))
    c = StateVector(3, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert np.allclose(left.amps, right.amps, rtol=1e-15, atol=0)


def test_tensor_capacity(monkeypatch):
    monkeypatch.setattr(state_module, "DEFAULT_MAX_QUBITS", 5)
    with pytest.raises(CapacityError):
        tensor(ghz(3), ghz(3))


def test_every_capacity_refusal_has_one_form(monkeypatch):
    product = ProductExpression((ProductFactor(ghz(3), (1, 2, 3)), ProductFactor(ghz(3), (4, 5, 6))))
    monkeypatch.setattr(state_module, "DEFAULT_MAX_QUBITS", 5)  # read when each check runs
    refusals = {"tensor product of 6 qubits": lambda: tensor(ghz(3), ghz(3)),
                "named state of 6 qubits": lambda: named_state("w", 6),
                "product of 6 qubits": lambda: build_product(product),
                "a draw of 1 random state of 6 qubits": lambda: random_state(6, 1),
                "a draw of 5 random states of 3 qubits": lambda: random_state_batch(3, 5, 1),
                "qsv file of 6 qubits": lambda: read_qsv(io.StringIO("qsv 1\nn 6\n"))}
    for what, call in refusals.items():
        with pytest.raises(CapacityError) as info:
            call()
        assert str(info.value) == f"{what} exceeds the capacity of 5 qubits"
    # a header of 10**40 qubits is refused without building 2**(10**40)
    with pytest.raises(CapacityError, match="^qsv file of 1{40} qubits exceeds"):
        read_qsv(io.StringIO("qsv 1\nn " + "1" * 40 + "\n"))
    state_module._check_capacity("no state", -3)  # below the range is another check's to refuse


# --- permutation ------------------------------------------------------------

def test_permutation_validation():
    with pytest.raises(DomainError):
        QubitPermutation((1, 1, 3))
    ident = QubitPermutation.identity(4)
    assert ident.mapping == (1, 2, 3, 4)
    swap = QubitPermutation.transposition(5, 1, 5)
    assert swap.mapping == (5, 2, 3, 4, 1)
    assert swap.compose(swap) == QubitPermutation.identity(5)
    assert hash(QubitPermutation(range(1, 6))) == hash(QubitPermutation.identity(5))
    assert repr(swap) == "QubitPermutation(mapping=(5, 2, 3, 4, 1))"
    with pytest.raises(AttributeError):
        swap.mapping = (1, 2, 3, 4, 5)
    with pytest.raises(DomainError):
        QubitPermutation.transposition(3, 0, 2)
    with pytest.raises(DomainError):
        swap.compose(QubitPermutation.identity(4))


def test_permute_identity_and_inverse():
    psi = random_state(4, 11)
    assert np.array_equal(permute(psi, QubitPermutation.identity(4)).amps, psi.amps)
    pi = QubitPermutation((3, 1, 4, 2))
    roundtrip = permute(permute(psi, pi), pi.inverse())
    assert np.array_equal(roundtrip.amps, psi.amps)


def test_permute_bell_ghz_under_swap_15():
    # Bell on qubits 1,2 times GHZ on 3,4,5; swapping qubits 1 and 5 leaves
    # the Bell pair on 2,5 and the GHZ triple on 1,3,4
    psi = tensor(bell(), ghz(3))
    assert sorted(np.flatnonzero(np.abs(psi.amps) > 1e-12)) == [0, 7, 24, 31]
    moved = permute(psi, QubitPermutation.transposition(5, 1, 5))
    assert sorted(np.flatnonzero(np.abs(moved.amps) > 1e-12)) == [0, 9, 22, 31]
    assert np.allclose(moved.amps[[0, 9, 22, 31]], 0.5, atol=1e-15)


def test_permute_ghz_symmetric():
    rng = np.random.default_rng(5)
    psi = ghz(5)
    for _ in range(10):
        pi = QubitPermutation(map(int, rng.permutation(np.arange(1, 6))))
        assert np.array_equal(permute(psi, pi).amps, psi.amps)


def test_permute_is_an_exact_relabeling():
    # a permutation only gathers: the amplitude multiset (hence the norm in
    # exact arithmetic) is untouched
    psi = random_state(5, 19)
    moved = permute(psi, QubitPermutation((4, 1, 5, 3, 2)))
    assert np.array_equal(np.sort_complex(moved.amps), np.sort_complex(psi.amps))


@given(st.integers(0, 2 ** 31), st.integers(2, 7))
@settings(max_examples=30, deadline=None)
def test_permute_composition(seed, n):
    rng = np.random.default_rng(seed)
    psi = StateVector(n, rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n))
    pi = QubitPermutation(map(int, rng.permutation(np.arange(1, n + 1))))
    sigma = QubitPermutation(map(int, rng.permutation(np.arange(1, n + 1))))
    two_step = permute(permute(psi, pi), sigma)
    one_step = permute(psi, sigma.compose(pi))
    assert np.array_equal(two_step.amps, one_step.amps)


def test_permute_matches_the_bitwise_gather():
    # output index t takes input index sum_j bit(t, n - pi(j)) << (n - j)
    rng = np.random.default_rng(23)
    for n in range(1, 7):
        psi = StateVector(n, rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n))
        pi = QubitPermutation(map(int, rng.permutation(np.arange(1, n + 1))))
        src = [sum(((t >> (n - pi(j))) & 1) << (n - j) for j in range(1, n + 1))
               for t in range(2 ** n)]
        assert np.array_equal(permute(psi, pi).amps, psi.amps[src])


def test_permute_size_mismatch():
    with pytest.raises(DomainError):
        permute(ghz(3), QubitPermutation.identity(4))


# --- local operators --------------------------------------------------------

def test_apply_local_identity_and_scaling():
    psi = random_state(3, 17)
    eye = np.eye(2)
    assert np.allclose(apply_local(psi, [eye] * 3).amps, psi.amps, atol=1e-15)
    scaled = apply_local(psi, [2.5 * eye, eye, eye])
    assert np.allclose(scaled.amps, 2.5 * psi.amps, atol=1e-14)


def test_apply_local_bit_flip():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    n = 4
    eye = np.eye(2)
    for k in range(1, n + 1):
        for idx in (0, 5, 9):
            basis = named_state("basis", n, extra=idx)
            ops = [eye] * n
            ops[k - 1] = x
            out = apply_local(basis, ops)
            assert out.amps[idx ^ (1 << (n - k))] == 1.0


def test_apply_single_matches_apply_local():
    rng = np.random.default_rng(23)
    eye = np.eye(2)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        psi = StateVector(n, rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n))
        k = int(rng.integers(1, n + 1))
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ops = [eye] * n
        ops[k - 1] = m
        assert np.allclose(apply_single(psi, k, m).amps, apply_local(psi, ops).amps, atol=1e-13)


def test_apply_at_broadcasts_operator_and_state_batches():
    rng = np.random.default_rng(37)
    n = 5
    amps = rng.standard_normal((3, 2 ** n)) + 1j * rng.standard_normal((3, 2 ** n))
    ops = rng.standard_normal((2, 3, 2, 2)) + 1j * rng.standard_normal((2, 3, 2, 2))
    for k in range(1, n + 1):
        out = _apply_at(amps, n, k, ops)
        assert out.shape == (2, 3, 2 ** n) and not out.flags.writeable
        for b, t in np.ndindex(2, 3):
            ref = [np.eye(2)] * n
            ref[k - 1] = ops[b, t]
            want = apply_local(StateVector(n, amps[t]), ref).amps
            assert np.allclose(out[b, t], want, atol=1e-13)
    with pytest.raises(DomainError):
        _apply_at(amps, n, n + 1, ops)


def _one_qubit_at_a_time(amps, n, ops):
    for k in range(1, n + 1):
        amps = _apply_at(amps, n, k, ops[..., k - 1, :, :])
    return amps


@pytest.mark.parametrize("n", range(1, 7))
def test_apply_each_matches_one_qubit_at_a_time(n):
    rng = np.random.default_rng(300 + n)

    def draw(*shape):  # unit rows or unit operators, so an absolute tolerance suits every n
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        axes = (-2, -1) if shape[-2:] == (2, 2) else -1
        return x / np.linalg.norm(x, axis=axes, keepdims=True)

    cases = [(draw(3, 2 ** n), draw(3, n, 2, 2)),  # per-row operators
             (draw(2 ** n), draw(4, n, 2, 2)),  # one state, a stack of operator tuples
             (draw(3, 2 ** n), np.stack([draw(2, 2) for _ in range(n)]))]  # one tuple for a batch
    for amps, ops in cases:
        out = _apply_each(amps, n, ops)
        want = _one_qubit_at_a_time(amps, n, ops)
        assert out.shape == want.shape
        assert np.abs(out - want).max() <= 1e-13
        assert out.flags.c_contiguous and not out.flags.writeable
    psi = StateVector(n, cases[1][0])
    ops = [draw(2, 2) for _ in range(n)]
    assert np.array_equal(apply_local(psi, ops).amps, _apply_each(psi.amps, n, np.stack(ops)))


def _peak_ratio(fn, psi):
    """Peak bytes traced while fn runs, over the bytes of the input state."""
    fn()  # first call outside the trace, so no one-off import or cache counts
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    return peak / psi.amps.nbytes


def test_random_state_peaks_at_the_state_and_one_real_draw():
    # the state plus the Gaussian draw of its real parts; a conjugate copy for
    # the norm, or a copy of the drawn row on adoption, reads 2x
    psi = random_state(16, 5)
    assert _peak_ratio(lambda: random_state(16, 5), psi) <= 1.6


def test_operator_results_are_adopted_without_a_copy():
    # the result array and one in-flight operand; a further copy of the
    # result, as when StateVector had to copy a writable array, reads 3x
    psi = random_state(16, 41)
    ops = [random_operator("general", 200 + i) for i in range(16)]
    for k in (1, 9, 16):
        assert _peak_ratio(lambda: apply_single(psi, k, ops[0]), psi) <= 2.1
    assert _peak_ratio(lambda: apply_local(psi, ops), psi) <= 2.1


def test_apply_single_ghz4_diagonal():
    out = apply_single(ghz(4), 1, np.diag([0.3, 0.7]))
    assert abs(out.amps[0] - 0.3 * RT2) < 1e-15
    assert abs(out.amps[15] - 0.7 * RT2) < 1e-15


def test_apply_local_permutation_equivariance():
    # moving the state then acting with correspondingly moved operators is
    # the same as acting first and moving afterwards
    rng = np.random.default_rng(29)
    for n in (3, 4, 6):
        psi = StateVector(n, rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n))
        ops = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(n)]
        pi = QubitPermutation(map(int, rng.permutation(np.arange(1, n + 1))))
        moved_ops = [None] * n
        for j in range(1, n + 1):
            moved_ops[pi(j) - 1] = ops[j - 1]
        lhs = apply_local(permute(psi, pi), moved_ops)
        rhs = permute(apply_local(psi, ops), pi)
        assert np.allclose(lhs.amps, rhs.amps, atol=1e-12)


def test_unitary_preserves_norm():
    psi = random_state(4, 31)
    ops = [random_operator("unitary", 100 + i) for i in range(4)]
    assert abs(apply_local(psi, ops).norm() - 1.0) < 1e-10


def test_apply_local_wrong_count():
    with pytest.raises(DomainError):
        apply_local(ghz(3), [np.eye(2)] * 2)
    with pytest.raises(DomainError):
        apply_single(ghz(3), 1, np.eye(3))


# --- named states and products ----------------------------------------------

def test_named_states():
    g2 = named_state("ghz", 2)
    assert np.allclose(g2.amps, [RT2, 0, 0, RT2], atol=1e-15)
    w3 = named_state("w", 3)
    expected = np.zeros(8)
    expected[[1, 2, 4]] = 1 / math.sqrt(3)
    assert np.allclose(w3.amps, expected, atol=1e-15)
    b5 = named_state("basis", 3, extra=5)
    assert b5.amps[5] == 1.0 and np.count_nonzero(b5.amps) == 1
    with pytest.raises(DomainError):
        named_state("bell", 3)
    with pytest.raises(DomainError):
        named_state("fancy", 3)
    with pytest.raises(DomainError):
        named_state("ghz", 0)
    with pytest.raises(DomainError):
        named_state("w", 1)


def test_build_product_single_factor_identity():
    psi = build_product(ProductExpression((ProductFactor(ghz(3), (1, 2, 3)),)))
    assert np.array_equal(psi.amps, ghz(3).amps)


def test_build_product_matches_tensor_plus_permutation():
    expr = ProductExpression((ProductFactor(ghz(4), (1, 4, 5, 6)),
                              ProductFactor(bell(), (2, 3))))
    psi = build_product(expr)
    assert expr.n == psi.n == 6
    manual = permute(tensor(ghz(4), bell()), QubitPermutation((1, 4, 5, 6, 2, 3)))
    assert np.array_equal(psi.amps, manual.amps)


def test_build_product_label_errors(monkeypatch):
    with pytest.raises(DomainError):
        build_product(ProductExpression((ProductFactor(bell(), (1, 2)),
                                         ProductFactor(bell(), (2, 3)))))
    with pytest.raises(DomainError):
        build_product(ProductExpression((ProductFactor(bell(), (1, 4)),)))
    with pytest.raises(DomainError, match="no factors"):
        build_product(ProductExpression(()))
    with pytest.raises(DomainError, match="carries 3 labels"):
        build_product(ProductExpression((ProductFactor(bell(), (1, 2, 3)),)))
    monkeypatch.setattr(state_module, "DEFAULT_MAX_QUBITS", 3)
    with pytest.raises(CapacityError):
        build_product(ProductExpression((ProductFactor(bell(), (1, 2)),
                                         ProductFactor(bell(), (3, 4)))))


def test_parse_product_expression():
    expr = parse_product_expression("ghz:3@1,2,3 x bell@4,5")
    assert len(expr.factors) == 2
    assert expr.factors[0].labels == (1, 2, 3)
    psi = build_product(expr)
    assert np.array_equal(psi.amps, tensor(ghz(3), bell()).amps)

    basis = parse_product_expression("basis:2:3@1,2")
    assert build_product(basis).amps[3] == 1.0


def test_parse_product_expression_errors():
    with pytest.raises(ParseError):
        parse_product_expression("")
    with pytest.raises(ParseError) as exc:
        parse_product_expression("ghz:3@1,2")
    assert exc.value.column == 1
    with pytest.raises(ParseError) as exc:
        parse_product_expression("bell@1,2 bell@3,4")
    assert exc.value.column == 10  # second factor where the separator belongs
    with pytest.raises(ParseError):
        parse_product_expression("bell@1,2 x")
    with pytest.raises(ParseError):
        parse_product_expression("blub:3@1,2,3")
    with pytest.raises(ParseError, match="found separator 'x'"):
        parse_product_expression("x bell@1,2")
    with pytest.raises(ParseError, match="malformed factor"):
        parse_product_expression("ghz3")
    with pytest.raises(ParseError, match="has no labels"):
        parse_product_expression("ghz:3@,")
    # past int()'s digit limit a label is a ValueError, not a huge number
    with pytest.raises(ParseError, match="bad label list"):
        parse_product_expression("bell@1," + "9" * 5000)


# --- random generation ------------------------------------------------------

def test_random_state_normalized_and_deterministic():
    for n in (2, 5):
        psi = random_state(n, 42)
        assert abs(psi.norm() - 1.0) < 1e-12
        again = random_state(n, 42)
        assert np.array_equal(psi.amps, again.amps)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("n, count", [(1, 3), (2, 1000), (3, 1000), (5, 300), (9, 2000), (12, 100),
                                      (20, 1), (18, 5), (19, 3), (3, 0)])
def test_random_batch_keeps_the_bits_of_complex_division(n, count, workers, monkeypatch):
    # the formula the batch is pinned to: both draws whole, then a complex
    # division by each row's norm; the batch draws in blocks, every row
    # spanning several of them at n >= 18, and copies them on the pool with two workers
    monkeypatch.setattr(state_module, "_WORKERS", workers)
    for seed in (7, 123, 2024):
        rng = np.random.default_rng(seed)
        want = np.empty((count, 1 << n), dtype=np.complex128)
        want.real = rng.standard_normal((count, 1 << n))
        want.imag = rng.standard_normal((count, 1 << n))
        flat = want.view(np.float64)
        want /= np.sqrt(np.vecdot(flat, flat))[:, None]
        assert random_state_batch(n, count, seed).tobytes() == want.tobytes(), seed


def test_random_batch_over_capacity_is_refused_before_allocating(monkeypatch):
    monkeypatch.setattr(state_module, "DEFAULT_MAX_QUBITS", 10)
    assert random_state_batch(4, 64, 1).shape == (64, 16)  # exactly 2**10 amplitudes
    monkeypatch.setattr(np, "empty", None)  # any allocation would raise TypeError
    with pytest.raises(CapacityError):
        random_state_batch(4, 65, 1)
    with pytest.raises(CapacityError):
        random_state_batch(11, 1, 1)
    with pytest.raises(DomainError):
        random_state_batch(0, 1, 1)


def test_norm_past_the_float_range_is_the_true_norm():
    # each of the two slices of the squares' sum is finite; their total is not
    amps = np.full(1 << 16, 6e151)
    half = state_module._NORM_SLICE // 2
    assert math.isfinite(np.einsum("i,i->", amps[:half], amps[:half]))
    psi = StateVector(16, amps)
    assert math.isclose(psi.norm(), 6e151 * 256, rel_tol=4 * 2.0 ** -52)  # 6e151 * 256 is exact
    assert math.isclose(psi.normalized().norm(), 1.0, rel_tol=4 * 2.0 ** -52)
    assert StateVector(1, np.zeros(2)).norm() == 0.0
    assert StateVector(1, np.array([math.inf, 1])).norm() == math.inf
    assert math.isnan(StateVector(1, np.array([math.nan, 1])).norm())


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e308, 1.7e308, 2.0 ** 1022, 2.0 ** -1030])
def test_norm_and_normalized_at_the_edges_of_the_float_range(scale):
    psi = StateVector(2, np.array([scale, 0, 0, scale]))
    # at 1.7e308 both sides are inf: the norm itself passes the float range
    assert math.isclose(psi.norm(), math.sqrt(2) * scale, rel_tol=4 * 2.0 ** -52)
    assert np.allclose(psi.normalized().amps, [2 ** -0.5, 0, 0, 2 ** -0.5], rtol=2e-16, atol=0)


def test_norm_sums_each_slice_pairwise():
    # numpy sums a slice's squares pairwise; fsum adds the slices
    def pairwise(amps):
        flat = amps.view(np.float64)
        step = state_module._NORM_SLICE
        return math.sqrt(math.fsum(np.square(flat[k:k + step]).sum()
                                   for k in range(0, flat.size, step)))

    for n in (1, 2, 5, 15, 17, 18):
        for seed in range(3):
            amps = random_state(n, seed).amps
            for scale in (1.0, 3.7, 1e-120, 1e120):
                assert state_module._norm(amps * scale) == pairwise(amps * scale), (n, seed, scale)
    for row in random_state_batch(6, 40, 11):
        assert state_module._norm(row) == pairwise(row)
    # equal amplitudes, where a running sum drifts: 161 ulp at 6e100, 37 at 0.1
    for value, ulps in ((6e100, 0), (6e200, 0), (0.1, 2), (0.3, 2)):
        for n, norm in ((16, value * 256), (17, value * 512)):
            amps = np.full(1 << n, value if n == 16 else complex(value, value))
            assert abs(StateVector(n, amps).norm() - norm) <= ulps * np.spacing(norm), (value, n)


def test_random_operator_kinds():
    sl = random_operator("special_linear", 1)
    assert abs(np.linalg.det(sl) - 1.0) < 1e-9
    u = random_operator("unitary", 2)
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-10)
    c = random_operator("contraction", 3)
    assert np.linalg.svd(c, compute_uv=False)[0] <= 1.0 + 1e-12
    g = random_operator("general", 4)
    assert np.array_equal(g, random_operator("general", 4))
    with pytest.raises(DomainError):
        random_operator("hermitian", 5)


def _operator_one_at_a_time(kind, s):
    """random_operator(kind, s) drawn one matrix at a time, as it was before batching."""
    rng = np.random.default_rng(s)

    def gaussian():
        return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))

    if kind == "special_linear":
        while abs(np.linalg.det(m := gaussian())) <= 1e-6:
            pass
        return m / np.sqrt(np.linalg.det(m))
    if kind == "unitary":
        return _unitary(gaussian())
    if kind == "contraction":
        return _contraction(gaussian(), rng.uniform(0.25, 1.0))
    return gaussian()


def test_batched_operator_builders_match_random_operator():
    # the suites build operators in batches; a batch of one from a seed's
    # generator, random_operator and the one-at-a-time draw agree bit for bit
    gen = np.random.default_rng
    for s in range(200):
        rng = gen(s)
        built = {"general": _ginibre(gen(s), (1,))[0],
                 "special_linear": _special_linear(gen(s), (1,))[0],
                 "unitary": _unitary(_ginibre(gen(s), (1,)))[0],
                 "contraction": _contraction(_ginibre(rng, (1,)), rng.uniform(0.25, 1.0, 1))[0]}
        for kind, m in built.items():
            want = _operator_one_at_a_time(kind, s).view(np.float64)
            assert np.array_equal(random_operator(kind, s).view(np.float64), want)
            assert np.array_equal(m.view(np.float64), want)


def test_special_linear_batches_redraw_small_determinants(monkeypatch):
    # a matrix with |det| <= 1e-6 is drawn again; the others keep their draw
    real = state_module._ginibre
    calls = []

    def first_singular(rng, shape=()):
        g = real(rng, shape)
        if not calls:
            g[1] = [[1.0, 2.0], [2.0, 4.0]]
        calls.append(tuple(shape))
        return g

    monkeypatch.setattr(state_module, "_ginibre", first_singular)
    sl = _special_linear(np.random.default_rng(3), (4,))
    assert calls == [(4,), (1,)]
    assert np.allclose(np.linalg.det(sl), 1.0, atol=1e-9)
    monkeypatch.undo()
    rng = np.random.default_rng(3)
    first, redrawn = _ginibre(rng, (4,)), _ginibre(rng, (1,))
    first[1] = redrawn[0]
    assert np.array_equal(sl, first / np.sqrt(np.linalg.det(first))[:, None, None])


# --- qsv file format ---------------------------------------------------------

def test_qsv_roundtrip_exact(tmp_path):
    psi = random_state(4, 99)
    path = tmp_path / "state.qsv"
    write_qsv(psi, path)
    back = read_qsv(path)
    assert back.n == 4
    assert np.array_equal(back.amps, psi.amps)

    text = path.read_text()
    assert text.splitlines()[0] == "qsv 1"
    assert text.splitlines()[1] == "n 4"
    assert len(text.splitlines()) == 2 + 16


def test_qsv_stream_io():
    buf = io.StringIO()
    write_qsv(bell(), buf)
    back = read_qsv(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.amps, bell().amps)


def test_qsv_parse_errors():
    with pytest.raises(ParseError) as exc:
        read_qsv(io.StringIO("qsv 2\nn 1\n0 0\n1 0\n"))
    assert exc.value.line == 1

    with pytest.raises(ParseError) as exc:
        read_qsv(io.StringIO("qsv 1\nqubits 1\n0 0\n1 0\n"))
    assert exc.value.line == 2

    with pytest.raises(ParseError) as exc:
        read_qsv(io.StringIO("qsv 1\nn 2\n0 0\n1 0\n"))
    assert "4 amplitude lines" in str(exc.value)
    assert exc.value.line == 5  # where the first missing line should be

    with pytest.raises(ParseError) as exc:
        read_qsv(io.StringIO("qsv 1\nn 1\n0 0\n1 0\n2 0\n"))
    assert exc.value.line == 5  # the first surplus line

    with pytest.raises(ParseError) as exc:
        read_qsv(io.StringIO("qsv 1\nn 1\n0 0\n1 oops\n"))
    assert exc.value.line == 4
    assert exc.value.column == 3

    for data, message, line in ((b"", "empty qsv file", 1), (b"qsv 1\n", "missing 'n <int>'", 2),
                                (b"qsv 1\nn 0\n1 0\n", "must be >= 1", 2)):
        with pytest.raises(ParseError, match=message) as exc:
            read_qsv(io.BytesIO(data))
        assert exc.value.line == line


def test_qsv_rejects_non_finite_amplitudes():
    cases = (
        ("qsv 1\nn 1\n0 0\nnan 0\n", 4, 1, "real"),
        ("qsv 1\nn 1\n0 inf\n1 0\n", 3, 3, "imaginary"),
        ("qsv 1\nn 1\n1 0\n0  -1e400\n", 4, 4, "imaginary"),  # overflows to -inf
        ("qsv 1\nn 2\n1 0\n-Infinity 0\n0 nan\n0 0\n", 4, 1, "real"),  # first one wins
    )
    for text, line, column, part in cases:
        with pytest.raises(ParseError) as exc:
            read_qsv(io.StringIO(text))
        assert (exc.value.line, exc.value.column) == (line, column)
        assert f"non-finite {part} part" in str(exc.value)


def _header_only(kind, text):
    """A source whose lines may be read one at a time, but never its whole block."""
    class HeaderOnly(kind):
        def read(self, *args):
            raise AssertionError("the amplitude block was read")

    return HeaderOnly(text if kind is io.StringIO else text.encode("ascii"))


def test_qsv_capacity_checked_before_the_amplitude_block(monkeypatch):
    for kind in (io.StringIO, io.BytesIO):
        for header in ("qsv 1\nn 27\n", "qsv 1\rn 27\r0 1\r", "qsv 1\r\nn 27\r\n"):
            with pytest.raises(CapacityError):
                read_qsv(_header_only(kind, header))
        with monkeypatch.context() as small:
            small.setattr(state_module, "DEFAULT_MAX_QUBITS", 2)
            with pytest.raises(CapacityError):
                read_qsv(_header_only(kind, "qsv 1\nn 3\n"))
    monkeypatch.setattr(state_module, "DEFAULT_MAX_QUBITS", 3)
    buf = io.StringIO()
    write_qsv(ghz(3), buf)
    buf.seek(0)
    assert read_qsv(buf).allclose(ghz(3))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("text", ["qsv 2\nn 1\n0 1\n1 0\n", "qsv 1\nqubits 1\n0 1\n1 0\n",
                                  "qsv 1\nn 0\n1 0\n", "qsv 1\n\n \n\n0 1\n1 0\n",
                                  "\n\t\nqsv 1\nn 1\n0 1\n1 0\n"])
@pytest.mark.parametrize("kind", [io.StringIO, io.BytesIO])
def test_a_refused_qsv_header_is_refused_from_its_first_lines(kind, text, newline):
    # blank lines after a refused header are read on, one at a time, as the scanner drops them
    text = text.replace("\n", newline)
    want = _outcome(_scan_qsv, text.replace("\r\n", "\n").replace("\r", "\n"))
    assert want[0].startswith(("bad qsv header", "bad qubit-count line", "qubit count must be"))
    assert _outcome(read_qsv, _header_only(kind, text)) == want


def test_a_refused_qsv_header_is_reported_before_a_later_non_ascii_byte():
    # the one kind of file whose message differs from a scan of the whole text: two faults
    text = "qsv 2\nn 1\n0 \u00e9\n1 0\n"
    assert _outcome(_scan_qsv, text)[0].startswith("non-ASCII byte 0xc3")
    assert _outcome(read_qsv, io.StringIO(text)) == (
        "bad qsv header 'qsv 2', expected 'qsv 1' (line 1, column 1)", 1, 1)


def test_qsv_non_ascii_byte_names_line_and_column(tmp_path):
    path = tmp_path / "accent.qsv"
    path.write_bytes(b"qsv 1\nn 1\n0 \xc3\xa9\n1 0\n")
    with pytest.raises(ParseError) as exc:
        read_qsv(path)
    assert (exc.value.line, exc.value.column) == (3, 3)
    assert "non-ASCII byte 0xc3" in str(exc.value)


def _outcome(parse, text):
    try:
        return parse(text).amps.view(np.uint64).tolist()
    except ParseError as exc:
        return str(exc), exc.line, exc.column


QSV_TABLE = (
    "qsv 1\nn 1\n  \t0.5\t 1 \t\n 1  0  \n",  # spaces and tabs around tokens
    "qsv 1\r\nn 1\r\n0 1\r\n1 0\r\n",  # CRLF
    "qsv 1\nn 1\n0 1\n1 0\n\n \n\t\n",  # trailing blank lines
    "qsv 1\nn 1\n0 1\n1 0",  # no final newline
    "qsv 1\nn 2\n+.5 5.\n-0 1E5\n4.9406564584124654e-324 2.2250738585072009e-308\n"
    "1e-320 -2.5e-324\n",  # sign and point forms, subnormals
    "qsv 1\nn 2\n9007199254740993 18014398509481986\n18014398509481990 0.30000000000000004\n"
    "2.2250738585072011e-308 1.0000000000000001\n-18014398509481986 3\n",  # halfway literals
    "qsv 1\nn 1\n1_0 0\n1 0\n",  # float() takes it; only the scanner does
    "qsv 1\nn 1\n0x1p3 0\n1 0\n",
    "qsv 1\nn 1\n1-2 0\n1 0\n",
    "qsv 1\nn 1\n1 0\n3 1-2\n",
    "qsv 1\nn 1\nnan 0\n1 0\n",
    "qsv 1\nn 1\n0 inf\n1 0\n",
    "qsv 1\nn 1\n0 1e400\n1 0\n",
    "qsv 1\nn 1\n1 2 3\n4\n",  # 3 tokens then 1: the right total, the wrong lines
    "qsv 1\nn 2\n0 0\n\n0 0\n1 0\n",  # blank middle line
    "qsv 1\nn 2\n0 0\n1 0\n0 1\n",  # a missing line
    "qsv 1\nn 1\n0 0\n1 0\n2 0\n",  # a surplus line
    "qsv 1\nn 1\n0 \u00e9\n1 0\n",  # a non-ASCII character
    "qsv 1\nn 1\n1e 0\n1 0\n",
    "qsv 1\nn 1\n. 0\n1 0\n",
    "qsv 1\nn 1\n1.5.5 0\n1 0\n",
    "qsv 1\nn 1\n1e+-3 0\n1 0\n",
    "qsv 1\nn 1\n+-1 0\n1 0\n",
    "qsv 1\nn 1\n--1 0\n1 0\n",
    "qsv 1\nn 1\n0 1+\n1 0\n",
    "qsv 1\nn 1\n1e5.3 0\n1 0\n",
    "qsv 1\nn 2\n1.e5 -.5e-3\n00000000001.5 1e0000005\n"
    "1234567890123456789012345 0.0000000000000000000000001234567890123456789\n-0 0\n",
    # past 24 digits, read from the first 19: just above a tie (twice), a
    # leading digit alone, and no nonzero digit among the first 19
    "qsv 1\nn 2\n9007199254740993.000000001 1.000000000000000124900091e-1\n"
    "1000000000000000000000001 0.000000000000000000000000001\n1 0\n0 1\n",
    "qsv 1\nn 1\n3e23 0\n1 0\n",  # 10**23 is no double: 3 * 1e23 is not 3e23
    "qsv 1\nn 1\n9007199254740993e-2 0\n1 0\n",  # D above 2**53: no exact double
)


@pytest.mark.parametrize("text", QSV_TABLE)
def test_qsv_reader_agrees_with_the_line_scanner(text):
    assert _outcome(read_qsv, io.StringIO(text)) == _outcome(_scan_qsv, text)


_HEAD = state_module._QSV_HEAD_BYTES
# lone '\r' and '\r\n' where the reads of the header lines end
NEWLINE_TABLE = {
    "lone CR, a header line longer than the first read":
        "qsv 1" + " " * _HEAD + "\rn 1\r0 1\r1 0\r",
    "lone CR, the first read passes the header lines": "qsv 1\rn 7\r" + "0.5 -0.25\r" * 128,
    "lone CR, a bad token": "qsv 1\rn 1\r0 1\r1 x\r",
    "the first read ends inside the header's CRLF":
        "qsv 1" + " " * (_HEAD - 6) + "\r\nn 1\r\n0 1\r\n1 0\r\n",
    "the second read ends inside the count line's CRLF":
        "qsv 1\r\nn 1" + " " * (_HEAD + 3) + "\r\n0 1\r\n1 0\r\n",
    "the first read ends inside an amplitude line's CRLF":  # its byte _HEAD - 1 is that '\r'
        "qsv 1" + " " * (_HEAD - 250) + "\rn 7\r" + "0.5 -0.25\r" * 23 + "0.5 -0.25\r\n"
        + "0.5 -0.25\r" * 104,
}


@pytest.mark.parametrize("text", list(QSV_TABLE) + [
    pytest.param(text, id=name) for name, text in NEWLINE_TABLE.items()])
def test_qsv_path_bytes_and_text_mode_agree(tmp_path, text):
    path = tmp_path / "state.qsv"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        want = _outcome(_scan_qsv, fh.read())  # the text that text mode reads
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        assert _outcome(read_qsv, fh) == want
    assert _outcome(read_qsv, path) == want
    assert _outcome(read_qsv, io.BytesIO(path.read_bytes())) == want


def _spy_maps(monkeypatch):
    """The outcome of every _map_block call of read_qsv: a map of a path's block, or None."""
    maps = []
    map_block = state_module._map_block

    def spy(fh):
        maps.append(map_block(fh))
        return maps[-1]

    monkeypatch.setattr(state_module, "_map_block", spy)
    return maps


# (text, whether a path's block is parsed from a map): a '\r' in the block, or an empty
# block, takes the read() route; a refused block is parsed from the map, then scanned
MAP_TABLE = {
    "trailing blank lines": ("qsv 1\nn 1\n0 1\n1 0\n\n \n\t\n", True),
    "tabs": ("qsv 1\nn 1\n\t0.5\t1\t\n1\t\t0\n", True),
    "CRLF": ("qsv 1\r\nn 1\r\n0 1\r\n1 0\r\n", False),
    "CRLF in the block only": ("qsv 1\nn 1\n0 1\r\n1 0\r\n", False),
    "lone CR": ("qsv 1\rn 1\r0 1\r1 0\r", False),
    "a header with an empty block": ("qsv 1\nn 2\n", False),
    "a truncated block": ("qsv 1\nn 2\n0 1\n1 0\n0.5", True),
    "a non-finite token": ("qsv 1\nn 1\n0 1\n1e400 0\n", True),
}


@pytest.mark.parametrize("text, mapped", MAP_TABLE.values(), ids=MAP_TABLE.keys())
def test_qsv_path_block_is_read_from_a_map_closed_on_return(tmp_path, monkeypatch, text, mapped):
    path = tmp_path / "state.qsv"
    path.write_bytes(text.encode("ascii"))
    with open(path, encoding="ascii") as fh:
        want = _outcome(_scan_qsv, fh.read())  # the text that text mode reads
    maps = _spy_maps(monkeypatch)
    assert _outcome(read_qsv, path) == want
    assert any(m is not None for m in maps) == mapped
    assert all(m.closed for m in maps if m is not None)
    for source in (io.BytesIO(text.encode("ascii")), io.StringIO(text)):  # never mapped
        assert _outcome(read_qsv, source) == want
    assert len(maps) <= 1


@pytest.mark.parametrize("fmt", ("%.17g", "%.6g"))
def test_qsv_path_bytes_and_text_routes_read_the_same_bits(tmp_path, monkeypatch, fmt):
    # a block split over processes, parsed from the map of a path, from bytes and from text;
    # every "%.6g" slice takes the exact product, which a "%.17g" slice never does
    values = random_state(15, 29).amps.view(np.float64).tolist()
    text, tokens = _qsv_document(values, fmt)
    want = np.array([float(token) for token in tokens]).view(np.uint64).tolist()
    path = tmp_path / "state.qsv"
    path.write_bytes(text.encode("ascii"))
    if fmt == "%.6g":
        def refuse(v):
            raise AssertionError("a slice took the double-double product")

        monkeypatch.setattr(state_module, "_split", refuse)
    maps = _spy_maps(monkeypatch)
    forks = _count_forks(monkeypatch)
    got = [read_qsv(source).amps.view(np.uint64).tolist()
           for source in (path, io.BytesIO(text.encode("ascii")), io.StringIO(text))]
    _no_child_left()
    assert got == [want] * 3
    assert len(maps) == 1 and maps[0].closed
    assert len(forks) == 3 * (state_module._ways(1 << 15) - 1)


# the formats of the property below; "%.3f*" is "%.3f" of the double times 1e12
QSV_FORMATS = ("%.17g", "%.16e", "%r", "%.6g", "%.3f", "%.3f*", "%.25e")


def _qsv_document(values, fmt):
    """(qsv text of the doubles written in fmt, two a line; the tokens in file order)."""
    if fmt == "%.3f*":
        fmt, values = "%.3f", [v * 1e12 for v in values]
    tokens = [repr(v) if fmt == "%r" else fmt % v for v in values]
    n = len(values).bit_length() - 2
    lines = "".join(f"{a} {b}\n" for a, b in zip(tokens[::2], tokens[1::2]))
    return f"qsv 1\nn {n}\n{lines}", tokens


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=16, max_size=16),
       st.sampled_from(QSV_FORMATS))
def test_qsv_reader_reads_every_double_as_float_does(values, fmt):
    text, tokens = _qsv_document(values, fmt)
    want = np.array([float(token) for token in tokens])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(state_module, "_QSV_CHUNK_BYTES", 64)  # a slice of a few lines each
        if not np.isfinite(want).all():  # "%.3f" of a double times 1e12 past the float range
            with pytest.raises(ParseError, match="non-finite"):
                read_qsv(io.StringIO(text))
            return
        got = read_qsv(io.StringIO(text))
    assert got.amps.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("fmt", QSV_FORMATS)
@pytest.mark.parametrize("chunk", (1 << 9, 1 << 18))
def test_qsv_reader_reads_wide_and_amplitude_doubles_as_float_does(monkeypatch, fmt, chunk):
    # doubles of any exponent, then amplitudes as a writer writes them, then
    # short decimals, in slices of a few lines or of the whole block: slices
    # of short tokens take the exact product, the others the double-double
    monkeypatch.setattr(state_module, "_QSV_CHUNK_BYTES", chunk)
    rng = np.random.default_rng(25)
    wide = rng.integers(0, 1 << 64, 1 << 10, dtype=np.uint64).view(np.float64)
    short = rng.integers(-10 ** 6, 10 ** 6, 1 << 10) * 10.0 ** rng.integers(-30, 30, 1 << 10)
    values = np.concatenate([np.where(np.abs(wide) < 1e290, wide, 0.5),  # "%.3f*" stays finite
                             random_state(10, 25).amps.view(np.float64), short])
    text, tokens = _qsv_document(values.tolist(), fmt)
    want = np.array([float(token) for token in tokens])
    assert read_qsv(io.StringIO(text)).amps.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("fmt", ("%.17g", "%.16e", "%r", "%.6g", "%.3f", "%.25e"))
def test_qsv_reader_proves_every_amplitude_of_common_formats(monkeypatch, fmt):
    # no token of a state written in these formats is left to float()
    values = random_state(12, 12).amps.view(np.float64).tolist()
    text, tokens = _qsv_document(values, fmt)
    refused = []
    monkeypatch.setattr(state_module, "float", lambda token: refused.append(token) or float(token),
                        raising=False)
    got = read_qsv(io.StringIO(text)).amps.view(np.uint64).tolist()
    assert refused == []
    assert got == np.array([float(token) for token in tokens]).view(np.uint64).tolist()


def test_powers_of_ten_are_the_exact_powers_rounded():
    hi, lo = state_module._powers_of_ten()
    assert len(hi) == len(lo) == state_module._POW_MAX - state_module._POW_MIN + 1
    for k in range(state_module._POW_MIN, state_module._POW_MAX + 1):
        power = fractions.Fraction(10) ** k
        i = k - state_module._POW_MIN
        assert hi[i] == float(power) and lo[i] == float(power - fractions.Fraction(hi[i])), k
    assert not hi.flags.writeable and not lo.flags.writeable


def test_import_builds_no_power_table():
    # the tables are built at the first read or write: import ntangle costs none of them
    src = str(pathlib.Path(state_module.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import ntangle; from ntangle import state; "
            "print(state._powers_of_ten.cache_info().currsize, state._format_tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["0", "0"]


def test_qsv_read_holds_the_block_and_a_bounded_parse(tmp_path, monkeypatch):
    # at most O(_QSV_CHUNK_BYTES) a process besides the block: here 4 MiB for
    # slices of 256 KiB, with the whole block read in this process
    monkeypatch.setattr(state_module, "_WORKERS", 1)
    path = tmp_path / "state.qsv"
    write_qsv(random_state(16, 16), path)
    block = path.stat().st_size - len(b"qsv 1\nn 16\n")
    read_qsv(path)  # first call outside the trace, so no one-off table counts
    tracemalloc.start()
    try:
        read_qsv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block > 8 * state_module._QSV_CHUNK_BYTES  # several slices
    assert peak - block <= 4 << 20


def test_qsv_read_of_a_path_holds_no_copy_of_the_block(tmp_path):
    # a path's block is parsed from a map of the file, whose pages are the file's own: what
    # is traced is the parse of one slice, under a quarter of the file at n=18
    path = tmp_path / "state.qsv"
    psi = random_state(18, 18)
    write_qsv(psi, path)
    read_qsv(path)  # first call outside the trace, so no one-off table counts
    tracemalloc.start()
    try:
        got = read_qsv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.amps, psi.amps)
    assert peak < path.stat().st_size / 4


def test_well_formed_qsv_never_reaches_the_scanner(tmp_path, monkeypatch):
    def refuse(text):
        raise AssertionError("the line scanner ran")

    monkeypatch.setattr(state_module, "_scan_qsv", refuse)
    psi = random_state(16, 5)  # several read chunks
    path = tmp_path / "big.qsv"
    write_qsv(psi, path)
    assert np.array_equal(read_qsv(path).amps, psi.amps)
    well_formed = QSV_TABLE[:6] + tuple(text for name, text in NEWLINE_TABLE.items() if "bad" not in name)
    for i, text in enumerate(well_formed):  # CR and CRLF too, from a path and from bytes
        path = tmp_path / f"table{i}.qsv"
        path.write_bytes(text.encode("ascii"))
        want = _outcome(_scan_qsv, text.replace("\r\n", "\n").replace("\r", "\n"))
        assert _outcome(read_qsv, path) == _outcome(read_qsv, io.BytesIO(path.read_bytes())) == want


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch):
    """The range of every forked child: (lo, hi) of the writer, (lo, end, line, stop) of the reader."""
    forks = []
    fork = state_module._fork

    def spy(work, *args):
        forks.append(args)
        return fork(work, *args)

    monkeypatch.setattr(state_module, "_fork", spy)
    return forks


def _wide_amplitudes(n, seed):
    """Gaussian amplitudes scaled by powers of ten from 1e-300 to 1e299."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return amps * 10.0 ** rng.integers(-300, 300, size=1 << n)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the block is split over forked processes")
@pytest.mark.parametrize("workers", (1, 2, 3, 5))
def test_split_qsv_read_is_bit_identical_to_one_worker(tmp_path, monkeypatch, workers):
    n = 17
    assert 1 << n >= 5 * state_module._QSV_RANGE_MIN  # five ranges at most
    monkeypatch.setattr(state_module, "_QSV_CHUNK_BYTES", 1 << 14)  # every range crosses chunks
    amps = _wide_amplitudes(n, 16)
    path = tmp_path / "state.qsv"
    write_qsv(StateVector(n, amps), path)
    assert path.stat().st_size > 8 * workers * state_module._QSV_CHUNK_BYTES
    with monkeypatch.context() as serial:
        serial.setattr(state_module, "_WORKERS", 1)
        want = read_qsv(path).amps.view(np.uint64)
    monkeypatch.setattr(state_module, "_WORKERS", workers)
    forks = _count_forks(monkeypatch)
    got = read_qsv(path).amps.view(np.uint64)
    _no_child_left()
    assert len(forks) == workers - 1
    assert (got == want).all() and (got == amps.view(np.uint64)).all()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the block is split over forked processes")
def test_split_read_makes_no_temporary_file(tmp_path, monkeypatch):
    psi = StateVector(14, _wide_amplitudes(14, 14))
    path = tmp_path / "state.qsv"
    write_qsv(psi, path)

    def no_file(*args, **kwargs):
        raise OSError("no file to be had")

    monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
    monkeypatch.setattr(state_module, "_WORKERS", 3)
    monkeypatch.setattr(state_module, "_QSV_RANGE_MIN", 1)
    forks = _count_forks(monkeypatch)
    got = read_qsv(path)
    _no_child_left()
    assert len(forks) == 2
    assert np.array_equal(got.amps.view(np.uint64), psi.amps.view(np.uint64))
    # the writer without its spools formats each round in this process
    buf = io.BytesIO()
    write_qsv(psi, buf)
    assert len(forks) == 2
    assert buf.getvalue() == path.read_bytes()


def test_read_state_adopts_the_readers_map(tmp_path):
    path = tmp_path / "state.qsv"
    write_qsv(random_state(14, 4), path)
    amps = read_qsv(path).amps
    base = amps
    while isinstance(base, np.ndarray):
        base = base.base
    assert type(base) is state_module._AmplitudeMap
    assert np.shares_memory(amps, np.frombuffer(base, dtype=np.uint8))
    assert not amps.flags.writeable
    with pytest.raises(ValueError):
        amps[0] = 1.0


def _in_a_large_block(text, n=12):
    """(file text, good bytes): a QSV_TABLE entry's amplitude lines after good ones, n qubits."""
    header, count, block = text.split("\n", 2)
    good = "0.5 -0.25\n" * ((1 << n) - (1 << int(count.split()[1])))
    return f"qsv 1\nn {n}\n" + good + block, len(good)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the block is split over forked processes")
@pytest.mark.parametrize("text", QSV_TABLE)
def test_split_qsv_read_agrees_with_the_line_scanner(tmp_path, monkeypatch, text):
    monkeypatch.setattr(state_module, "_WORKERS", 3)
    monkeypatch.setattr(state_module, "_QSV_RANGE_MIN", 1)
    path = tmp_path / "state.qsv"
    big, good = _in_a_large_block(text)
    path.write_bytes(big.encode("utf-8"))
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        want = _outcome(_scan_qsv, fh.read())  # the text that text mode reads
    forks = _count_forks(monkeypatch)
    assert _outcome(read_qsv, path) == want
    _no_child_left()
    assert len(forks) == 2 and forks[-1][0] <= good  # the last range holds the entry


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the block is split over forked processes")
def test_split_read_ends_its_ranges_at_a_last_line_longer_than_a_range(tmp_path, monkeypatch):
    monkeypatch.setattr(state_module, "_WORKERS", 3)
    monkeypatch.setattr(state_module, "_QSV_RANGE_MIN", 1)
    lines = "0.5 -0.25\n" * ((1 << 12) - 1)
    # the last line is half the block: no newline follows the second of three cuts
    text = "qsv 1\nn 12\n" + lines + " " * len(lines) + "1 0\n"
    path = tmp_path / "state.qsv"
    path.write_text(text)
    forks = _count_forks(monkeypatch)
    got = read_qsv(path)
    _no_child_left()
    assert len(forks) == 1  # two ranges, not three
    assert got.amps.view(np.uint64).tolist() == _outcome(_scan_qsv, text)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the block is split over forked processes")
def test_split_read_of_surplus_lines_goes_to_the_scanner(tmp_path, monkeypatch):
    monkeypatch.setattr(state_module, "_WORKERS", 3)
    monkeypatch.setattr(state_module, "_QSV_RANGE_MIN", 1)
    text = "qsv 1\nn 12\n" + "0.5 -0.25\n" * (2 << 12)  # the first two ranges hold 5461 lines
    path = tmp_path / "state.qsv"
    path.write_text(text)
    assert _outcome(read_qsv, path) == _outcome(_scan_qsv, text)
    _no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the block is split over forked processes")
@pytest.mark.parametrize("fault", (
    "exits 7 after writing part of its doubles", "exits 7 after writing all of its doubles",
    "raises before writing", "cannot fork"))
def test_failed_child_range_is_parsed_by_the_reader(tmp_path, monkeypatch, fault):
    psi = random_state(12, 12)
    path = tmp_path / "state.qsv"
    write_qsv(psi, path)
    monkeypatch.setattr(state_module, "_WORKERS", 3)
    monkeypatch.setattr(state_module, "_QSV_RANGE_MIN", 1)
    parent, mine = os.getpid(), []
    parse_lines, exit_ = state_module._parse_lines, os._exit

    def refuse(text):
        raise AssertionError("the line scanner ran")

    def no_fork():
        raise OSError("no process to be had")

    def spy(data, flat, lo, end, line, stop):
        if os.getpid() == parent:
            mine.append((lo, end, line, stop))
        elif fault == "raises before writing":
            raise RuntimeError("a failing child")
        elif fault == "exits 7 after writing part of its doubles":
            flat[2 * line:line + stop] = -1.0  # the first half of its doubles, wrong
            os._exit(7)
        return parse_lines(data, flat, lo, end, line, stop)

    if fault == "cannot fork":
        monkeypatch.setattr(os, "fork", no_fork)
    elif fault == "exits 7 after writing all of its doubles":
        monkeypatch.setattr(os, "_exit", lambda code: exit_(7 if os.getpid() != parent else code))
    monkeypatch.setattr(state_module, "_scan_qsv", refuse)
    monkeypatch.setattr(state_module, "_parse_lines", spy)
    forks = _count_forks(monkeypatch)
    got = read_qsv(path)
    _no_child_left()
    assert len(forks) == 2
    assert mine[1:] == forks  # this process parsed every child's range itself
    assert np.array_equal(got.amps.view(np.uint64), psi.amps.view(np.uint64))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the block is split over forked processes")
def test_interrupted_split_read_reaps_every_child(tmp_path, monkeypatch):
    path = tmp_path / "state.qsv"
    write_qsv(random_state(12, 13), path)
    monkeypatch.setattr(state_module, "_WORKERS", 3)
    monkeypatch.setattr(state_module, "_QSV_RANGE_MIN", 1)
    parent, parse_lines = os.getpid(), state_module._parse_lines

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return parse_lines(*args)

    monkeypatch.setattr(state_module, "_parse_lines", interrupted)
    with pytest.raises(KeyboardInterrupt):
        read_qsv(path)
    _no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the block is split over forked processes")
def test_interrupted_split_read_kills_a_working_child(tmp_path, monkeypatch):
    path = tmp_path / "state.qsv"
    write_qsv(random_state(12, 14), path)
    monkeypatch.setattr(state_module, "_WORKERS", 2)
    monkeypatch.setattr(state_module, "_QSV_RANGE_MIN", 1)
    parent = os.getpid()

    def stuck(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # a child still at work

    monkeypatch.setattr(state_module, "_parse_lines", stuck)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        read_qsv(path)
    _no_child_left()
    assert time.monotonic() - start < 30  # killed, not waited for


def _serial_text(psi, monkeypatch):
    with monkeypatch.context() as serial:
        serial.setattr(state_module, "_WORKERS", 1)
        buf = io.StringIO()
        write_qsv(psi, buf)
    return buf.getvalue()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the block is split over forked processes")
@pytest.mark.parametrize("workers", (1, 2, 3, 5))
def test_split_qsv_write_is_byte_identical_to_one_worker(tmp_path, monkeypatch, workers):
    n, size = 16, 1 << 12
    monkeypatch.setattr(state_module, "_QSV_ROUND", size)  # 16 ranges, `workers` per round
    monkeypatch.setattr(state_module, "_QSV_RANGE_MIN", size)  # which the floor allows
    psi = StateVector(n, _wide_amplitudes(n, 61))
    want = _serial_text(psi, monkeypatch)
    monkeypatch.setattr(state_module, "_WORKERS", workers)
    forks = _count_forks(monkeypatch)
    path, buf = tmp_path / "state.qsv", io.StringIO()
    write_qsv(psi, path)
    _no_child_left()
    write_qsv(psi, buf)
    _no_child_left()
    assert path.read_bytes() == want.encode("ascii")
    assert buf.getvalue() == want
    # the first range of each round stays in this process
    assert forks == 2 * [(k * size, (k + 1) * size) for k in range(16) if k % workers]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the block is split over forked processes")
@pytest.mark.parametrize("fault", (
    "exits 7 after writing part of its text", "exits 7 after writing all of its text",
    "raises before writing", "cannot fork"))
def test_failed_child_range_is_formatted_by_the_writer(monkeypatch, fault):
    psi = random_state(14, 14)
    want = _serial_text(psi, monkeypatch)
    monkeypatch.setattr(state_module, "_WORKERS", 3)
    monkeypatch.setattr(state_module, "_QSV_RANGE_MIN", 1)
    parent, mine = os.getpid(), []
    format_lines, exit_ = state_module._format_lines, os._exit

    def no_fork():
        raise OSError("no process to be had")

    def spy(flat, lo, hi, write):
        if os.getpid() == parent:
            mine.append((lo, hi))
        elif fault == "raises before writing":
            raise RuntimeError("a failing child")
        elif fault == "exits 7 after writing part of its text":
            format_lines(flat, lo, (lo + hi) // 2, write)  # whole lines, into its spool
            write.__self__.flush()
            os._exit(7)
        return format_lines(flat, lo, hi, write)

    if fault == "cannot fork":
        monkeypatch.setattr(os, "fork", no_fork)
    elif fault == "exits 7 after writing all of its text":
        monkeypatch.setattr(os, "_exit", lambda code: exit_(7 if os.getpid() != parent else code))
    monkeypatch.setattr(state_module, "_format_lines", spy)
    forks = _count_forks(monkeypatch)
    buf = io.StringIO()
    write_qsv(psi, buf)
    _no_child_left()
    assert len(forks) == 2
    assert mine[1:] == forks  # this process formatted every child's range itself
    assert buf.getvalue() == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the block is split over forked processes")
@pytest.mark.parametrize("where", ("_format_lines", "spool copy"))
def test_interrupted_split_write_reaps_every_child(monkeypatch, where):
    monkeypatch.setattr(state_module, "_WORKERS", 3)
    monkeypatch.setattr(state_module, "_QSV_RANGE_MIN", 1)
    parent, format_lines, make_spool = os.getpid(), state_module._format_lines, tempfile.TemporaryFile
    spools, mine = [], []

    def spool(*args, **kwargs):
        spools.append(make_spool(*args, **kwargs))
        return spools[-1]

    def interrupted(flat, lo, hi, write):
        if os.getpid() != parent:
            return format_lines(flat, lo, hi, write)
        if where == "_format_lines":
            raise KeyboardInterrupt
        format_lines(flat, lo, hi, write)
        mine.append((lo, hi))
        return True

    class Target(io.BytesIO):
        def write(self, data):  # every write after this process's own range copies a spool
            if where == "spool copy" and mine:
                raise KeyboardInterrupt
            return super().write(data)

    monkeypatch.setattr(tempfile, "TemporaryFile", spool)
    monkeypatch.setattr(state_module, "_format_lines", interrupted)
    forks = _count_forks(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        write_qsv(random_state(12, 13), Target())
    _no_child_left()
    assert len(forks) == len(spools) == 2
    assert all(spool.closed for spool in spools)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the block is split over forked processes")
def test_split_write_of_small_blocks_reaches_the_target(monkeypatch):
    monkeypatch.setattr(state_module, "_QSV_BLOCK", 16)  # each block's text fits in a file's buffer
    monkeypatch.setattr(state_module, "_WORKERS", 3)
    monkeypatch.setattr(state_module, "_QSV_RANGE_MIN", 1)
    psi = random_state(12, 21)
    forks = _count_forks(monkeypatch)
    buf = io.BytesIO()
    write_qsv(psi, buf)
    _no_child_left()
    assert len(forks) == 2
    assert buf.getvalue() == b"qsv 1\nn 12\n" + _per_pair(psi.amps.view(np.float64))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the block is split over forked processes")
def test_split_write_reads_back_bit_exact(tmp_path, monkeypatch):
    n = 16
    assert 1 << n >= 3 * state_module._QSV_RANGE_MIN
    monkeypatch.setattr(state_module, "_WORKERS", 3)
    amps = _wide_amplitudes(n, 15)
    path = tmp_path / "state.qsv"
    forks = _count_forks(monkeypatch)
    write_qsv(StateVector(n, amps), path)
    writes = len(forks)
    assert np.array_equal(read_qsv(path).amps.view(np.uint64), amps.view(np.uint64))
    _no_child_left()
    assert writes == len(forks) - writes == 2


@pytest.mark.skipif(not hasattr(signal, "SIGCHLD"), reason="no SIGCHLD to ignore")
def test_ignored_sigchld_reads_and_writes_in_one_process(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a process was forked or the line scanner ran")

    monkeypatch.setattr(state_module, "_WORKERS", 3)
    psi = random_state(16, 16)
    path, again = tmp_path / "state.qsv", tmp_path / "again.qsv"
    write_qsv(psi, path)
    monkeypatch.setattr(state_module, "_scan_qsv", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    # the kernel reaps the children itself, so their exit status is lost
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        got = read_qsv(path).amps.view(np.uint64)
        write_qsv(psi, again)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert (got == psi.amps.view(np.uint64)).all()
    assert again.read_bytes() == path.read_bytes()


def _os_references(name):
    """(module, innermost enclosing function) of every os.<name> in src/ntangle, imports included."""
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == name
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((module, function))
        if isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name == name for alias in node.names):
            found.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(pathlib.Path(state_module.__file__).parent.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return found


def test_one_fork_and_no_pipe_in_the_package():
    # the qsv reader and writer fan out through one runner, _in_ranges
    assert _os_references("fork") == [("state", "_fork")]
    assert _os_references("pipe") == []


def test_qsv_roundtrip_bit_exact_n1_to_12(tmp_path):
    rng = np.random.default_rng(2024)
    for n in range(1, 13):
        amps = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        amps *= 10.0 ** rng.integers(-300, 300, size=2 ** n)
        path = tmp_path / f"s{n}.qsv"
        write_qsv(StateVector(n, amps), path)
        assert np.array_equal(read_qsv(path).amps.view(np.uint64), amps.view(np.uint64))


# one block, two blocks, and (n = 15, 16) ranges of many blocks, forked with two CPUs or more
@pytest.mark.parametrize("n", [3, _QSV_BLOCK.bit_length() - 1, _QSV_BLOCK.bit_length(), 15, 16])
def test_qsv_writer_matches_per_amplitude_formatting(n):
    rng = np.random.default_rng(n)
    amps = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    special = [-0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.0]
    amps[:3] = np.array(special[0::2]) + 1j * np.array(special[1::2])
    amps[-1] = complex(-0.0, -0.0)
    buf = io.StringIO()
    write_qsv(StateVector(n, amps), buf)
    expected = f"qsv 1\nn {n}\n" + "".join(f"{a.real:.17g} {a.imag:.17g}\n" for a in amps)
    assert buf.getvalue() == expected


def _per_pair(x):
    """The reference text: Python's own "%.17g" of every float, two to a line."""
    return (("%.17g %.17g\n" * (len(x) // 2)) % tuple(x.tolist())).encode("ascii")


def _random_patterns(count, seed):
    """count finite doubles of uniformly random 64-bit patterns."""
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, size=count + count // 64,
                                                dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    return x[np.isfinite(x)][:count]


def _powers_of_ten():
    """Every double 10**k, k = -323..308, its negative and three neighbours on each side."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [powers]
    for direction in (0.0, math.inf):
        step = powers
        for _ in range(3):
            step = np.nextafter(step, direction)
            near.append(step)
    x = np.concatenate(near)
    return np.concatenate([x, -x])


def _ties():
    """Exact ties at the 17th digit, which round half to even, and their neighbours."""
    quarters = np.arange(-1024, 1024) * 0.5 + 0.25  # odd quarters: (2j + 1) / 4
    x = np.concatenate([2.0 ** 50 + quarters, 2.0 ** 50 - 512 + quarters, 2.0 ** 49 + quarters / 2,
                        [1234567890123456.75, 1234567890123456.25]])
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, math.inf)])
    return np.concatenate([x, -x])


def _edges():
    rng = np.random.default_rng(7)
    tiny = 2.2250738585072014e-308
    values = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, np.nextafter(tiny, 0.0), 1.7976931348623157e308,
              -1.7976931348623157e308, math.inf, -math.inf, math.nan, 1e-280, 1e280,
              np.nextafter(1e-280, 0.0), np.nextafter(1e280, math.inf), 1e-4, 9.9999999999999991e-5,
              1e16, 9999999999999998.0, 1e17, 99999999999999984.0, 0.5, 1.0, 2.0 ** 53 + 2]
    subnormals = rng.integers(1, 2 ** 52, size=1000, dtype=np.uint64).view(np.float64)
    x = np.concatenate([values, subnormals, -subnormals])
    return np.append(x, 0.0) if x.size % 2 else x


def _transformed_product():
    psi = build_product(parse_product_expression("ghz:5@1,3,5,7,9 x w:4@2,4,6,8 x bell@10,11"))
    ops = [random_operator("unitary", seed) for seed in range(psi.n)]
    return apply_local(psi, ops).amps.view(np.float64)


FORMAT_CASES = {
    "random 64-bit patterns": lambda: _random_patterns(1 << 20, 20),
    "gaussian scale 1": lambda: np.random.default_rng(1).standard_normal(1 << 17),
    "gaussian scale 2**-10": lambda: np.random.default_rng(10).standard_normal(1 << 17) * 2.0 ** -10,
    "gaussian scale 2**-20": lambda: np.random.default_rng(20).standard_normal(1 << 17) * 2.0 ** -20,
    "transformed product state": _transformed_product,
    "powers of ten and their neighbours": _powers_of_ten,
    "exact ties": _ties,
    "zeros, subnormals, extremes and non-finite values": _edges,
}


@pytest.mark.parametrize("case", FORMAT_CASES)
def test_qsv_formatter_matches_percent_17g(case):
    x = FORMAT_CASES[case]()
    assert x.size % 2 == 0
    got, want = state_module._qsv_lines(x).split(b"\n"), _per_pair(x).split(b"\n")
    assert len(got) == len(want)
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, bad[:5]


def test_qsv_formatter_splices_unproven_tokens_mid_block():
    x = np.random.default_rng(3).standard_normal(2 * _QSV_BLOCK) * 2.0 ** -9
    special = {101: math.nan, 2000: -math.inf, 2001: math.inf, 4097: 1e-300, 5000: -1e300,
               6002: 1234567890123456.75, 6003: -(2.0 ** 50 + 0.25), 7000: -0.0, 7001: 0.0}
    for i, v in special.items():
        x[i] = v
    digits, exp, proven = state_module._decimal(x, state_module._format_tables())
    assert np.flatnonzero(~proven).tolist() == sorted(special)  # zeros have no digits either
    assert state_module._qsv_lines(x) == _per_pair(x)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the block is split over forked processes")
@pytest.mark.parametrize("workers", (1, 2))
def test_qsv_path_and_text_file_get_the_same_bytes(tmp_path, monkeypatch, workers):
    n = 15
    assert 1 << n >= 2 * state_module._QSV_RANGE_MIN
    monkeypatch.setattr(state_module, "_WORKERS", workers)
    psi = StateVector(n, _wide_amplitudes(n, 150))
    forks = _count_forks(monkeypatch)
    path, text, data = tmp_path / "state.qsv", io.StringIO(), io.BytesIO()
    for target in (path, text, data):
        write_qsv(psi, target)
        _no_child_left()
    assert len(forks) == 3 * (workers - 1)
    assert path.read_bytes() == text.getvalue().encode("ascii") == data.getvalue()
    assert path.read_bytes() == b"qsv 1\nn 15\n" + _per_pair(psi.amps.view(np.float64))


def test_state_vector_adopts_frozen_arrays_and_copies_writable_ones():
    frozen = np.arange(4, dtype=np.complex128)
    frozen.flags.writeable = False
    assert np.shares_memory(StateVector(2, frozen).amps, frozen)

    source = np.zeros(4, dtype=np.complex128)
    view = source[:]
    view.flags.writeable = False  # read-only, but its base is not
    for given_amps in (source, view):
        psi = StateVector(2, given_amps)
        source[0] = 1.0
        assert psi.amps[0] == 0.0
        source[0] = 0.0

    own_map = mmap.mmap(-1, 64)  # a caller's map, writable through the map itself
    mapped = np.ndarray(4, np.complex128, buffer=own_map)
    mapped.flags.writeable = False
    psi = StateVector(2, mapped)
    assert not np.shares_memory(psi.amps, mapped)
    own_map[:8] = np.float64(1.0).tobytes()
    assert psi.amps[0] == 0.0


def test_state_vector_validation():
    with pytest.raises(DomainError):
        StateVector(2, np.zeros(3))
    with pytest.raises(DomainError):
        StateVector(0, np.zeros(1))
    psi = bell()
    with pytest.raises(ValueError):
        psi.amps[0] = 1.0  # amplitudes are read-only
