"""Exact checks of the pair-form kernel on Gaussian-integer amplitudes.

With real and imaginary parts in {-3..3}, every product a_j a_k and every
partial sum of a pair form is an integer below 2**53, so float64 holds it
exactly whatever the order of summation. The kernel's complex value must
then equal an integer oracle of the defining sum with ``==``: a wrong sign or
a wrong index cannot hide under roundoff.
"""

import numpy as np
import pytest

from ntangle import measures, state
from ntangle.measures import (
    _halves,
    _on_rows,
    _pair,
    _r_tangle,
    _residual,
    _residuals,
    _self_pair,
    _tau_any,
    _tau_even,
    _tau_odd,
)

BOUND = 3  # |re|, |im| of every amplitude


def gaussian_integer_state(n: int, seed: int, rows: tuple = ()) -> np.ndarray:
    re, im = np.random.default_rng(seed).integers(-BOUND, BOUND + 1, size=(2, *rows, 1 << n))
    return re + 1j * im


def chunked_rows(n: int) -> int:
    """Rows filling three chunks of the batched path and part of a fourth."""
    return 3 * measures._chunk_rows(n) + 5


def pair_oracle(x: np.ndarray, y: np.ndarray):
    """sum_k (-1)^popcount(k) x_k y_{2^m-1-k} in int64, along the last axis of integer arrays."""
    m = x.shape[-1].bit_length() - 1
    # every term is at most 2 * BOUND**2 in each part: the sum fits int64 and is exact in float64
    assert (2 * BOUND**2) << m < 1 << 53
    signs = 1 - 2 * (np.bitwise_count(np.arange(1 << m, dtype=np.uint64)) & 1).astype(np.int64)
    xr, xi = x.real.astype(np.int64), x.imag.astype(np.int64)
    yr, yi = y.real[..., ::-1].astype(np.int64), y.imag[..., ::-1].astype(np.int64)
    re, im = signs * (xr * yr - xi * yi), signs * (xr * yi + xi * yr)
    return np.sum(re, axis=-1) + 1j * np.sum(im, axis=-1)


def split(amps: np.ndarray, n: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The qubit-i = 0 and = 1 halves in index order (qubit 1 is the most significant bit)."""
    index = np.arange(1 << n)
    lo = index[(index >> (n - i)) & 1 == 0]
    return amps[..., lo], amps[..., lo | (1 << (n - i))]


def one_pass_forms(amps: np.ndarray, n: int, monkeypatch) -> np.ndarray:
    """_residuals' forms of every split, stacked as (B, L, H): its last step hands them back as they are."""
    with monkeypatch.context() as m:
        m.setattr(measures, "_odd_measure", lambda cross, low, high: np.stack([cross, low, high]))
        return _residuals(amps, n)


@pytest.mark.parametrize("n", range(3, 14))
def test_pair_is_exact_at_every_split(n):
    amps = gaussian_integer_state(n, 300 + n)
    for i in range(1, n + 1):
        lo, hi = split(amps, n, i)
        assert _pair(*_halves(amps, n, i)) == pair_oracle(lo, hi), i


@pytest.mark.parametrize("n", range(3, 14, 2))
def test_self_pair_is_exact_at_every_split(n):
    amps = gaussian_integer_state(n, 400 + n)
    for i in range(1, n + 1):
        for view, half in zip(_halves(amps, n, i), split(amps, n, i)):
            assert _self_pair(view) == pair_oracle(half, half), i


def test_pair_is_exact_on_the_threaded_path():
    n = 21
    amps = gaussian_integer_state(n, 521)
    assert 1 << (n - 1) >= measures._SPLIT_MIN
    for i in (1, 11, 20, 21):
        assert _pair(*_halves(amps, n, i)) == pair_oracle(*split(amps, n, i)), i


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 21])
def test_shared_cross_pass_equals_each_split(n, monkeypatch):
    # up to n = 15 the half is smaller than one chunk and runs as two; at n = 21 it is 32 chunks
    assert (1 << (n - 1) < measures._R_CHUNK) == (n <= 15)
    amps = gaussian_integer_state(n, 600 + n)
    cross, low, high = one_pass_forms(amps, n, monkeypatch)
    for i in range(1, n + 1):
        lo, hi = split(amps, n, i)
        lo_view, hi_view = _halves(amps, n, i)
        assert cross[i - 1] == _pair(lo_view, hi_view) == pair_oracle(lo, hi), i
        assert low[i - 1] == _self_pair(lo_view) == pair_oracle(lo, lo), i
        assert high[i - 1] == _self_pair(hi_view) == pair_oracle(hi, hi), i


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_one_pass_forms_are_exact_over_uneven_worker_ranges(workers, monkeypatch):
    # chunks of 8 indices: 2**8 / 8 = 32 chunks, which three workers cannot share evenly
    n = 9
    monkeypatch.setattr(measures, "_R_CHUNK", 8)
    monkeypatch.setattr(state, "_WORKERS", workers)
    monkeypatch.setattr(state, "_pool", None)
    amps = gaussian_integer_state(n, 690)
    try:
        cross, low, high = one_pass_forms(amps, n, monkeypatch)
        assert (state._pool is not None) == (workers > 1)
    finally:
        if state._pool is not None:
            state._pool.shutdown()
    for i in range(1, n + 1):
        lo, hi = split(amps, n, i)
        assert cross[i - 1] == pair_oracle(lo, hi), i
        assert low[i - 1] == pair_oracle(lo, lo) and high[i - 1] == pair_oracle(hi, hi), i


def test_one_state_residuals_are_the_same_on_one_and_two_workers(monkeypatch):
    n = 21
    amps = state.random_state(n, 1021).amps
    assert (1 << (n - 1)) // measures._R_CHUNK > 2  # several chunks a worker
    monkeypatch.setattr(state, "_WORKERS", 1)
    serial = _residuals(amps, n)
    monkeypatch.setattr(state, "_WORKERS", 2)
    monkeypatch.setattr(state, "_pool", None)
    try:
        pooled = _residuals(amps, n)
        assert state._pool is not None
    finally:
        if state._pool is not None:
            state._pool.shutdown()
    assert pooled.tobytes() == serial.tobytes()


# --- the batched path: chunks of rows, transposed, on the pool ---------------

# every split's pair and self forms of (2**n, rows) chunks, through the entry
# points' own adapter
_pairs = _on_rows(lambda amps, n, i: _pair(*_halves(amps, n, i)))
_self_pairs = _on_rows(lambda amps, n, i: np.stack([_self_pair(x) for x in _halves(amps, n, i)]))


@pytest.mark.parametrize("n", (4, 5, 8, 9))
def test_batched_pair_forms_are_exact_in_chunks(n):
    amps = gaussian_integer_state(n, 700 + n, (chunked_rows(n),))
    assert len(amps) > 3 * measures._chunk_rows(n) and len(amps) % measures._chunk_rows(n)
    for i in range(1, n + 1):
        lo, hi = split(amps, n, i)
        assert (_pairs(amps, n, i) == pair_oracle(lo, hi)).all(), i
        if n % 2:
            want = np.stack([pair_oracle(lo, lo), pair_oracle(hi, hi)])
            assert (_self_pairs(amps, n, i) == want).all(), i


# at n = 13 a chunk of 16 rows reads its two lowest bits turned; at n = 15 four rows run one by one
@pytest.mark.parametrize("n", (5, 9, 13, 15))
def test_batched_cross_forms_are_exact_in_chunks(n, monkeypatch):
    amps = gaussian_integer_state(n, 800 + n, (chunked_rows(n),))
    cross, low, high = one_pass_forms(amps, n, monkeypatch)
    assert cross.shape == (n, len(amps))
    for i in range(1, n + 1):
        lo, hi = split(amps, n, i)
        assert (cross[i - 1] == pair_oracle(lo, hi)).all(), i
        assert (low[i - 1] == pair_oracle(lo, lo)).all() and (high[i - 1] == pair_oracle(hi, hi)).all(), i


@pytest.mark.parametrize("n", (4, 5, 8, 9))
def test_batched_tau_is_exact_in_chunks(n):
    # every B, L and H is an integer, and so is B^2 - L H: only the modulus rounds
    amps = gaussian_integer_state(n, 900 + n, (chunked_rows(n),))
    lo, hi = split(amps, n, 1)
    cross = pair_oracle(lo, hi)
    if n % 2 == 0:
        assert (_tau_even(amps, n) == 2.0 * np.abs(cross)).all()
    else:
        want = 4.0 * np.abs(cross ** 2 - pair_oracle(lo, lo) * pair_oracle(hi, hi))
        assert (_tau_odd(amps, n) == want).all()


# from n = 20 a chunk is one state, and two of them are enough to fan out
@pytest.mark.parametrize("n", (4, 5, 8, 9, 20, 21))
def test_batched_values_are_the_same_on_one_and_two_workers(n, monkeypatch):
    rows = chunked_rows(n) if n < 20 else 2
    assert (measures._chunk_rows(n) == 1) == (n >= 20)
    amps = state.random_state_batch(n, rows, 1000 + n).reshape(1, -1, 1 << n)

    def values():
        out = [_tau_any(amps, n)]
        if n % 2:
            out += [_residuals(amps, n), _r_tangle(amps, n), _residual(amps, n, n - 1)]
        return out

    monkeypatch.setattr(state, "_WORKERS", 1)
    serial = values()
    monkeypatch.setattr(state, "_WORKERS", 2)
    monkeypatch.setattr(state, "_pool", None)
    try:
        pooled = values()
        assert state._pool is not None  # the chunks did run on the pool
    finally:
        if state._pool is not None:
            state._pool.shutdown()
    for want, got in zip(serial, pooled, strict=True):
        assert got.shape == want.shape and got.shape[-2:] == amps.shape[:-1]
        assert got.tobytes() == want.tobytes()
