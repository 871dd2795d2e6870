"""Exact checks of the pair-form kernel on Gaussian-integer amplitudes.

With real and imaginary parts in {-3..3}, every product a_j a_k and every
partial sum of a pair form is an integer below 2**53, so float64 holds it
exactly whatever the order of summation. The kernel's complex value must
then equal an integer oracle of the defining sum with ``==``: a wrong sign or
a wrong index cannot hide under roundoff.
"""

import numpy as np
import pytest

from ntangle import measures
from ntangle.measures import _halves, _pair, _residuals, _self_pair

BOUND = 3  # |re|, |im| of every amplitude


def gaussian_integer_state(n: int, seed: int) -> np.ndarray:
    re, im = np.random.default_rng(seed).integers(-BOUND, BOUND + 1, size=(2, 1 << n))
    return re + 1j * im


def pair_oracle(x: np.ndarray, y: np.ndarray) -> complex:
    """sum_k (-1)^popcount(k) x_k y_{2^m-1-k} in int64 over integer-valued vectors."""
    m = x.size.bit_length() - 1
    # every term is at most 2 * BOUND**2 in each part: the sum fits int64 and is exact in float64
    assert (2 * BOUND**2) << m < 1 << 53
    signs = 1 - 2 * (np.bitwise_count(np.arange(1 << m, dtype=np.uint64)) & 1).astype(np.int64)
    xr, xi = x.real.astype(np.int64), x.imag.astype(np.int64)
    yr, yi = y.real[::-1].astype(np.int64), y.imag[::-1].astype(np.int64)
    return complex(int(np.sum(signs * (xr * yr - xi * yi))), int(np.sum(signs * (xr * yi + xi * yr))))


def split(amps: np.ndarray, n: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The qubit-i = 0 and = 1 halves in index order (qubit 1 is the most significant bit)."""
    index = np.arange(1 << n)
    lo = index[(index >> (n - i)) & 1 == 0]
    return amps[lo], amps[lo | (1 << (n - i))]


def cross_forms(amps: np.ndarray, n: int, monkeypatch) -> np.ndarray:
    """_residuals' cross forms B_1..B_n: each residual task hands its B_i back as it is."""
    with monkeypatch.context() as m:
        m.setattr(measures, "_odd_measure", lambda cross, lo, hi: cross)
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
    amps = gaussian_integer_state(n, 600 + n)
    cross = cross_forms(amps, n, monkeypatch)
    for i in range(1, n + 1):
        assert cross[i - 1] == _pair(*_halves(amps, n, i)) == pair_oracle(*split(amps, n, i)), i
