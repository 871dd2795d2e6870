"""Scalar entanglement invariants and measures for pure n-qubit states.

Every production measure is built from one bilinear pair form over m = n-1
qubits, P(x, y) = sum_k (-1)^N(k) x_k y_{2^m-1-k}, of the halves lo and hi
(qubit i = 0 and = 1) of the amplitudes split on a qubit i by a strided view,
reshape(2**(i-1), 2, 2**(n-i), ...): nothing is copied or permuted. The even
measure 2|E|, E = P(lo, hi) split on qubit 1, costs exactly 2**(n-1) complex
products. The odd measure 4|B^2 - 4 L H|, with B = P(lo, hi), L = P(lo, lo)/2
and H = P(hi, hi)/2, is 4|P(lo,hi)^2 - P(lo,lo) P(hi,hi)|. For odd n, m is
even, so the terms k and ~k of a self form P(x, x) are equal and half of them,
doubled, give it: one residual costs 2**n products, not three pair forms'
3 * 2**(n-1). The residual tau^(i) takes the split on qubit i; R is the
residuals' mean. R takes every form of every split in one pass over j <
2**(n-1) (_residuals): with the signs applied once, Z_j = (-1)^N(j) a_j, each
form is a two-operand sum of Z against a view of the reversed amplitudes,
(n + 1) * 2**(n-1) products in all instead of the 3n * 2**(n-1) of 3n pair
forms. Sign and complement act bit by bit, so P contracts a ceil(m/2)-bit
block and applies the other parities to its partial sums: its tables and
temporaries stay at O(2**(n/2)). R's are two chunks of 512 KiB a worker.

The pair-form kernels take amplitudes on axis 0 with any batch axes
trailing, so their einsum inner loops run along the batch. Their entry points
(_tau_even, _tau_odd, _tau_any, _residual, _residuals, _r_tangle) take
(..., 2**n) amplitudes: one state runs as it is, and a batch runs in chunks
of rows whose size depends on n alone, each seen as a transposed (2**n, rows)
view; R copies its chunk first, so that its einsums run along the rows.

Kernels use every CPU in the process's affinity mask (`taskset -c 0` gives
one thread). The chunks of a batch run as one task each. A large state's pair
form cuts its partial sums into one slice per CPU. R with full chunks gives
each CPU a range of them; else, or in a pool thread (a chunk of a batch), the
ranges run in turn. Each partial sum is the same reduction over q at any cut,
R adds its chunks' partial sums in chunk order, and no chunk depends on the
CPU count, so every value is bit-identical at any CPU count. A batched row
may differ from the same state alone in the last bits: the sums run in
another order. A state sums its squares once: a raw report's norm and a
normalized value's divisor come from that sum. A normalized report's norm is 1.

The staggered defining sums and a flat complementary-pair sum stay as
independent oracles, as do the two formulas sourced outside the quadratic-form
family: the quartic Wong-Christensen tangle (even n, capped), and the
Coffman-Kundu-Wootters three-tangle. No measure is computed by them: the wong
measure is tau_even squared, and the three-tangle is tau_odd at n=3.

Kernels (underscore-prefixed) take raw amplitude arrays: the oracles and the
entry points above with any leading batch axes, _halves, _pair and _self_pair
in the layout above. The invariants take a StateVector and return an
InvariantValue; each measure is product_measure of its state as one factor.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, NamedTuple

import numpy as np

from . import state
from .bitops import parity_signs, sgn_star_table, sgn_table
from .errors import CapacityError, DomainError, UsageError
from .state import StateVector

__all__ = [
    "InvariantValue",
    "MeasureReport",
    "even_invariant",
    "even_invariant_pairs",
    "odd_invariant",
    "odd_invariant_pairs",
    "low_half_invariant",
    "high_half_invariant",
    "tau_even",
    "tau_odd",
    "tau",
    "tau_residual",
    "r_tangle",
    "concurrence",
    "wong_tangle",
    "three_tangle",
    "product_measure",
    "DEFAULT_WONG_CAP",
    "MEASURES",
]

# wong stays within this cap, so that its oracle _wong_tangle checks every value it gives:
# that dense quartic contraction holds several (2**n, 2**n) complex arrays, takes 0.03 / 0.09
# / 1.7 / 26 ms at n = 4 / 6 / 8 / 10 on a 2-vCPU Xeon, and at n = 12 each would be 268 MB.
DEFAULT_WONG_CAP = 10


@dataclass(frozen=True)
class InvariantValue:
    """A complex polynomial invariant, degree 2 in the amplitudes."""

    value: complex
    kind: str  # even | odd | low | high
    degree: int = 2


@dataclass(frozen=True)
class MeasureReport:
    """A measure of one state: its kind, value, qubit count and input norm.

    ``value`` is the raw homogeneous value: it lies in [0, 1] for normalized
    input but is reported as-is together with the input norm otherwise.
    ``residuals`` is the per-qubit residual vector (R only). Where the state
    came from is the caller's to record.
    """

    kind: str
    value: float
    n: int
    norm: float
    residuals: tuple | None = None


# ---------------------------------------------------------------------------
# oracles on (..., 2**n) amplitudes, and the pair form's views and sign tables
# ---------------------------------------------------------------------------

def _even_invariant(amps: np.ndarray, n: int) -> np.ndarray:
    """Staggered quadratic form over i < 2**(n-2): exactly 2**(n-1) products."""
    half = 1 << (n - 1)
    quarter = 1 << (n - 2)
    signs = sgn_star_table(n)
    even_lead = amps[..., 0:half:2]
    even_part = amps[..., ::-1][..., 0:half:2]      # indices 2^n-1-2i
    odd_lead = amps[..., 1:half + 1:2]
    odd_part = amps[..., ::-1][..., 1:half + 1:2]   # indices 2^n-2-2i
    terms = even_lead[..., :quarter] * even_part[..., :quarter] \
        - odd_lead[..., :quarter] * odd_part[..., :quarter]
    return np.sum(signs * terms, axis=-1)


def _odd_invariant(amps: np.ndarray, n: int) -> np.ndarray:
    half = 1 << (n - 1)
    eighth = 1 << (n - 3)
    signs = sgn_table(n)
    t1 = amps[..., 0:half:2][..., :eighth] * amps[..., ::-1][..., 0:half:2][..., :eighth]
    t2 = amps[..., 1:half + 1:2][..., :eighth] * amps[..., ::-1][..., 1:half + 1:2][..., :eighth]
    t3 = amps[..., half - 2::-2][..., :eighth] * amps[..., half + 1::2][..., :eighth]
    t4 = amps[..., half - 1::-2][..., :eighth] * amps[..., half::2][..., :eighth]
    return np.sum(signs * ((t1 - t2) - (t3 - t4)), axis=-1)


def _invariant_pairs(amps: np.ndarray, n: int) -> np.ndarray:
    """Pair oracle, both parities: sum_{k < 2**(n-1)} (-1)^N(k) a_k a_{2^n-1-k} (N = N* there)."""
    half = 1 << (n - 1)
    return np.sum(parity_signs(n - 1) * amps[..., :half] * amps[..., ::-1][..., :half], axis=-1)


def _half_space(n: int) -> tuple[int, int, np.ndarray]:
    if n < 3:
        raise DomainError(f"half-space invariants need n >= 3, got n={n}")
    return 1 << (n - 1), 1 << (n - 3), sgn_star_table(n - 1)


def _low_half_invariant(amps: np.ndarray, n: int) -> np.ndarray:
    half, eighth, signs = _half_space(n)
    low = amps[..., :half]
    t1 = low[..., 0::2][..., :eighth] * low[..., ::-1][..., 0::2][..., :eighth]
    t2 = low[..., 1::2][..., :eighth] * low[..., ::-1][..., 1::2][..., :eighth]
    return np.sum(signs * (t1 - t2), axis=-1)


def _high_half_invariant(amps: np.ndarray, n: int) -> np.ndarray:
    half, eighth, signs = _half_space(n)
    t1 = amps[..., half::2][..., :eighth] * amps[..., ::-1][..., 0::2][..., :eighth]
    t2 = amps[..., half + 1::2][..., :eighth] * amps[..., ::-1][..., 1::2][..., :eighth]
    return np.sum(signs * (t1 - t2), axis=-1)


def _halves(amps: np.ndarray, n: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Qubit-i = 0 and = 1 halves of (2**n, ...) amplitudes as (p, q, r, ...) views.

    q is the longer side's ceil(m/2) bits; any batch axes trail.
    """
    tail, above, below, q = amps.shape[1:], i - 1, n - i, n // 2
    if below >= above:
        v = amps.reshape((1 << above, 2, 1 << (below - q), 1 << q) + tail).swapaxes(2, 3)
        return v[:, 0], v[:, 1]
    v = amps.reshape((1 << (above - q), 1 << q, 2, 1 << below) + tail)
    return v[:, :, 0], v[:, :, 1]


@lru_cache(maxsize=None)
def _block_signs(size: int) -> np.ndarray:
    """Read-only complex (-1)^N(k), k < size: small calls then never cast a table."""
    signs = parity_signs(size.bit_length() - 1).astype(np.complex128)
    signs.flags.writeable = False
    return signs


# ---------------------------------------------------------------------------
# the pair form, on every CPU
# ---------------------------------------------------------------------------

# Kernels fan out on state's thread pool, one thread per CPU (state._WORKERS);
# numpy's einsum releases the GIL, so the threads do run at once. The pair-form
# kernels make no BLAS call: every contraction, down to the last one with the
# sign tables, is an einsum on numpy's own loops. Even a 1024 x 11 product at
# n=21 wakes OpenBLAS's threads, which then spin on the CPUs for ~0.1 s after
# it returns, in the way of the pool's threads and of whatever the process runs
# next. A pair form over a block of at least this many amplitudes (8 MB) cuts
# its partial sums over the pool: on a 2-vCPU Xeon a split of a smaller block
# costs more in dispatch than it saves. The size of one state decides, never
# the batch, which fans out by chunks of rows (_on_rows). Only _pair reads it.
_SPLIT_MIN = 1 << 19


def _pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """P(x, y) on (p, q, r, ...) block views; the sign is s(p) s(q) s(r).

    A large block cuts its (p, r, ...) partial sums into one slice per worker
    along the longer strided axis: p, or r unless r is the unit-stride one.
    Every partial sum is the same reduction over q at any cut, so the value
    is bit-identical to the uncut one.
    """
    p, q, r = (_block_signs(size) for size in x.shape[:3])
    y = y[::-1, ::-1, ::-1]
    axis = 2 if x.shape[2] > x.shape[0] and x.strides[2] != x.itemsize else 0
    length = x.shape[axis]
    ways = min(state._WORKERS, length) if x.shape[0] * x.shape[1] * x.shape[2] >= _SPLIT_MIN else 1
    step = -(-length // ways)
    cuts = [(slice(None),) * axis + (slice(k, k + step),) for k in range(0, length, step)]
    # C-order partial sums: the last einsum adds them in one order, cut or not
    parts = state._fan_out(
        lambda cut: np.einsum("pqr...,q,pqr...->pr...", x[cut], q, y[cut], order="C"), cuts)
    partial = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=min(axis, 1))
    return np.einsum("p,pr...,r->...", p, partial, r)


def _self_pair(x: np.ndarray) -> np.ndarray:
    """P(x, x) over an even number of bits: terms k and ~k are equal, so twice the q < Q/2 half.

    The complement of a q < Q/2 index lies in the upper half, and the sign
    table of the lower half is that of Q/2 entries, so the half is a pair form.
    """
    half = x.shape[1] // 2
    return 2.0 * _pair(x[:, :half], x[:, half:])


# Input with leading batch axes runs in chunks of rows whose count depends on
# n alone, never on the CPU count, so every value is the same at any count.
# Each chunk is one task on the pool; from n = 20 a chunk is one state, and
# its kernel runs whole on its pool thread (one state alone fans out inside
# its kernel). On a 2-vCPU Xeon that is as fast as running the states in
# turn, each fanning out. Medians of ten rounds in BENCH_35.json, this way
# against in turn: R on a (2, 2**21) batch 68.1 against 68.5 ms, tau 16.0
# against 16.3, and tau on (4, 2**20) 8.6 against 8.0, each inside the range
# of the other's rounds. A kernel sees
# its chunk as a transposed (2**n, rows) view. R copies it first: its einsums
# then run their inner loops along the rows at unit stride, with the whole
# chunk in one core's 2 MiB share of L2. tau reads its chunk once (even n) or
# three times (odd n), and a copy cost it more than it saved at every n.
_CHUNK_BYTES = 1 << 21


def _chunk_rows(n: int) -> int:
    return max(1, _CHUNK_BYTES >> (n + 4))


def _on_rows(kernel):
    """The kernel of (2**n, ...) amplitudes as one of (..., 2**n) amplitudes."""

    @wraps(kernel)
    def entry(amps: np.ndarray, n: int, *args) -> np.ndarray:
        if amps.ndim == 1:
            return kernel(amps, n, *args)
        lead, rows, step = amps.shape[:-1], amps.reshape(-1, amps.shape[-1]), _chunk_rows(n)
        starts = range(0, max(len(rows), 1), step)  # an empty batch: one empty chunk
        parts = state._fan_out(lambda k: kernel(rows[k:k + step].T, n, *args), starts)
        out = np.concatenate(parts, axis=-1)
        return out.reshape(out.shape[:-1] + lead)

    return entry


# product_measure refuses an overflow's inf or nan; errstate holds per thread, so each kernel holds it
@np.errstate(over="ignore", invalid="ignore")
def _odd_measure(cross: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """4|B^2 - L H| of a split's cross form B = P(lo, hi) and self forms L = P(lo, lo), H = P(hi, hi)."""
    return 4.0 * np.abs(cross ** 2 - low * high)


@_on_rows
def _tau_even(amps: np.ndarray, n: int) -> np.ndarray:
    lo, hi = _halves(amps, n, 1)
    return 2.0 * np.abs(_pair(lo, hi))


@_on_rows
def _residual(amps: np.ndarray, n: int, i: int) -> np.ndarray:
    lo, hi = _halves(amps, n, i)
    return _odd_measure(_pair(lo, hi), _self_pair(lo), _self_pair(hi))


# R runs over chunks of this many indices j < 2**(n-1) (two chunks of half of them up
# to n = 17): 512 KiB of one state, in one core's 2 MiB of L2 with two chunk buffers.
# Its ranges of chunks go to the pool once chunks are full (n >= 17); below, one worker wins.
# Batch axes trail, so einsum's inner loops run along them; under 16 rows that loop
# costs more than each state alone (2-vCPU Xeon, 2**7 states at n=15 in chunks of 4
# rows: 94 ms batched, 63 ms alone; 2**9 at n=13 in chunks of 16: 62 and 160 ms).
_R_CHUNK = 1 << 15
_R_MIN_ROWS = 16


def _bit_sums(x: np.ndarray, bit: int) -> np.ndarray:
    """(2, ...) sums of x over axis 0, by bit `bit` of the index: bit 0 first, then bit 1."""
    return x.reshape((len(x) >> bit + 1, 2, 1 << bit) + x.shape[1:]).sum(axis=(0, 2))


@_on_rows
@np.errstate(over="ignore", invalid="ignore")
def _residuals(amps: np.ndarray, n: int) -> np.ndarray:
    """Every residual of an odd-n state, stacked as (n, ...), in one pass over j < 2**(n-1).

    With Z_j = s(j) a_j and Y_j = a_~j, every form of every split is a sum of
    two-operand products over j < 2**(n-1), where e_i is qubit i's bit and s(~j
    xor e_i) = s(j) for odd n:
      B_i = sum (-1)^(j_i) Z_j Y_j,
      L_i = 2 sum_{j_i = 0} Z_j Y_(j xor e_i),  H_i = -2 sum_{j_i = 1} Z_j Y_(j xor e_i)  (i > 1),
      L_1 = 2 sum_{j < 2**(n-2)} Z_j Y_(j + 2**(n-1)),
      H_1 = 2 sum_{j >= 2**(n-2)} s(j) a_(j + 2**(n-1)) Y_j.
    Each worker takes one range of chunks of _R_CHUNK indices. A chunk signs its
    amplitudes once, and every Y is a view of the state. A split on a bit inside
    the chunk reads it as (..., 2, K) views; a split on a bit of the chunk index
    reads the partner chunk at j0 xor e_i. Each chunk writes its partial sums to
    its own row, and the rows are added in chunk order, so the value is the same
    at any CPU count. A bit whose runs of 2**b * rows amplitudes are under 64 is
    read from copies turned so that it lies above the chunk's other bits.
    """
    if amps.ndim == 2 and 1 < amps.shape[1] < _R_MIN_ROWS:
        return np.stack([_residuals(amps[:, r], n) for r in range(amps.shape[1])], axis=-1)
    amps = np.ascontiguousarray(amps)  # a batch chunk: rows at unit stride (_on_rows)
    tail, half = amps.shape[1:], 1 << (n - 1)
    size = min(_R_CHUNK, half >> 1)
    bits, count = size.bit_length() - 1, half // size
    top = count.bit_length() - 1                       # bit h of the chunk index is qubit top + 1 - h
    turn = min(bits, max(0, 6 - (math.prod(tail).bit_length() - 1)))  # bits b < turn read turned
    plain, turned = (size >> turn, 1 << turn) + tail, (1 << turn, size >> turn) + tail
    grid = (size >> bits // 2, 1 << bits // 2) + tail  # a chunk as (rows, columns)
    # a chunk's row of partial sums: B's row and column sums, each chunk bit's pair of
    # sums, each chunk-index bit's sum, and qubit 1's
    rows, pairs = grid[0], grid[0] + grid[1]
    index = pairs + 2 * bits
    part = np.empty((count, index + top + 1) + tail, dtype=complex)
    y = amps[::-1]
    signs = _block_signs(size).reshape((size,) + (1,) * len(tail))  # s(j) s(j0) in a chunk

    def pair_sums(x, u, at, out):  # Z_j Y_(j xor e) summed by bit `at` of the layout: 0, then 1
        shape = (size >> (at + 1), 2, 1 << at) + tail
        np.einsum("atk...,atk...->t...", x.reshape(shape), u.reshape(shape)[:, ::-1], out=out)

    @np.errstate(over="ignore", invalid="ignore")  # run on a pool thread, which has its own errstate
    def run(chunks: range) -> None:
        z, w = np.empty((2, size) + tail, dtype=complex)
        sums = np.empty((top + 1, grid[0]) + tail, dtype=complex)
        for out, k in zip(part[chunks.start:chunks.stop], chunks):
            j0 = k * size
            v = y[j0:j0 + size]
            np.multiply(amps[j0:j0 + size], signs, out=z)
            products = np.multiply(z, v, out=w).reshape(grid)
            products.sum(axis=1, out=out[:rows])
            products.sum(axis=0, out=out[rows:pairs])
            for h in range(top):
                partner = (k ^ (1 << h)) * size
                np.einsum("rc...,rc...->r...", z.reshape(grid),
                          y[partner:partner + size].reshape(grid), out=sums[h])
            if k < count // 2:  # L_1's half
                np.einsum("rc...,rc...->r...", z.reshape(grid),
                          y[half + j0:half + j0 + size].reshape(grid), out=sums[top])
            else:  # H_1's half
                np.multiply(amps[half + j0:half + j0 + size], signs, out=w)
                np.einsum("rc...,rc...->r...", w.reshape(grid), v.reshape(grid), out=sums[top])
            sums.sum(axis=1, out=out[index:])
            for b in range(turn, bits):
                pair_sums(z, v, b, out[pairs + 2 * b:pairs + 2 * b + 2])
            if turn:  # Z turned into w, then Y into z: bit b < turn lies at bits - turn + b
                np.copyto(w.reshape(turned), z.reshape(plain).swapaxes(0, 1))
                np.copyto(z.reshape(turned), v.reshape(plain).swapaxes(0, 1))
                for b in range(turn):
                    pair_sums(w, z, bits - turn + b, out[pairs + 2 * b:pairs + 2 * b + 2])
            if k.bit_count() & 1:  # s(j0) = -1
                np.negative(out, out=out)

    ways = min(state._WORKERS, count) if size == _R_CHUNK else 1
    bounds = [count * t // ways for t in range(ways + 1)]
    state._fan_out(run, [range(a, b) for a, b in zip(bounds, bounds[1:])])
    totals, whole = part[:, :rows].sum(axis=1), part.sum(axis=0)
    cross, low, high = np.empty((3, n) + tail, dtype=complex)
    cross[0] = totals.sum(axis=0)
    low[0], high[0] = 2.0 * _bit_sums(part[:, -1], top - 1)
    for h in range(top):  # qubit top + 1 - h
        zero, one = _bit_sums(totals, h)
        low_sum, high_sum = _bit_sums(part[:, index + h], h)
        cross[top - h], low[top - h], high[top - h] = zero - one, 2.0 * low_sum, -2.0 * high_sum
    for b in range(bits):  # qubit n - b: the columns hold the low bits // 2 bits, the rows the rest
        line, bit = (whole[rows:pairs], b) if b < bits // 2 else (whole[:rows], b - bits // 2)
        zero, one = _bit_sums(line, bit)
        low_sum, high_sum = whole[pairs + 2 * b:pairs + 2 * b + 2]
        cross[n - 1 - b], low[n - 1 - b], high[n - 1 - b] = zero - one, 2.0 * low_sum, -2.0 * high_sum
    return _odd_measure(cross, low, high)


def _tau_odd(amps: np.ndarray, n: int) -> np.ndarray:
    return _residual(amps, n, 1)


def _tau_any(amps: np.ndarray, n: int) -> np.ndarray:
    return MEASURES[_tau_kind(n)].kernel(amps, n)


def _r_tangle(amps: np.ndarray, n: int) -> np.ndarray:
    return _residuals(amps, n).mean(axis=0)


@np.errstate(over="ignore", invalid="ignore")
def _three_tangle(amps: np.ndarray) -> np.ndarray:
    """Coffman-Kundu-Wootters residual entanglement, 4|d1 - 2 d2 + 4 d3|.

    Index abc reads qubit 1 -> a (MSB), qubit 3 -> c (LSB), so a_{abc} is
    amps[4a + 2b + c]. Coded directly from the published construction; kept
    independent of the quadratic-form route it cross-checks.
    """
    a000, a001, a010, a011, a100, a101, a110, a111 = (amps[..., k] for k in range(8))
    d1 = (a000 * a111) ** 2 + (a001 * a110) ** 2 + (a010 * a101) ** 2 + (a100 * a011) ** 2
    d2 = (a000 * a111 * a011 * a100 + a000 * a111 * a101 * a010
          + a000 * a111 * a110 * a001 + a011 * a100 * a101 * a010
          + a011 * a100 * a110 * a001 + a101 * a010 * a110 * a001)
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return 4.0 * np.abs(d1 - 2.0 * d2 + 4.0 * d3)


@np.errstate(over="ignore", invalid="ignore")
def _wong_tangle(amps: np.ndarray, n: int) -> np.ndarray:
    """Quartic epsilon-contraction over four amplitude copies of (..., 2**n) amplitudes.

    Slots 1..n-1 pair the first/second and third/fourth copies, slot n pairs
    first/third and second/fourth. The inner pairing over slots 1..n-1 is
    nonzero only for index pairs differing in every one of those bits, so the
    2**(4n)-term sum is sum(t * (last @ t @ last.T)) over the dense (2**n, 2**n)
    pairing t, where last[i, j] = eps[i & 1, j & 1] pairs slot n. A product
    with last only sums by the lowest bit of an index, so with s the 2x2 sums
    of t by the parities of its indices the sum is sum(s * (eps @ s @ eps.T)),
    2 det(s): no BLAS call, whose threads would outlast it.
    """
    dim = 1 << n
    x = np.arange(dim)
    xor = x[:, None] ^ x[None, :]
    lead_signs = np.where(np.bitwise_count((x >> 1).astype(np.uint64)) & 1, -1, 1)
    pair_upper = np.where((xor | 1) == dim - 1, lead_signs[:, None], 0)
    t = (amps[..., :, None] * amps[..., None, :]) * pair_upper
    s = t.reshape(t.shape[:-2] + (dim >> 1, 2, dim >> 1, 2)).sum(axis=(-4, -2))
    return 4.0 * np.abs(s[..., 0, 0] * s[..., 1, 1] - s[..., 0, 1] * s[..., 1, 0])


# ---------------------------------------------------------------------------
# the table of measures, and the public operations
# ---------------------------------------------------------------------------

class _Measure(NamedTuple):
    cli: str                        # the `ntangle compute --measure` name
    kernel: Callable                # its pair-form entry point above: (amps, n, *args) -> values
    sizes: str                      # "even n" or "odd n" (n >= 2), or "n=<k>", as errors name them
    degree: int                     # scaling the amplitudes by c scales the value by |c|**degree
    bench: str | None               # the `ntangle bench` row that times the kernel, if one does
    products: Callable[[int], int]  # complex amplitude products at n qubits


# Every measure, keyed by the kind of its report, which is also the name of its public
# function (tau reports as tau_even or tau_odd), in the order the CLI lists them.
MEASURES = {
    "tau_even": _Measure("tau-even", _tau_even, "even n", 2, "quadratic", lambda n: 1 << (n - 1)),
    "tau_odd": _Measure("tau-odd", _tau_odd, "odd n", 4, "odd", lambda n: 1 << n),
    "r_tangle": _Measure("r", _r_tangle, "odd n", 4, "r", lambda n: (n + 1) << (n - 1)),
    "concurrence": _Measure("concurrence", _tau_even, "n=2", 2, None, lambda n: 1 << (n - 1)),
    "three_tangle": _Measure("three-tangle", _tau_odd, "n=3", 4, None, lambda n: 1 << n),
    "wong_tangle": _Measure("wong", _tau_even, "even n", 4, None, lambda n: 1 << (n - 1)),
    "tau_residual": _Measure("residual:<i>", _residual, "odd n", 4, "residual", lambda n: 1 << n),
}

# bench's quartic row: the oracle _wong_tangle of every wong value, and its products: the dense
# pairing's 2**(2n) and the determinant's 2
_QUARTIC = _Measure("wong", _wong_tangle, "even n", 4, "quartic", lambda n: (1 << (2 * n)) + 2)


def _tau_kind(n: int) -> str:
    """tau's row of MEASURES at n qubits: tau_even for even n, tau_odd for odd n."""
    return "tau_odd" if n % 2 else "tau_even"


def _check_wong_cap(n: int) -> None:
    """Refuse the dense quartic contraction past DEFAULT_WONG_CAP qubits."""
    if n > DEFAULT_WONG_CAP:
        raise DomainError(
            f"wong_tangle at n={n} exceeds the cap of {DEFAULT_WONG_CAP}: the dense contraction "
            f"holds several (2**n, 2**n) complex arrays of {16 << (2 * n) >> 20} MiB each"
        )


def _row(kind: str, n: int, what: str = "") -> _Measure:
    """The row of a measure once n is a size it takes; an error names what, else the kind.
    An invariant takes the sizes of the measure it builds: E tau_even's, B, L and H tau_odd's."""
    row, what = MEASURES[kind], what or kind
    if n < 2 and row.sizes.endswith(" n"):
        raise DomainError(f"{what} needs at least 2 qubits, got n={n}")
    if row.sizes not in (f"n={n}", "odd n" if n % 2 else "even n"):
        raise DomainError(f"{what} is defined for {row.sizes} only, got n={n}")
    return row


def even_invariant(psi: StateVector) -> InvariantValue:
    """The degree-2 invariant of an even-n state (the staggered defining sum)."""
    _row("tau_even", psi.n, "even_invariant")
    return InvariantValue(complex(_even_invariant(psi.amps, psi.n)), "even")


def even_invariant_pairs(psi: StateVector) -> InvariantValue:
    """Same invariant written as a sum over complementary index pairs."""
    _row("tau_even", psi.n, "even_invariant_pairs")
    return InvariantValue(complex(_invariant_pairs(psi.amps, psi.n)), "even")


def odd_invariant(psi: StateVector) -> InvariantValue:
    """The degree-2 full-range invariant of an odd-n state (four-term defining sum)."""
    _row("tau_odd", psi.n, "odd_invariant")
    return InvariantValue(complex(_odd_invariant(psi.amps, psi.n)), "odd")


def odd_invariant_pairs(psi: StateVector) -> InvariantValue:
    """Same invariant written as a sum over complementary index pairs."""
    _row("tau_odd", psi.n, "odd_invariant_pairs")
    return InvariantValue(complex(_invariant_pairs(psi.amps, psi.n)), "odd")


def low_half_invariant(psi: StateVector) -> InvariantValue:
    """Quadratic form pairing indices inside the top-bit-0 half (odd n)."""
    _row("tau_odd", psi.n, "low_half_invariant")
    return InvariantValue(complex(_low_half_invariant(psi.amps, psi.n)), "low")


def high_half_invariant(psi: StateVector) -> InvariantValue:
    """Quadratic form pairing top-bit-1 indices across the halves (odd n)."""
    _row("tau_odd", psi.n, "high_half_invariant")
    return InvariantValue(complex(_high_half_invariant(psi.amps, psi.n)), "high")


def _report(kind: str, value: float, n: int, norm: float, residuals=None) -> MeasureReport:
    if not all(map(math.isfinite, (value, norm, *(residuals or ())))):
        raise DomainError(f"{kind} of these raw amplitudes overflows the float range (value "
                          f"{value:g}, norm {norm:g}); normalize the state first")
    return MeasureReport(kind=kind, value=value, n=n, norm=norm, residuals=residuals)


def tau_even(psi: StateVector) -> MeasureReport:
    """Even-n measure 2|E|."""
    return product_measure(state._one_factor(psi), "tau_even", normalize=False)


def tau_odd(psi: StateVector) -> MeasureReport:
    """Odd-n measure 4|B^2 - 4 L H|."""
    return product_measure(state._one_factor(psi), "tau_odd", normalize=False)


def tau(psi: StateVector) -> MeasureReport:
    """Parity dispatch: the even measure for even n, the odd measure for odd n."""
    return product_measure(state._one_factor(psi), "tau", normalize=False)


def tau_residual(psi: StateVector, i: int) -> MeasureReport:
    """Residual measure with respect to qubit i: the odd measure after swapping 1 and i."""
    return product_measure(state._one_factor(psi), "tau_residual", i, normalize=False)


def r_tangle(psi: StateVector) -> MeasureReport:
    """Arithmetic mean of the per-qubit residual measures (odd n), with the residuals."""
    return product_measure(state._one_factor(psi), "r_tangle", normalize=False)


def concurrence(psi: StateVector) -> MeasureReport:
    """Two-qubit concurrence 2|a0 a3 - a1 a2|: the even measure's kernel at n=2."""
    return product_measure(state._one_factor(psi), "concurrence", normalize=False)


def wong_tangle(psi: StateVector) -> MeasureReport:
    """Wong-Christensen quartic tangle, tau_even squared, even n <= DEFAULT_WONG_CAP (oracle _wong_tangle)."""
    return product_measure(state._one_factor(psi), "wong_tangle", normalize=False)


def three_tangle(psi: StateVector) -> MeasureReport:
    """Coffman-Kundu-Wootters three-qubit residual entanglement, tau_odd at n=3 (oracle: _three_tangle)."""
    return product_measure(state._one_factor(psi), "three_tangle", normalize=False)


# Past this many qubits in all, product_measure refuses a product: its work and output (R's
# residuals, a label error's labels) grow with n, while the capacity bounds each factor alone.
_PRODUCT_CAP = 1 << 10


def product_measure(expr: state.ProductExpression, function: str, *args,
                    normalize: bool = True) -> MeasureReport:
    """function of the product state of expr by the paper's product rules, factor by factor.

    The one evaluator of every measure, which never builds the product state: a
    public function's state and a qsv file are products of one factor on 1..n.
    For n even (tau_even, concurrence; wong_tangle squared) the value is the product
    of the factors' tau_even values when every factor has even size, else 0.
    For n odd the residual about qubit q is 0 when q's factor has even size or
    one qubit, or when more than one factor has odd size; otherwise it is that
    factor's residual about q's place in its labels, times the other factors'
    tau_even squared. tau_odd is the residual about qubit 1, R their mean in
    label order, and three_tangle (n=3) is tau_odd.

    The measures are homogeneous, so a normalized factor's value is its raw
    kernel over its sum of squares to half the measure's degree, the one sum
    its norm() reads (StateVector._scaled_amps); no normalized copy is made,
    and a normalized report's norm is 1. Raw, each factor's value is its
    kernel's, and the norm is the product of the factors' norms. One factor in
    label order gives the bits of its kernel raw; other values may differ from
    the product state's by a few ulp. Each factor keeps the capacity, and the
    product is refused past _PRODUCT_CAP qubits. A size the measure does not
    take is refused before the zero vector (tau's n >= 2 after), the quartic
    cap on the product's n and a label after. An unknown function, or
    arguments other than tau_residual's one qubit label, are refused first.
    """
    if function != "tau" and function not in MEASURES:
        raise UsageError(f"unknown measure {function!r}")
    if len(args) != (function == "tau_residual"):
        wants = "one qubit label" if function == "tau_residual" else "no arguments"
        raise UsageError(f"{function} takes {wants}, got {len(args)}")
    n = len(state._check_product(expr))
    for f in expr.factors:
        state._check_capacity(f"factor of {f.state.n} qubits", f.state.n)
    if n > _PRODUCT_CAP:
        raise CapacityError(f"product of {n} qubits exceeds the cap of {_PRODUCT_CAP} qubits"
                            f" of a product measure")
    kind = _tau_kind(n) if function == "tau" else function
    if function != "tau":  # refuse the size before the zero vector; tau refuses after
        _row(kind, n)
    factors = [f.state for f in expr.factors]
    amps, squares = zip(*(psi._scaled_amps() if normalize else (psi.amps, 1.0) for psi in factors))
    row = _row(kind, n, function)
    if kind == "wong_tangle":
        _check_wong_cap(n)
    qubit = 1  # the residual tau_odd and three_tangle take
    if kind == "tau_residual":
        try:
            qubit = operator.index(args[0])  # an int or a numpy integer, never 1.5
        except TypeError:
            raise DomainError(f"qubit label {args[0]!r} is not an integer") from None
        if not 1 <= qubit <= n:
            raise DomainError(f"qubit label {qubit} out of range 1..{n}")
    norm = 1.0 if normalize else math.prod(psi.norm() for psi in factors)

    def unit(k: int, raw, degree: int) -> float:  # factor k's raw value over squares[k] ** (degree // 2)
        return float(raw) / (squares[k] if degree == 2 else squares[k] * squares[k])

    if n % 2 == 0:
        values = (unit(k, row.kernel(amps[k], psi.n), 2) for k, psi in enumerate(factors))
        t = math.prod(values) if all(psi.n % 2 == 0 for psi in factors) else 0.0
        # t * t: a raw t**2 past the float range would raise, where a product gives inf
        return _report(kind, t * t if row.degree == 4 else t, n, norm)
    qubits = range(1, n + 1) if kind == "r_tangle" else (qubit,)
    odd = [k for k, psi in enumerate(factors) if psi.n % 2]
    k = odd[0]
    focus, size, own = amps[k], factors[k].n, expr.factors[k].labels
    if len(odd) > 1 or size == 1:
        residuals = [0.0] * len(qubits)
    else:
        other = math.prod(t * t for t in (unit(j, _tau_even(amps[j], psi.n), 2)
                                          for j, psi in enumerate(factors) if j != k))
        if kind == "r_tangle":  # every split of the focus in one pass
            every = _residuals(focus, size)
            residual = lambda i: every[i - 1]
        else:
            residual = lambda i: _residual(focus, size, i)
        residuals = [unit(k, residual(own.index(q) + 1), row.degree) * other if q in own else 0.0
                     for q in qubits]
    if kind == "r_tangle":
        return _report(kind, sum(residuals) / n, n, norm, tuple(residuals))
    return _report(kind, residuals[0], n, norm)
