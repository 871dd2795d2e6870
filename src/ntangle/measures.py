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
residuals' mean. Every cross form B_i is a signed marginal of the same
products a_j a_~j, j < 2**(n-1), so one cross pass yields all n of them, and
R costs that pass plus n pairs of half-length self forms: (n + 2) * 2**(n-1)
products instead of the 3n * 2**(n-1) of 3n pair forms. Sign and complement
act bit by bit, so P contracts a ceil(m/2)-bit block and applies the other
parities to its partial sums: tables and temporaries stay at O(2**(n/2)).

The pair-form kernels take amplitudes on axis 0 with any batch axes
trailing, so their einsum inner loops run along the batch. Their entry points
(_tau_even, _tau_odd, _tau_any, _residual, _residuals, _r_tangle) take
(..., 2**n) amplitudes: one state runs as it is, and a batch runs in chunks
of rows whose size depends on n alone, each seen as a transposed (2**n, rows)
view; R copies its chunk first, so that its passes run along the rows.

Kernels use every CPU in the process's affinity mask (`taskset -c 0` gives
one thread). The chunks of a batch run as one task each. A large state's pair
form cuts its partial sums into one slice per CPU. R hands the pool its row
and column sums as two tasks, then one task per residual, at any size; inside
a pool thread (a chunk of a batch) they run in turn. Each partial sum is the
same reduction over q at any cut, and no chunk depends on the CPU count, so
every value is bit-identical at any CPU count. A batched row may differ from
the same state alone in the last bits: the sums run in another order. The
norm in a report is StateVector.norm(), computed once per state and then
memoized.

The staggered defining sums and a flat complementary-pair sum stay as
independent oracles, as do the quartic Wong-Christensen tangle (even n,
capped) and the Coffman-Kundu-Wootters three-qubit residual entanglement, the
only formula sourced outside the quadratic-form family.

Kernels (underscore-prefixed) take raw amplitude arrays: the oracles and the
entry points above with any leading batch axes, _halves, _pair and _self_pair
in the layout above. The public operations take a StateVector and return an
InvariantValue or MeasureReport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, NamedTuple

import numpy as np

from . import state
from .bitops import parity_signs, sgn_star_table, sgn_table
from .errors import DomainError
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
    "DEFAULT_WONG_CAP",
    "MEASURES",
]

# The dense quartic contraction holds several (2**n, 2**n) complex arrays: it
# takes 0.04 / 0.2 / 7 / 230 ms at n = 4 / 6 / 8 / 10 on a 2-vCPU Xeon, and at
# n = 12 each array would be 268 MB.
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


@lru_cache(maxsize=None)
def _marginal_signs(bits: int) -> np.ndarray:
    """Read-only complex (bits + 1, 2**bits) table: row 0 is (-1)^N(k), row t
    is (-1)^N(k) (-1)^(bit t of k), bits counted from the most significant."""
    k = np.arange(1 << bits)
    flips = 1 - 2 * ((k >> np.arange(bits - 1, -1, -1)[:, None]) & 1)
    signs = (parity_signs(bits) * np.vstack([np.ones_like(k), flips])).astype(np.complex128)
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
# the batch: a batch below it fans out by chunks of rows (_on_rows). Only _pair
# and _on_rows read it; R's tasks go to the pool at any size.
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
# Below n = 20 each chunk is one task on the pool; from n = 20 a chunk is one
# state, whose own kernel fans out, and the chunks run in turn. Putting those
# states on the pool as well was slower on a 2-vCPU Xeon: R on a (2, 2**21)
# batch went from 135-147 to 171-184 ms in two rounds. A kernel sees
# its chunk as a transposed (2**n, rows) view. R, which reads it in n + 1
# passes, copies it first: every pass then runs its einsum inner loops along
# the rows at unit stride, not along a q block of 2**(n//2) amplitudes at
# most, with the whole chunk in one core's 2 MiB share of L2. On a 2-vCPU
# Xeon, R at n=9 levels off from 256 rows (2 MiB) up, and at n=7 is best at
# 256-1024 rows. tau reads its chunk once (even n) or three times (odd n), and
# a copy cost it more than it saved at every n.
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

        def chunk(k):
            return kernel(rows[k:k + step].T, n, *args)

        if 1 << (n - 1) < _SPLIT_MIN:
            parts = state._fan_out(chunk, starts)
        else:  # the state's own kernel fans out
            parts = [chunk(k) for k in starts]
        out = np.concatenate(parts, axis=-1)
        return out.reshape(out.shape[:-1] + lead)

    return entry


# _report refuses an overflow's inf or nan; errstate holds per thread, so each kernel holds it
@np.errstate(over="ignore", invalid="ignore")
def _odd_measure(cross: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return 4.0 * np.abs(cross ** 2 - _self_pair(lo) * _self_pair(hi))


@_on_rows
def _tau_even(amps: np.ndarray, n: int) -> np.ndarray:
    lo, hi = _halves(amps, n, 1)
    return 2.0 * np.abs(_pair(lo, hi))


@_on_rows
def _residual(amps: np.ndarray, n: int, i: int) -> np.ndarray:
    lo, hi = _halves(amps, n, i)
    return _odd_measure(_pair(lo, hi), lo, hi)


@_on_rows
def _residuals(amps: np.ndarray, n: int) -> np.ndarray:
    """Every residual of an odd-n state, stacked as (n, ...).

    The cross form of the split on qubit i is B_i = sum_{j_i = 0} (-1)^N(j)
    a_j a_~j, a signed marginal of the products a_j a_~j, j < 2**(n-1). Those
    are viewed as a (2**h, 2**h) block, h = (n-1)/2, with the row bits on
    qubits 2..h+1; one einsum sums its rows and one its columns, and every
    B_i is a signed sum of one of the two short vectors.
    """
    amps = np.ascontiguousarray(amps)  # a batch chunk: rows at unit stride (_on_rows)
    h = (n - 1) // 2
    tail, half = amps.shape[1:], 1 << (n - 1)
    x = amps[:half].reshape((1 << h, 1 << h) + tail)
    y = amps[::-1][:half].reshape((1 << h, 1 << h) + tail)    # y[r, c] = a_~(r, c)
    signs = _marginal_signs(h)
    # the row and column sums as two tasks, then one task per split; each
    # einsum and each residual stays whole
    row_sums, col_sums = state._fan_out(lambda spec: np.einsum(spec, x, signs[0], y),
                                        ("rc...,c,rc...->r...", "rc...,r,rc...->c..."))
    rows = np.einsum("r...,kr->k...", row_sums, signs)        # qubits 1..h+1
    cols = np.einsum("c...,kc->k...", col_sums, signs[1:])    # qubits h+2..n
    cross = np.concatenate([rows, cols])

    def residual(i):
        return _odd_measure(cross[i - 1], *_halves(amps, n, i))

    return np.stack(state._fan_out(residual, range(1, n + 1)))


def _tau_odd(amps: np.ndarray, n: int) -> np.ndarray:
    return _residual(amps, n, 1)


def _tau_any(amps: np.ndarray, n: int) -> np.ndarray:
    return _tau_even(amps, n) if n % 2 == 0 else _tau_odd(amps, n)


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
    nonzero only for index pairs differing in every one of those bits, which
    lets the 2**(4n)-term sum be evaluated as dense matrix contractions
    without changing a single term.
    """
    dim = 1 << n
    x = np.arange(dim)
    xor = x[:, None] ^ x[None, :]
    lead_signs = np.where(np.bitwise_count((x >> 1).astype(np.uint64)) & 1, -1, 1)
    pair_upper = np.where((xor | 1) == dim - 1, lead_signs[:, None], 0)
    eps = np.array([[0, 1], [-1, 0]])
    last = eps[x[:, None] & 1, x[None, :] & 1]
    t = (amps[..., :, None] * amps[..., None, :]) * pair_upper
    return 2.0 * np.abs(np.sum(t * (last @ t @ last.T), axis=(-2, -1)))


# ---------------------------------------------------------------------------
# the table of measures, and the public operations
# ---------------------------------------------------------------------------

class _Measure(NamedTuple):
    cli: str                        # the `ntangle compute --measure` name
    kernel: Callable                # (amps, n, *args) -> values, as the entry points above
    sizes: str                      # "even n" or "odd n" (n >= 2), or "n=<k>", as errors name them
    degree: int                     # scaling the amplitudes by c scales the value by |c|**degree
    bench: str | None               # the `ntangle bench` row that times the kernel, if one does
    products: Callable[[int], int]  # complex amplitude products at n qubits


# Every measure, keyed by the kind of its report, which is also the name of its public
# function (tau reports as tau_even or tau_odd), in the order the CLI lists them.
MEASURES = {
    "tau_even": _Measure("tau-even", _tau_even, "even n", 2, "quadratic", lambda n: 1 << (n - 1)),
    "tau_odd": _Measure("tau-odd", _tau_odd, "odd n", 4, "odd", lambda n: 1 << n),
    "r_tangle": _Measure("r", _r_tangle, "odd n", 4, "r", lambda n: (n + 2) << (n - 1)),
    "concurrence": _Measure("concurrence", _tau_even, "n=2", 2, None, lambda n: 1 << (n - 1)),
    # products as coded: d1, d2 and d3 take 4 x 2, 6 x 3 and 2 x 3; wong's are the dense contraction's
    "three_tangle": _Measure("three-tangle", lambda amps, n: _three_tangle(amps), "n=3", 4, None,
                             lambda n: 32),
    "wong_tangle": _Measure("wong", _wong_tangle, "even n", 4, "quartic", lambda n: 3 << (4 * n)),
    "tau_residual": _Measure("residual:<i>", _residual, "odd n", 4, "residual", lambda n: 1 << n),
}


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


def _report(kind: str, value: float, psi: StateVector, residuals=None) -> MeasureReport:
    value, norm = float(value), psi.norm()
    if not all(map(math.isfinite, (value, norm, *(residuals or ())))):
        raise DomainError(f"{kind} of these raw amplitudes overflows the float range (value "
                          f"{value:g}, norm {norm:g}); normalize the state first")
    return MeasureReport(kind=kind, value=value, n=psi.n, norm=norm, residuals=residuals)


def tau_even(psi: StateVector) -> MeasureReport:
    """Even-n measure 2|E|."""
    return _report("tau_even", _row("tau_even", psi.n).kernel(psi.amps, psi.n), psi)


def tau_odd(psi: StateVector) -> MeasureReport:
    """Odd-n measure 4|B^2 - 4 L H|."""
    return _report("tau_odd", _row("tau_odd", psi.n).kernel(psi.amps, psi.n), psi)


def tau(psi: StateVector) -> MeasureReport:
    """Parity dispatch: the even measure for even n, the odd measure for odd n."""
    kind = "tau_odd" if psi.n % 2 else "tau_even"
    return _report(kind, _row(kind, psi.n, "tau").kernel(psi.amps, psi.n), psi)


def tau_residual(psi: StateVector, i: int) -> MeasureReport:
    """Residual measure with respect to qubit i: the odd measure after swapping 1 and i."""
    kernel = _row("tau_residual", psi.n).kernel
    if not 1 <= i <= psi.n:
        raise DomainError(f"qubit label {i} out of range 1..{psi.n}")
    return _report("tau_residual", kernel(psi.amps, psi.n, i), psi)


def r_tangle(psi: StateVector) -> MeasureReport:
    """Arithmetic mean of the per-qubit residual measures (odd n), with the residuals."""
    _row("r_tangle", psi.n)
    residuals = tuple(map(float, _residuals(psi.amps, psi.n)))
    return _report("r_tangle", sum(residuals) / psi.n, psi, residuals=residuals)


def concurrence(psi: StateVector) -> MeasureReport:
    """Two-qubit concurrence 2|a0 a3 - a1 a2|: the even measure's kernel at n=2."""
    return _report("concurrence", _row("concurrence", psi.n).kernel(psi.amps, psi.n), psi)


def wong_tangle(psi: StateVector) -> MeasureReport:
    """Quartic even-n tangle of Wong and Christensen (expensive cross-reference), n <= DEFAULT_WONG_CAP."""
    kernel = _row("wong_tangle", psi.n).kernel
    if psi.n > DEFAULT_WONG_CAP:
        raise DomainError(
            f"wong_tangle at n={psi.n} exceeds the cap of {DEFAULT_WONG_CAP}: the dense contraction "
            f"holds several (2**n, 2**n) complex arrays of {16 << (2 * psi.n) >> 20} MiB each"
        )
    return _report("wong_tangle", kernel(psi.amps, psi.n), psi)


def three_tangle(psi: StateVector) -> MeasureReport:
    """Independent three-qubit residual-entanglement oracle (external construction)."""
    return _report("three_tangle", _row("three_tangle", psi.n).kernel(psi.amps, psi.n), psi)
