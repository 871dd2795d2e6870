"""Pure n-qubit state vectors and the operations the measure suites need.

Index convention: basis index i is read as the bit string i_{n-1}...i_1 i_0
with qubit 1 stored in the MOST significant bit. ``tensor`` therefore places
its first factor in the high bits,

    amps[k * 2**m + i] = left[k] * right[i],

which makes qubit splits of the product theorems index-trivial.

States are immutable after construction; every operation returns a new value.
Random generation always takes an explicit seed (or Generator) and owns its
generator, so there is no hidden global RNG state.
"""

from __future__ import annotations

import math
import mmap
import os
import re
import threading
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, ParseError

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "StateVector",
    "QubitPermutation",
    "ProductFactor",
    "ProductExpression",
    "tensor",
    "permute",
    "apply_local",
    "apply_single",
    "named_state",
    "build_product",
    "parse_product_expression",
    "random_state",
    "random_state_batch",
    "random_operator",
    "read_qsv",
    "write_qsv",
]

# 2**26 complex amplitudes keep the quadratic even-n measure interactive on
# desktop hardware; _check_capacity, the one capacity check, reads it at call time.
DEFAULT_MAX_QUBITS = 26


def _check_capacity(what: str, n: int, count: int = 1) -> None:
    """Refuse count states of n qubits past 2**DEFAULT_MAX_QUBITS amplitudes; the error names what."""
    if n > DEFAULT_MAX_QUBITS or count << max(n, 0) > 1 << DEFAULT_MAX_QUBITS:
        raise CapacityError(f"{what} exceeds the capacity of {DEFAULT_MAX_QUBITS} qubits")


# one worker per CPU this process may run on (`taskset -c 0` gives one): the qsv
# reader's and writer's processes, and the threads of the pool below
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None  # the ThreadPoolExecutor of numpy work that releases the GIL, made at first use
_pool_lock = threading.Lock()
_in_pool = threading.local()


def _mark_worker() -> None:
    _in_pool.worker = True


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)  # a forked child has none of the threads


def _executor():
    """The pool of _WORKERS threads, made at first use; None with one CPU or in a pool thread.

    A task never waits on the pool it runs in, so nested calls cannot deadlock.
    """
    global _pool
    if _WORKERS < 2 or getattr(_in_pool, "worker", False):
        return None
    with _pool_lock:
        if _pool is None:
            # imported at first use: a process that never fans out saves its 0.8 MB
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="ntangle",
                                       initializer=_mark_worker)
        return _pool


def _fan_out(fn, items) -> list:
    """[fn(item) for item in items], on the pool; serial for one item or without a pool."""
    pool = _executor() if len(items) > 1 else None
    if pool is None:
        return [fn(item) for item in items]
    futures = [pool.submit(fn, item) for item in items]
    return [future.result() for future in futures]


@dataclass(frozen=True, eq=False)
class StateVector:
    """An n-qubit pure state: 2**n complex amplitudes, qubit 1 = MSB.

    ``n == 1`` is allowed so that single-qubit tensor factors can be built
    and split off; the entanglement measures themselves require n >= 2.
    Amplitudes need not be normalized: measures document how they scale
    instead of force-normalizing.
    """

    n: int
    amps: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"state needs at least one qubit, got n={self.n}")
        amps = self.amps
        # adopt an array nobody can write through; copy anything else
        if not (isinstance(amps, np.ndarray) and amps.dtype == np.complex128
                and amps.flags.c_contiguous and _immutable(amps)):
            amps = _readonly(np.array(amps, dtype=np.complex128))
        if amps.shape != (1 << self.n,):
            raise DomainError(
                f"amplitude vector has shape {amps.shape}, expected ({1 << self.n},) for n={self.n}"
            )
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        """The 2-norm, computed once: the amplitudes cannot change after construction."""
        nrm = self.__dict__.get("_norm")
        if nrm is None:
            nrm = _norm(self.amps)
            object.__setattr__(self, "_norm", nrm)
        return nrm

    def normalized(self) -> "StateVector":
        """The state over its norm, from a copy scaled by 2**-e where _scaled_squares scales."""
        flat = self.amps.view(np.float64)
        squares, e = _scaled_squares(flat)
        amps = np.ldexp(flat, -e).view(np.complex128) if e else self.amps
        # numpy divides a complex by a float through its reciprocal
        return StateVector(self.n, _readonly(amps / math.sqrt(squares)))

    def allclose(self, other: "StateVector") -> bool:
        return self.n == other.n and bool(np.allclose(self.amps, other.amps, rtol=1e-12, atol=1e-12))


# slices of the float view whose sums of squares math.fsum adds exactly
_NORM_SLICE = 1 << 16


def _norm(amps: np.ndarray) -> float:
    """The 2-norm on numpy's own loops, at any CPU count.

    np.linalg.norm goes to a threaded BLAS: its last bits follow the thread
    count, and its threads keep spinning on the CPUs for ~0.1 s after a large
    call, in the way of the measure kernels' own threads.

    Each slice's squares are summed pairwise, whose error, unlike a running
    sum's, stays a few ulp on equal amplitudes; math.fsum adds the slices. A
    sum outside [2**-256, 2**256] is taken again with every float scaled by
    2**-e (_scaled_squares), slice by slice, never on a copy of the state.
    """
    try:
        squares, e = _scaled_squares(amps.view(np.float64))
        return math.ldexp(math.sqrt(squares), e)
    except DomainError:  # the zero vector
        return 0.0
    except OverflowError:  # the norm itself passes the float range
        return math.inf


# The window of a sum of squares s taken as it is: [2**-256, 2**256]. A kernel of degree
# d <= 4 sums products of d amplitudes, each at most s ** (d / 2) <= 2**512, at most 2**40 at
# a time (wong's dense contraction at its cap): none overflows, a normalized value of at least
# 2**-510 stays a normal float, and the subnormal squares add under 2**-766 of s.
def _scaled_squares(flat: np.ndarray) -> tuple[float, int]:
    """(s, e): s the sum of the squares of flat * 2**-e; e is 0 where s is in the window or not
    finite, else it brings the largest float into [1/2, 1). Refuses the zero vector."""
    squares = _sum_of_squares(flat)
    if 2.0 ** -256 <= squares <= 2.0 ** 256:
        return squares, 0
    e = _peak_exponent(flat)
    squares = _sum_of_squares(flat, e)
    if squares == 0.0:
        raise DomainError("cannot normalize the zero vector")
    return squares, e


@np.errstate(over="ignore")  # a square past the float range is inf, and _scaled_squares takes it again
def _sum_of_squares(flat: np.ndarray, e: int = 0) -> float:
    """The sum of the squares of flat * 2**-e: pairwise in each slice, the slices by math.fsum."""
    def square(part):  # a scaled slice is a copy, squared in place
        if e:
            part = np.ldexp(part, -e)
        return np.square(part, out=part if e else None)

    slices = (flat[k:k + _NORM_SLICE] for k in range(0, flat.size, _NORM_SLICE))
    try:
        return math.fsum(square(part).sum() for part in slices)
    except OverflowError:  # finite slice sums whose total passes the float range
        return math.inf


def _peak_exponent(flat: np.ndarray) -> int:
    """e with the largest |flat| in [2**(e-1), 2**e); 0 when that is zero or not finite."""
    peak = max(float(flat.max()), -float(flat.min()))
    return math.frexp(peak)[1] if 0 < peak < math.inf else 0


@dataclass(frozen=True)
class QubitPermutation:
    """A bijection on qubit labels 1..n.

    ``mapping[j-1]`` is the image of qubit j: the content held by qubit j
    ends up on qubit mapping[j-1] after ``permute``.
    """

    mapping: tuple

    def __post_init__(self):
        mapping = tuple(int(x) for x in self.mapping)
        n = len(mapping)
        if sorted(mapping) != list(range(1, n + 1)):
            raise DomainError(f"mapping {mapping} is not a bijection on 1..{n}")
        object.__setattr__(self, "mapping", mapping)

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, j: int) -> int:
        return self.mapping[j - 1]

    @classmethod
    def identity(cls, n: int) -> "QubitPermutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "QubitPermutation":
        if not (1 <= i <= n and 1 <= j <= n):
            raise DomainError(f"transposition ({i},{j}) out of range for n={n}")
        mapping = list(range(1, n + 1))
        mapping[i - 1], mapping[j - 1] = mapping[j - 1], mapping[i - 1]
        return cls(mapping)

    def compose(self, other: "QubitPermutation") -> "QubitPermutation":
        """The permutation 'self after other': (self.compose(other))(j) == self(other(j))."""
        if self.n != other.n:
            raise DomainError("cannot compose permutations of different sizes")
        return QubitPermutation(self(other(j)) for j in range(1, self.n + 1))

    def inverse(self) -> "QubitPermutation":
        inv = [0] * self.n
        for j, img in enumerate(self.mapping, start=1):
            inv[img - 1] = j
        return QubitPermutation(inv)


def _readonly(a: np.ndarray) -> np.ndarray:
    """Freeze a fresh array and every array it views, so that StateVector adopts it."""
    v = a
    while isinstance(v, np.ndarray):
        v.flags.writeable = False
        v = v.base
    return a


def _immutable(a: np.ndarray) -> bool:
    """True when neither ``a`` nor any array it views can be written.

    The qsv reader's map is the one base besides an array's own data that counts:
    nothing else holds it once the reader returns.
    """
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None or type(a) is _AmplitudeMap


class _AmplitudeMap(mmap.mmap):
    """The qsv reader's shared anonymous map of doubles, which StateVector adopts without a copy."""


def tensor(phi: StateVector, omega: StateVector) -> StateVector:
    """Tensor product with ``phi`` on the high bits of the index."""
    n = phi.n + omega.n
    _check_capacity(f"tensor product of {n} qubits", n)
    return StateVector(n, _readonly(np.outer(phi.amps, omega.amps)).ravel())


def permute(psi: StateVector, pi: QubitPermutation) -> StateVector:
    """Rearrange qubits: the content of qubit j moves to qubit pi(j).

    Qubit j is axis j-1 of the (2,)*n view of the amplitudes, so this is one
    axis transpose: output axis k-1 is input axis pi^-1(k)-1.
    """
    if pi.n != psi.n:
        raise DomainError(f"permutation acts on {pi.n} qubits, state has {psi.n}")
    axes = [j - 1 for j in pi.inverse().mapping]
    return StateVector(psi.n, _readonly(psi.amps.reshape((2,) * psi.n).transpose(axes).flatten()))


def _as_operator(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (2, 2):
        raise DomainError(f"local operator must be a 2x2 matrix, got shape {m.shape}")
    return m


def apply_local(psi: StateVector, ops) -> StateVector:
    """Apply (op_1 x op_2 x ... x op_n) to the state; one 2x2 matrix per qubit."""
    ops = [_as_operator(m) for m in ops]
    if len(ops) != psi.n:
        raise DomainError(f"need exactly {psi.n} operators, got {len(ops)}")
    return StateVector(psi.n, _apply_each(psi.amps, psi.n, np.stack(ops)))


def _apply_at(amps: np.ndarray, n: int, k: int, ops: np.ndarray) -> np.ndarray:
    """Apply (..., 2, 2) operators to qubit k of (..., 2**n) amplitudes; leading axes broadcast.

    The result is a fresh read-only array, so a StateVector adopts its rows
    without copying them.
    """
    if not 1 <= k <= n:
        raise DomainError(f"qubit label {k} out of range 1..{n}")
    v = amps.reshape(amps.shape[:-1] + (1 << (k - 1), 2, 1 << (n - k)))
    out = ops[..., None, :, :] @ v
    return _readonly(out.reshape(out.shape[:-3] + (1 << n,)))


def _apply_each(amps: np.ndarray, n: int, ops: np.ndarray) -> np.ndarray:
    """Apply (..., n, 2, 2) operators, one per qubit, to (..., 2**n) amplitudes; leading axes broadcast.

    Each step contracts the leading qubit and appends its image last, so after
    n steps the qubits are back in order. The leading qubit is the slowest axis
    in memory, so every step is a BLAS product of a strided view, with no
    copy. The result is a fresh read-only C-contiguous array.
    """
    for k in range(n):
        out = amps.reshape(amps.shape[:-1] + (2, -1)).swapaxes(-1, -2) @ ops[..., k, :, :].swapaxes(-1, -2)
        amps = out.reshape(out.shape[:-2] + (-1,))
    return _readonly(amps)


def apply_single(psi: StateVector, k: int, m) -> StateVector:
    """Apply a 2x2 matrix to qubit k only; identities elsewhere."""
    return StateVector(psi.n, _apply_at(psi.amps, psi.n, k, _as_operator(m)))


def named_state(kind: str, n: int, extra: int | None = None) -> StateVector:
    """Construct one of the named states: ghz, w, bell or a basis state."""
    if n < 1:
        raise DomainError(f"named state needs n >= 1, got n={n}")
    _check_capacity(f"named state of {n} qubits", n)
    dim = 1 << n
    amps = np.zeros(dim, dtype=np.complex128)
    if kind == "ghz":
        if n < 2:
            raise DomainError("ghz needs at least 2 qubits")
        amps[0] = amps[dim - 1] = 1.0 / math.sqrt(2.0)
    elif kind == "bell":
        if n != 2:
            raise DomainError(f"bell is a 2-qubit state, got n={n}")
        amps[0] = amps[3] = 1.0 / math.sqrt(2.0)
    elif kind == "w":
        if n < 2:
            raise DomainError("w needs at least 2 qubits")
        weight_one = [1 << p for p in range(n)]
        amps[weight_one] = 1.0 / math.sqrt(n)
    elif kind == "basis":
        if extra is None or not 0 <= extra < dim:
            raise DomainError(f"basis state needs an index in 0..{dim - 1}, got {extra}")
        amps[extra] = 1.0
    else:
        raise DomainError(f"unknown named state kind {kind!r}")
    return StateVector(n, amps)


@dataclass(frozen=True)
class ProductFactor:
    state: StateVector
    labels: tuple


@dataclass(frozen=True)
class ProductExpression:
    """A tensor product of factors with explicit qubit-label assignments."""

    factors: tuple

    @property
    def n(self) -> int:
        return sum(f.state.n for f in self.factors)


def _one_factor(psi: StateVector) -> ProductExpression:
    """psi as the one factor of its product, on labels 1..n."""
    return ProductExpression((ProductFactor(psi, tuple(range(1, psi.n + 1))),))


def _check_product(expr: ProductExpression) -> list:
    """The factors' labels in listed order, once they partition 1..n.

    The one check of a product's labels: build_product runs it, then holds n to
    the capacity; the one evaluator of every measure, measures.product_measure,
    runs it first, then holds each factor to the capacity and n to its own cap.
    """
    if not expr.factors:
        raise DomainError("product expression has no factors")
    labels = []
    for f in expr.factors:
        if len(f.labels) != f.state.n:
            raise DomainError(
                f"factor of {f.state.n} qubits carries {len(f.labels)} labels {f.labels}"
            )
        labels.extend(f.labels)
    n = len(labels)
    if sorted(labels) != list(range(1, n + 1)):
        raise DomainError(f"factor labels {labels} do not partition 1..{n}")
    return labels


def build_product(expr: ProductExpression) -> StateVector:
    """Tensor the factors in listed order, then move them onto their labels."""
    labels = _check_product(expr)
    n = len(labels)
    _check_capacity(f"product of {n} qubits", n)
    psi = expr.factors[0].state
    for f in expr.factors[1:]:
        psi = tensor(psi, f.state)
    pi = QubitPermutation(labels)
    if pi.mapping == tuple(range(1, n + 1)):
        return psi
    return permute(psi, pi)


_FACTOR_RE = re.compile(r"^(?P<head>[^@]+)@(?P<labels>[\d,]+)$")


def parse_product_expression(text: str) -> ProductExpression:
    """Parse 'ghz:3@1,2,3 x bell@4,5' style expressions.

    Factors are separated by a lone ``x`` token. Each factor is
    ``kind@labels`` where kind is ``ghz:<k>``, ``w:<k>``, ``bell``,
    ``basis:<k>:<index>`` or ``file:<path>`` and labels is a comma list of
    qubit numbers. Columns in errors are 1-based offsets into the text.
    """
    tokens = [(m.start(), m.group()) for m in re.finditer(r"\S+", text)]
    if not tokens:
        raise ParseError("empty product expression", line=1, column=1)
    factors = []
    expect_factor = True
    for off, tok in tokens:
        col = off + 1
        if expect_factor:
            if tok == "x":
                raise ParseError("expected a factor, found separator 'x'", line=1, column=col)
            factors.append(_parse_factor(tok, col))
            expect_factor = False
        else:
            if tok != "x":
                raise ParseError(f"expected separator 'x', found {tok!r}", line=1, column=col)
            expect_factor = True
    if expect_factor:
        off, tok = tokens[-1]
        raise ParseError("dangling separator 'x' at end of expression", line=1, column=off + 1)
    return ProductExpression(tuple(factors))


def _parse_factor(tok: str, col: int) -> ProductFactor:
    m = _FACTOR_RE.match(tok)
    if m is None:
        raise ParseError(f"malformed factor {tok!r}, expected kind@labels", line=1, column=col)
    head = m.group("head")
    try:
        labels = tuple(int(x) for x in m.group("labels").split(",") if x != "")
    except ValueError:
        raise ParseError(f"bad label list in {tok!r}", line=1, column=col) from None
    if not labels:
        raise ParseError(f"factor {tok!r} has no labels", line=1, column=col)
    parts = head.split(":")
    kind = parts[0]

    def integer(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ParseError(f"bad integer in factor {tok!r}", line=1, column=col) from None

    # a capacity error keeps its own type (and exit code); any other domain error names the factor
    try:
        if kind == "bell" and len(parts) == 1:
            state = named_state("bell", 2)
        elif kind in ("ghz", "w") and len(parts) == 2:
            state = named_state(kind, integer(parts[1]))
        elif kind == "basis" and len(parts) == 3:
            state = named_state("basis", integer(parts[1]), extra=integer(parts[2]))
        elif kind == "file" and len(parts) >= 2:
            path = ":".join(parts[1:])
            try:
                state = read_qsv(path)
            except ParseError as exc:  # a position in the file, not in the expression
                raise ParseError(f"invalid factor {tok!r}: {path}:{exc.line}:{exc.column}: "
                                 f"{exc.message}", line=1, column=col) from None
        else:
            raise ParseError(f"unknown factor kind {head!r}", line=1, column=col)
    except CapacityError:
        raise
    except DomainError as exc:
        raise ParseError(f"invalid factor {tok!r}: {exc}", line=1, column=col) from None
    if state.n != len(labels):
        raise ParseError(
            f"factor {tok!r} has {state.n} qubits but {len(labels)} labels", line=1, column=col
        )
    return ProductFactor(state, labels)


def random_state(n: int, seed) -> StateVector:
    """Haar-uniform random pure state: complex Gaussian amplitudes, normalized."""
    return StateVector(n, _readonly(random_state_batch(n, 1, seed)[0]))


# The draws of a batch run in blocks of this many bytes, into two buffers in
# turn: while the generator fills one, a pool thread copies the other into
# place and, in the imaginary pass, normalizes the rows it completes. The
# generator's stream does not depend on how it is cut into calls, so neither
# do the bits. On a 2-vCPU Xeon this took 18-35% off the draw at (n, count) =
# (9, 10000) and 12-16% off one state at n=24 (medians of 11, four runs).
_DRAW_BYTES = 1 << 20


def _in_blocks(n: int, count: int) -> bool:
    """Whether a draw of count states of n qubits takes more than one block: only then has the pool work."""
    return count << n > _DRAW_BYTES >> 3


def _check_draw(n: int, count: int) -> None:
    """Refuse a draw of count states of n qubits past the capacity."""
    _check_capacity(f"a draw of {count} random state{'s' * (count != 1)} of {n} qubits", n, count)


def random_state_batch(n: int, count: int, seed) -> np.ndarray:
    """A (count, 2**n) array of independent Haar-uniform amplitude rows; 2**DEFAULT_MAX_QUBITS at most.

    All real parts are drawn first, row by row, then all imaginary parts.
    """
    if n < 1:
        raise DomainError(f"random state needs n >= 1, got n={n}")
    _check_draw(n, count)
    rng = np.random.default_rng(seed)  # a Generator is taken as it is
    z = np.empty((count, 1 << n), dtype=np.complex128)
    flat = z.view(np.float64)
    size, step = z.size, _DRAW_BYTES >> 3
    whole_rows = step >= 1 << n  # then every block holds whole rows
    real, imag = z.reshape(-1).real, z.reshape(-1).imag

    def normalize(rows):
        # the sum of squares over the float view needs no temporary; complex
        # division by (s, 0) computes (re + im * 0) * (1 / s), so multiplying
        # the floats by 1 / s gives the same bits
        rows *= (1.0 / np.sqrt(np.vecdot(rows, rows)))[:, None]

    def put(part, start, drawn):
        end = start + len(drawn)
        part[start:end] = drawn
        if part is imag and whole_rows:
            normalize(flat[start >> n:end >> n])

    # one block has nothing to overlap: one buffer, and no pool
    pool = _executor() if _in_blocks(n, count) else None
    bufs = np.empty((1 if pool is None else 2, min(step, size)))
    for part in (real, imag):
        pending = []
        for k, start in enumerate(range(0, size, step)):
            if len(pending) == 2:
                pending.pop(0).result()  # its buffer is free again
            drawn = rng.standard_normal(out=bufs[k % len(bufs), :min(step, size - start)])
            if pool is None:
                put(part, start, drawn)
            else:
                pending.append(pool.submit(put, part, start, drawn))
        for task in pending:  # every real part is in before a row is normalized
            task.result()
    if not whole_rows:
        normalize(flat)
    return z


def random_operator(kind: str, seed) -> np.ndarray:
    """Seeded random 2x2 operator of the requested kind.

    general: standard complex Gaussian entries.
    special_linear: Gaussian conditioned on |det| > 1e-6, divided by a square
        root of its determinant (det becomes 1 up to roundoff).
    unitary: Haar-distributed, via phase-fixed QR of a Gaussian matrix.
    contraction: Gaussian rescaled so its top singular value lands in
        (0, 1]; usable directly as the first element of a two-outcome POVM.
    """
    rng = np.random.default_rng(seed)
    if kind == "general":
        return _ginibre(rng)
    if kind == "special_linear":
        return _special_linear(rng)
    if kind == "unitary":
        return _unitary(_ginibre(rng))
    if kind == "contraction":
        return _contraction(_ginibre(rng), rng.uniform(0.25, 1.0))
    raise DomainError(f"unknown operator kind {kind!r}")


def _ginibre(rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """A (*shape, 2, 2) stack of standard complex Gaussian matrices."""
    shape = (*shape, 2, 2)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _special_linear(rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """(*shape, 2, 2) Gaussian matrices with |det| > 1e-6, divided by a square root of det.

    The matrices failing the bound are drawn again, as one batch in stack
    order, until none fails.
    """
    g = _ginibre(rng, shape)
    det = np.linalg.det(g)
    while np.any(bad := np.abs(det) <= 1e-6):
        g[bad] = _ginibre(rng, (np.count_nonzero(bad),))
        det = np.linalg.det(g)
    return g / np.sqrt(det)[..., None, None]


def _unitary(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from (..., 2, 2) Gaussian matrices: QR with the phases of R moved into Q."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _contraction(g: np.ndarray, top) -> np.ndarray:
    """(..., 2, 2) matrices g rescaled so that their top singular values are ``top``."""
    return g * (top / np.linalg.svd(g, compute_uv=False)[..., 0])[..., None, None]


# last: qsv takes the names above as it loads; its reader and writer keep their names here
from .qsv import read_qsv, write_qsv  # noqa: E402
