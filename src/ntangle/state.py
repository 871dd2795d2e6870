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

import contextlib
import math
import os
import re
import signal
import tempfile
import warnings
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
# desktop hardware; every capacity check reads this value at call time.
DEFAULT_MAX_QUBITS = 26

# one worker per CPU this process may run on (`taskset -c 0` gives one): the qsv
# reader's and writer's processes and the measure kernels' threads
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
            nrm = float(np.linalg.norm(self.amps))
            object.__setattr__(self, "_norm", nrm)
        return nrm

    def normalized(self) -> "StateVector":
        nrm = self.norm()
        if nrm == 0.0:
            raise DomainError("cannot normalize the zero vector")
        return StateVector(self.n, _readonly(self.amps / nrm))

    def allclose(self, other: "StateVector") -> bool:
        return self.n == other.n and bool(np.allclose(self.amps, other.amps, rtol=1e-12, atol=1e-12))


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
    """True when neither ``a`` nor any array it views can be written."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def tensor(phi: StateVector, omega: StateVector) -> StateVector:
    """Tensor product with ``phi`` on the high bits of the index."""
    n = phi.n + omega.n
    if n > DEFAULT_MAX_QUBITS:
        raise CapacityError(f"tensor product needs {n} qubits, capacity is {DEFAULT_MAX_QUBITS}")
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
    if n > DEFAULT_MAX_QUBITS:
        raise CapacityError(f"named state needs {n} qubits, capacity is {DEFAULT_MAX_QUBITS}")
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


def build_product(expr: ProductExpression) -> StateVector:
    """Tensor the factors in listed order, then move them onto their labels."""
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
    if n > DEFAULT_MAX_QUBITS:
        raise CapacityError(f"product needs {n} qubits, capacity is {DEFAULT_MAX_QUBITS}")
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
    tokens = []  # (offset, token)
    for m in re.finditer(r"\S+", text):
        tokens.append((m.start(), m.group()))
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


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_state(n: int, seed) -> StateVector:
    """Haar-uniform random pure state: complex Gaussian amplitudes, normalized."""
    return StateVector(n, _readonly(random_state_batch(n, 1, seed)[0]))


def random_state_batch(n: int, count: int, seed) -> np.ndarray:
    """A (count, 2**n) array of independent Haar-uniform amplitude rows."""
    if n < 1:
        raise DomainError(f"random state needs n >= 1, got n={n}")
    if n > DEFAULT_MAX_QUBITS:
        raise CapacityError(f"random state needs {n} qubits, capacity is {DEFAULT_MAX_QUBITS}")
    rng = _rng(seed)
    dim = 1 << n
    z = np.empty((count, dim), dtype=np.complex128)
    z.real = rng.standard_normal((count, dim))
    z.imag = rng.standard_normal((count, dim))
    # the sum of squares over the float view needs no temporary
    flat = z.view(np.float64)
    z /= np.sqrt(np.vecdot(flat, flat))[:, None]
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
    rng = _rng(seed)
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


# ---------------------------------------------------------------------------
# qsv state file format (ASCII text): line 1 "qsv 1", line 2 "n <int>", then
# exactly 2**n lines of "re im". Writers emit 17 significant digits so the
# round trip is bit-exact for doubles.
# ---------------------------------------------------------------------------

_QSV_BLOCK = 1 << 15  # amplitudes formatted per '%' operation when writing
# amplitude text per numpy parse when reading, and per copy of a child's text
# when writing; bounds the temporaries of both
_QSV_CHUNK_BYTES = 1 << 20
_QSV_HEAD_BYTES = 1 << 8  # a longer header line is read in text mode
_QSV_TOKEN_BYTES = b"0123456789.eE+- \t\n"
# amplitudes per process, at least, when a block is split: on a 2-vCPU Xeon a
# forked child costs about 5 ms, and two processes read 2**13 amplitudes in
# 14.7 ms against 14.0 ms for one, 2**14 in 23 ms against 29 ms
_QSV_RANGE_MIN = 1 << 13
_QSV_ROUND = 1 << 17  # amplitudes per process and round when writing; bounds each child's text


def _ways(dim: int) -> int:
    """The number of processes that read or write a block of dim amplitudes.

    One per CPU, each with at least _QSV_RANGE_MIN amplitudes. One where
    children cannot be forked, or where an ignored SIGCHLD has the kernel reap
    them so that their exit status is lost.
    """
    if not hasattr(os, "fork") or signal.getsignal(signal.SIGCHLD) is signal.SIG_IGN:
        return 1
    return max(1, min(_WORKERS, dim // _QSV_RANGE_MIN))


class _Children:
    """Forked children and the fds this process holds for them.

    Leaving the with block closes every fd and reaps every child, killing
    first any that was not waited for, also when the block is left by an
    exception or KeyboardInterrupt.
    """

    def __init__(self):
        self.fds, self.pids = [], []

    def __enter__(self):
        return self

    def add(self, pid: int, fd: int) -> None:
        self.pids.append(pid)
        self.fds.append(fd)

    def wait(self, pid: int) -> int:
        """The child's exit status; -1 if it was reaped elsewhere."""
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # its pid may name another process by now: never kill it
            status = -1
        self.pids.remove(pid)
        return status

    def __exit__(self, *exc):
        for fd in self.fds:
            os.close(fd)
        for pid in self.pids:  # still working, or blocked on a full pipe
            with contextlib.suppress(ProcessLookupError, ChildProcessError):  # reaped elsewhere
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork(work) -> int:
    """pid of a forked child that runs work() and leaves with os._exit.

    The exit status is 0 if work returns True, and 1 if it returns False or
    raises; the child never returns into the caller's code.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if work() else 1
        finally:
            os._exit(code)
    return pid


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def write_qsv(psi: StateVector, target) -> None:
    """Write a state to a path or text file object in qsv format."""
    if hasattr(target, "write"):
        _write_qsv_stream(psi, target)
    else:
        with open(target, "w", encoding="ascii") as fh:
            _write_qsv_stream(psi, fh)


def _write_qsv_stream(psi: StateVector, fh) -> None:
    """Write the text of psi to fh, formatting one range of amplitudes per CPU.

    The formatting holds the GIL, so the amplitudes are written in rounds of
    one range of at most _QSV_ROUND amplitudes per process. This process
    formats the first range of a round straight into fh; a forked child
    formats each other one into an unlinked temporary file, which this
    process then copies to fh in order. A child exits 0 only once all of its
    text is written, so a range whose child cannot be forked or exits
    otherwise is formatted here, and the text is the same at any number of
    ranges and rounds.
    """
    fh.write("qsv 1\n")
    fh.write(f"n {psi.n}\n")
    flat = psi.amps.view(np.float64)
    dim = 1 << psi.n
    ways = _ways(dim)
    step = min(-(-dim // ways), _QSV_ROUND)
    for first in range(0, dim, ways * step):
        cuts = [min(first + k * step, dim) for k in range(ways + 1)]
        with _Children() as children:
            spooled = []  # (lo, hi, pid, fd) of every range after the first; pid None if unforked
            for lo, hi in zip(cuts[1:], cuts[2:]):
                if lo < hi:
                    try:
                        pid, fd = _fork_format(flat, lo, hi)
                        children.add(pid, fd)
                    except OSError:  # no file or no process to be had
                        pid = fd = None
                    spooled.append((lo, hi, pid, fd))
            _format_lines(flat, cuts[0], cuts[1], fh.write)
            for lo, hi, pid, fd in spooled:
                if pid is None or children.wait(pid):
                    _format_lines(flat, lo, hi, fh.write)
                else:
                    _copy_text(fd, fh.write)


def _format_lines(flat: np.ndarray, lo: int, hi: int, write) -> None:
    """Pass the qsv lines of amplitudes lo..hi-1 to write, one _QSV_BLOCK at a time."""
    for start in range(lo, hi, _QSV_BLOCK):
        part = flat[2 * start:2 * min(start + _QSV_BLOCK, hi)].tolist()
        write(("%.17g %.17g\n" * (len(part) // 2)) % tuple(part))


def _fork_format(flat: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    """(pid, unlinked file) of a child that writes the lines of amplitudes lo..hi-1 into it."""
    with tempfile.TemporaryFile() as spool:
        fd = os.dup(spool.fileno())

    def work():
        _format_lines(flat, lo, hi, lambda text: _write_all(fd, text.encode("ascii")))
        return True

    try:
        pid = _fork(work)
    except OSError:
        os.close(fd)
        raise
    return pid, fd


def _copy_text(fd: int, write) -> None:
    """Pass the text in file fd to write, _QSV_CHUNK_BYTES at a time."""
    off = 0
    while block := os.pread(fd, _QSV_CHUNK_BYTES, off):
        write(block.decode("ascii"))
        off += len(block)


def read_qsv(source) -> StateVector:
    """Read a state from a path or text file object in qsv format."""
    if hasattr(source, "read"):
        return _read_qsv_stream(source)
    # bytes skip a decode and a re-encode of the whole block
    with open(source, "rb") as fh:
        head = fh.readline(_QSV_HEAD_BYTES), fh.readline(_QSV_HEAD_BYTES)
        if all(line.endswith(b"\n") and line.isascii() and b"\r" not in line for line in head):
            return _read_qsv_stream(fh, [line.decode("ascii") for line in head])
    # text mode turns '\r\n' and '\r' into '\n', and each non-ASCII byte into a
    # lone surrogate for the scanner to report
    with open(source, "r", encoding="ascii", errors="surrogateescape") as fh:
        return _read_qsv_stream(fh)


_COUNT_RE = re.compile(r"^n\s+(\d+)\s*$")
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")


def _read_qsv_stream(fh, head=None) -> StateVector:
    """Read a text stream, or a byte stream whose two header lines were read into ``head``."""
    # refuse an over-capacity header before the amplitude block is even read
    header, count = head or (fh.readline(), fh.readline())
    m = _COUNT_RE.match(count)
    n = int(m.group(1)) if header.strip() == "qsv 1" and m is not None else 0
    if n > DEFAULT_MAX_QUBITS:
        raise CapacityError(f"qsv file declares {n} qubits, capacity is {DEFAULT_MAX_QUBITS}")
    block = fh.read()
    if isinstance(block, str):
        data = block.encode("ascii") if block.isascii() else None
    elif b"\r" in block:  # the newlines of text mode
        data = block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    else:
        data = block
    # the fast path needs the same two header lines the scanner splits off and accepts
    if (data is not None and n >= 1 and header.endswith("\n") and count.endswith("\n")
            and (header + count).isascii()):
        flat = _parse_amplitude_block(data, n)
        if flat is not None:
            return StateVector(n, _readonly(flat).view(np.complex128))
    del data
    if isinstance(block, bytes):
        block = block.decode("ascii", "surrogateescape")
    text = header + count + block
    del block  # hold one copy of the text while the scanner splits it into lines
    return _scan_qsv(text)


def _parse_amplitude_block(data: bytes, n: int) -> np.ndarray | None:
    """The 2 * 2**n doubles of a well-formed amplitude block, else None.

    Accepts a subset of what ``_scan_qsv`` accepts: tokens of ASCII digits,
    '.', 'e', 'E', '+' and '-', exactly two per line, separated by spaces,
    tabs and newlines. numpy parses them with the correctly rounded strtod
    behind ``float()``, so the bits agree. Anything else, including values
    that parse to nan or inf, returns None and is left to the scanner.

    The conversion holds the GIL, so a large block is cut into one range of
    whole lines per CPU. This process parses the first range; a forked child
    parses each other one and sends its doubles back through a pipe. A range
    holds the same tokens as in one serial pass, so the bits do not depend on
    the number of ranges. A refused range, a child that fails or sends too
    few or too many bytes, or a failed fork returns None as well.
    """
    end = len(data)
    while end and data[end - 1] in b" \t\n":  # trailing blank lines are allowed
        end -= 1
    dim = 1 << n
    ways = _ways(dim)
    starts = [0]  # each range starts a line and ends before the newline that starts the next
    for k in range(1, ways):
        cut = data.find(b"\n", max(end * k // ways, starts[-1]), end)
        if cut < 0:
            break
        starts.append(cut + 1)
    ranges = list(zip(starts, [s - 1 for s in starts[1:]] + [end]))
    out = np.empty(2 * dim)
    try:
        with _Children() as children:
            for lo, hi in ranges[1:]:
                children.add(*_fork_range(data, lo, hi))
            done = _parse_lines(data, *ranges[0], out)
            if done is None:
                return None
            for pid, fd in list(zip(children.pids, children.fds)):
                got = _read_to_end(fd, memoryview(out[2 * done:]).cast("B"))
                if got is None or got % 16 or children.wait(pid):
                    return None
                done += got // 16
    except OSError:  # no pipe or no process to be had
        return None
    if done != dim or not np.isfinite(out).all():
        return None
    return out


def _parse_lines(data: bytes, lo: int, end: int, out: np.ndarray) -> int | None:
    """Parse the lines of data[lo:end] into out, two doubles each.

    Returns the number of lines, or None if a line is refused or out is too short.
    """
    done = 0  # lines parsed
    with warnings.catch_warnings():
        # older numpy only warns when a token is not read to its end
        warnings.simplefilter("error", DeprecationWarning)
        while True:
            hi = data.find(b"\n", min(lo + _QSV_CHUNK_BYTES, end), end)
            hi = end if hi < 0 else hi
            text = data[lo:hi]
            if text.translate(None, _QSV_TOKEN_BYTES):
                return None
            chunk = np.frombuffer(text, dtype=np.uint8)
            newlines = np.flatnonzero(chunk == 10)
            lines = newlines.size + 1
            # tokens are runs of bytes above ' '; tokens 2j and 2j+1 must start
            # on line j, after newline j-1 and before newline j
            starts = np.flatnonzero(np.diff(chunk > 32, prepend=False, append=False))[::2]
            if (starts.size != 2 * lines or (starts[2::2] < newlines).any()
                    or (starts[1:-1:2] > newlines).any() or 2 * (done + lines) > out.size):
                return None
            try:
                values = np.fromstring(text, dtype=np.float64, sep=" ")
            except (ValueError, DeprecationWarning):
                return None
            if values.size != 2 * lines:  # a token such as '1-2' read as two numbers
                return None
            out[2 * done:2 * (done + lines)] = values
            done += lines
            if hi == end:
                return done
            lo = hi + 1


def _fork_range(data: bytes, lo: int, end: int) -> tuple[int, int]:
    """(pid, read end of a pipe) of a child that sends the doubles of data[lo:end] through it.

    The child fails on a refused line.
    """
    def work():
        values = np.empty(2 * (data.count(b"\n", lo, end) + 1))
        if _parse_lines(data, lo, end, values) is None:
            return False
        _write_all(w, values)
        return True

    r, w = os.pipe()
    try:
        pid = _fork(work)
    except OSError:
        os.close(r)
        raise
    finally:
        os.close(w)
    return pid, r


def _read_to_end(fd: int, view: memoryview) -> int | None:
    """Bytes read from fd into view until end of file; None if there are more than it holds."""
    got = 0
    while got < len(view):
        k = os.readv(fd, [view[got:]])
        if not k:
            return got
        got += k
    return None if os.read(fd, 1) else got


def _scan_qsv(text: str) -> StateVector:
    """Parse qsv text line by line.

    This is the definition of the format and the source of every ParseError:
    ``read_qsv`` comes here whenever the one-call parse of the amplitude block
    refuses it.
    """
    bad = _NON_ASCII_RE.search(text)
    if bad is not None:
        start = text.rfind("\n", 0, bad.start()) + 1
        byte = bad.group().encode("utf-8", "surrogateescape")[0]
        raise ParseError(f"non-ASCII byte 0x{byte:02x}", line=text.count("\n", 0, start) + 1,
                         column=bad.start() - start + 1)
    lines = text.split("\n")
    # allow trailing blank lines, nothing else
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise ParseError("empty qsv file", line=1, column=1)
    if lines[0].strip() != "qsv 1":
        raise ParseError(f"bad qsv header {lines[0]!r}, expected 'qsv 1'", line=1, column=1)
    if len(lines) < 2:
        raise ParseError("missing 'n <int>' line", line=2, column=1)
    m = _COUNT_RE.match(lines[1])
    if m is None:
        raise ParseError(f"bad qubit-count line {lines[1]!r}, expected 'n <int>'", line=2, column=1)
    n = int(m.group(1))
    if n < 1:
        raise ParseError(f"qubit count must be >= 1, got {n}", line=2, column=3)
    dim = 1 << n
    if len(lines) - 2 != dim:
        # point at the first missing or first surplus line
        where = min(len(lines), dim + 2) + 1
        raise ParseError(
            f"expected {dim} amplitude lines for n={n}, found {len(lines) - 2}",
            line=where, column=1,
        )
    amps = np.empty(dim, dtype=np.complex128)
    for i, line in enumerate(lines[2:]):
        tokens = line.split()
        lineno = i + 3
        if len(tokens) != 2:
            raise ParseError(
                f"amplitude line must be 're im', got {line!r}", line=lineno, column=1
            )
        try:
            re_part = float(tokens[0])
        except ValueError:
            raise ParseError(f"bad real part {tokens[0]!r}", line=lineno,
                             column=line.index(tokens[0]) + 1) from None
        try:
            im_part = float(tokens[1])
        except ValueError:
            raise ParseError(f"bad imaginary part {tokens[1]!r}", line=lineno,
                             column=line.rindex(tokens[1]) + 1) from None
        amps[i] = complex(re_part, im_part)
    # float() accepts nan, inf and overflowing literals; a measure of them is meaningless
    bad = np.flatnonzero(~np.isfinite(amps.view(np.float64)))  # tokens in file order
    if bad.size:
        i, part = divmod(int(bad[0]), 2)
        line = lines[i + 2]
        token = line.split()[part]
        column = (line.rindex(token) if part else line.index(token)) + 1
        raise ParseError(f"non-finite {('real', 'imaginary')[part]} part {token!r}",
                         line=i + 3, column=column)
    return StateVector(n, _readonly(amps))
