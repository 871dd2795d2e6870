"""The qsv state file format, ASCII text: line 1 "qsv 1", line 2 "n <int>", then exactly
2**n lines of "re im". Writers emit 17 significant digits so the round trip is bit-exact
for doubles. A large block is read or written in forked processes, one per worker at most.
"""

from __future__ import annotations

import contextlib
import functools
import io
import mmap
import os
import re
import signal
import tempfile

import numpy as np

from . import state
from .errors import ParseError
from .state import StateVector, _AmplitudeMap, _check_capacity, _readonly

__all__ = ["read_qsv", "write_qsv"]

_QSV_BLOCK = 1 << 12  # amplitudes formatted per numpy pass when writing; ~2.4 MB of temporaries
# bytes of amplitude text per slice the reader parses, and per copy of one of
# the writer's spools; bounds the temporaries of both
_QSV_CHUNK_BYTES = 1 << 18
# bytes of the first read of the header lines; each next read takes as many more
# as all reads before it
_QSV_HEAD_BYTES = 1 << 8
_QSV_TOKEN_BYTES = b"0123456789.eE+- \t\n"
# amplitudes per process, at least, when a block is split: on a 2-vCPU Xeon,
# in four runs of 21 alternating calls, two processes read n=14 (2**13
# amplitudes a range) in 1.01-1.04 of the time of one and wrote it in
# 1.11-1.17; at n=15 they read in 0.77-0.78 (1.10 in one run) and wrote in
# 0.88-0.91
_QSV_RANGE_MIN = 1 << 14
_QSV_ROUND = 1 << 17  # amplitudes per process and round when writing; bounds each child's spool


def _ways(dim: int) -> int:
    """The number of processes that read or write a block of dim amplitudes.

    One per CPU, each with at least _QSV_RANGE_MIN amplitudes. One where
    children cannot be forked, or where an ignored SIGCHLD has the kernel reap
    them so that their exit status is lost.
    """
    if not hasattr(os, "fork") or signal.getsignal(signal.SIGCHLD) is signal.SIG_IGN:
        return 1
    return max(1, min(state._WORKERS, dim // _QSV_RANGE_MIN))


def _fork(work, *args) -> int:
    """pid of a forked child that runs work(*args) and leaves with os._exit.

    The exit status is 0 if work returns True, and 1 if it returns False or
    raises; the child never returns into the caller's code.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if work(*args) else 1
        finally:
            os._exit(code)
    return pid


def _in_ranges(ranges, work) -> bool:
    """Run work(*r) on every range r; False if work refuses one in this process.

    This process works the first range and a forked child each other one; a
    range's output goes wherever work puts it, so this moves no bytes. A
    child exits 0 only once work returns True, so a range whose child cannot
    be forked or exits otherwise is worked here: every range is done the
    same way at any number of them. Every child is waited for, in order, or
    killed and reaped on the way out, also when an exception or
    KeyboardInterrupt leaves this.
    """
    pids = [None] * len(ranges)  # a child not yet waited for, by range
    try:
        for k, r in enumerate(ranges[1:], 1):
            with contextlib.suppress(OSError):  # no process to be had
                pids[k] = _fork(work, *r)
        if not work(*ranges[0]):
            return False
        for k, r in enumerate(ranges[1:], 1):
            status = -1
            if pids[k] is not None:
                with contextlib.suppress(ChildProcessError):  # reaped elsewhere
                    status = os.waitpid(pids[k], 0)[1]
                pids[k] = None  # its pid may name another process by now: never kill it
            if status and not work(*r):
                return False
        return True
    finally:
        for pid in filter(None, pids):  # still working
            with contextlib.suppress(ProcessLookupError, ChildProcessError):  # reaped elsewhere
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def write_qsv(psi: StateVector, target) -> None:
    """Write a state in qsv format to a path or a binary or text file object.

    The text is made as ASCII bytes: a path is opened in binary mode, so its
    lines end in ``\\n`` on every platform, and a text file object
    (``io.TextIOBase``) gets each block decoded once. The formatting holds the
    GIL, so it runs in rounds of one range of at most _QSV_ROUND amplitudes per
    process, each through _in_ranges. This process formats the first range of
    a round straight into the target, and each other range goes into an
    unlinked file of its own, which is copied to the target in order once the
    round is done; the text is the same at any number of ranges.
    """
    with (contextlib.nullcontext(target) if hasattr(target, "write") else open(target, "wb")) as fh:
        text = isinstance(fh, io.TextIOBase)
        write = (lambda data: fh.write(data.decode("ascii"))) if text else fh.write
        write(b"qsv 1\nn %d\n" % psi.n)
        _format_tables()  # built before any fork, so that every child inherits them
        flat = psi.amps.view(np.float64)
        dim = 1 << psi.n
        ways = _ways(dim)
        step = min(-(-dim // ways), _QSV_ROUND)
        for first in range(0, dim, ways * step):
            last = min(first + ways * step, dim)
            ranges = [(lo, min(lo + step, dim)) for lo in range(first, last, step)]
            with contextlib.ExitStack() as stack:
                try:
                    spools = {lo: stack.enter_context(tempfile.TemporaryFile()) for lo, _ in ranges[1:]}
                except OSError:  # no file to be had: this process formats the round alone
                    spools, ranges = {}, [(first, last)]

                def work(lo, hi):
                    spool = spools.get(lo)
                    if spool is None:
                        return _format_lines(flat, lo, hi, write)
                    spool.seek(0)  # over a failed child's part: a prefix of the same text
                    _format_lines(flat, lo, hi, spool.write)
                    spool.flush()
                    return True

                _in_ranges(ranges, work)
                for spool in spools.values():
                    spool.seek(0)
                    while data := spool.read(_QSV_CHUNK_BYTES):
                        write(data)


def _format_lines(flat: np.ndarray, lo: int, hi: int, write) -> bool:
    """Pass the qsv bytes of amplitudes lo..hi-1 to write, one _QSV_BLOCK at a time; True."""
    for start in range(lo, hi, _QSV_BLOCK):
        write(_qsv_lines(flat[2 * start:2 * min(start + _QSV_BLOCK, hi)]))
    return True


# The writer's "%.17g", vectorized. Each float x with |x| in (1e-280, 1e280)
# has X = floor(log10|x|) and S = |x| * 10**(16 - X) in [1e16, 1e17); its 17
# digits are the integer D nearest to S, and the text lays them out by the
# rules of "%g". S is formed exactly enough to round it: 10**k is the pair
# of doubles (hi, lo) of _powers_of_ten, hi + lo within 2**-106 of it, and
# |x| * hi is split exactly by Dekker's two-product. Zeros are written "0" and
# "-0". Every other float whose digits this cannot prove (a tie or near-tie, a
# misjudged X, a non-finite or extreme value) is formatted by Python's own
# "%.17g".
# the k of every 10**k: the writer scales a float in range by 10**(-265..297),
# the reader a provable token by 10**(-290..288)
_POW_MIN, _POW_MAX = -290, 297
_SPLITTER = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves (Veltkamp)
_FIXED_MIN = -4  # "%g" writes exponents -4..16 in fixed notation, others as d.ddde±XX
_EXP_MAX = 300  # above |X| of every float in range (at most 281)
# A token's source row, 32 bytes: "000" and its 17 digits, 3 exponent digits
# and a NUL, then the characters below; a layout row lists the bytes of the
# token's text in order, NUL-padded to _TOKEN_WIDTH
_DIGIT0, _EXP_DIGIT0 = 3, 20
_CHARS = b"-.0e+ \n\0"
_MINUS, _DOT, _ZERO, _E, _PLUS, _SPACE, _NEWLINE, _NUL = range(24, 32)
_TOKEN_WIDTH = 25  # "-d." 16 digits "e-XXX" and the separator
# layout classes: fixed notation at exponent X is class X - _FIXED_MIN; then
# e+XX, e+XXX, e-XX, e-XXX, a zero, and a token formatted by "%.17g"
_SCI = 17 - _FIXED_MIN
_ZERO_CLASS, _PY_CLASS = _SCI + 4, _SCI + 5


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A high and a low half of v of at most 26 significant bits each; their sum is exactly v."""
    c = _SPLITTER * v
    high = c - (c - v)
    return high, v - high


def _token_layout(cls: int, tz: int, negative: bool, newline: bool) -> list:
    """Source-row positions of the text of one token with digits of tz trailing zeros."""
    if cls == _PY_CLASS:
        out = []
    elif cls == _ZERO_CLASS:
        out = [_ZERO]
    elif cls < _SCI:
        x = cls + _FIXED_MIN
        digits = [_DIGIT0 + j for j in range(17 - tz)]
        if x < 0:
            out = [_ZERO, _DOT] + [_ZERO] * (-x - 1) + digits
        else:
            whole = [_DIGIT0 + j for j in range(x + 1)]
            out = whole + ([_DOT] + digits[x + 1:] if len(digits) > x + 1 else [])
    else:
        sign, wide = divmod(cls - _SCI, 2)
        out = [_DIGIT0] + ([_DOT] + [_DIGIT0 + j for j in range(1, 17 - tz)] if tz < 16 else [])
        out += [_E, _MINUS if sign else _PLUS] + [_EXP_DIGIT0 + j for j in range(1 - wide, 3)]
    if negative and cls != _PY_CLASS:
        out.insert(0, _MINUS)
    out.append(_NEWLINE if newline else _SPACE)
    return out + [_NUL] * (_TOKEN_WIDTH - len(out))


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo), indexed by k - _POW_MIN: hi is 10**k rounded to a double, lo the rest rounded.

    Both are correctly rounded from exact integers: Python's int true division
    and float(int) round correctly. Built at first use by the writer or the
    reader, not at import, in about 1 ms.
    """
    hi, lo = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        if k >= 0:
            power = 10 ** k
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:
            power = 10 ** -k
            hi.append(1 / power)
            m, d = hi[-1].as_integer_ratio()
            lo.append((d - m * power) / (d * power))  # 1/power - m/d
    return _readonly(np.array(hi)), _readonly(np.array(lo))


@functools.cache
def _format_tables() -> dict:
    """The exact powers of ten and the digit and layout tables of _qsv_lines, built on the first write."""
    hi, lo = _powers_of_ten()
    # class of each exponent X, indexed by X + _EXP_MAX
    exps = np.arange(-_EXP_MAX, _EXP_MAX)
    cls = np.where(exps >= 17, _SCI + (exps >= 100),
                   np.where(exps < _FIXED_MIN, _SCI + 2 + (exps <= -100), exps - _FIXED_MIN))
    layouts = [_token_layout(c, tz, negative, newline) for newline in (False, True)
               for negative in (False, True) for c in range(_PY_CLASS + 1) for tz in range(17)]
    quads = [b"%04d" % i for i in range(10 ** 4)]
    return {
        "hi": hi, "hi_halves": _split(hi), "lo": lo, "cls": cls,
        "layout": np.array(layouts, dtype=np.intp),
        "quad": np.frombuffer(b"".join(quads), dtype=np.uint32),  # 4 ASCII digits per word
        "exp": np.frombuffer(b"".join(b"%03d\0" % e for e in range(_EXP_MAX)), dtype=np.uint32),
        "chars": np.frombuffer(_CHARS, dtype=np.uint32),
        # trailing zero digits of each 4-digit group; 4 for 0000
        "quad_tz": np.array([len(q) - len(q.rstrip(b"0")) for q in quads], dtype=np.intp),
    }


def _decimal(x: np.ndarray, tables: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, X, proven) per float: |x| rounds to D * 10**(X - 16), D of 17 digits, where proven."""
    a = np.abs(x)
    proven = (a > 1e-280) & (a < 1e280)
    a = np.where(proven, a, 1.0)
    exp = np.floor(np.log10(a)).astype(np.intp)
    k = 16 - _POW_MIN - exp
    hi, lo = tables["hi"][k], tables["lo"][k]
    hi_high, hi_low = (half[k] for half in tables["hi_halves"])
    # S = p + t: p = fl(a * hi) and t its exact error (Dekker), plus a * lo
    p = a * hi
    a_high, a_low = _split(a)
    t = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low + a * lo
    r = np.rint(t)
    digits = p.astype(np.int64) + r.astype(np.int64)  # p is an integer wherever S >= 2**53
    proven &= np.abs(np.abs(t - r) - 0.5) > 1e-6  # away from a tie, by far more than t's error
    # D = 10**16 from S just below it would need X - 1: accept it only when S is exact
    proven &= (((digits > 10 ** 16) & (digits < 10 ** 17))
               | ((digits == 10 ** 16) & (t == 0) & (lo == 0)))
    return digits, exp, proven


def _source_rows(digits: np.ndarray, exp: np.ndarray, tables: dict) -> tuple[np.ndarray, np.ndarray]:
    """The (m, 8) uint32 source rows of the tokens, and the trailing zeros of each D."""
    high8 = digits // 10 ** 8
    low8 = digits - high8 * 10 ** 8
    first = high8 // 10 ** 8
    mid8 = high8 - first * 10 ** 8
    quad1, quad3 = mid8 // 10 ** 4, low8 // 10 ** 4  # numpy's // by a scalar is fast; % is not
    groups = [first, quad1, mid8 - quad1 * 10 ** 4, quad3, low8 - quad3 * 10 ** 4]
    src = np.empty((len(digits), 8), dtype=np.uint32)
    for col, group in enumerate(groups):
        src[:, col] = tables["quad"][group]
    src[:, 5] = tables["exp"][np.abs(exp)]
    src[:, 6:] = tables["chars"]
    tz = 0
    for group in groups[1:]:
        tz = tables["quad_tz"][group] + (group == 0) * tz
    return src, tz


def _qsv_lines(x: np.ndarray) -> bytes:
    """The qsv lines of the float pairs x (re, im, re, im, ...), as ASCII bytes.

    Byte-identical to ``b"%.17g %.17g\\n"`` per pair; see the comment above
    _POW_MIN for the method.
    """
    tables = _format_tables()
    digits, exp, proven = _decimal(x, tables)
    src, tz = _source_rows(digits, exp, tables)
    cls = np.where(proven, tables["cls"][exp + _EXP_MAX], np.where(x == 0, _ZERO_CLASS, _PY_CLASS))
    index = np.arange(len(x))
    variant = (index & 1) * 2 + np.signbit(x)  # newline after odd tokens, and sign
    idx = tables["layout"][(variant * (_PY_CLASS + 1) + cls) * 17 + tz]
    idx += (index * 32)[:, None]
    rows = src.view(np.uint8).ravel()[idx]
    del idx  # the largest temporary, 200 bytes a float
    tokens = rows.view(f"S{_TOKEN_WIDTH}").ravel().tolist()  # NUL padding dropped
    for i in np.flatnonzero(cls == _PY_CLASS).tolist():
        tokens[i] = b"%.17g" % x[i].item() + tokens[i]
    return b"".join(tokens)


def read_qsv(source) -> StateVector:
    """Read a state in qsv format from a path or a binary or text file object.

    Every source is read as bytes, its header lines by readline(): a path is
    opened in buffered binary mode, and the strings of a text file object are
    encoded back to the bytes they were decoded from. The bytes get text
    mode's newlines: ``\\r\\n`` and a lone ``\\r`` become ``\\n``. A path's
    amplitude block is parsed straight from a read-only map of the file, and
    no copy of the block is held; the map is closed before this returns. A
    file object, a block that holds a ``\\r``, an empty block and a file that
    cannot be mapped are read into memory (_rest). A file truncated while it
    is mapped ends the process with SIGBUS.
    """
    path = not hasattr(source, "read")
    with (open(source, "rb") if path else contextlib.nullcontext(source)) as fh:
        # refuse an over-capacity header before the amplitude block is even read: the
        # head holds both header lines, and the count line does not end in a '\r' that a
        # '\n' may follow
        head = b""
        while ((len(lines := _newlines(head).split(b"\n", 2)) < 3
                or head.endswith(b"\r") and not lines[2])
               and (line := _as_bytes(fh.readline(len(head) + _QSV_HEAD_BYTES)))):
            head += line
        header, count = (part.decode("ascii", "surrogateescape") for part in (lines + [b""])[:2])
        m = _COUNT_RE.match(count)
        n = int(m.group(1)) if header.strip() == "qsv 1" and m is not None else 0
        _check_capacity(f"qsv file of {n} qubits", n)
        if n < 1 or len(lines) < 3:
            # a refused header, or a source that ended within its first two lines: the
            # scanner reports it from the head, read on only past blank lines, which it drops
            blank = not _newlines(head).partition(b"\n")[2].decode("ascii", "surrogateescape").strip()
            while blank and (line := _as_bytes(fh.readline(len(head) + _QSV_HEAD_BYTES))):
                head += line
                blank = not line.decode("ascii", "surrogateescape").strip()
            return _scan_qsv(_newlines(head).decode("ascii", "surrogateescape"))
        mapped = _map_block(fh) if path and not lines[2] else None  # lines[2]: the head passed a '\r'
        if mapped is None:
            # a '\r' that ends the head goes back to _rest, which joins it to a '\n' that follows
            start = lines[2][:-1] + b"\r" if head.endswith(b"\r") and lines[2] else lines[2]
            block = _rest(fh, start)
            flat = _parse_amplitude_block(block, n)
        else:
            with mapped:
                flat = _parse_amplitude_block(mapped, n, fh.tell())
                if flat is None:  # the scanner takes the refused block
                    block = mapped[fh.tell():]
    if flat is not None:
        return StateVector(n, _readonly(flat).view(np.complex128))
    block = block.decode("ascii", "surrogateescape")
    text = f"{header}\n{count}\n{block}"
    del block  # hold one copy of the text while the scanner splits it into lines
    return _scan_qsv(text)


def _map_block(fh) -> mmap.mmap | None:
    """A read-only map of the file fh, whose amplitude block starts at fh's position.

    None where the block is empty or holds a '\\r', which text mode would
    change, or where the file cannot be mapped (a pipe or a device).
    """
    try:
        if os.fstat(fh.fileno()).st_size <= fh.tell():
            return None
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):
        return None
    if mapped.find(b"\r", fh.tell()) < 0:
        return mapped
    mapped.close()
    return None


def _rest(fh, start: bytes) -> bytes:
    """start and the rest of fh's bytes with text mode's newlines, held once.

    The bytes are copied in slices into one buffer that grows in place: a
    buffered fh.read() joins what it holds to the rest. A '\\r' is then
    converted in place through a view of that buffer, one slice at a time,
    each written forward over bytes already read, and the buffer is cut to
    the converted length.
    """
    out = io.BytesIO()
    out.write(start)
    while data := fh.read(_QSV_CHUNK_BYTES):
        out.write(_as_bytes(data))
    block = out.getvalue()  # the buffer itself, not a copy
    if b"\r" not in block:
        return block
    del block  # the buffer is out's alone again, so that its view writes to it in place
    read = write = 0
    with out.getbuffer() as view:
        while read < len(view):
            part = bytes(view[read:read + _QSV_CHUNK_BYTES])
            if part.endswith(b"\r") and read + len(part) < len(view):
                part = part[:-1]  # the '\r' goes with the next slice, whose '\n' may follow it
            read += len(part)
            part = _newlines(part)
            view[write:write + len(part)] = part
            write += len(part)
    out.truncate(write)
    return out.getvalue()


def _as_bytes(data) -> bytes:
    """A text file object's string as the bytes it was decoded from; bytes as they are."""
    return data.encode("utf-8", "surrogateescape") if isinstance(data, str) else data


def _newlines(data: bytes) -> bytes:
    """data with text mode's newlines: '\\r\\n' and a lone '\\r' become '\\n'."""
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


_COUNT_RE = re.compile(r"^n\s+(\d+)\s*$")
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")


def _parse_amplitude_block(data, n: int, start: int = 0) -> np.ndarray | None:
    """The 2 * 2**n doubles of the well-formed amplitude block data[start:], else None.

    data is bytes or a map of a file, whose block is parsed in place.

    Accepts a subset of what ``_scan_qsv`` accepts: tokens of ASCII digits,
    '.', 'e', 'E', '+' and '-', exactly two per line, separated by spaces,
    tabs and newlines. _parse_tokens reads each to float()'s bits: by numpy
    where it proves the rounding, by float() itself elsewhere. A token that
    float() refuses, a value that is nan or inf, or anything else returns
    None and leaves the block to the scanner.

    The parse holds the GIL, so a large block is cut into one range of
    whole lines per CPU and parsed through _in_ranges. The doubles go into one
    shared anonymous map, which a forked child's writes reach: each range's
    first line is counted before any fork, and this process or a child parses
    the range's lines in place. A range holds the same tokens as in one serial
    pass, so the bits do not depend on the number of ranges. A refused range,
    or one whose lines do not end where the next range's (or the state)
    begins, returns None as well.
    """
    end = len(data)
    while end > start and data[end - 1] in b" \t\n":  # trailing blank lines are allowed
        end -= 1
    dim = 1 << n
    ways = _ways(dim)
    # (first byte, end byte, first line, end line) of each range: whole lines,
    # each ending before the newline that starts the next
    ranges = []
    lo, line = start, 0
    octets = np.frombuffer(data, dtype=np.uint8)
    try:
        for k in range(1, ways):
            cut = data.find(b"\n", max(start + (end - start) * k // ways, lo), end)
            if cut < 0:
                break
            # numpy counts a chunk in half the time of bytes.count
            lines = 1 + sum(int(np.count_nonzero(octets[i:min(i + _QSV_CHUNK_BYTES, cut)] == 10))
                            for i in range(lo, cut, _QSV_CHUNK_BYTES))
            ranges.append((lo, cut, line, line + lines))
            lo, line = cut + 1, line + lines
    finally:
        del octets  # a map cannot be closed while a view of it lives
    if line > dim:  # more lines than the state holds before the last range
        return None
    ranges.append((lo, end, line, dim))
    flat = np.ndarray(2 * dim, np.float64, buffer=_AmplitudeMap(-1, 16 << n))
    _powers_of_ten()  # built before any fork, so that every child inherits it
    if not _in_ranges(ranges, functools.partial(_parse_lines, data, flat)):
        return None
    return flat


def _parse_lines(data: bytes, flat: np.ndarray, lo: int, end: int, line: int, stop: int) -> bool:
    """Parse the lines of data[lo:end] into amplitudes line..stop-1 of flat, two doubles a line.

    False if a line is refused, a value is not finite, or the range does not
    hold exactly stop - line lines.
    """
    while True:
        cut = data.find(b"\n", min(lo + _QSV_CHUNK_BYTES, end), end)
        cut = end if cut < 0 else cut
        text = data[lo:cut]
        if text.translate(None, _QSV_TOKEN_BYTES):
            return False
        chunk = np.frombuffer(text, dtype=np.uint8)
        newlines = np.flatnonzero(chunk == 10)
        lines = newlines.size + 1
        # tokens are runs of bytes above ' ', from each start to each end in
        # edges; tokens 2j and 2j+1 must start on line j, after newline j-1 and
        # before newline j
        edges = np.flatnonzero(np.diff(chunk > 32, prepend=False, append=False))
        starts = edges[::2]
        if (line + lines > stop or starts.size != 2 * lines or (starts[2::2] < newlines).any()
                or (starts[1:-1:2] > newlines).any()):
            return False
        values = _parse_tokens(text, starts, edges[1::2])
        if values is None or not np.isfinite(values).all():
            return False
        flat[2 * line:2 * (line + lines)] = values
        line += lines
        if cut == end:
            return line == stop
        lo = cut + 1


# The reader's decimal parse, vectorized: the writer's method run the other
# way. A token [sign] digits [. digits] [e [sign] digits] of at most
# _TOKEN_MAX bytes is |x| = D * 10**k, D the integer of its digits with the
# dot dropped. D is read in uint64 words of 8 ASCII digits, as many as the
# longest D of the slice needs, at most three: its last 24 digits, whose
# integer must be below 10**19, or past 24 digits its first 19, and then |x|
# lies in [D, D + 1) * 10**k. D * 10**k is formed as p + t as in _decimal,
# within a margin far wider than the error of p + t, and a token whose
# interval rounds to one double at both ends takes that double, float()'s,
# since rounding is monotonic. Every other token (a near-tie, an extreme or
# subnormal value, a longer token or one of another shape) is read by float()
# itself.
_TOKEN_MAX = 32
_PAD = 64  # bytes around a slice: every read of a token's bytes lies in them
_READ_MAX = 288  # the largest k of a provable token: D * 10**k stays finite
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII zeros
# entry z + 32: a uint64 whose low z bytes (none below 0, all above 8) are 0xff
_LOW_BYTES = ((np.arange(8) < np.arange(-32, 73)[:, None]) * np.uint8(0xFF)).view(np.uint64).ravel()


def _runs(buf: np.ndarray, width: int) -> np.ndarray:
    """Every run of width bytes of buf, as one record per first byte; no copy."""
    return np.ndarray((buf.size - width + 1,), np.dtype((np.void, width)), buffer=buf, strides=(1,))


def _eight_digits(w: np.ndarray) -> np.ndarray:
    """The value of the eight ASCII digits in each uint64 word, the first in the lowest byte."""
    w = w - _ZEROS
    w = w * np.uint64(10) + (w >> np.uint64(8))  # two-digit values in the even bytes
    return ((w & np.uint64(0x000000FF000000FF)) * np.uint64(100 + (1000000 << 32))
            + ((w >> np.uint64(16)) & np.uint64(0x000000FF000000FF)) * np.uint64(1 + (10000 << 32))
            ) >> np.uint64(32)


def _lowest(mask: np.ndarray) -> np.ndarray:
    """The index of the lowest set bit of each mask of at most 40 bits; 40 where none is set."""
    mask = mask | (1 << 40)
    return np.bitwise_count((mask & -mask) - 1).astype(np.intp)


def _parse_tokens(text: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """float(token) of each token text[starts[i]:ends[i]]; None if float() refuses one.

    The tokens hold digits, '.', 'e', 'E', '+' and '-' only. See the comment
    above _TOKEN_MAX for the method. Each step is a function of its own, so
    that its temporaries are freed before the next one runs.
    """
    buf = np.zeros(len(text) + 2 * _PAD, np.uint8)
    buf[_PAD:_PAD + len(text)] = np.frombuffer(text, np.uint8)
    s = starts + _PAD
    ok, minus, first, dot, end, power = _token_parts(buf, s, np.minimum(ends - starts, _TOKEN_MAX + 1))
    digits, k, cut = _significand(buf, s, first, dot, end, ok)
    value = _scaled(digits, k + power, cut, minus, ok)
    refused = ~ok
    for i, a, b in zip(np.flatnonzero(refused).tolist(), starts[refused].tolist(), ends[refused].tolist()):
        try:
            value[i] = float(text[a:b])
        except ValueError:
            return None
    return value


def _token_parts(buf: np.ndarray, s: np.ndarray, width: np.ndarray) -> tuple:
    """(ok, minus, first, dot, end, power) of the tokens of width bytes at s.

    ok where a token is well formed and short enough to read; minus where it
    starts with '-'; first and end bound its mantissa's digits and the dot
    (40 for none), and power is the value of its exponent.
    """
    # bit j of other: byte j of the token is not a digit
    words = _runs(np.packbits((buf - 48) > 9, bitorder="little"), 8)[s >> 3].view(np.uint64)
    other = (words >> (s & 7).astype(np.uint64)).view(np.int64) & ((1 << width) - 1)
    head = buf[s]
    minus = head == 45
    sign = minus | (head == 43)
    # after a sign, the first non-digit may be a '.', and the first or the
    # next one an 'e', with a sign after it
    rest = other - sign
    dot = _lowest(rest)
    has_dot = (dot < width) & (buf[s + dot] == 46)
    x = np.where(has_dot, _lowest(rest & (rest - 1)), dot)
    has_e = (x < width) & ((buf[s + x] | 32) == 101)
    after = buf[s + x + 1]
    exp_minus = has_e & (after == 45)
    exp_sign = exp_minus | (has_e & (after == 43))
    end = np.where(has_e, x, width)
    exp_digits = np.where(has_e, width - x - 1 - exp_sign, 0)
    # those are distinct bytes: the token is well formed when they are all
    # of its non-digits, with digits before the exponent and in it
    known = sum(flag.view(np.uint8) for flag in (sign, has_dot, has_e, exp_sign))
    ok = ((np.bitwise_count(other) == known) & (end - sign - has_dot > 0)
          & (has_e <= (exp_digits > 0)) & (exp_digits <= 8) & (width <= _TOKEN_MAX))
    # the exponent's digits end the token; the bytes before them read as zeros
    word = _runs(buf, 8)[s + width - 8].view(np.uint64)
    fill = ~np.uint64(0) >> (exp_digits << 3).astype(np.uint64)
    power = _eight_digits((word & ~fill) | (_ZEROS & fill)).view(np.int64)
    return ok, minus, sign.view(np.uint8), np.where(has_dot, dot, 40), end, np.where(exp_minus, -power, power)


def _significand(buf: np.ndarray, s: np.ndarray, first, dot, end, ok) -> tuple:
    """(D, k, cut) of the mantissas from s + first to s + end; see the comment above _TOKEN_MAX.

    The mantissa is D * 10**k, or within [D, D + 1) * 10**k where cut; ok is
    cleared where D would not be below 10**19. D is read in the window of w
    words that ends at its last digit, a word at a time: bytes before the dot
    from the word at g, those after it from the word at g + 1.
    """
    has_dot = dot < 40
    stop = end - has_dot  # the mantissa's length without the dot
    count = stop - first
    w = min(3, -(-int(np.max(count, where=ok, initial=1)) // 8))
    cut = count > 24
    last = np.where(cut, first + 19, stop)
    g = last - 8 * w
    words = _runs(buf, 8)
    digits = np.zeros(s.size, np.uint64)
    for j in range(w):
        before = _LOW_BYTES[dot - g + 32]
        zeros = _LOW_BYTES[first - g + 32]
        word = (words[s + g].view(np.uint64) & before) | (words[s + g + 1].view(np.uint64) & ~before)
        word = _eight_digits((word & ~zeros) | (_ZEROS & zeros))
        if j == 0 and w == 3:
            ok &= word < 1000
        digits = digits * np.uint64(10 ** 8) + word
        g += 8
    return digits, (stop - last) - np.where(has_dot, end - dot - 1, 0), cut


def _scaled(digits: np.ndarray, k: np.ndarray, cut: np.ndarray, minus: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """D * 10**k rounded, negated where minus; ok is cleared where that rounding is not proven.

    The values are made last, while the temporaries are still held, so they
    lie above them on the heap; they live until the next slice's values are
    made, so malloc does not give the slice's memory back to the system to
    fault it in again for the next slice (on a 2-vCPU Xeon this took a read
    at n=20 in one process from 146k page faults to 29k, and from 220 ns a
    float to 175).
    """
    hi, lo = _powers_of_ten()
    high = digits.astype(np.float64)
    # D = high + low exactly, high the double nearest to D
    low = (digits - high.astype(np.uint64)).view(np.int64).astype(np.float64)
    at = np.clip(k, _POW_MIN, _READ_MAX) - _POW_MIN
    hi, lo, hi_high, hi_low = (table[at] for table in (hi, lo, *_split(hi)))
    p = high * hi
    high_high, high_low = _split(high)
    t = (((high_high * hi_high - p) + high_high * hi_low + high_low * hi_high) + high_low * hi_low
         + (high * lo + low * hi))
    margin = np.abs(p) * 2.0 ** -90 + cut * 2 * hi
    value = p + (t - margin)
    ok &= (value == p + (t + margin)) & ((digits == 0) | ((k == at + _POW_MIN) & (np.abs(p) > 2.0 ** -900)))
    return _signed(value, minus)


def _signed(value: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """value, at least +0 where it counts, with the sign bit set where minus."""
    return (value.view(np.uint64) | (minus.astype(np.uint64) << np.uint64(63))).view(np.float64)


def _scan_qsv(text: str) -> StateVector:
    """Parse qsv text line by line.

    This is the definition of the format and the source of every ParseError:
    ``read_qsv`` comes here whenever the vectorized parse of the amplitude
    block refuses it.
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
        raise ParseError(f"expected {dim} amplitude lines for n={n}, found {len(lines) - 2}",
                         line=min(len(lines), dim + 2) + 1, column=1)
    amps = np.empty(dim, dtype=np.complex128)
    for i, line in enumerate(lines[2:]):
        tokens = line.split()
        lineno = i + 3
        if len(tokens) != 2:
            raise ParseError(f"amplitude line must be 're im', got {line!r}", line=lineno, column=1)
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
