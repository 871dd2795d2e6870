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
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(hi, lo, hi_high, hi_low), indexed by k - _POW_MIN: hi is 10**k rounded to a double.

    lo is the rest rounded, and hi_high and hi_low are hi's halves by _split.
    hi and lo are correctly rounded from exact integers: Python's int true
    division and float(int) round correctly. Built at first use by the writer
    or the reader, not at import, in about 1 ms.
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
    hi = np.array(hi)
    return tuple(map(_readonly, (hi, np.array(lo), *_split(hi))))


@functools.cache
def _format_tables() -> dict:
    """The exact powers of ten and the digit and layout tables of _qsv_lines, built on the first write."""
    # class of each exponent X, indexed by X + _EXP_MAX
    exps = np.arange(-_EXP_MAX, _EXP_MAX)
    cls = np.where(exps >= 17, _SCI + (exps >= 100),
                   np.where(exps < _FIXED_MIN, _SCI + 2 + (exps <= -100), exps - _FIXED_MIN))
    layouts = [_token_layout(c, tz, negative, newline) for newline in (False, True)
               for negative in (False, True) for c in range(_PY_CLASS + 1) for tz in range(17)]
    quads = [b"%04d" % i for i in range(10 ** 4)]
    return {
        "powers": _powers_of_ten(), "cls": cls,
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
    hi, lo, hi_high, hi_low = (table[k] for table in tables["powers"])
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

    The bytes are read in slices, each converted on its way into one buffer
    that grows in place: a buffered fh.read() joins what it holds to the
    rest. A slice that ends in '\\r' holds it back as the start of the next,
    whose '\\n' may follow it; one held at the end of the input is converted
    alone.
    """
    out = io.BytesIO()
    while data := fh.read(_QSV_CHUNK_BYTES):
        data = start + _as_bytes(data)  # here and below, data itself where start is empty: no copy
        start = b"\r" if data.endswith(b"\r") else b""
        out.write(_newlines(data[:len(data) - len(start)]))
    out.write(_newlines(start))
    return out.getvalue()  # the buffer itself, not a copy


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

    data is bytes or a map of a file, whose block is parsed in place. Accepts a
    subset of what ``_scan_qsv`` accepts: two tokens a line, separated by spaces,
    tabs and newlines, each read to float()'s bits (_parse_slice). A token that
    float() refuses, a value that is nan or inf, or anything else returns None
    and leaves the block to the scanner.

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


def _parse_lines(data, flat: np.ndarray, lo: int, end: int, line: int, stop: int) -> bool:
    """Parse the lines of data[lo:end] into amplitudes line..stop-1 of flat; False if refused.

    The slices share one buffer, which glibc then does not fault in again for each.
    """
    buf = np.empty(0, np.uint8)
    while lo <= end:
        cut = data.find(b"\n", min(lo + _QSV_CHUNK_BYTES, end), end)
        cut = end if cut < 0 else cut
        if buf.size < cut - lo + 2 * _PAD:
            buf = np.empty(cut - lo + 2 * _PAD, np.uint8)
        lines = _parse_slice(data, lo, cut, flat, line, stop, buf)
        if not lines:
            return False
        line, lo = line + lines, cut + 1
    return line == stop


def _parse_slice(data, lo: int, cut: int, flat: np.ndarray, line: int, stop: int, buf: np.ndarray) -> int:
    """The count of the lines of data[lo:cut], parsed into flat from amplitude line on; 0 if refused.

    The slice goes into buf between _PAD zero bytes. Tokens are runs of bytes above ' '.
    """
    size = cut - lo
    buf[:_PAD] = buf[_PAD + size:size + 2 * _PAD] = 0
    buf[_PAD:_PAD + size] = np.frombuffer(data, np.uint8, size, lo)
    work = np.subtract(buf[:size + 2 * _PAD], 48)
    other = np.packbits(np.greater(work, 9, out=work.view(bool)), bitorder="little")  # not a digit
    # every separator, and the zero bytes either side of the slice
    at = np.flatnonzero(np.less_equal(buf[_PAD - 1:_PAD + size + 1], 32, out=work[:size + 2].view(bool)))
    del work
    at += _PAD - 1
    starts = at[:-1][buf[at[:-1] + 1] > 32] + 1
    ends = at[1:][buf[at[1:] - 1] > 32]
    seps = buf[at[1:-1]]
    newlines = np.compress(seps == 10, at[1:-1])
    lines = newlines.size + 1
    if (line + lines > stop or starts.size != 2 * lines or not ((seps == 32) | (seps - 9 < 2)).all()
            or (starts[2::2] < newlines).any() or (starts[1:-1:2] > newlines).any()):
        return 0
    del at, seps, newlines
    width = np.minimum(ends - starts, _TOKEN_MAX + 1).astype(np.uint8)
    del ends
    ok, minus, first, dot, end, k = _token_parts(buf, other, starts, width)
    del other, width
    out = flat[2 * line:2 * (line + lines)]
    partial = _significand(buf, starts, first, dot, end, ok, k, out.view(np.uint64))
    del starts, first, dot, end
    _scaled(out, k, partial, minus, ok, buf)
    refused = np.flatnonzero(~ok).tolist()
    if refused:  # float() reads them from their lines
        heads = [lo, *(np.flatnonzero(np.frombuffer(data, np.uint8, size, lo) == 10) + lo + 1).tolist(), cut + 1]
        try:
            out[refused] = [float(data[heads[i >> 1]:heads[(i >> 1) + 1] - 1].split()[i & 1]) for i in refused]
        except ValueError:
            return 0
    return lines if np.isfinite(out[refused]).all() else 0


# The reader's decimal parse, vectorized: the writer's method run the other
# way. A token [sign] digits [. digits] [e [sign] digits] of at most
# _TOKEN_MAX bytes and 4 exponent digits is |x| = D * 10**k, D the integer of
# its digits with the dot dropped: their last 24, whose integer must be below
# 10**19, or past 24 digits their first 19, and then |x| lies in [D, D + 1) *
# 10**k. A token whose interval rounds to one double at both ends takes that
# double, float()'s, since rounding is monotonic; every other token (a
# near-tie, an extreme or subnormal value, a longer token or one of another
# shape) is read by float() itself. Each step frees its temporaries before the
# next runs: one slice's parse holds under 64 bytes a token of %.17g text.
_TOKEN_MAX = 32
_PAD = 64  # zero bytes around a slice: every read of a token's bytes lies in them
_READ_MAX = 288  # the largest k of a provable token: D * 10**k stays finite
_UPPER = np.uint64(0xFFFFFFFFF8000000)  # the sign, exponent and upper 26 significant bits of a double


def _words(buf: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The uint64 word of the 8 bytes of buf from each at, the first in the lowest byte."""
    return np.ndarray((buf.size - 7,), np.dtype((np.void, 8)), buffer=buf, strides=(1,))[at].view(np.uint64)


def _digits(w: np.ndarray, skip) -> np.ndarray:
    """The value of each word's 8 ASCII digits, the first the highest, in place; the lowest skip bits read 0."""
    w >>= skip
    w <<= skip
    for lane, mask in ((8, 0x0F0F0F0F0F0F0F0F), (16, 0x00FF00FF00FF00FF), (32, 0x0000FFFF0000FFFF)):
        w &= mask  # values of lane // 8 digits in every other lane, made lanes twice as wide
        w *= 1 + (10 ** (lane // 8) << lane)
        w >>= lane
    return w


def _pop_lowest(bits: np.ndarray) -> np.ndarray:
    """The index of each word's lowest set bit, as uint8 (64 for none), cleared in place."""
    low = bits - 1
    bits &= low
    low ^= bits  # the bits below it
    return np.bitwise_count(low)


def _token_parts(buf: np.ndarray, other: np.ndarray, s: np.ndarray, width: np.ndarray) -> tuple:
    """(ok, minus, first, dot, end, k) of the tokens of width bytes at s, from one bit a byte.

    ok where a token can be read, minus where it starts with '-', the offsets of its first
    digit, dot (end where it has none) and mantissa's end, and its exponent as int16.
    """
    # bit j of rest: byte j of the token is not a digit; bit `width` is the separator after it
    rest = _words(other, s >> 3)
    rest <<= 63 - width - np.bitwise_and(s, 7, dtype=np.uint8, casting="unsafe")
    rest >>= 63 - width
    head = buf[s]
    minus = head == 45
    first = (minus | (head == 43)).view(np.uint8)
    rest -= first
    known = np.bitwise_count(rest)
    # after a sign, the first non-digit may be a '.', and the first or the
    # next one an 'e', with a sign after it
    dot, end = _pop_lowest(rest), _pop_lowest(rest)
    del rest
    has_dot = buf[s + dot] == 46
    end = dot + (end - dot) * has_dot
    has_e = (buf[s + end] | 32) == 101
    after = buf[s + end + 1]
    exp_minus = has_e & (after == 45)
    exp_sign = (exp_minus | (has_e & (after == 43))).view(np.uint8)
    exp_digits = width - end - 1 - exp_sign  # wraps where there is no 'e'
    # those are distinct bytes: the token is well formed when they are all
    # of its non-digits, with digits before the exponent and in it
    ok = ((known - has_dot == 1 + has_e.view(np.uint8) + exp_sign) & (end - first > has_dot)
          & (width <= _TOKEN_MAX) & (~has_e | (exp_digits - 1 < 4)))
    del head, known, after
    k = np.zeros(s.size, np.int16)
    e = np.flatnonzero(has_e & ok)  # the exponent's digits end the token
    value = _digits(_words(buf, s[e] + width[e] - 8), 64 - 8 * exp_digits[e]).astype(np.int16)
    k[e] = np.where(exp_minus[e], -value, value)
    return ok, minus, first, dot, end, k


def _significand(buf: np.ndarray, s: np.ndarray, first, dot, end, ok, k, digits: np.ndarray) -> np.ndarray:
    """cut, of the mantissas from s + first to s + end with their dot at s + dot; end is moved, s kept.

    Each is D * 10**k, or within [D, D + 1) * 10**k where cut, D in digits; ok is cleared
    where D is not below 10**19. The dot is dropped in buf, and D read in 1-3 uint64 words
    of 8 ASCII digits (SWAR) that end at its last digit.
    """
    has_dot = dot < end
    count = end - first - has_dot  # digits, the dot dropped
    k -= (end - dot - 1) * has_dot
    # in a well-formed token the digit before the dot moves over it, the one before that
    # into its place, and so on: D's digits end at end, which a cut moves to its window's end
    moved = (dot - first) * (has_dot & ok)
    at = s + dot
    for r in range(int(moved.max(initial=0))):
        step = moved > r
        at -= step
        byte = buf[at]
        at += step
        buf[at] = byte
        at -= step
    del has_dot, moved, at
    cut = count > 24
    k[cut] += count[cut] - 19  # the window of the first 19 digits, and the rest's power of ten
    end[cut] -= count[cut] - 19
    count[cut] = 19
    w = min(3, -(-int(np.max(count, where=ok, initial=1)) // 8))
    count = count.astype(np.int16)
    s += end
    s -= 8 * w
    digits[:] = 0
    for j in range(w - 1, -1, -1):  # from the word of the highest digits on
        word = _digits(_words(buf, s), np.clip(64 * (j + 1) - 8 * count, 0, 64).astype(np.uint8))
        s += 8
        if j == 2:  # D is below 10**19 where the highest of three words is below 1000
            ok &= word < 1000
            np.minimum(word, 999, out=word)
        digits *= 10 ** 8
        digits += word
        del word
    s -= end
    return cut


def _scaled(out: np.ndarray, k: np.ndarray, cut: np.ndarray, minus: np.ndarray, ok: np.ndarray,
            room: np.ndarray) -> None:
    """D * 10**k rounded, negated where minus, in place of out's D; ok is cleared where not proven.

    D = h + l + low, h the upper 26 significant bits of the double nearest D,
    and 10**k = H + L + lo, H + L the double nearest it: P = h * H and l * H
    are exact, and r adds the rest but low * (L + lo) to within 2**-74 P,
    inside the margin. room's bytes hold two arrays where they fit.
    """
    hi, lo, hi_high, hi_low = _powers_of_ten()
    at = np.clip(k, _POW_MIN, _READ_MAX)
    ok &= at == k
    at -= _POW_MIN
    digits, size = out.view(np.uint64), out.size
    room = room[:room.size // 8 * 8].view(np.float64)
    high, r = room[:2 * size].reshape(2, size) if room.size >= 2 * size else np.empty((2, size))
    np.copyto(high, digits, casting="unsafe")
    np.subtract(digits, high, out=digits, dtype=np.uint64, casting="unsafe")
    np.copyto(r, digits.view(np.int64), casting="unsafe")  # D - high, exactly
    upper = hi_high.take(at, mode="clip")
    r *= upper
    for table in (lo, hi_low):  # high * lo, high * L
        table.take(at, out=out, mode="clip")
        out *= high
        r += out
    np.bitwise_and(high.view(np.uint64), _UPPER, out=out.view(np.uint64))  # h
    high -= out  # l
    p = out * upper
    upper *= high  # l * H
    r += upper
    margin = np.abs(p, out=upper)
    margin *= 2.0 ** -72
    margin[cut] += 2 * hi[at[cut]]
    np.add(r, margin, out=high)
    high += p
    np.subtract(r, margin, out=out)
    out += p
    ok &= (out == high) & ((p == 0) | (margin > 2.0 ** -972))  # |P| above 2**-900: products stay normal
    out.view(np.uint64)[...] |= np.left_shift(minus, 63, dtype=np.uint64)


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
