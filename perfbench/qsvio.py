"""The benchmark's own qsv writer and parser.

Kept apart from ``ntangle.state`` on purpose: the cli-compute inputs are
written here so that ``write_qsv`` is no part of that workload's set-up, and
the export outputs are read back here so that the check does not trust the
reader it would be checking. Format: "qsv 1", "n <int>", then 2**n lines of
"re im" with 17 significant digits, which round-trips doubles exactly.
"""

from __future__ import annotations

import numpy as np


def format_qsv(amps: np.ndarray) -> bytes:
    n = amps.size.bit_length() - 1
    if amps.size != 1 << n:
        raise ValueError(f"amplitude count {amps.size} is not a power of two")
    flat = np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64).tolist()
    body = ("%.17g %.17g\n" * amps.size) % tuple(flat)
    return f"qsv 1\nn {n}\n{body}".encode("ascii")


def write_qsv(path, amps: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(format_qsv(amps))


def parse_qsv(data: bytes) -> np.ndarray:
    """Amplitudes of a qsv document; raises ValueError on any deviation."""
    header, _, body = data.partition(b"\n")
    count_line, _, body = body.partition(b"\n")
    if header.strip() != b"qsv 1":
        raise ValueError(f"bad qsv header {header[:40]!r}")
    fields = count_line.split()
    if len(fields) != 2 or fields[0] != b"n" or not fields[1].isdigit():
        raise ValueError(f"bad qubit-count line {count_line[:40]!r}")
    n = int(fields[1])
    lines = body.rstrip(b"\n").split(b"\n")
    if len(lines) != 1 << n:
        raise ValueError(f"expected {1 << n} amplitude lines for n={n}, found {len(lines)}")
    tokens = body.split()
    if len(tokens) != 2 << n:
        raise ValueError("every amplitude line must hold exactly 're im'")
    flat = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    return flat.view(np.complex128)


def read_qsv(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return parse_qsv(fh.read())
