"""Exact integer index machinery: bit counts and the two sign functions.

Everything in this module is plain machine-integer arithmetic; no floating
point appears anywhere. Indices are read as n-bit strings i_{n-1}...i_1 i_0.

The two sign functions are only defined on restricted index ranges and reject
anything outside them: a caller asking for a sign outside the stated domain
has a bug, not a missing feature. The single extension beyond the piecewise
definition is ``sgn_star(2, 0) == +1``, which is forced by requiring the
two-qubit measure to reduce to the concurrence.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "count_ones",
    "count_ones_star",
    "sgn",
    "sgn_star",
    "parity_signs",
    "sgn_table",
    "sgn_star_table",
]


def _check_index(i: int, n: int) -> None:
    if n < 1:
        raise DomainError(f"bit width must be positive, got n={n}")
    if not 0 <= i < (1 << n):
        raise DomainError(f"index {i} out of range for n={n} (need 0 <= i < 2^{n})")


def count_ones(i: int, n: int) -> int:
    """Number of 1-bits in the n-bit representation of ``i``."""
    _check_index(i, n)
    return int(i).bit_count()


def count_ones_star(i: int, n: int) -> int:
    """Number of 1-bits of ``i`` with the top bit (position n-1) ignored."""
    _check_index(i, n)
    return (int(i) & ((1 << (n - 1)) - 1)).bit_count()


def sgn(n: int, i: int) -> int:
    """Parity sign (-1)**count_ones(i), defined only for 0 <= i < 2**(n-3)."""
    if n < 3:
        raise DomainError(f"sgn needs n >= 3, got n={n}")
    if not 0 <= i < (1 << (n - 3)):
        raise DomainError(f"sgn(n={n}, i={i}): i must satisfy 0 <= i < 2^(n-3)")
    return -1 if int(i).bit_count() & 1 else 1


def sgn_star(n: int, i: int) -> int:
    """Piecewise parity sign on 0 <= i < 2**(n-2).

    Equals (-1)**count_ones(i) on the lower quarter of index space and picks
    up an extra factor (-1)**n on the upper quarter, so for even ``n`` it
    collapses to the plain parity sign everywhere. ``n == 2`` admits only
    ``i == 0`` and returns +1.
    """
    if n == 2:
        if i != 0:
            raise DomainError(f"sgn_star(2, i) is defined only for i=0, got i={i}")
        return 1
    if n < 2:
        raise DomainError(f"sgn_star needs n >= 2, got n={n}")
    if not 0 <= i < (1 << (n - 2)):
        raise DomainError(f"sgn_star(n={n}, i={i}): i must satisfy 0 <= i < 2^(n-2)")
    parity = -1 if int(i).bit_count() & 1 else 1
    if i >= (1 << (n - 3)) and n % 2 == 1:
        return -parity
    return parity


@lru_cache(maxsize=None)
def parity_signs(m: int) -> np.ndarray:
    """Read-only table of (-1)**count_ones(k) for all k < 2**m."""
    signs = np.where(np.bitwise_count(np.arange(1 << m, dtype=np.uint64)) & 1, -1, 1).astype(np.int8)
    signs.flags.writeable = False
    return signs


def sgn_table(n: int) -> np.ndarray:
    """Read-only table of sgn(n, i) over its full domain 0 <= i < 2**(n-3)."""
    if n < 3:
        raise DomainError(f"sgn needs n >= 3, got n={n}")
    return parity_signs(n - 3)


@lru_cache(maxsize=None)
def sgn_star_table(n: int) -> np.ndarray:
    """Read-only table of sgn_star(n, i) over its full domain 0 <= i < 2**(n-2)."""
    if n < 2:
        raise DomainError(f"sgn_star needs n >= 2, got n={n}")
    signs = parity_signs(n - 2)
    if n % 2 == 1:
        signs = signs.copy()
        quarter = 1 << (n - 3)
        signs[quarter:] = -signs[quarter:]
        signs.flags.writeable = False
    return signs
