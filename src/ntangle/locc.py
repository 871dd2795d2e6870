"""Two-outcome local POVM simulation for the monotonicity checks.

A pair (A1, A2) with A1'A1 + A2'A2 = I is built from any contraction A1 by
taking A2 = W (I - A1'A1)^(1/2) with W a seeded Haar unitary. No relation
between the right singular factors of A1 and A2 is imposed, which makes the
monotone certification strictly more general than constructions that assume
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .measures import tau_even
from .state import StateVector, _apply_at, _readonly, random_operator

__all__ = ["PovmPair", "BranchOutcome", "make_povm", "branch", "monotone_average"]

# below this squared norm a branch is treated as impossible and carries a
# null state; it then contributes exactly 0 to any monotone average
_NULL_PROBABILITY = 1e-300


@dataclass(frozen=True)
class PovmPair:
    """Two POVM elements plus the singular values (a, b) of the first one."""

    a1: np.ndarray
    a2: np.ndarray
    a: float
    b: float

    def completeness_defect(self) -> float:
        g = self.a1.conj().T @ self.a1 + self.a2.conj().T @ self.a2 - np.eye(2)
        return float(np.abs(g).max())


@dataclass(frozen=True)
class BranchOutcome:
    """One measurement branch: normalized state (or None), probability, raw state."""

    state: StateVector | None
    probability: float
    raw: StateVector


def make_povm(a1, seed) -> PovmPair:
    """Complete a contraction a1 into a two-outcome POVM with a seeded unitary."""
    a1 = np.asarray(a1, dtype=np.complex128)
    if a1.shape != (2, 2):
        raise DomainError(f"POVM element must be 2x2, got shape {a1.shape}")
    sv = np.linalg.svd(a1, compute_uv=False)
    if sv[0] > 1.0 + 1e-9:  # roundoff above 1 still counts as a contraction
        raise DomainError(f"operator with top singular value {sv[0]:.6g} is not a contraction")
    a2 = _completion(a1[None], random_operator("unitary", seed)[None])[0]
    return PovmPair(a1=a1, a2=a2, a=float(min(sv[0], 1.0)), b=float(sv[1]))


def _completion(a1: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A2 = W (I - A1'A1)^(1/2) for (..., 2, 2) stacks of contractions A1 and unitaries W."""
    defect = np.eye(2) - a1.conj().swapaxes(-1, -2) @ a1
    lam, v = np.linalg.eigh(defect)
    lam = np.clip(lam, 0.0, None)  # absorb roundoff below zero
    return w @ ((v * np.sqrt(lam)[..., None, :]) @ v.conj().swapaxes(-1, -2))


def _branches(amps: np.ndarray, n: int, k: int, a1: np.ndarray, a2: np.ndarray):
    """Both branches of the POVM (a1, a2) on qubit k of (..., 2**n) amplitudes.

    Returns the raw branches (2, ..., 2**n), their probabilities (2, ...) and
    the normalized branches. An impossible branch has probability 0 and
    normalizes to the zero vector, on which every measure is exactly 0.
    """
    raw = _apply_at(amps, n, k, np.stack([a1, a2]))
    p = np.vecdot(raw, raw).real  # the conjugating dot of np.vdot, row by row
    live = p >= _NULL_PROBABILITY
    # dividing by inf zeroes an impossible branch without a warning; a complex
    # divisor spares the ufunc a buffered cast of the real one
    norm = np.sqrt(np.where(live, p, np.inf)).astype(np.complex128)
    states = _readonly(raw / norm[..., None])
    return raw, np.where(live, p, 0.0), states


def branch(psi: StateVector, k: int, povm: PovmPair) -> tuple[BranchOutcome, BranchOutcome]:
    """Apply the POVM to qubit k: raw branch states, probabilities, normalized states.

    Probabilities sum to 1 only when the input is normalized.
    """
    raw, p, states = _branches(psi.amps, psi.n, k, povm.a1, povm.a2)
    return tuple(BranchOutcome(state=StateVector(psi.n, s) if q else None, probability=float(q),
                               raw=StateVector(psi.n, r)) for r, q, s in zip(raw, p, states))


def monotone_average(psi: StateVector, k: int, povm: PovmPair, eta: float,
                     measure=tau_even) -> float:
    """The eta-averaged measure p1 m(phi1)^eta + p2 m(phi2)^eta over the two branches.

    ``measure`` is a public measure function such as ``tau_odd`` or
    ``r_tangle``; bind the qubit of a residual first, as in
    ``lambda s: tau_residual(s, i)``. Both branches are measured, so a measure
    that does not apply to psi raises. An impossible branch is the zero
    vector and contributes exactly 0. For an entanglement monotone the
    average never exceeds m(psi)^eta for 0 < eta <= 1.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta must lie in (0, 1], got {eta}")
    _, p, states = _branches(psi.amps, psi.n, k, povm.a1, povm.a2)
    return float(sum(q * measure(StateVector(psi.n, s)).value ** eta for q, s in zip(p, states)))
