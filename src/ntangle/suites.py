"""Named verification suites behind `ntangle verify` and the acceptance tests.

Every suite is a pure function of its SuiteConfig: identical config yields an
identical report. Randomness is drawn from per-trial generators derived from
the master seed, so trial ordering or parallelism can never change a result.

Batching rests on one rule: a per-trial loop only draws, in a fixed order,
and everything computed from the draws (SVDs, POVM completion, branches,
measures) runs once per batch afterwards. A monotone trial draws its state,
qubit k, the contraction's Gaussian matrix and top singular value, the
completing unitary's Gaussian matrix, eta when t % 4 == 3 and, for odd n,
the residual focus. Moving work out of the loop keeps every draw; adding,
dropping or reordering a draw changes the reports.

Suite names: bitops, closed-form, oracle-n3, covariance-even, covariance-odd,
permutation, product, monotone, range, golden-examples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import bitops
from .errors import DomainError
from .locc import _branches, _completion, make_povm, monotone_average
from .measures import (
    _even_invariant,
    _high_half_invariant,
    _invariant_pairs,
    _low_half_invariant,
    _odd_invariant,
    _r_tangle,
    _residual,
    _tau_any,
    _tau_even,
    _tau_odd,
    _three_tangle,
    _wong_tangle,
    DEFAULT_WONG_CAP,
)
from .state import (
    _contraction,
    _contraction_draws,
    _ginibre,
    _unitary,
    QubitPermutation,
    StateVector,
    apply_local,
    build_product,
    named_state,
    permute,
    random_operator,
    random_state,
    random_state_batch,
    tensor,
    ProductExpression,
    ProductFactor,
)

__all__ = ["SuiteConfig", "CheckResult", "SuiteReport", "SUITES", "run_suite", "DEFAULT_SEED"]

DEFAULT_SEED = 7

# default tolerances: algebraic identities are held to 1e-12, everything that
# goes through covariance products or measurement branches to 1e-9
TOL_ALGEBRAIC = 1e-12
TOL_NUMERIC = 1e-9


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    trials: int | None = None     # per-unit trial count; None = suite default
    n_max: int | None = None      # upper qubit bound; None = suite default
    seed: int = DEFAULT_SEED
    tol: float | None = None      # None = suite default
    oracle_cap: int = DEFAULT_WONG_CAP
    format: str = "text"          # text | json


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    count: int
    tol: float
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    n_max: int
    trials: int
    tolerance: float
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"suite {self.suite}  seed={self.seed}  n_max={self.n_max}"
                 f"  trials={self.trials}  tol={self.tolerance:g}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.name}  worst={c.worst:.3e}  tol={c.tol:g}  checks={c.count}"
            if c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
        ok = sum(1 for c in self.checks if c.passed)
        lines.append(f"result {'PASS' if self.passed else 'FAIL'} ({ok}/{len(self.checks)} checks)")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "suite": self.suite,
            "seed": self.seed,
            "n_max": self.n_max,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "worst": c.worst,
                    "count": c.count,
                    "tol": c.tol,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _rng(seed: int, *key) -> np.random.Generator:
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [int(k) & 0xFFFFFFFFFFFFFFFF for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _check(name: str, worst, tol: float, count: int, detail: str = "") -> CheckResult:
    worst = float(worst)
    return CheckResult(name=name, passed=worst <= tol, worst=worst, count=count,
                       tol=tol, detail=detail)


def _report(cfg: SuiteConfig, checks, n_max: int, trials: int, tol: float) -> SuiteReport:
    return SuiteReport(suite=cfg.suite, seed=cfg.seed, n_max=n_max, trials=trials,
                       tolerance=tol, checks=tuple(checks))


# ---------------------------------------------------------------------------
# golden-examples: the eight canonical product states and their measure values
# ---------------------------------------------------------------------------

def _product(*factors) -> StateVector:
    return build_product(ProductExpression(tuple(ProductFactor(s, labels) for s, labels in factors)))


def suite_golden_examples(cfg: SuiteConfig) -> SuiteReport:
    tol = cfg.tol if cfg.tol is not None else TOL_NUMERIC
    ghz3 = named_state("ghz", 3)
    ghz4 = named_state("ghz", 4)
    bell = named_state("bell", 2)
    checks = []

    def expect(name, psi, value, extra=""):
        got = float(_tau_any(psi.amps, psi.n))
        checks.append(_check(name, abs(got - value), tol, 1,
                             detail=extra or f"tau={got:.12g} expected {value}"))

    expect("bell12-bell34", _product((bell, (1, 2)), (bell, (3, 4))), 1.0)
    expect("ghz123-ghz456", _product((ghz3, (1, 2, 3)), (ghz3, (4, 5, 6))), 0.0)
    expect("ghz1456-bell23", _product((ghz4, (1, 4, 5, 6)), (bell, (2, 3))), 1.0)
    expect("ghz135-ghz246", _product((ghz3, (1, 3, 5)), (ghz3, (2, 4, 6))), 0.0)

    bell_ghz = _product((bell, (1, 2)), (ghz3, (3, 4, 5)))
    swapped = permute(bell_ghz, QubitPermutation.transposition(5, 1, 5))
    t0 = float(_tau_odd(bell_ghz.amps, 5))
    t1 = float(_tau_odd(swapped.amps, 5))
    checks.append(_check("bell12-ghz345-swap15", max(abs(t0 - 0.0), abs(t1 - 1.0)), tol, 2,
                         detail=f"tau={t0:.3g} then {t1:.12g} after swapping qubits 1,5"))

    expect("ghz123-bell45", _product((ghz3, (1, 2, 3)), (bell, (4, 5))), 1.0)
    expect("bell12-ghz345", bell_ghz, 0.0)

    a = _product((ghz3, (1, 2, 5)), (bell, (3, 4)))
    b = _product((bell, (1, 5)), (ghz3, (2, 3, 4)))
    ta, tb = float(_tau_odd(a.amps, 5)), float(_tau_odd(b.amps, 5))
    checks.append(_check("ghz125-bell34-and-bell15-ghz234", max(abs(ta - 1.0), abs(tb)), tol, 2,
                         detail=f"tau={ta:.12g} and {tb:.3g}"))

    return _report(cfg, checks, n_max=6, trials=1, tol=tol)


# ---------------------------------------------------------------------------
# closed-form: the staggered sums against their complementary-pair rewrites,
# and the two-qubit reduction to the concurrence
# ---------------------------------------------------------------------------

def suite_closed_form(cfg: SuiteConfig) -> SuiteReport:
    tol = cfg.tol if cfg.tol is not None else TOL_ALGEBRAIC
    trials = cfg.trials if cfg.trials is not None else 1000
    n_max = cfg.n_max if cfg.n_max is not None else 12
    checks = []
    for n in range(2, n_max + 1):
        amps = random_state_batch(n, trials, _rng(cfg.seed, 1, n))
        if n % 2 == 0:
            dev = np.abs(_even_invariant(amps, n) - _invariant_pairs(amps, n)).max()
            checks.append(_check(f"even-pair-form-n{n}", dev, tol, trials))
        else:
            dev = np.abs(_odd_invariant(amps, n) - _invariant_pairs(amps, n)).max()
            checks.append(_check(f"odd-pair-form-n{n}", dev, tol, trials))
    amps2 = random_state_batch(2, trials, _rng(cfg.seed, 2))
    direct = 2.0 * np.abs(amps2[:, 0] * amps2[:, 3] - amps2[:, 1] * amps2[:, 2])
    dev = np.abs(_tau_even(amps2, 2) - direct).max()
    checks.append(_check("concurrence-reduction-n2", dev, tol, trials))
    return _report(cfg, checks, n_max=n_max, trials=trials, tol=tol)


# ---------------------------------------------------------------------------
# oracle-n3: the odd measure at n=3 against the independent three-qubit
# residual-entanglement construction, residual equality and R = tau
# ---------------------------------------------------------------------------

def suite_oracle_n3(cfg: SuiteConfig) -> SuiteReport:
    tol = cfg.tol if cfg.tol is not None else TOL_NUMERIC
    trials = cfg.trials if cfg.trials is not None else 1000
    amps = random_state_batch(3, trials, _rng(cfg.seed, 3))
    t = _tau_odd(amps, 3)
    oracle = _three_tangle(amps)
    res = np.stack([_residual(amps, 3, i) for i in (1, 2, 3)])
    checks = [
        _check("tau-vs-oracle", np.abs(t - oracle).max(), tol, trials),
        _check("residuals-equal", (res.max(axis=0) - res.min(axis=0)).max(), tol, trials),
        _check("r-equals-tau", np.abs(res.mean(axis=0) - t).max(), tol, trials),
    ]
    ghz3 = named_state("ghz", 3)
    w3 = named_state("w", 3)
    anchor_dev = max(
        abs(float(_three_tangle(ghz3.amps)) - 1.0),
        abs(float(_tau_odd(ghz3.amps, 3)) - 1.0),
        abs(float(_three_tangle(w3.amps))),
        abs(float(_tau_odd(w3.amps, 3))),
    )
    checks.append(_check("ghz-w-anchors", anchor_dev, tol, 4, detail="ghz -> 1, w -> 0"))
    return _report(cfg, checks, n_max=3, trials=trials, tol=tol)


# ---------------------------------------------------------------------------
# covariance: invariants transform with the product of operator determinants
# ---------------------------------------------------------------------------

def suite_covariance_even(cfg: SuiteConfig) -> SuiteReport:
    tol = cfg.tol if cfg.tol is not None else TOL_NUMERIC
    trials = cfg.trials if cfg.trials is not None else 100
    n_max = cfg.n_max if cfg.n_max is not None else 10
    checks = []
    for n in [x for x in (4, 6, 8, 10) if x <= n_max]:
        worst_inv = worst_tau = worst_sl = 0.0
        for t in range(trials):
            rng = _rng(cfg.seed, 4, n, t)
            psi = StateVector(n, random_state_batch(n, 1, rng)[0])
            ops = [random_operator("general", rng) for _ in range(n)]
            dets = np.prod([np.linalg.det(m) for m in ops])
            mapped = apply_local(psi, ops)
            # the invariant is degree 2, so roundoff scales with the squared
            # norm of the transformed state; deviations are relative to that
            scale = max(1.0, mapped.norm() ** 2)
            lhs = complex(_even_invariant(mapped.amps, n))
            rhs = complex(_even_invariant(psi.amps, n)) * dets
            worst_inv = max(worst_inv, abs(lhs - rhs) / max(scale, abs(rhs)))
            tau_lhs = float(_tau_even(mapped.amps, n))
            tau_rhs = float(_tau_even(psi.amps, n)) * abs(dets)
            worst_tau = max(worst_tau, abs(tau_lhs - tau_rhs) / max(scale, abs(tau_rhs)))
            if t < max(1, trials // 4):
                sl = apply_local(psi, [random_operator("special_linear", rng) for _ in range(n)])
                dev = abs(float(_tau_even(sl.amps, n)) - float(_tau_even(psi.amps, n)))
                worst_sl = max(worst_sl, dev / max(1.0, sl.norm() ** 2))
        checks.append(_check(f"invariant-det-product-n{n}", worst_inv, tol, trials))
        checks.append(_check(f"tau-abs-det-product-n{n}", worst_tau, tol, trials))
        checks.append(_check(f"sl-invariance-n{n}", worst_sl, tol, max(1, trials // 4)))
    return _report(cfg, checks, n_max=n_max, trials=trials, tol=tol)


def suite_covariance_odd(cfg: SuiteConfig) -> SuiteReport:
    tol = cfg.tol if cfg.tol is not None else TOL_NUMERIC
    trials = cfg.trials if cfg.trials is not None else 100
    n_max = cfg.n_max if cfg.n_max is not None else 9
    checks = []
    for n in [x for x in (5, 7, 9) if x <= n_max]:
        worst_combo = worst_tau = worst_sl = 0.0
        for t in range(trials):
            rng = _rng(cfg.seed, 5, n, t)
            psi = StateVector(n, random_state_batch(n, 1, rng)[0])
            ops = [random_operator("general", rng) for _ in range(n)]
            dets = np.prod([np.linalg.det(m) for m in ops])
            mapped = apply_local(psi, ops)

            def combo(amps):
                return (_odd_invariant(amps, n) ** 2
                        - 4.0 * _low_half_invariant(amps, n) * _high_half_invariant(amps, n))

            # degree-4 combination: roundoff scales with the fourth power of
            # the transformed norm
            scale = max(1.0, mapped.norm() ** 4)
            lhs = complex(combo(mapped.amps))
            rhs = complex(combo(psi.amps)) * dets ** 2
            worst_combo = max(worst_combo, abs(lhs - rhs) / max(scale, abs(rhs)))
            tau_lhs = float(_tau_odd(mapped.amps, n))
            tau_rhs = float(_tau_odd(psi.amps, n)) * abs(dets) ** 2
            worst_tau = max(worst_tau, abs(tau_lhs - tau_rhs) / max(scale, abs(tau_rhs)))
            if t < max(1, trials // 4):
                sl = apply_local(psi, [random_operator("special_linear", rng) for _ in range(n)])
                dev = abs(float(_tau_odd(sl.amps, n)) - float(_tau_odd(psi.amps, n)))
                worst_sl = max(worst_sl, dev / max(1.0, sl.norm() ** 4))
        checks.append(_check(f"combo-det-squared-n{n}", worst_combo, tol, trials))
        checks.append(_check(f"tau-abs-det-squared-n{n}", worst_tau, tol, trials))
        checks.append(_check(f"sl-invariance-n{n}", worst_sl, tol, max(1, trials // 4)))
    return _report(cfg, checks, n_max=n_max, trials=trials, tol=tol)


# ---------------------------------------------------------------------------
# permutation: full invariance for even n, invariance on qubits 2..n for odd
# n, full invariance of R, and residual invariance when the focus is fixed
# ---------------------------------------------------------------------------

def _random_perm(rng, n, fix_first=False) -> QubitPermutation:
    if fix_first:
        rest = rng.permutation(np.arange(2, n + 1))
        return QubitPermutation((1, *map(int, rest)))
    return QubitPermutation(map(int, rng.permutation(np.arange(1, n + 1))))


def _all_moves(seed: int, key: tuple, n: int, states: int, perms):
    """Seeded states (s, 2**n) and their images (s, len(perms), 2**n) under each axis order."""
    amps = np.stack([random_state(n, _rng(seed, *key, s)).amps for s in range(states)])
    index = np.arange(1 << n).reshape((2,) * n)
    return amps, amps[:, np.stack([index.transpose(p).ravel() for p in perms])]


def _sampled_moves(seed: int, key: tuple, n: int, trials: int, fix_first: bool = False):
    """Per-trial states (trials, 2**n) and images (trials, 1, 2**n) under a seeded permutation."""
    amps = np.empty((trials, 1 << n), dtype=np.complex128)
    moved = np.empty((trials, 1, 1 << n), dtype=np.complex128)
    for t in range(trials):
        rng = _rng(seed, *key, t)
        psi = StateVector(n, random_state_batch(n, 1, rng)[0])
        amps[t] = psi.amps
        moved[t, 0] = permute(psi, _random_perm(rng, n, fix_first)).amps
    return amps, moved


def _spread(kernel, n: int, amps: np.ndarray, moved: np.ndarray) -> float:
    """Largest |kernel(image) - kernel(state)| over the states and their images."""
    return float(np.max(np.abs(kernel(moved, n) - kernel(amps, n)[:, None]), initial=0.0))


def suite_permutation(cfg: SuiteConfig) -> SuiteReport:
    tol = cfg.tol if cfg.tol is not None else TOL_NUMERIC
    trials = cfg.trials if cfg.trials is not None else 200
    n_max = cfg.n_max if cfg.n_max is not None else 9
    checks = []

    # even n=4: every one of the 24 permutations, complex invariant included
    if n_max >= 4:
        amps, moved = _all_moves(cfg.seed, (6, 4), 4, 5, itertools.permutations(range(4)))
        worst = _spread(_even_invariant, 4, amps, moved)
        checks.append(_check("even-invariant-exhaustive-n4", worst, tol, moved[..., 0].size))

    for n in [x for x in (6, 8) if x <= n_max]:
        amps, moved = _sampled_moves(cfg.seed, (6, n), n, trials)
        checks.append(_check(f"even-sampled-n{n}", _spread(_tau_even, n, amps, moved), tol, trials))

    # odd n=5: every permutation of qubits 2..5, both the full-range invariant
    # and the measure itself
    if n_max >= 5:
        amps, moved = _all_moves(cfg.seed, (7, 5), 5, 5,
                                 ((0, *p) for p in itertools.permutations(range(1, 5))))
        worst = max(_spread(_odd_invariant, 5, amps, moved), _spread(_tau_odd, 5, amps, moved))
        checks.append(_check("odd-exhaustive-n5", worst, tol, moved[..., 0].size))

    for n in [x for x in (7, 9) if x <= n_max]:
        amps, moved = _sampled_moves(cfg.seed, (7, n), n, trials, fix_first=True)
        checks.append(_check(f"odd-sampled-fixing-qubit1-n{n}", _spread(_tau_odd, n, amps, moved),
                             tol, trials))

    # R is invariant under the full group, including permutations moving qubit 1
    for n, states in ((5, 2), (7, 1)):
        if n <= n_max:
            amps, moved = _all_moves(cfg.seed, (8, n), n, states, itertools.permutations(range(n)))
            checks.append(_check(f"r-full-group-n{n}", _spread(_r_tangle, n, amps, moved),
                                 tol, moved[..., 0].size))

    # residual with focus i is invariant under permutations fixing qubit i
    for n in [x for x in (5, 7) if x <= n_max]:
        samples = 50
        amps, moved, foci = [], [], []
        for t in range(samples):
            rng = _rng(cfg.seed, 9, n, t)
            psi = StateVector(n, random_state_batch(n, 1, rng)[0])
            i = int(rng.integers(1, n + 1))
            images = rng.permutation([q for q in range(1, n + 1) if q != i])
            amps.append(psi.amps)
            moved.append(permute(psi, QubitPermutation(np.insert(images, i - 1, i))).amps)
            foci.append(i - 1)
        res, moved_res = ([_residual(np.array(x), n, j) for j in range(1, n + 1)]
                          for x in (amps, moved))
        worst = np.abs(np.choose(foci, moved_res) - np.choose(foci, res)).max()
        checks.append(_check(f"residual-fixing-focus-n{n}", worst, tol, samples))

    # quartic cross-reference is permutation invariant; the quadratic measure
    # value is recorded alongside for exploration but nothing relates the two
    if n_max >= 4:
        worst = 0.0
        samples = 50
        pair = ""
        for t in range(samples):
            rng = _rng(cfg.seed, 10, t)
            psi = StateVector(4, random_state_batch(4, 1, rng)[0])
            moved = permute(psi, _random_perm(rng, 4))
            w0 = float(_wong_tangle(psi.amps, 4))
            worst = max(worst, abs(float(_wong_tangle(moved.amps, 4)) - w0))
            if t == 0:
                pair = f"sample quartic={w0:.6g} quadratic={float(_tau_even(psi.amps, 4)):.6g}"
        checks.append(_check("quartic-permutation-n4", worst, tol, samples, detail=pair))

    return _report(cfg, checks, n_max=n_max, trials=trials, tol=tol)


# ---------------------------------------------------------------------------
# product: factorization across every split, under relabelings, the residual
# product rule, and non-reachability of product classes from GHZ by any
# non-invertible local operator
# ---------------------------------------------------------------------------

def _factor_tau(state: StateVector) -> float:
    # a single qubit carries no entanglement; its measure is 0 by convention
    if state.n < 2:
        return 0.0
    return float(_tau_any(state.amps, state.n))


def _expected_product_tau(phi: StateVector, omega: StateVector, n: int, l: int) -> float:
    if n % 2 == 0:
        return _factor_tau(phi) * _factor_tau(omega) if l % 2 == 0 else 0.0
    return _factor_tau(phi) * _factor_tau(omega) ** 2 if l % 2 == 1 else 0.0


def suite_product(cfg: SuiteConfig) -> SuiteReport:
    tol = cfg.tol if cfg.tol is not None else TOL_NUMERIC
    trials = cfg.trials if cfg.trials is not None else 50
    n_max = cfg.n_max if cfg.n_max is not None else 8
    checks = []

    for n in [x for x in (4, 5, 6, 7, 8) if x <= n_max]:
        worst_plain = worst_relabel = 0.0
        count = 0
        for l in range(1, n):
            for t in range(trials):
                rng = _rng(cfg.seed, 11, n, l, t)
                phi = StateVector(l, random_state_batch(l, 1, rng)[0])
                omega = StateVector(n - l, random_state_batch(n - l, 1, rng)[0])
                psi = tensor(phi, omega)
                expected = _expected_product_tau(phi, omega, n, l)
                worst_plain = max(worst_plain, abs(float(_tau_any(psi.amps, n)) - expected))
                pi = _random_perm(rng, n, fix_first=(n % 2 == 1))
                moved = permute(psi, pi)
                worst_relabel = max(worst_relabel, abs(float(_tau_any(moved.amps, n)) - expected))
                count += 1
        checks.append(_check(f"factorization-n{n}", worst_plain, tol, count,
                             detail="all splits l=1..n-1"))
        checks.append(_check(f"factorization-relabeled-n{n}", worst_relabel, tol, count))

    # residual product rule: the factor holding the focus qubit must have odd
    # size, in which case its own residual enters once and the other factor
    # enters squared
    for n in [x for x in (5, 7) if x <= n_max]:
        worst = 0.0
        count = 0
        for l in range(1, n):
            for t in range(max(1, trials // 2)):
                rng = _rng(cfg.seed, 12, n, l, t)
                phi = StateVector(l, random_state_batch(l, 1, rng)[0])
                omega = StateVector(n - l, random_state_batch(n - l, 1, rng)[0])
                psi = tensor(phi, omega)
                i = int(rng.integers(1, n + 1))
                holder, local, other = (phi, i, omega) if i <= l else (omega, i - l, phi)
                if holder.n % 2 == 1:
                    if holder.n == 1:
                        expected = 0.0
                    else:
                        expected = float(_residual(holder.amps, holder.n, local)) \
                            * _factor_tau(other) ** 2
                else:
                    expected = 0.0
                worst = max(worst, abs(float(_residual(psi.amps, n, i)) - expected))
                count += 1
        checks.append(_check(f"residual-product-n{n}", worst, tol, count))

    # no non-invertible tuple of local operators can reach a nonzero-measure
    # product class from GHZ: every image has measure 0 while the product
    # classes sit at 1
    for n, witness in ((4, _product((named_state("bell", 2), (1, 2)), (named_state("bell", 2), (3, 4)))),
                       (5, _product((named_state("ghz", 3), (1, 2, 3)), (named_state("bell", 2), (4, 5))))):
        if n > n_max:
            continue
        ghz = named_state("ghz", n)
        worst = abs(float(_tau_any(witness.amps, n)) - 1.0)
        reach_trials = 200 if cfg.trials is None else cfg.trials
        for t in range(reach_trials):
            rng = _rng(cfg.seed, 13, n, t)
            ops = [random_operator("general", rng) for _ in range(n)]
            singular_slots = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            for s in singular_slots:
                u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                ops[s] = np.outer(u, v)  # rank one, determinant zero
            # unit Frobenius norm per factor: harmless by homogeneity, keeps
            # the image amplitudes O(1) so the zero is a clean numerical zero
            ops = [m / np.linalg.norm(m) for m in ops]
            image = apply_local(ghz, ops)
            worst = max(worst, float(_tau_any(image.amps, n)))
        checks.append(_check(f"nonreachability-from-ghz-n{n}", worst, tol, reach_trials + 1,
                             detail="images of GHZ under singular tuples stay at 0"))

    return _report(cfg, checks, n_max=n_max, trials=trials, tol=tol)


# ---------------------------------------------------------------------------
# monotone: branch averages never exceed the input measure, raw branches obey
# the determinant covariance, probabilities are complete, and the diagonal
# closed form holds
# ---------------------------------------------------------------------------

_ETA_GRID = (0.25, 0.5, 1.0)


def _monotone_draws(seed: int, n: int, trials: int):
    """Every trial's draws, stacked, in the order the module docstring lists them."""
    amps = np.empty((trials, 1 << n), dtype=np.complex128)
    g1, g2 = np.empty((2, trials, 2, 2), dtype=np.complex128)
    ks, foci = np.ones((2, trials), dtype=np.int64)
    tops, etas = np.empty((2, trials))
    for t in range(trials):
        rng = _rng(seed, 14, n, t)
        amps[t] = random_state_batch(n, 1, rng)[0]
        ks[t] = rng.integers(1, n + 1)
        g1[t], tops[t] = _contraction_draws(rng)
        g2[t] = _ginibre(rng)
        etas[t] = rng.uniform(0.01, 1.0) if t % 4 == 3 else _ETA_GRID[t % 4]
        if n % 2:
            foci[t] = rng.integers(1, n + 1)
    return amps, ks, g1, tops, g2, etas, foci


def _excess(p: np.ndarray, values: np.ndarray, base: np.ndarray, eta) -> float:
    """Largest amount, or 0, by which the branch average p1 m1^eta + p2 m2^eta exceeds m^eta."""
    return float(np.max((p * values ** eta).sum(0) - base ** eta, initial=0.0))


def suite_monotone(cfg: SuiteConfig) -> SuiteReport:
    tol = cfg.tol if cfg.tol is not None else TOL_NUMERIC
    trials = cfg.trials if cfg.trials is not None else 2000
    n_max = cfg.n_max if cfg.n_max is not None else 6
    checks = []

    for n in [x for x in (3, 4, 5, 6) if x <= n_max]:
        even = n % 2 == 0
        amps, ks, g1, tops, g2, eta, foci = _monotone_draws(cfg.seed, n, trials)
        a1 = _contraction(g1, tops)
        sv = np.linalg.svd(a1, compute_uv=False)
        a, b = np.minimum(sv[:, 0], 1.0), sv[:, 1]
        a2 = _completion(a1, _unitary(g2))
        raw = np.empty((2, trials, 1 << n), dtype=np.complex128)
        phi = np.empty_like(raw)
        p = np.empty((2, trials))
        for k in range(1, n + 1):  # one batch per measured qubit
            at = ks == k
            raw[:, at], p[:, at], phi[:, at] = _branches(amps[at], n, k, a1[at], a2[at])

        base, phi_tau = _tau_any(amps, n), _tau_any(phi, n)
        checks.append(_check(f"average-vs-input-n{n}", _excess(p, phi_tau, base, eta), tol, trials))
        if not even:
            res, phi_res = ([_residual(x, n, i) for i in range(1, n + 1)] for x in (amps, phi))
            checks.append(_check(f"average-vs-input-residual-n{n}", _excess(
                p, np.choose(foci - 1, phi_res), np.choose(foci - 1, res), eta), tol, trials))
            checks.append(_check(f"average-vs-input-r-n{n}",
                                 _excess(p, sum(phi_res) / n, sum(res) / n, eta), tol, trials))
        comp = np.abs(p[0] + p[1] - 1.0)
        checks.append(_check(f"branch-probability-sum-n{n}", np.max(comp, initial=0.0),
                             1e-10, trials))

        # raw branches transform with |det|, normalized branches divide
        # out the probability to the homogeneity degree
        degree = 1 if even else 2
        det = np.stack([(a * b) ** degree, ((1.0 - a ** 2) * (1.0 - b ** 2)) ** (degree / 2.0)])
        raw_val = _tau_any(raw, n)
        covariance = np.abs(raw_val - base * det)
        checks.append(_check(f"raw-branch-covariance-n{n}", np.max(covariance, initial=0.0),
                             tol, 2 * trials))
        rescaled = np.where(p > 0.0, np.abs(raw_val - phi_tau * p ** degree), 0.0)
        checks.append(_check(f"normalized-branch-rescaling-n{n}", np.max(rescaled, initial=0.0),
                             tol, 2 * trials))

    # a POVM made of scaled unitaries leaves both branches equivalent to the
    # input, so the average equals the input measure exactly
    if n_max >= 4:
        worst = 0.0
        samples = 25
        for t in range(samples):
            rng = _rng(cfg.seed, 15, t)
            psi = StateVector(4, random_state_batch(4, 1, rng)[0])
            p = float(rng.uniform(0.1, 0.9))
            povm = make_povm(np.sqrt(p) * random_operator("unitary", rng), rng)
            eta = _ETA_GRID[t % 3]
            base = float(_tau_even(psi.amps, 4))
            worst = max(worst, abs(monotone_average(psi, int(rng.integers(1, 5)), povm, eta, "even")
                                   - base ** eta))
        checks.append(_check("unitary-povm-equality-n4", worst, tol, samples))

    # diagonal elements on GHZ4: the eta=1 average collapses to the closed
    # form (ab + sqrt((1-a^2)(1-b^2))) times the input measure
    if n_max >= 4:
        ghz4 = named_state("ghz", 4)
        base = float(_tau_even(ghz4.amps, 4))
        worst = 0.0
        count = 0
        grid = np.linspace(0.05, 1.0, 8)
        for a in grid:
            for b in grid:
                for k in range(1, 5):
                    povm = make_povm(np.diag([a, b]), _rng(cfg.seed, 16, count))
                    avg = monotone_average(ghz4, k, povm, 1.0, "even")
                    closed = (a * b + np.sqrt((1.0 - a * a) * (1.0 - b * b))) * base
                    worst = max(worst, abs(avg - closed))
                    count += 1
        checks.append(_check("diagonal-closed-form-ghz4", worst, tol, count))

    return _report(cfg, checks, n_max=n_max, trials=trials, tol=tol)


# ---------------------------------------------------------------------------
# range: measures of normalized states stay inside [0, 1]
# ---------------------------------------------------------------------------

def suite_range(cfg: SuiteConfig) -> SuiteReport:
    tol = cfg.tol if cfg.tol is not None else TOL_NUMERIC
    trials = cfg.trials if cfg.trials is not None else 10_000
    n_max = cfg.n_max if cfg.n_max is not None else 9
    checks = []
    for n in range(2, n_max + 1):
        amps = random_state_batch(n, trials, _rng(cfg.seed, 17, n))
        vals = _tau_any(amps, n)
        dev = max(float(vals.max()) - 1.0, -float(vals.min()), 0.0)
        checks.append(_check(f"tau-range-n{n}", dev, tol, trials,
                             detail=f"observed [{vals.min():.3g}, {vals.max():.3g}]"))
        if n % 2 == 1:
            rvals = _r_tangle(amps, n)
            rdev = max(float(rvals.max()) - 1.0, -float(rvals.min()), 0.0)
            checks.append(_check(f"r-range-n{n}", rdev, tol, trials,
                                 detail=f"observed [{rvals.min():.3g}, {rvals.max():.3g}]"))
    return _report(cfg, checks, n_max=n_max, trials=trials, tol=tol)


# ---------------------------------------------------------------------------
# bitops: the sign-function identities, exhaustively over their full domains
# ---------------------------------------------------------------------------

def _pc(arr):
    return np.bitwise_count(arr.astype(np.uint64)).astype(np.int64)


def suite_bitops(cfg: SuiteConfig) -> SuiteReport:
    n_max = cfg.n_max if cfg.n_max is not None else 12
    tol = 0.0  # exact integer identities: zero violations allowed
    checks = []

    def run(name, violation_counter, detail=""):
        bad, combos = violation_counter
        checks.append(_check(name, float(bad), tol, combos, detail=detail))

    run("count-split-high-block", _prop1i(n_max))
    run("count-split-strided", _prop1ii(n_max))
    run("count-complement-in-block", _prop1iii(n_max))
    run("sgn-reflection", _prop2(n_max))
    run("sgn-shift-flip", _prop3i(n_max))
    main3, degenerate3 = _prop3ii(n_max)
    run("sgn-star-shift-flip", main3,
        detail="l >= 4 for even widths; every l for odd widths")
    run("sgn-star-shift-flip-degenerate", degenerate3,
        detail="even width, l=3: arguments straddle the sign branch, ratio +1")
    main4, degenerate4 = _prop4(n_max)
    run("sgn-star-reflection", main4,
        detail="l >= 3 for even widths; every l for odd widths")
    run("sgn-star-reflection-degenerate", degenerate4,
        detail="even width, l=2: arguments straddle the sign branch, factor flips")
    run("sgn-star-parity-collapse", _prop5i(n_max))
    run("sgn-split-factorization", _prop5ii(n_max))
    run("sgn-star-split-factorization", _prop5iii(n_max))
    run("complement-counts", _complement_counts(max(n_max, 16)),
        detail="N(k)+N(2^n-1-k)=n and starred variant")
    run("even-width-collapse", _even_collapse(n_max),
        detail="sgn_star with even first argument is the plain parity sign")

    return _report(cfg, checks, n_max=n_max, trials=1, tol=tol)


def _grid(n, l, j_bits, k_bits):
    # callers' l-loops keep both exponents nonnegative
    j = np.arange(1 << j_bits, dtype=np.int64)[:, None]
    k = np.arange(1 << k_bits, dtype=np.int64)[None, :]
    return j, k


def _prop1i(n_max):
    bad = combos = 0
    for n in range(2, n_max + 1):
        for l in range(2, n - 1):
            j, k = _grid(n, l, l - 2, n - l - 2)
            lhs = _pc(k + (j << (n - l - 1)))
            rhs = _pc(j) + _pc(k)
            bad += int((lhs != rhs).sum())
            combos += lhs.size
    return bad, combos


def _prop1ii(n_max):
    bad = combos = 0
    for n in range(2, n_max + 1):
        for l in range(3, n - 1):
            t, k = _grid(n, l, l - 3, n - l - 2)
            lhs1 = _pc(k + (t << (n - l)))
            rhs1 = _pc(k) + _pc(t)
            lhs2 = _pc(k + ((2 * t + 1) << (n - l - 1)))
            rhs2 = rhs1 + 1
            bad += int((lhs1 != rhs1).sum()) + int((lhs2 != rhs2).sum())
            combos += 2 * lhs1.size
    return bad, combos


def _prop1iii(n_max):
    bad = combos = 0
    for n in range(2, n_max + 1):
        for l in range(2, n - 1):
            j, k = _grid(n, l, l - 2, n - l - 2)
            lhs1 = _pc((1 << (n - l - 1)) - 1 - k)
            rhs1 = (n - l - 1) - _pc(k)
            lhs2 = _pc(((j + 1) << (n - l - 1)) - 1 - k)
            rhs2 = _pc(j) + (n - l - 1) - _pc(k)
            bad += int((lhs1 != rhs1).sum()) + int((lhs2 != rhs2).sum())
            combos += lhs1.size + lhs2.size
    return bad, combos


def _prop2(n_max):
    bad = combos = 0
    for n in range(3, n_max + 1):
        table = bitops.sgn_table(n)
        for l in range(2, n - 1):
            j, k = _grid(n, l, l - 2, n - l - 2)
            lhs = table[((j + 1) << (n - l - 1)) - 1 - k]
            rhs = (-1) ** (n + l + 1) * table[k + (j << (n - l - 1))]
            bad += int((lhs != rhs).sum())
            combos += lhs.size
    return bad, combos


def _prop3i(n_max):
    bad = combos = 0
    for n in range(3, n_max + 1):
        table = bitops.sgn_table(n)
        for l in range(3, n - 1):
            t, k = _grid(n, l, l - 3, n - l - 2)
            lhs = table[k + ((2 * t + 1) << (n - l - 1))]
            rhs = -table[k + (t << (n - l))]
            bad += int((lhs != rhs).sum())
            combos += lhs.size
    return bad, combos


def _prop3ii(n_max):
    """Sign flip for the starred function under the shift.

    The flip holds on the domain where the two arguments share a branch of
    the piecewise definition: every l for odd widths, l >= 4 for even widths.
    At l == 3 (where t == 0 is the whole range) the shifted argument crosses
    the branch boundary and for even widths the ratio is +1 instead of -1;
    that complement is characterized and counted separately.
    """
    bad = combos = 0
    bad_deg = combos_deg = 0
    for n in range(4, n_max + 1):
        table = bitops.sgn_star_table(n - 1)
        for l in range(3, n - 1):
            t, k = _grid(n, l, l - 3, n - l - 2)
            lhs = table[k + ((2 * t + 1) << (n - l - 1))]
            base = table[k + (t << (n - l))]
            if l == 3 and n % 2 == 0:
                bad_deg += int((lhs != base).sum())
                combos_deg += lhs.size
            else:
                bad += int((lhs != -base).sum())
                combos += lhs.size
    return (bad, combos), (bad_deg, combos_deg)


def _prop4(n_max):
    """Reflection identity for the starred function, factor (-1)**(n+l+1).

    Same branch-straddling caveat as the shift flip, here at l == 2 (where
    j == 0 is the whole range): for even widths the reflected argument lands
    in the other branch and the factor comes out as (-1)**(n+l) instead.
    """
    bad = combos = 0
    bad_deg = combos_deg = 0
    for n in range(4, n_max + 1):
        table = bitops.sgn_star_table(n - 1)
        for l in range(2, n - 1):
            j, k = _grid(n, l, l - 2, n - l - 2)
            lhs = table[((j + 1) << (n - l - 1)) - 1 - k]
            base = table[k + (j << (n - l - 1))]
            if l == 2 and n % 2 == 0:
                bad_deg += int((lhs != (-1) ** (n + l) * base).sum())
                combos_deg += lhs.size
            else:
                bad += int((lhs != (-1) ** (n + l + 1) * base).sum())
                combos += lhs.size
    return (bad, combos), (bad_deg, combos_deg)


def _parity_match(n, l):
    return (n % 2) == (l % 2)


def _prop5i(n_max):
    bad = combos = 0
    for n in range(4, n_max + 1):
        for l in range(3, n - 1):
            if not _parity_match(n, l) or n - l < 2:
                continue
            k = np.arange(1 << (n - l - 2), dtype=np.int64)
            lhs = bitops.sgn_star_table(n - l)[k]
            rhs = np.where(_pc(k) & 1, -1, 1)
            bad += int((lhs != rhs).sum())
            combos += k.size
    return bad, combos


def _prop5ii(n_max):
    bad = combos = 0
    for n in range(4, n_max + 1):
        sgn_n = bitops.sgn_table(n)
        for l in range(3, n - 1):
            if not _parity_match(n, l) or n - l < 2:
                continue
            t, k = _grid(n, l, l - 3, n - l - 2)
            lhs = sgn_n[k + (t << (n - l))]
            rhs = bitops.sgn_star_table(n - l)[k] * bitops.sgn_table(l)[t]
            bad += int((lhs != rhs).sum())
            combos += lhs.size
    return bad, combos


def _prop5iii(n_max):
    bad = combos = 0
    for n in range(4, n_max + 1):
        star_n1 = bitops.sgn_star_table(n - 1)
        for l in range(3, n - 1):
            if not _parity_match(n, l) or n - l < 2:
                continue
            t, k = _grid(n, l, l - 3, n - l - 2)
            lhs = star_n1[k + (t << (n - l))]
            rhs = bitops.sgn_star_table(n - l)[k] * bitops.sgn_star_table(l - 1)[t]
            bad += int((lhs != rhs).sum())
            combos += lhs.size
    return bad, combos


def _complement_counts(n_top):
    bad = combos = 0
    for n in range(2, n_top + 1):
        k = np.arange(1 << n, dtype=np.int64)
        comp = (1 << n) - 1 - k
        bad += int((_pc(k) + _pc(comp) != n).sum())
        mask = (1 << (n - 1)) - 1
        bad += int((_pc(k & mask) + _pc(comp & mask) != n - 1).sum())
        combos += 2 * k.size
    return bad, combos


def _even_collapse(n_max):
    bad = combos = 0
    for m in range(2, n_max + 1, 2):
        i = np.arange(1 << (m - 2), dtype=np.int64)
        lhs = bitops.sgn_star_table(m)[i]
        rhs = np.where(_pc(i) & 1, -1, 1)
        bad += int((lhs != rhs).sum())
        combos += i.size
    return bad, combos


SUITES = {
    "bitops": suite_bitops,
    "closed-form": suite_closed_form,
    "oracle-n3": suite_oracle_n3,
    "covariance-even": suite_covariance_even,
    "covariance-odd": suite_covariance_odd,
    "permutation": suite_permutation,
    "product": suite_product,
    "monotone": suite_monotone,
    "range": suite_range,
    "golden-examples": suite_golden_examples,
}


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    try:
        fn = SUITES[cfg.suite]
    except KeyError:
        raise DomainError(
            f"unknown suite {cfg.suite!r}; available: {', '.join(sorted(SUITES))}"
        ) from None
    return fn(cfg)
