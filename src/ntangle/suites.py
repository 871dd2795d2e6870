"""Named verification suites behind `ntangle verify` and the acceptance tests.

Every suite is a pure function of its SuiteConfig: identical config yields an
identical report. Randomness is drawn from per-trial generators derived from
the master seed, so trial ordering or parallelism can never change a result.

Suite names: bitops, closed-form, oracle-n3, covariance-even, covariance-odd,
permutation, product, monotone, range, golden-examples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import bitops
from .errors import DomainError
from .locc import branch, make_povm, monotone_average
from .measures import (
    _concurrence,
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
    QubitPermutation,
    StateVector,
    apply_local,
    build_product,
    named_state,
    permute,
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

def _random_ops(rng, n, kind="general"):
    ops = []
    for _ in range(n):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if kind == "special_linear":
            det = np.linalg.det(g)
            while abs(det) <= 1e-6:
                g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                det = np.linalg.det(g)
            g = g / np.sqrt(det)
        ops.append(g)
    return ops


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
            ops = _random_ops(rng, n)
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
                sl = apply_local(psi, _random_ops(rng, n, "special_linear"))
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
            ops = _random_ops(rng, n)
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
                sl = apply_local(psi, _random_ops(rng, n, "special_linear"))
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


def suite_permutation(cfg: SuiteConfig) -> SuiteReport:
    tol = cfg.tol if cfg.tol is not None else TOL_NUMERIC
    trials = cfg.trials if cfg.trials is not None else 200
    n_max = cfg.n_max if cfg.n_max is not None else 9
    checks = []

    # even n=4: every one of the 24 permutations, complex invariant included
    if n_max >= 4:
        worst = 0.0
        count = 0
        for s in range(5):
            psi = random_state(4, _rng(cfg.seed, 6, 4, s))
            base = complex(_even_invariant(psi.amps, 4))
            for pm in itertools.permutations(range(1, 5)):
                moved = permute(psi, QubitPermutation(pm))
                worst = max(worst, abs(complex(_even_invariant(moved.amps, 4)) - base))
                count += 1
        checks.append(_check("even-invariant-exhaustive-n4", worst, tol, count))

    for n in [x for x in (6, 8) if x <= n_max]:
        worst = 0.0
        for t in range(trials):
            rng = _rng(cfg.seed, 6, n, t)
            psi = StateVector(n, random_state_batch(n, 1, rng)[0])
            moved = permute(psi, _random_perm(rng, n))
            worst = max(worst, abs(float(_tau_even(moved.amps, n)) - float(_tau_even(psi.amps, n))))
        checks.append(_check(f"even-sampled-n{n}", worst, tol, trials))

    # odd n=5: every permutation of qubits 2..5, both the full-range invariant
    # and the measure itself
    if n_max >= 5:
        worst = 0.0
        count = 0
        for s in range(5):
            psi = random_state(5, _rng(cfg.seed, 7, 5, s))
            base_inv = complex(_odd_invariant(psi.amps, 5))
            base_tau = float(_tau_odd(psi.amps, 5))
            for pm in itertools.permutations(range(2, 6)):
                moved = permute(psi, QubitPermutation((1, *pm)))
                worst = max(worst, abs(complex(_odd_invariant(moved.amps, 5)) - base_inv),
                            abs(float(_tau_odd(moved.amps, 5)) - base_tau))
                count += 1
        checks.append(_check("odd-exhaustive-n5", worst, tol, count))

    for n in [x for x in (7, 9) if x <= n_max]:
        worst = 0.0
        for t in range(trials):
            rng = _rng(cfg.seed, 7, n, t)
            psi = StateVector(n, random_state_batch(n, 1, rng)[0])
            moved = permute(psi, _random_perm(rng, n, fix_first=True))
            worst = max(worst, abs(float(_tau_odd(moved.amps, n)) - float(_tau_odd(psi.amps, n))))
        checks.append(_check(f"odd-sampled-fixing-qubit1-n{n}", worst, tol, trials))

    # R is invariant under the full group, including permutations moving qubit 1
    for n, states in ((5, 2), (7, 1)):
        if n > n_max:
            continue
        worst = 0.0
        count = 0
        for s in range(states):
            psi = random_state(n, _rng(cfg.seed, 8, n, s))
            base = float(_r_tangle(psi.amps, n))
            for pm in itertools.permutations(range(1, n + 1)):
                moved = permute(psi, QubitPermutation(pm))
                worst = max(worst, abs(float(_r_tangle(moved.amps, n)) - base))
                count += 1
        checks.append(_check(f"r-full-group-n{n}", worst, tol, count))

    # residual with focus i is invariant under permutations fixing qubit i
    for n in [x for x in (5, 7) if x <= n_max]:
        worst = 0.0
        samples = 50
        for t in range(samples):
            rng = _rng(cfg.seed, 9, n, t)
            psi = StateVector(n, random_state_batch(n, 1, rng)[0])
            i = int(rng.integers(1, n + 1))
            others = [q for q in range(1, n + 1) if q != i]
            images = rng.permutation(others)
            mapping = [0] * n
            mapping[i - 1] = i
            for q, img in zip(others, images):
                mapping[q - 1] = int(img)
            moved = permute(psi, QubitPermutation(mapping))
            worst = max(worst, abs(float(_residual(moved.amps, n, i))
                                   - float(_residual(psi.amps, n, i))))
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
            ops = _random_ops(rng, n)
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


def suite_monotone(cfg: SuiteConfig) -> SuiteReport:
    tol = cfg.tol if cfg.tol is not None else TOL_NUMERIC
    trials = cfg.trials if cfg.trials is not None else 2000
    n_max = cfg.n_max if cfg.n_max is not None else 6
    checks = []

    for n in [x for x in (3, 4, 5, 6) if x <= n_max]:
        even = n % 2 == 0
        worst_tau = worst_res = worst_r = worst_comp = worst_raw = worst_rescale = 0.0
        for t in range(trials):
            rng = _rng(cfg.seed, 14, n, t)
            psi = StateVector(n, random_state_batch(n, 1, rng)[0])
            k = int(rng.integers(1, n + 1))
            a1 = _random_contraction(rng)
            povm = make_povm(a1, rng)
            eta = float(rng.uniform(0.01, 1.0)) if t % 4 == 3 else _ETA_GRID[t % 4]

            b1, b2 = branch(psi, k, povm)
            worst_comp = max(worst_comp, abs(b1.probability + b2.probability - 1.0))

            base_kind = "even" if even else "odd"
            base = float(_tau_any(psi.amps, n))
            avg = monotone_average(psi, k, povm, eta, base_kind)
            worst_tau = max(worst_tau, avg - base ** eta)

            if not even:
                i = int(rng.integers(1, n + 1))
                res_base = float(_residual(psi.amps, n, i))
                worst_res = max(worst_res,
                                monotone_average(psi, k, povm, eta, f"residual:{i}") - res_base ** eta)
                r_base = float(_r_tangle(psi.amps, n))
                worst_r = max(worst_r, monotone_average(psi, k, povm, eta, "r") - r_base ** eta)

            # raw branches transform with |det|, normalized branches divide
            # out the probability to the homogeneity degree
            degree = 1 if even else 2
            det1 = (povm.a * povm.b) ** degree
            det2 = ((1.0 - povm.a ** 2) * (1.0 - povm.b ** 2)) ** (degree / 2.0)
            for out, det_factor in ((b1, det1), (b2, det2)):
                raw_val = float(_tau_any(out.raw.amps, n))
                worst_raw = max(worst_raw, abs(raw_val - base * det_factor))
                if out.state is not None:
                    norm_val = float(_tau_any(out.state.amps, n))
                    worst_rescale = max(worst_rescale,
                                        abs(raw_val - norm_val * out.probability ** degree))

        checks.append(_check(f"average-vs-input-n{n}", worst_tau, tol, trials))
        if not even:
            checks.append(_check(f"average-vs-input-residual-n{n}", worst_res, tol, trials))
            checks.append(_check(f"average-vs-input-r-n{n}", worst_r, tol, trials))
        checks.append(_check(f"branch-probability-sum-n{n}", worst_comp, 1e-10, trials))
        checks.append(_check(f"raw-branch-covariance-n{n}", worst_raw, tol, 2 * trials))
        checks.append(_check(f"normalized-branch-rescaling-n{n}", worst_rescale, tol, 2 * trials))

    # a POVM made of scaled unitaries leaves both branches equivalent to the
    # input, so the average equals the input measure exactly
    if n_max >= 4:
        worst = 0.0
        samples = 25
        for t in range(samples):
            rng = _rng(cfg.seed, 15, t)
            psi = StateVector(4, random_state_batch(4, 1, rng)[0])
            p = float(rng.uniform(0.1, 0.9))
            q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            povm = make_povm(np.sqrt(p) * u, rng)
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


def _random_contraction(rng) -> np.ndarray:
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    top = np.linalg.svd(m, compute_uv=False)[0]
    return m * (rng.uniform(0.25, 1.0) / top)


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
