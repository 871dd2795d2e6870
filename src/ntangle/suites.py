"""Named verification suites behind `ntangle verify` and the acceptance tests.

Every suite is a pure function of its SuiteConfig: identical config yields an
identical report. Each block of trials (a suite's check at one qubit count,
say) has its own generator, derived from the master seed and the block's key,
and draws every value its trials need as one batch: the states, then each
further value in turn for all trials at once. Everything computed from the
draws (local operators, determinants, SVDs, POVM completion, branches,
permutations, measures) then runs once per batch.

The order of the batched calls within a block fixes the report: adding,
dropping or reordering a call, or changing its size, changes every value drawn
after it. The trial count is one of those sizes, so changing ``trials``
changes every sample of a block, not just the last ones.

Suite names, in run order: bitops, closed-form, oracle-n3, golden-examples,
covariance-even, covariance-odd, permutation, product, monotone, range.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from . import bitops, state
from .errors import CapacityError, UsageError
from .locc import _branches, _completion
from .measures import (
    MEASURES,
    _even_invariant,
    _high_half_invariant,
    _invariant_pairs,
    _low_half_invariant,
    _odd_invariant,
    _r_tangle,
    _residuals,
    _tau_any,
    _tau_even,
    _tau_odd,
    _three_tangle,
    _wong_tangle,
)
from .state import (
    _apply_each,
    _contraction,
    _ginibre,
    _special_linear,
    _unitary,
    QubitPermutation,
    StateVector,
    build_product,
    named_state,
    permute,
    random_state_batch,
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
    """A suite request, checked when it is made: every config names a run within capacity."""

    suite: str
    trials: int | None = None     # per-unit trial count; None = suite default
    n_max: int | None = None      # upper qubit bound; None = suite default
    seed: int = DEFAULT_SEED
    tol: float | None = None      # None = suite default

    def __post_init__(self):
        if self.suite not in SUITES:
            raise UsageError(f"unknown suite {self.suite!r}; available: {', '.join(sorted(SUITES))}")
        if self.trials is not None and self.trials < 1:
            raise UsageError(f"trials must be at least 1, got {self.trials}")
        if self.tol is not None and not self.tol > 0:  # nan too
            raise UsageError(f"tol must be positive, got {self.tol}")
        if self.n_max is not None and self.n_max > state.DEFAULT_MAX_QUBITS:
            raise CapacityError(f"{self.suite} up to n={self.n_max} exceeds the capacity of "
                                f"{state.DEFAULT_MAX_QUBITS} qubits")


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
        # a suite that checked nothing has certified nothing
        return bool(self.checks) and all(c.passed for c in self.checks)

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
        return {"schema": 1, **asdict(self), "passed": self.passed,
                "checks": [asdict(c) for c in self.checks]}


def _rng(seed: int, *key) -> np.random.Generator:
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [int(k) & 0xFFFFFFFFFFFFFFFF for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _check(name: str, worst, tol: float, count: int, detail: str = "") -> CheckResult:
    worst = float(worst)
    return CheckResult(name=name, passed=worst <= tol, worst=worst, count=count,
                       tol=tol, detail=detail)


def _settings(cfg: SuiteConfig, trials: int, n_max: int, tol: float) -> tuple[int, int, float]:
    """cfg's trials, n_max and tol, each falling back to the suite's default where unset."""
    return (trials if cfg.trials is None else cfg.trials,
            n_max if cfg.n_max is None else cfg.n_max,
            tol if cfg.tol is None else cfg.tol)


def _report(cfg: SuiteConfig, checks, trials: int, n_max: int, tol: float) -> SuiteReport:
    return SuiteReport(suite=cfg.suite, seed=cfg.seed, n_max=n_max, trials=trials,
                       tolerance=tol, checks=tuple(checks))


# ---------------------------------------------------------------------------
# golden-examples: the eight canonical product states and their measure values
# ---------------------------------------------------------------------------

def _product(*factors) -> StateVector:
    return build_product(ProductExpression(tuple(ProductFactor(s, labels) for s, labels in factors)))


def suite_golden_examples(cfg: SuiteConfig) -> SuiteReport:
    _, _, tol = _settings(cfg, 1, 6, TOL_NUMERIC)  # one fixed set of states: trials 1, n_max 6
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

    return _report(cfg, checks, 1, 6, tol)


# ---------------------------------------------------------------------------
# closed-form: the staggered sums against their complementary-pair rewrites,
# and the two-qubit reduction to the concurrence
# ---------------------------------------------------------------------------

def suite_closed_form(cfg: SuiteConfig) -> SuiteReport:
    trials, n_max, tol = _settings(cfg, 1000, 12, TOL_ALGEBRAIC)
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
    return _report(cfg, checks, trials, n_max, tol)


# ---------------------------------------------------------------------------
# oracle-n3: the odd measure at n=3 against the independent three-qubit
# residual-entanglement construction, residual equality and R = tau
# ---------------------------------------------------------------------------

def suite_oracle_n3(cfg: SuiteConfig) -> SuiteReport:
    trials, _, tol = _settings(cfg, 1000, 3, TOL_NUMERIC)  # n_max is fixed at 3
    amps = random_state_batch(3, trials, _rng(cfg.seed, 3))
    t = _tau_odd(amps, 3)
    oracle = _three_tangle(amps)
    res = _residuals(amps, 3)
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
    return _report(cfg, checks, trials, 3, tol)


# ---------------------------------------------------------------------------
# covariance: invariants transform with the product of operator determinants
# ---------------------------------------------------------------------------

def _odd_combination(amps: np.ndarray, n: int) -> np.ndarray:
    """B^2 - 4LH: the degree-4 combination of the odd invariants behind the odd measure."""
    return (_odd_invariant(amps, n) ** 2
            - 4.0 * _low_half_invariant(amps, n) * _high_half_invariant(amps, n))


# by parity of n: qubit counts, default n_max, invariant, the measure's row of
# MEASURES and check names. The invariant has the measure's degree in the
# amplitudes, and both pick up the determinant product to half that power.
_COVARIANCE = (
    ((4, 6, 8, 10), 10, _even_invariant, "tau_even", "invariant-det-product", "tau-abs-det-product"),
    ((5, 7, 9), 9, _odd_combination, "tau_odd", "combo-det-squared", "tau-abs-det-squared"),
)


def suite_covariance(cfg: SuiteConfig, parity: int) -> SuiteReport:
    sizes, default_n_max, invariant, kind, invariant_name, tau_name = _COVARIANCE[parity]
    measure, power = MEASURES[kind].kernel, MEASURES[kind].degree // 2
    trials, n_max, tol = _settings(cfg, 100, default_n_max, TOL_NUMERIC)
    quarter = max(1, trials // 4)
    checks = []
    for n in [x for x in sizes if x <= n_max]:
        rng = _rng(cfg.seed, 4 + parity, n)
        amps = random_state_batch(n, trials, rng)
        ops = _ginibre(rng, (trials, n))
        # the first quarter of the trials also maps through a special linear tuple
        sl = _special_linear(rng, (quarter, n))
        dets = np.prod(np.linalg.det(ops), axis=-1)
        mapped = _apply_each(amps, n, ops)
        # roundoff scales with the transformed norm to the invariant's degree;
        # deviations are relative to that
        scale = np.maximum(1.0, np.linalg.norm(mapped, axis=-1) ** (2 * power))
        rhs = invariant(amps, n) * dets ** power
        inv_dev = np.abs(invariant(mapped, n) - rhs) / np.maximum(scale, np.abs(rhs))
        tau = measure(amps, n)
        tau_rhs = tau * np.abs(dets) ** power
        tau_dev = np.abs(measure(mapped, n) - tau_rhs) / np.maximum(scale, tau_rhs)
        sl_mapped = _apply_each(amps[:quarter], n, sl)
        sl_dev = np.abs(measure(sl_mapped, n) - tau[:quarter]) \
            / np.maximum(1.0, np.linalg.norm(sl_mapped, axis=-1) ** (2 * power))
        checks.append(_check(f"{invariant_name}-n{n}", inv_dev.max(), tol, trials))
        checks.append(_check(f"{tau_name}-n{n}", tau_dev.max(), tol, trials))
        checks.append(_check(f"sl-invariance-n{n}", sl_dev.max(), tol, quarter))
    return _report(cfg, checks, trials, n_max, tol)


# ---------------------------------------------------------------------------
# permutation: full invariance for even n, invariance on qubits 2..n for odd
# n, full invariance of R, and residual invariance when the focus is fixed
# ---------------------------------------------------------------------------

def _random_axes(rng, n: int, count: int, fix_first: bool = False) -> np.ndarray:
    """(count, n) uniformly random axis orders for ``_gather``; axis 0 stays first if fix_first.

    Each row is the argsort of n uniform keys.
    """
    keys = rng.random((count, n))
    if fix_first:
        keys[:, 0] = -1.0
    return np.argsort(keys, axis=-1)


def _focus_axes(rng, n: int, foci: np.ndarray) -> np.ndarray:
    """Uniformly random axis orders, row t keeping axis foci[t] in place.

    Orders keeping axis 0 first, conjugated by the cyclic shift taking 0 to the focus.
    """
    shift = (np.arange(n) - foci[:, None]) % n
    first = _random_axes(rng, n, len(foci), fix_first=True)
    return (np.take_along_axis(first, shift, -1) + foci[:, None]) % n


def _gather(amps: np.ndarray, n: int, axes: np.ndarray) -> np.ndarray:
    """``permute`` over batches: (..., 2**n) amplitudes moved to (..., n) axis orders.

    Leading axes broadcast. Output index o reads the input index that holds
    bit k of o (counted from the most significant end) at axis axes[k].
    """
    bits = (np.arange(1 << n) >> (n - 1 - np.arange(n))[:, None]) & 1
    return np.take_along_axis(amps, (1 << (n - 1 - axes)) @ bits, axis=-1)


def _all_moves(seed: int, key: tuple, n: int, states: int, perms):
    """Seeded states (s, 2**n) and their images (s, len(perms), 2**n) under each axis order."""
    amps = random_state_batch(n, states, _rng(seed, *key))
    return amps, _gather(amps[:, None], n, np.array(list(perms))[None])


def _sampled_moves(seed: int, key: tuple, n: int, trials: int, fix_first: bool = False):
    """Per-trial states (trials, 2**n) and images (trials, 1, 2**n) under a seeded permutation."""
    rng = _rng(seed, *key)
    amps = random_state_batch(n, trials, rng)
    return amps, _gather(amps, n, _random_axes(rng, n, trials, fix_first))[:, None]


def _spread(kernel, n: int, amps: np.ndarray, moved: np.ndarray) -> float:
    """Largest |kernel(image) - kernel(state)| over the states and their images."""
    return float(np.max(np.abs(kernel(moved, n) - kernel(amps, n)[:, None]), initial=0.0))


def suite_permutation(cfg: SuiteConfig) -> SuiteReport:
    trials, n_max, tol = _settings(cfg, 200, 9, TOL_NUMERIC)
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
        rng = _rng(cfg.seed, 9, n)
        amps, foci = random_state_batch(n, 50, rng), rng.integers(0, n, 50)
        moved = _gather(amps, n, _focus_axes(rng, n, foci))
        res, moved_res = _residuals(amps, n), _residuals(moved, n)
        worst = np.abs(np.choose(foci, moved_res) - np.choose(foci, res)).max()
        checks.append(_check(f"residual-fixing-focus-n{n}", worst, tol, 50))

    # quartic cross-reference is permutation invariant; the quadratic measure
    # value is recorded alongside for exploration but nothing relates the two
    if n_max >= 4:
        rng = _rng(cfg.seed, 10)
        amps = random_state_batch(4, 50, rng)
        moved = _gather(amps, 4, _random_axes(rng, 4, 50))
        wong = _wong_tangle(np.stack([amps, moved]), 4)
        pair = f"sample quartic={wong[0, 0]:.6g} quadratic={float(_tau_even(amps[0], 4)):.6g}"
        checks.append(_check("quartic-permutation-n4", np.abs(wong[1] - wong[0]).max(), tol, 50,
                             detail=pair))

    return _report(cfg, checks, trials, n_max, tol)


# ---------------------------------------------------------------------------
# product: factorization across every split, under relabelings, the residual
# product rule, and non-reachability of product classes from GHZ by any
# non-invertible local operator
# ---------------------------------------------------------------------------

def _factor_tau(amps: np.ndarray, n: int) -> np.ndarray:
    # a single qubit carries no entanglement; its measure is 0 by convention
    return _tau_any(amps, n) if n >= 2 else np.zeros(len(amps))


def _product_block(seed: int, key: tuple, trials: int, n: int, l: int):
    """The block's generator, factors phi (l qubits) and omega (n - l), and their tensor products."""
    rng = _rng(seed, *key)
    phi, omega = random_state_batch(l, trials, rng), random_state_batch(n - l, trials, rng)
    return rng, phi, omega, (phi[:, :, None] * omega[:, None, :]).reshape(trials, -1)


def _factor_residuals(amps: np.ndarray, size: int, other_tau: np.ndarray) -> list:
    """A product's expected residual about each qubit of one factor.

    It is 0 unless the factor holding the focus qubit has odd size; then the
    factor's own residual enters once and the other factor enters squared.
    """
    if size % 2 == 0 or size == 1:
        return [np.zeros(len(amps))] * size
    return [res * other_tau ** 2 for res in _residuals(amps, size)]


def suite_product(cfg: SuiteConfig) -> SuiteReport:
    trials, n_max, tol = _settings(cfg, 50, 8, TOL_NUMERIC)
    checks = []

    for n in [x for x in (4, 5, 6, 7, 8) if x <= n_max]:
        worst_plain = worst_relabel = 0.0
        for l in range(1, n):
            rng, phi, omega, psi = _product_block(cfg.seed, (11, n, l), trials, n, l)
            axes = _random_axes(rng, n, trials, fix_first=n % 2 == 1)
            # the measure factorizes when l has the parity of n, omega's factor
            # to half the measure's degree; otherwise it vanishes
            power = MEASURES["tau_odd" if n % 2 else "tau_even"].degree // 2
            expected = (_factor_tau(phi, l) * _factor_tau(omega, n - l) ** power
                        if l % 2 == n % 2 else 0.0)
            worst_plain = max(worst_plain, np.abs(_tau_any(psi, n) - expected).max())
            moved = _gather(psi, n, axes)
            worst_relabel = max(worst_relabel, np.abs(_tau_any(moved, n) - expected).max())
        checks.append(_check(f"factorization-n{n}", worst_plain, tol, (n - 1) * trials,
                             detail="all splits l=1..n-1"))
        checks.append(_check(f"factorization-relabeled-n{n}", worst_relabel, tol, (n - 1) * trials))

    # residual product rule, about a seeded focus qubit i
    for n in [x for x in (5, 7) if x <= n_max]:
        worst = 0.0
        count = max(1, trials // 2)
        for l in range(1, n):
            rng, phi, omega, psi = _product_block(cfg.seed, (12, n, l), count, n, l)
            foci = rng.integers(0, n, count)
            expected = (_factor_residuals(phi, l, _factor_tau(omega, n - l))
                        + _factor_residuals(omega, n - l, _factor_tau(phi, l)))
            worst = max(worst, np.abs(np.choose(foci, _residuals(psi, n))
                                      - np.choose(foci, expected)).max())
        checks.append(_check(f"residual-product-n{n}", worst, tol, (n - 1) * count))

    # no non-invertible tuple of local operators can reach a nonzero-measure
    # product class from GHZ: every image has measure 0 while the product
    # classes sit at 1
    for n, witness in ((4, _product((named_state("bell", 2), (1, 2)), (named_state("bell", 2), (3, 4)))),
                       (5, _product((named_state("ghz", 3), (1, 2, 3)), (named_state("bell", 2), (4, 5))))):
        if n > n_max:
            continue
        reach_trials = 200 if cfg.trials is None else cfg.trials
        rng = _rng(cfg.seed, 13, n)
        ops = _ginibre(rng, (reach_trials, n))
        # between 1 and n singular slots per trial: the slots a random order ranks first
        ranks = _random_axes(rng, n, reach_trials)
        singular = ranks < rng.integers(1, n + 1, reach_trials)[:, None]
        # rank one, determinant zero, on the singular slots: the outer product of two rows
        uv = _ginibre(rng, (reach_trials, n))
        ops = np.where(singular[..., None, None], uv[..., 0, :, None] * uv[..., 1, None, :], ops)
        # unit Frobenius norm per factor: harmless by homogeneity, keeps
        # the image amplitudes O(1) so the zero is a clean numerical zero
        images = _apply_each(named_state("ghz", n).amps, n,
                             ops / np.linalg.norm(ops, axis=(-2, -1), keepdims=True))
        worst = max(abs(float(_tau_any(witness.amps, n)) - 1.0), _tau_any(images, n).max())
        checks.append(_check(f"nonreachability-from-ghz-n{n}", worst, tol, reach_trials + 1,
                             detail="images of GHZ under singular tuples stay at 0"))

    return _report(cfg, checks, trials, n_max, tol)


# ---------------------------------------------------------------------------
# monotone: branch averages never exceed the input measure, raw branches obey
# the determinant covariance, probabilities are complete, and the diagonal
# closed form holds
# ---------------------------------------------------------------------------

_ETA_GRID = (0.25, 0.5, 1.0)


def _branches_at(amps: np.ndarray, n: int, ks: np.ndarray, a1: np.ndarray, a2: np.ndarray):
    """``locc._branches`` with its own measured qubit ks[t] per row: one batch per qubit."""
    raw = np.empty((2,) + amps.shape, dtype=np.complex128)
    phi = np.empty_like(raw)
    p = np.empty((2, len(amps)))
    for k in range(1, n + 1):
        at = ks == k
        raw[:, at], p[:, at], phi[:, at] = _branches(amps[at], n, k, a1[at], a2[at])
    return raw, p, phi


def _excess(p: np.ndarray, values: np.ndarray, base: np.ndarray, eta) -> float:
    """Largest amount, or 0, by which the branch average p1 m1^eta + p2 m2^eta exceeds m^eta."""
    return float(np.max((p * values ** eta).sum(0) - base ** eta, initial=0.0))


def suite_monotone(cfg: SuiteConfig) -> SuiteReport:
    trials, n_max, tol = _settings(cfg, 2000, 6, TOL_NUMERIC)
    checks = []

    for n in [x for x in (3, 4, 5, 6) if x <= n_max]:
        even = n % 2 == 0
        rng = _rng(cfg.seed, 14, n)
        amps, ks = random_state_batch(n, trials, rng), rng.integers(1, n + 1, trials)
        a1 = _contraction(_ginibre(rng, (trials,)), rng.uniform(0.25, 1.0, trials))
        a2 = _completion(a1, _unitary(_ginibre(rng, (trials,))))
        # eta cycles through the grid; every fourth trial draws its own
        eta = np.resize([*_ETA_GRID, 0.0], trials)
        eta[3::4] = rng.uniform(0.01, 1.0, eta[3::4].size)
        sv = np.linalg.svd(a1, compute_uv=False)
        a, b = np.minimum(sv[:, 0], 1.0), sv[:, 1]
        raw, p, phi = _branches_at(amps, n, ks, a1, a2)

        base, phi_tau = _tau_any(amps, n), _tau_any(phi, n)
        checks.append(_check(f"average-vs-input-n{n}", _excess(p, phi_tau, base, eta), tol, trials))
        if not even:
            foci = rng.integers(0, n, trials)
            res, phi_res = _residuals(amps, n), _residuals(phi, n)
            checks.append(_check(f"average-vs-input-residual-n{n}", _excess(
                p, np.choose(foci, phi_res), np.choose(foci, res), eta), tol, trials))
            checks.append(_check(f"average-vs-input-r-n{n}",
                                 _excess(p, phi_res.mean(axis=0), res.mean(axis=0), eta),
                                 tol, trials))
        comp = np.abs(p[0] + p[1] - 1.0)
        checks.append(_check(f"branch-probability-sum-n{n}", np.max(comp, initial=0.0),
                             1e-10, trials))

        # raw branches transform with |det|, normalized branches divide
        # out the probability, each to half the measure's degree
        degree = MEASURES["tau_even" if even else "tau_odd"].degree // 2
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
        rng = _rng(cfg.seed, 15)
        amps, p = random_state_batch(4, 25, rng), rng.uniform(0.1, 0.9, 25)
        a1 = np.sqrt(p)[:, None, None] * _unitary(_ginibre(rng, (25,)))
        a2 = _completion(a1, _unitary(_ginibre(rng, (25,))))
        _, prob, phi = _branches_at(amps, 4, rng.integers(1, 5, 25), a1, a2)
        eta = np.array(_ETA_GRID)[np.arange(25) % 3]
        worst = np.abs((prob * _tau_even(phi, 4) ** eta).sum(0) - _tau_even(amps, 4) ** eta).max()
        checks.append(_check("unitary-povm-equality-n4", worst, tol, 25))

    # diagonal elements on GHZ4: the eta=1 average collapses to the closed
    # form (ab + sqrt((1-a^2)(1-b^2))) times the input measure
    if n_max >= 4:
        grid = np.linspace(0.05, 1.0, 8)
        a, b, ks = (x.ravel() for x in np.meshgrid(grid, grid, np.arange(1, 5), indexing="ij"))
        a1 = np.stack([a, b], axis=-1)[:, None, :] * np.eye(2, dtype=np.complex128)
        a2 = _completion(a1, _unitary(_ginibre(_rng(cfg.seed, 16), (a.size,))))
        ghz4 = np.broadcast_to(named_state("ghz", 4).amps, (a.size, 16))
        _, p, phi = _branches_at(ghz4, 4, ks, a1, a2)
        closed = (a * b + np.sqrt((1.0 - a * a) * (1.0 - b * b))) * _tau_even(ghz4[0], 4)
        worst = np.abs((p * _tau_even(phi, 4)).sum(0) - closed).max()
        checks.append(_check("diagonal-closed-form-ghz4", worst, tol, a.size))

    return _report(cfg, checks, trials, n_max, tol)


# ---------------------------------------------------------------------------
# range: measures of normalized states stay inside [0, 1]
# ---------------------------------------------------------------------------

def suite_range(cfg: SuiteConfig) -> SuiteReport:
    trials, n_max, tol = _settings(cfg, 10_000, 9, TOL_NUMERIC)
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
    return _report(cfg, checks, trials, n_max, tol)


# ---------------------------------------------------------------------------
# bitops: the sign-function identities, exhaustively over their full domains
# ---------------------------------------------------------------------------

def _pc(arr):
    return np.bitwise_count(arr.astype(np.uint64)).astype(np.int64)


def _violations(n_max: int, l_lo: int, identity, keep=None) -> tuple[int, int]:
    """Failures and cases of identity(n, l, j, k) over its whole grid.

    The grid is every n <= n_max, l_lo <= l <= n - 2 passing keep(n, l),
    j < 2**(l - l_lo) and k < 2**(n - l - 2); ``identity`` returns the
    boolean arrays that must be true, and each of their entries is a case.
    """
    bad = cases = 0
    for n in range(l_lo + 2, n_max + 1):
        for l in range(l_lo, n - 1):
            if keep is None or keep(n, l):
                j = np.arange(1 << (l - l_lo), dtype=np.int64)[:, None]
                k = np.arange(1 << (n - l - 2), dtype=np.int64)
                for holds in identity(n, l, j, k):
                    bad += int(np.count_nonzero(~holds))
                    cases += holds.size
    return bad, cases


def suite_bitops(cfg: SuiteConfig) -> SuiteReport:
    # exact integer identities, each checked once: trials 1, zero violations allowed
    _, n_max, _ = _settings(cfg, 1, 12, 0.0)
    tol = 0.0
    sgn, star = bitops.sgn_table, bitops.sgn_star_table
    checks = []

    def run(name, violations, detail=""):
        bad, cases = violations
        checks.append(_check(name, bad, tol, cases, detail=detail))

    def grid(l_lo, identity, keep=None):
        return _violations(n_max, l_lo, identity, keep)

    def star_shift(ratio):
        return lambda n, l, t, k: (
            star(n - 1)[k + ((2 * t + 1) << (n - l - 1))] == ratio * star(n - 1)[k + (t << (n - l))],)

    def star_reflection(flip):
        return lambda n, l, j, k: (star(n - 1)[((j + 1) << (n - l - 1)) - 1 - k]
                                   == flip * (-1) ** (n + l + 1) * star(n - 1)[k + (j << (n - l - 1))],)

    def parity_match(n, l):
        return n % 2 == l % 2

    def parity_sign(k):
        return np.where(_pc(k) & 1, -1, 1)

    run("count-split-high-block", grid(2, lambda n, l, j, k: (
        _pc(k + (j << (n - l - 1))) == _pc(j) + _pc(k),)))
    run("count-split-strided", grid(3, lambda n, l, t, k: (
        _pc(k + (t << (n - l))) == _pc(k) + _pc(t),
        _pc(k + ((2 * t + 1) << (n - l - 1))) == _pc(k) + _pc(t) + 1)))
    run("count-complement-in-block", grid(2, lambda n, l, j, k: (
        _pc((1 << (n - l - 1)) - 1 - k) == (n - l - 1) - _pc(k),
        _pc(((j + 1) << (n - l - 1)) - 1 - k) == _pc(j) + (n - l - 1) - _pc(k))))
    run("sgn-reflection", grid(2, lambda n, l, j, k: (
        sgn(n)[((j + 1) << (n - l - 1)) - 1 - k] == (-1) ** (n + l + 1) * sgn(n)[k + (j << (n - l - 1))],)))
    run("sgn-shift-flip", grid(3, lambda n, l, t, k: (
        sgn(n)[k + ((2 * t + 1) << (n - l - 1))] == -sgn(n)[k + (t << (n - l))],)))
    # The starred identities hold where their two arguments share a branch of
    # the piecewise definition. For even widths the shift at l == 3 (t == 0 is
    # the whole range) and the reflection at l == 2 (j == 0 is) cross the
    # branch boundary: the shift's ratio is +1 instead of -1 and the
    # reflection's factor flips. Those complements are counted separately.
    run("sgn-star-shift-flip", grid(3, star_shift(-1), lambda n, l: l > 3 or n % 2),
        detail="l >= 4 for even widths; every l for odd widths")
    run("sgn-star-shift-flip-degenerate", grid(3, star_shift(1), lambda n, l: l == 3 and n % 2 == 0),
        detail="even width, l=3: arguments straddle the sign branch, ratio +1")
    run("sgn-star-reflection", grid(2, star_reflection(1), lambda n, l: l > 2 or n % 2),
        detail="l >= 3 for even widths; every l for odd widths")
    run("sgn-star-reflection-degenerate", grid(2, star_reflection(-1), lambda n, l: l == 2 and n % 2 == 0),
        detail="even width, l=2: arguments straddle the sign branch, factor flips")
    run("sgn-star-parity-collapse", grid(3, lambda n, l, t, k: (
        star(n - l)[k] == parity_sign(k),), parity_match))
    run("sgn-split-factorization", grid(3, lambda n, l, t, k: (
        sgn(n)[k + (t << (n - l))] == star(n - l)[k] * sgn(l)[t],), parity_match))
    run("sgn-star-split-factorization", grid(3, lambda n, l, t, k: (
        star(n - 1)[k + (t << (n - l))] == star(n - l)[k] * star(l - 1)[t],), parity_match))
    run("complement-counts", _complement_counts(max(n_max, 16)),
        detail="N(k)+N(2^n-1-k)=n and starred variant")
    run("even-width-collapse", grid(0, lambda n, l, j, k: (star(n)[k] == parity_sign(k),),
                                    lambda n, l: l == 0 and n % 2 == 0),
        detail="sgn_star with even first argument is the plain parity sign")
    return _report(cfg, checks, 1, n_max, tol)


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



SUITES = {  # in run order
    "bitops": suite_bitops,
    "closed-form": suite_closed_form,
    "oracle-n3": suite_oracle_n3,
    "golden-examples": suite_golden_examples,
    "covariance-even": lambda cfg: suite_covariance(cfg, 0),
    "covariance-odd": lambda cfg: suite_covariance(cfg, 1),
    "permutation": suite_permutation,
    "product": suite_product,
    "monotone": suite_monotone,
    "range": suite_range,
}


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    return SUITES[cfg.suite](cfg)
