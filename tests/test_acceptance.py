"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them all)
and asserts at the tolerance pinned here. Everything is driven through the same
suite functions the `ntangle verify` command uses, with the contract-scale
parameters spelled out explicitly.
"""

import time

import numpy as np

from ntangle.bench import op_count
from ntangle.measures import _tau_even
from ntangle.state import random_state
from ntangle.suites import SuiteConfig, run_suite

SEED = 7


def _run(criterion, suite, **overrides):
    report = run_suite(SuiteConfig(suite=suite, seed=SEED, **overrides))
    worst = max((c.worst for c in report.checks), default=0.0)
    ok = sum(1 for c in report.checks if c.passed)
    status = "PASS" if report.passed else "FAIL"
    print(f"[{status}] {criterion}: {ok}/{len(report.checks)} checks,"
          f" worst deviation {worst:.3e}")
    assert report.passed, report.to_text()
    return report


def test_criterion_1_golden_examples():
    # the eight canonical product states reproduce 1,0,1,0,(0->1),1,0,(1,0)
    report = _run("criterion-1 golden-examples", "golden-examples", tol=1e-9)
    assert len(report.checks) == 8


def test_criterion_2_two_qubit_reduction():
    report = _run("criterion-2 concurrence-reduction", "closed-form",
                  trials=1000, n_max=2, tol=1e-12)
    names = {c.name for c in report.checks}
    assert "concurrence-reduction-n2" in names


def test_criterion_3_three_qubit_oracle():
    report = _run("criterion-3 oracle-n3", "oracle-n3", trials=1000, tol=1e-9)
    names = {c.name for c in report.checks}
    assert {"tau-vs-oracle", "residuals-equal", "r-equals-tau"} <= names


def test_criterion_4_covariance():
    even = _run("criterion-4 covariance-even", "covariance-even",
                trials=100, n_max=10, tol=1e-9)
    assert {f"invariant-det-product-n{n}" for n in (4, 6, 8, 10)} <= {c.name for c in even.checks}
    odd = _run("criterion-4 covariance-odd", "covariance-odd",
               trials=100, n_max=9, tol=1e-9)
    assert {f"combo-det-squared-n{n}" for n in (5, 7, 9)} <= {c.name for c in odd.checks}


def test_criterion_5_permutation():
    report = _run("criterion-5 permutation", "permutation",
                  trials=200, n_max=9, tol=1e-9)
    names = {c.name for c in report.checks}
    assert "even-invariant-exhaustive-n4" in names
    assert "odd-exhaustive-n5" in names
    assert {"even-sampled-n6", "even-sampled-n8",
            "odd-sampled-fixing-qubit1-n7", "odd-sampled-fixing-qubit1-n9"} <= names
    assert {"r-full-group-n5", "r-full-group-n7"} <= names
    by_name = {c.name: c for c in report.checks}
    assert by_name["even-invariant-exhaustive-n4"].count == 24 * 5
    assert by_name["r-full-group-n7"].count == 5040


def test_criterion_6_product_theorems():
    report = _run("criterion-6 product", "product", trials=50, n_max=7, tol=1e-9)
    names = {c.name for c in report.checks}
    assert {f"factorization-n{n}" for n in (4, 5, 6, 7)} <= names
    assert {f"factorization-relabeled-n{n}" for n in (4, 5, 6, 7)} <= names
    assert {"residual-product-n5", "residual-product-n7"} <= names
    by_name = {c.name: c for c in report.checks}
    for n in (4, 5, 6, 7):
        assert by_name[f"factorization-n{n}"].count == (n - 1) * 50


def test_criterion_7_monotonicity():
    report = _run("criterion-7 monotone", "monotone", trials=2000, n_max=6, tol=1e-9)
    names = {c.name for c in report.checks}
    assert {f"average-vs-input-n{n}" for n in (3, 4, 5, 6)} <= names
    assert {"average-vs-input-residual-n3", "average-vs-input-r-n5"} <= names
    assert "diagonal-closed-form-ghz4" in names


def test_criterion_8_range():
    report = _run("criterion-8 range", "range", trials=10_000, n_max=9, tol=1e-9)
    names = {c.name for c in report.checks}
    assert {f"tau-range-n{n}" for n in range(2, 10)} <= names
    assert {f"r-range-n{n}" for n in (3, 5, 7, 9)} <= names


def test_criterion_9_sign_function_properties():
    report = _run("criterion-9 bitops", "bitops", n_max=12)
    # exact integer identities: the suite runs at tolerance zero
    assert all(c.tol == 0.0 for c in report.checks)
    assert all(c.worst == 0.0 for c in report.checks)
    # every identity is checked on its whole domain, case by case
    assert [(c.name, c.count) for c in report.checks] == [
        ("count-split-high-block", 4097),
        ("count-split-strided", 3586),
        ("count-complement-in-block", 5110),
        ("sgn-reflection", 4097),
        ("sgn-shift-flip", 1793),
        ("sgn-star-shift-flip", 1623),
        ("sgn-star-shift-flip-degenerate", 170),
        ("sgn-star-reflection", 3756),
        ("sgn-star-reflection-degenerate", 341),
        ("sgn-star-parity-collapse", 224),
        ("sgn-split-factorization", 939),
        ("sgn-star-split-factorization", 939),
        ("complement-counts", 262136),
        ("even-width-collapse", 1365),
    ]


def test_criterion_10_closed_forms():
    report = _run("criterion-10 closed-form", "closed-form",
                  trials=1000, n_max=12, tol=1e-12)
    names = {c.name for c in report.checks}
    assert {f"even-pair-form-n{n}" for n in (2, 4, 6, 8, 10, 12)} <= names
    assert {f"odd-pair-form-n{n}" for n in (3, 5, 7, 9, 11)} <= names


def test_criterion_11_performance_sanity():
    psi = random_state(20, SEED)
    start = time.perf_counter()
    value = float(_tau_even(psi.amps, 20))
    elapsed = time.perf_counter() - start
    counts_ok = (op_count("quadratic", 20) == 2 ** 19
                 and op_count("quartic", 4) == 2 ** 8 + 2)
    passed = elapsed < 1.0 and np.isfinite(value) and counts_ok
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion-11 performance: tau_even at n=20 took {elapsed * 1e3:.1f} ms,"
          f" op counts exact")
    assert elapsed < 1.0, f"tau_even at n=20 took {elapsed:.3f}s"
    assert counts_ok
    assert np.isfinite(value)
