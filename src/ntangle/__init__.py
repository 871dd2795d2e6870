"""Polynomial entanglement measures for pure n-qubit states.

Quadratic-form measures for even qubit counts, per-qubit residual measures
and their average for odd counts, POVM branch simulation for monotonicity
checks, and a verification harness that certifies the algebraic identities
numerically at desk scale.
"""

from .bitops import count_ones, count_ones_star, sgn, sgn_star
from .errors import CapacityError, DomainError, NTangleError, ParseError, UsageError
from .locc import BranchOutcome, PovmPair, branch, make_povm, monotone_average
from .measures import (
    DEFAULT_WONG_CAP,
    InvariantValue,
    MeasureReport,
    concurrence,
    even_invariant,
    even_invariant_pairs,
    high_half_invariant,
    low_half_invariant,
    odd_invariant,
    odd_invariant_pairs,
    r_tangle,
    tau,
    tau_even,
    tau_odd,
    tau_residual,
    three_tangle,
    wong_tangle,
)
from .state import (
    DEFAULT_MAX_QUBITS,
    ProductExpression,
    ProductFactor,
    QubitPermutation,
    StateVector,
    apply_local,
    apply_single,
    build_product,
    named_state,
    parse_product_expression,
    permute,
    random_operator,
    random_state,
    random_state_batch,
    read_qsv,
    tensor,
    write_qsv,
)
from .suites import SUITES, CheckResult, SuiteConfig, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BranchOutcome",
    "CapacityError",
    "CheckResult",
    "DEFAULT_MAX_QUBITS",
    "DEFAULT_WONG_CAP",
    "DomainError",
    "InvariantValue",
    "MeasureReport",
    "NTangleError",
    "ParseError",
    "PovmPair",
    "ProductExpression",
    "ProductFactor",
    "QubitPermutation",
    "StateVector",
    "SUITES",
    "SuiteConfig",
    "SuiteReport",
    "apply_local",
    "apply_single",
    "branch",
    "build_product",
    "concurrence",
    "count_ones",
    "count_ones_star",
    "even_invariant",
    "even_invariant_pairs",
    "high_half_invariant",
    "low_half_invariant",
    "make_povm",
    "monotone_average",
    "named_state",
    "odd_invariant",
    "odd_invariant_pairs",
    "parse_product_expression",
    "permute",
    "r_tangle",
    "random_operator",
    "random_state",
    "random_state_batch",
    "read_qsv",
    "run_suite",
    "sgn",
    "sgn_star",
    "tau",
    "tau_even",
    "tau_odd",
    "tau_residual",
    "tensor",
    "three_tangle",
    "UsageError",
    "wong_tangle",
    "write_qsv",
]
