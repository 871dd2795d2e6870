"""Command-line front door: compute measures, run verification suites, bench.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
parse error, 3 domain, parity or capacity error (running out of memory counts
as a capacity error).
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import check_sizes, records_to_csv, records_to_json, records_to_text, run_bench
from .errors import DomainError, NTangleError, ParseError
from .measures import (
    concurrence,
    r_tangle,
    tau,
    tau_even,
    tau_odd,
    tau_residual,
    three_tangle,
    wong_tangle,
)
from .state import parse_product_expression, build_product, read_qsv
from .suites import DEFAULT_SEED, SUITES, SuiteConfig, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


_MEASURES = {
    "tau": tau,
    "tau-even": tau_even,
    "tau-odd": tau_odd,
    "r": r_tangle,
    "concurrence": concurrence,
    "three-tangle": three_tangle,
    "wong": wong_tangle,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntangle",
        description="Polynomial entanglement measures for pure n-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute a measure of a state")
    src = c.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="qsv state file to read")
    src.add_argument("--expr", help="product expression, e.g. 'ghz:3@1,2,3 x bell@4,5'")
    c.add_argument("--measure", default="tau",
                   help=" | ".join([*_MEASURES, "residual:<i>"]) + " (default: tau)")
    c.add_argument("--no-normalize", action="store_true",
                   help="evaluate on the raw amplitudes instead of normalizing first")
    c.add_argument("--format", choices=("text", "json"), default="text")

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True,
                   help="one of: " + ", ".join(sorted(SUITES)))
    v.add_argument("--trials", type=int, default=None, help="per-unit trial count override")
    v.add_argument("--n-max", type=int, default=None, help="upper qubit bound override")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    v.add_argument("--tol", type=float, default=None, help="tolerance override")
    v.add_argument("--format", choices=("text", "json"), default="text")

    b = sub.add_parser("bench", help="time the quadratic and odd measures, R, the quartic oracle,"
                                      " suite-sized batches and the qsv reader and writer")
    b.add_argument("--n-min", type=int, default=4, help="smallest qubit count")
    b.add_argument("--n-max", type=int, default=16, help="largest qubit count")
    b.add_argument("--measure",
                   choices=("quadratic", "quartic", "both", "r", "odd", "residual", "read",
                            "write", "batch"),
                   default="quadratic",
                   help="quadratic and quartic time the even sizes of the range, r, odd and "
                        "residual (qubits 1 and n-1) the odd ones, read (read_qsv of a "
                        "temporary file) and write (write_qsv to one) every size, batch (tau, "
                        "and R at odd n, on 2**(22-n) states) every size up to 22")
    b.add_argument("--repetitions", type=int, default=5)
    b.add_argument("--seed", type=int, default=DEFAULT_SEED)
    b.add_argument("--format", choices=("text", "csv", "json"), default="text")
    return parser


def _cmd_compute(args) -> int:
    if args.file is not None:
        psi = read_qsv(args.file)
        label = f"file:{args.file}"
    else:
        psi = build_product(parse_product_expression(args.expr))
        label = args.expr
    if not args.no_normalize:
        psi = psi.normalized()

    name = args.measure
    if name in _MEASURES:
        report = _MEASURES[name](psi)
    elif name.startswith("residual:"):
        try:
            i = int(name.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad residual qubit in measure {name!r}", line=1, column=1) from None
        report = tau_residual(psi, i)
    else:
        raise ParseError(f"unknown measure {name!r}", line=1, column=1)

    if args.format == "json":
        payload = {
            "schema": 1,
            "measure": report.kind,
            "value": report.value,
            "n": report.n,
            "norm": report.norm,
            "state": label,
        }
        if report.residuals is not None:
            payload["residuals"] = list(report.residuals)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"value {report.value:.15g}")
        print(f"measure {report.kind}")
        print(f"n {report.n}")
        print(f"norm {report.norm:.15g}")
        if report.residuals is not None:
            print("residuals " + " ".join(f"{r:.15g}" for r in report.residuals))
        print(f"state {label}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:  # a request the config refuses is a usage error
        cfg = SuiteConfig(suite=args.suite, trials=args.trials, n_max=args.n_max,
                          seed=args.seed, tol=args.tol)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = run_suite(cfg)
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        print(report.to_text(), end="")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_bench(args) -> int:
    measures = ("quadratic", "quartic") if args.measure == "both" else (args.measure,)
    ns = list(range(args.n_min, args.n_max + 1))
    try:  # a bad size range is a usage error; a range without a measure's parity exits 3
        check_sizes(ns, measures)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    records = run_bench(ns, measures=measures, repetitions=args.repetitions, seed=args.seed)
    if args.format == "csv":
        print(records_to_csv(records), end="")
    elif args.format == "json":
        print(records_to_json(records), end="")
    else:
        print(records_to_text(records), end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_bench(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NTangleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory: the state exceeds this machine's capacity", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
