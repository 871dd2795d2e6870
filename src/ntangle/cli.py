"""Command-line front door: compute measures, run verification suites, bench.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
parse error, 3 domain, parity or capacity error (running out of memory counts
as a capacity error). Only ``main`` maps an error to its code, by its type: a
``UsageError``, ``ParseError`` or unreadable file exits 2, any other ``DomainError``
3 (every suite's ``--n-max`` past ``DEFAULT_MAX_QUBITS`` among them, before any draw).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import measures
from .bench import records_to_csv, records_to_json, records_to_text, run_bench
from .errors import DomainError, NTangleError, ParseError, UsageError
from .state import parse_product_expression, build_product, read_qsv
from .suites import DEFAULT_SEED, SUITES, SuiteConfig, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


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
                   help=" | ".join(["tau", *(row.cli for row in measures.MEASURES.values())])
                   + " (default: tau)")
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
    b.add_argument("--repetitions", type=int, default=5, help="timed calls a row, at least 1")
    b.add_argument("--seed", type=int, default=DEFAULT_SEED)
    b.add_argument("--format", choices=("text", "csv", "json"), default="text")
    return parser


def _cmd_compute(args) -> int:
    # the public function a --measure names (tau: the parity dispatch) and its arguments
    name = args.measure
    kinds = {"tau": "tau"} | {row.cli: kind for kind, row in measures.MEASURES.items()}
    if name.startswith("residual:"):
        try:
            function, extra = "tau_residual", (int(name.split(":", 1)[1]),)
        except ValueError:
            raise ParseError(f"bad residual qubit in measure {name!r}", line=1, column=1) from None
    elif name in kinds:
        function, extra = kinds[name], ()
    else:
        raise ParseError(f"unknown measure {name!r}", line=1, column=1)
    if args.file is not None:
        psi = read_qsv(args.file)
        label = f"file:{args.file}"
    else:
        psi = build_product(parse_product_expression(args.expr))
        label = args.expr
    if function in measures.MEASURES:  # refuse a size before normalizing; tau takes n >= 2
        measures._row(function, psi.n)
    if not args.no_normalize:
        psi = psi.normalized()
    report = getattr(measures, function)(psi, *extra)

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
    report = run_suite(SuiteConfig(suite=args.suite, trials=args.trials, n_max=args.n_max,
                                   seed=args.seed, tol=args.tol))
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        print(report.to_text(), end="")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_bench(args) -> int:
    timed = ("quadratic", "quartic") if args.measure == "both" else (args.measure,)
    records = run_bench(range(args.n_min, args.n_max + 1), measures=timed,
                        repetitions=args.repetitions, seed=args.seed)
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
    except (NTangleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        domain = isinstance(exc, DomainError) and not isinstance(exc, UsageError)
        return EXIT_DOMAIN if domain else EXIT_USAGE
    except MemoryError:
        print("error: out of memory: the state exceeds this machine's capacity", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
