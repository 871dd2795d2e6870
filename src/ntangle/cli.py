"""Command-line front door: compute measures, run verification suites, bench.

compute takes every measure through measures.product_measure, the one evaluator:
a --file state is the one factor of its product, on labels 1..n, and each measure
is taken factor by factor, never on the 2**n product state.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
parse error, 3 domain, parity or capacity error (running out of memory counts
as a capacity error), 141 a reader that closed stdout early (no message). Only
``main`` maps an error to its code, by its type: a ``UsageError``, ``ParseError``
or unreadable file exits 2, any other ``DomainError`` 3: among them, before any
draw, every size past ``DEFAULT_MAX_QUBITS`` (one message form, ``<what> exceeds
the capacity of 26 qubits``) and a ``bench`` quartic size past its cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import measures
from .bench import BATCH_BITS, _PARITY, records_to_csv, records_to_json, records_to_text, run_bench
from .errors import DomainError, NTangleError, ParseError, UsageError
from .state import _one_factor, parse_product_expression, read_qsv
from .suites import DEFAULT_SEED, SUITES, SuiteConfig, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CLOSED_READER = 141  # 128 + SIGPIPE, as a shell reports a command a closed pipe killed


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
    sizes = ", ".join(f"{label} ({rule or 'every n'})" for label, rule in _PARITY.items())
    b.add_argument("--measure", choices=[*_PARITY, "both"], default="quadratic",
                   help=f"the sizes of the range each times: {sizes}, quartic up to "
                        f"n={measures.DEFAULT_WONG_CAP} and batch up to n={BATCH_BITS}; both times "
                        "quadratic and quartic")
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
        expr, label = _one_factor(read_qsv(args.file)), f"file:{args.file}"
    else:
        expr, label = parse_product_expression(args.expr), args.expr
    report = measures.product_measure(expr, function, *extra, normalize=not args.no_normalize)

    # one payload, in the text lines' order; JSON sorts its keys
    payload = {"value": report.value, "measure": report.kind, "n": report.n, "norm": report.norm}
    if report.residuals is not None:
        payload["residuals"] = list(report.residuals)
    payload["state"] = label
    if args.format == "json":
        print(json.dumps({"schema": 1} | payload, sort_keys=True))
    else:
        for key, value in payload.items():
            values = value if isinstance(value, list) else [value]
            print(key, *(f"{v:.15g}" if isinstance(v, float) else v for v in values))
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
    formats = {"csv": records_to_csv, "json": records_to_json, "text": records_to_text}
    print(formats[args.format](records), end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {"compute": _cmd_compute, "verify": _cmd_verify, "bench": _cmd_bench}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()  # a closed reader shows here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:
        # the reader of stdout went away (`| head`): no error of the request. Later
        # writes, the exit flush among them, go to os.devnull instead of raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_READER
    except (NTangleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        domain = isinstance(exc, DomainError) and not isinstance(exc, UsageError)
        return EXIT_DOMAIN if domain else EXIT_USAGE
    except MemoryError:
        print("error: out of memory: the state exceeds this machine's capacity", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    """main() as a process, the `ntangle` script's and `python -m ntangle`'s entry.

    Once main returns, stdout and stderr are flushed and the process leaves with
    os._exit(code), which skips the interpreter's teardown: nothing is left to
    release, and freeing every object took ~11 ms of each process. An uncaught
    exception, argparse's SystemExit among them, still propagates as before.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
