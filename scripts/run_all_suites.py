#!/usr/bin/env python3
"""Run every verification suite and print a consolidated report.

Exit code 0 if everything passes, 1 otherwise. `--quick` trims the trial
counts for a fast smoke run; the defaults match the acceptance suite.
"""

import argparse
import sys
import time
from pathlib import Path

# run from a checkout without installing: the package source sits in ../src
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ntangle.suites import SUITES, DEFAULT_SEED, SuiteConfig, run_suite


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--quick", action="store_true", help="reduced trial counts")
    parser.add_argument("--verbose", action="store_true", help="print every check line")
    args = parser.parse_args()

    failed = []
    total_start = time.perf_counter()
    for name in SUITES:  # in run order
        cfg = SuiteConfig(suite=name, seed=args.seed,
                          trials=25 if args.quick else None,
                          n_max=6 if args.quick and name != "bitops" else None)
        start = time.perf_counter()
        report = run_suite(cfg)
        elapsed = time.perf_counter() - start
        ok = sum(1 for c in report.checks if c.passed)
        status = "PASS" if report.passed else "FAIL"
        print(f"[{status}] {name:<16} {ok}/{len(report.checks)} checks  ({elapsed:.2f}s)")
        if args.verbose or not report.passed:
            for line in report.to_text().splitlines()[1:-1]:
                print("    " + line)
        if not report.passed:
            failed.append(name)

    print(f"\ntotal {time.perf_counter() - total_start:.1f}s")
    if failed:
        print("FAILED: " + ", ".join(failed))
        return 1
    print("all suites passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
