#!/usr/bin/env python3
"""Timing table for the quadratic measure across sizes, plus the quartic
cross-reference at its default cap. The interesting column is op_count:
2**(n-1) against 3*2**(4n)."""

import argparse
import sys
from pathlib import Path

# run from a checkout without installing: the package source sits in ../src
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ntangle.bench import op_count, records_to_text, run_bench


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=20, help="largest even size to time")
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    ns = list(range(4, args.n_max + 1, 2))
    records = run_bench(ns, measures=("quadratic",), repetitions=args.repetitions,
                        seed=args.seed)
    records += run_bench([4], measures=("quartic",), repetitions=args.repetitions,
                         seed=args.seed)
    print(records_to_text(records), end="")

    ratio = op_count("quartic", 4) / op_count("quadratic", 4)
    print(f"\nat n=4 the quartic contraction costs {ratio:.0f}x the quadratic sum"
          f" ({op_count('quartic', 4)} vs {op_count('quadratic', 4)} multiplications)")


if __name__ == "__main__":
    main()
