#!/usr/bin/env python3
"""Census of minimal forbidden words of the balanced language by length.

For each length n: the total count, the count starting with 0, the
expected n - phi(n) - 1, and how many of the words are also minimal
almost-balanced.  Each row is checked against three identities:

    start0 = n - phi(n) - 1
    total  = 2 * start0  (the reversals start with 1; no word occurs twice)
    mab    = 2 * phi(n/2) for even n >= 4, and 0 otherwise

A cell that breaks its identity is flagged with '!' and makes the script
exit with status 1.
"""

import argparse
import sys
from math import gcd

from balwords.forbidden import enumerate_mab, enumerate_mf


def phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


WIDTHS = (6, 7, 8, 4)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max", type=int, default=24, help="largest length (default 24)")
    args = parser.parse_args()

    mab = set(enumerate_mab(args.max)) if args.max >= 2 else set()
    print(f"{'n':>4} {'total':>6} {'start0':>7} {'n-phi-1':>8} {'mab':>4}")
    mismatches = 0
    for n in range(2, args.max + 1):
        found = enumerate_mf(n)
        zero_start = sum(1 for m in found if m.word.startswith("0"))
        in_mab = sum(1 for m in found if m.word in mab)
        expected = n - phi(n) - 1
        # (value, expected value) per column; the n-phi-1 column is its own expectation.
        row = [
            (len(found), 2 * zero_start),
            (zero_start, expected),
            (expected, expected),
            (in_mab, 2 * phi(n // 2) if n % 2 == 0 and n >= 4 else 0),
        ]
        mismatches += sum(value != want for value, want in row)
        cells = (f"{value}{'' if value == want else '!'}".rjust(w) for (value, want), w in zip(row, WIDTHS))
        print(f"{n:>4} " + " ".join(cells))
    print(f"\nchecked {max(args.max - 1, 0)} rows, {mismatches} mismatches")
    if mismatches:
        sys.exit(1)


if __name__ == "__main__":
    main()
