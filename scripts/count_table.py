#!/usr/bin/env python3
"""Print the table of balanced-word counts by Parikh vector.

With --verify, every cell is recomputed by full enumeration; a
disagreement is flagged with '!' and makes the script exit with status 1.
"""

import argparse
import sys

from balwords.counting import brute_count_balanced, count_balanced


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=10, help="largest coordinate, at least 1 (default 10)")
    parser.add_argument("--verify", action="store_true", help="cross-check against enumeration")
    args = parser.parse_args()
    if args.max < 1:
        parser.error(f"--max must be at least 1, got {args.max}")

    width = len(str(count_balanced(args.max, args.max))) + 1
    header = " b\\a " + "".join(f"{a:>{width}}" for a in range(1, args.max + 1))
    print(header)
    mismatches = 0
    for b in range(1, args.max + 1):
        cells = []
        for a in range(1, args.max + 1):
            total = count_balanced(a, b)
            if args.verify:
                oracle = brute_count_balanced(a, b, cap=2 * args.max)
                if oracle != total:
                    mismatches += 1
                    cells.append(f"{'!':>{width}}")
                    continue
            cells.append(f"{total:>{width}}")
        print(f"{b:>4} " + "".join(cells))
    if args.verify:
        print(f"\nverified {args.max * args.max} cells, {mismatches} mismatches")
        if mismatches:
            sys.exit(1)


if __name__ == "__main__":
    main()
