#!/usr/bin/env python3
"""Cold-start cost of the balwords command line.

Two reports, for the interpreter that runs this script:

    starts   median and quartiles, in ms, of N cold
             `python -m balwords gen lower 1 1` runs, each a new process
    modules  the modules that `import balwords.cli` loads beyond a bare
             `python -c pass`, the package's own modules left out

The package must be importable, for example
`PYTHONPATH=src python scripts/cold_start.py --runs 21`.  The script sets
no timing threshold; it exits 1 only when a start fails or prints the
wrong word.
"""

import argparse
import statistics
import subprocess
import sys
import time

START = [sys.executable, "-m", "balwords", "gen", "lower", "1", "1"]


def loaded_modules(imports: str) -> set[str]:
    code = f"{imports}import sys; print('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def main() -> None:
    parser = argparse.ArgumentParser(description="Time cold CLI starts and list the modules the CLI imports.")
    parser.add_argument("--runs", type=int, default=21, help="number of cold starts (>= 2)")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be >= 2 for quartiles")

    times = []
    for _ in range(args.runs):
        t0 = time.perf_counter()
        proc = subprocess.run(START, capture_output=True, text=True)
        times.append((time.perf_counter() - t0) * 1e3)
        if proc.returncode != 0 or proc.stdout != "01\n":
            print(f"cold start failed with exit {proc.returncode}: {proc.stderr[-200:]!r}", file=sys.stderr)
            sys.exit(1)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    print(f"python -m balwords gen lower 1 1, {args.runs} cold starts:")
    print(f"  median {median:.1f} ms, quartiles {q1:.1f} .. {q3:.1f} ms")

    extra = loaded_modules("import balwords.cli; ") - loaded_modules("")
    extra = sorted(m for m in extra if m.partition(".")[0] != "balwords")
    print(f"modules that import balwords.cli loads beyond python -c pass: {len(extra)}")
    for name in extra:
        print(f"  {name}")


if __name__ == "__main__":
    main()
