#!/usr/bin/env python3
"""One digest over a fixed sweep of balwords command lines.

Runs `balwords.cli.main(argv)` in process on a fixed list of commands and
hashes, for each, the argv, the exit code, stdout and stderr:

    gen      lower|upper|central|matrix A B for 1 <= A, B <= 12
    check    each of the 8 properties on every word of 1 to 7 letters;
             balanced, circular, prefix-normal, plc and mf on a
             conjugate of a Christoffel word and a prefix of a longer
             one, for 64, 256 and 1024 letters and three slopes each,
             and on each of these with its middle letter flipped
    enum     balanced A B for A+B <= 20, plc|farey|mf|mab N --force for
             N <= 40
    count    plain, --audit and --json for 0 <= A, B <= 30; --oracle,
             --oracle --json and --oracle --audit for A+B <= 14; and
             --oracle at the cap edge, 10 10 and 19 1 (A+B = 20) and
             11 10 (exit 2)
    render   a fixed list of words, ascii and svg, with and without --bar
             and --segment
    errors   the exit-2 inputs that README fixes
    argparse --help of the top parser, of each command and of each enum
             family; each command and family with no arguments, and each
             family with one too many; an unknown command, gen kind,
             check property, enum family and render --format; a
             non-integer size

gen, check and enum run in text and with --json.  The script prints the
number of commands and one SHA-256 over all of them; `--list` prints one
digest per command instead, so the outputs of two trees can be diffed.
The package must be importable, for example
`PYTHONPATH=src python scripts/cli_digest.py`.  argparse's own messages
differ between Python versions, so compare digests made by one interpreter;
and argparse wraps help at the terminal width, so the script fixes
COLUMNS=80 before it runs anything.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os

from balwords.christoffel import lower_christoffel
from balwords.cli import main as cli_main

RENDER_WORDS = ["0", "1", "01", "0010010101", "00100100101", "1011010110", "0110", "000111"]
PROPERTIES = ["balanced", "circular", "prefix-normal", "plc", "central", "lyndon", "mf", "in-bar"]
COMMANDS = ["gen", "check", "count", "enum", "render"]
LONG_PROPERTIES = ["balanced", "circular", "prefix-normal", "plc", "mf"]
# Each enum family with one size argument too many.
FAMILY_SIZES = {"balanced": 3, "plc": 2, "mf": 2, "mab": 2, "farey": 2}


def long_words() -> list[str]:
    """Christoffel conjugates and prefixes of 64, 256 and 1024 letters, then
    each of them with its middle letter flipped."""
    words = []
    for n in (64, 256, 1024):
        for ones in (n // 8 + 1, 3 * n // 8, n // 2):
            c = lower_christoffel(n - ones, ones)
            words.append(c[n // 3 :] + c[: n // 3])
            words.append(lower_christoffel(3 * (n - ones) + 1, 3 * ones)[:n])
    flip = {"0": "1", "1": "0"}
    return words + [w[: len(w) // 2] + flip[w[len(w) // 2]] + w[len(w) // 2 + 1 :] for w in words]


def commands() -> list[list[str]]:
    out = []

    def both(argv: list[str]) -> None:
        out.extend([argv, argv + ["--json"]])

    for kind in ("lower", "upper", "central", "matrix"):
        for a, b in itertools.product(range(1, 13), repeat=2):
            both(["gen", kind, str(a), str(b)])
    for n in range(1, 8):
        for letters in itertools.product("01", repeat=n):
            for prop in PROPERTIES:
                both(["check", prop, "".join(letters)])
    for word in long_words():
        for prop in LONG_PROPERTIES:
            both(["check", prop, word])
    for a in range(21):
        for b in range(21 - a):
            both(["enum", "balanced", str(a), str(b)])
    for family in ("plc", "farey", "mf", "mab"):
        for n in range(1, 41):
            both(["enum", family, str(n), "--force"])
    for a, b in itertools.product(range(31), repeat=2):
        for flag in ([], ["--audit"], ["--json"]):
            out.append(["count", str(a), str(b), *flag])
        if a + b <= 14:
            for flag in ([], ["--json"], ["--audit"]):
                out.append(["count", str(a), str(b), "--oracle", *flag])
    for word in RENDER_WORDS:
        for fmt, bar, segment in itertools.product(("ascii", "svg"), ([], ["--bar"]), ([], ["--segment"])):
            out.append(["render", word, "--format", fmt, *bar, *segment])
    out += [
        ["check", "balanced", "012"],
        ["render", "0a1"],
        ["enum", "balanced", "14", "13"],
        ["enum", "plc", "27"],
        ["enum", "mf", "27"],
        ["enum", "mab", "27"],
        ["enum", "farey", "27"],
        ["count", "10", "10", "--oracle"],
        ["count", "19", "1", "--oracle"],
        ["count", "11", "10", "--oracle"],
        ["enum", "--json", "plc", "5"],
    ]
    out += [["--help"], []]
    for command in COMMANDS:
        out += [[command, "--help"], [command]]
    for family, too_many in FAMILY_SIZES.items():
        out += [["enum", family, "--help"], ["enum", family], ["enum", family, *["3"] * too_many]]
    out += [
        ["frobnicate"],
        ["gen", "diagonal", "3", "2"],
        ["check", "square", "01"],
        ["enum", "lyndon", "5"],
        ["render", "01", "--format", "png"],
        ["gen", "lower", "x", "2"],
    ]
    return out


def run(argv: list[str]) -> bytes:
    """argv, exit code, stdout and stderr of one in-process run, as one record."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return repr((argv, code, stdout.getvalue(), stderr.getvalue())).encode()


def main() -> None:
    os.environ["COLUMNS"] = "80"
    parser = argparse.ArgumentParser(description="Digest the output of a fixed sweep of balwords commands.")
    parser.add_argument("--list", action="store_true", help="print one digest per command")
    args = parser.parse_args()
    total = hashlib.sha256()
    cmds = commands()
    for argv in cmds:
        digest = hashlib.sha256(run(argv)).digest()
        total.update(digest)
        if args.list:
            print(digest.hex()[:16], " ".join(argv))
    print(f"commands {len(cmds)}")
    print(f"sha256 {total.hexdigest()}")


if __name__ == "__main__":
    main()
