"""Command-line interface: gen, check, count, enum, render.

Exit codes: 0 success (checked property holds), 1 checked property fails,
oracle disagreement or failed internal self-check, 2 invalid input or
output that cannot be written (an --output path or a closed stdout).  All
words are read and written as strings of '0' and '1'.  Each handler returns
the lines to write, and each line ends in a newline: text mode writes one
line per item, so an empty listing writes nothing, while the empty word is
one empty line; JSON is one line, `[]` for an empty listing.

`gen`, `check` and `enum` each read one table, `GENS`, `CHECKS` and
`ENUMS`: the parser takes its choices from the table, and the handler looks
up one entry and has no branch per kind, property or family.  A `CHECKS`
entry is either a witness scan, which returns a named tuple when the
property fails (printed as its fields; JSON: the "witness" object) and None
when it holds, or a predicate, which returns a bool.  An `ENUMS` entry
gives the family's help, its size arguments (the cap reads their sum), the
rows that --json writes, and the text line of a row.  Every entry calls its
function through the module, so a wrapper put on the module at run time is
the one called.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from operator import itemgetter

from . import balance, christoffel, counting, farey, forbidden, render, words

ENUM_CAP = 26
ORACLE_CAP = 20

GENS = {
    "lower": lambda a, b: christoffel.lower_christoffel(a, b),
    "upper": lambda a, b: christoffel.upper_christoffel(a, b),
    "central": lambda a, b: christoffel.central_word(a, b),
}

CHECKS = {
    "balanced": lambda w: balance.unbalance_witness(w),
    "circular": lambda w: balance.rotation_witness(w),
    "prefix-normal": lambda w: balance.prefix_normal_witness(w),
    "plc": lambda w: farey.is_plc(w),
    "central": lambda w: christoffel.is_central(w),
    "lyndon": lambda w: words.is_lyndon(w),
    "mf": lambda w: forbidden.is_minimal_forbidden(w),
    "in-bar": lambda w: balance.bar_witness(w),
}

# family: (help, size arguments, the rows that --json writes, the text line of a row or None when the row is the line)
ENUMS = {
    "balanced": ("balanced words with a zeros and b ones", ("a", "b"),
                 lambda a, b: balance.enumerate_balanced(a, b), None),
    "plc": ("prefixes of lower Christoffel words of length n", ("n",),
            lambda n: [e.word for e in farey.enumerate_plc(n)], None),
    "mf": ("minimal forbidden words of length n", ("n",),
           lambda n: [m._asdict() for m in forbidden.enumerate_mf(n)], itemgetter("word")),
    "mab": ("minimal almost-balanced words up to a length", ("max_len",),
            lambda max_len: forbidden.enumerate_mab(max_len), None),
    "farey": ("length-n prefix words paired with Farey fractions", ("n",),
              lambda n: [{"word": e.word, "root": e.root, "fraction": f"{f.numerator}/{f.denominator}"}
                         for e, f in farey.plc_farey_bijection(n)],
              lambda row: f"{row['word']}  {row['fraction']}"),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of plain text")
    common.add_argument("--output", metavar="PATH", help="write to PATH instead of stdout")

    parser = argparse.ArgumentParser(
        prog="balwords",
        description="Christoffel words and balanced binary words: generate, check, count, enumerate, render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common], help="generate a Christoffel object")
    p_gen.set_defaults(run=_cmd_gen)
    p_gen.add_argument("kind", choices=[*GENS, "matrix"])
    p_gen.add_argument("a", type=int)
    p_gen.add_argument("b", type=int)

    p_check = sub.add_parser("check", parents=[common], help="check a property of a word")
    p_check.set_defaults(run=_cmd_check)
    p_check.add_argument("property", choices=list(CHECKS))
    p_check.add_argument("word")

    p_count = sub.add_parser("count", parents=[common], help="count balanced words with a zeros and b ones")
    p_count.set_defaults(run=_cmd_count)
    p_count.add_argument("a", type=int)
    p_count.add_argument("b", type=int)
    p_count.add_argument("--audit", action="store_true", help="emit the per-term JSON breakdown")
    p_count.add_argument("--oracle", action="store_true", help="also run the brute-force oracle and compare")

    # The family parsers own --json/--output, so they follow the family.
    p_enum = sub.add_parser("enum", help="enumerate a family of words")
    p_enum.set_defaults(run=_cmd_enum)
    enum_sub = p_enum.add_subparsers(dest="family", required=True)
    for family, (help_text, names, _, _) in ENUMS.items():
        p_family = enum_sub.add_parser(family, parents=[common], help=help_text)
        for name in names:
            p_family.add_argument(name, type=int)
        p_family.add_argument("--force", action="store_true", help="override the size cap")

    p_render = sub.add_parser("render", parents=[common], help="draw the lattice path of a word")
    p_render.set_defaults(run=_cmd_render)
    p_render.add_argument("word")
    p_render.add_argument("--bar", action="store_true", help="draw the Christoffel bar boundaries")
    p_render.add_argument("--segment", action="store_true", help="draw the straight segment (svg only)")
    p_render.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p_render.add_argument("--cell-size", type=int, default=20, help="svg pixels per lattice unit")

    return parser


def _cmd_gen(args) -> tuple[list[str], int]:
    if args.kind == "matrix":
        m = christoffel.christoffel_matrix(args.a, args.b)
        if args.json:
            return [json.dumps({"a": m.a, "b": m.b, "rows": list(m.rows)})], 0
        return [m.as_text()], 0
    word = GENS[args.kind](args.a, args.b)
    if args.json:
        return [json.dumps({"kind": args.kind, "a": args.a, "b": args.b, "word": word})], 0
    return [word], 0


def _cmd_check(args) -> tuple[list[str], int]:
    w = words.check_word(args.word)
    found = CHECKS[args.property](w)
    holds = found is None or found is True
    witness = found._asdict() if isinstance(found, tuple) else None
    if args.json:
        payload = {"property": args.property, "word": w, "holds": holds, "witness": witness}
        return [json.dumps(payload)], 0 if holds else 1
    text = f"{args.property}: {'yes' if holds else 'no'}"
    if witness is not None:
        # A tuple field prints as a list, [lo, hi], as it does in JSON.
        detail = ", ".join(f"{k}={(list(v) if isinstance(v, tuple) else v)!r}" for k, v in witness.items())
        text += f" ({detail})"
    return [text], 0 if holds else 1


def _cmd_count(args) -> tuple[list[str], int]:
    report = counting.count_balanced_report(args.a, args.b) if args.audit or args.json else None
    total = report.total if report is not None else counting.count_balanced(args.a, args.b)
    code = 0
    oracle_total = None
    if args.oracle:
        oracle_total = counting.brute_count_balanced(args.a, args.b, cap=ORACLE_CAP)
        if oracle_total != total:
            code = 1
    if report is not None:
        payload = report.as_dict()
        if oracle_total is not None:
            payload["oracle"] = oracle_total
            payload["agrees"] = oracle_total == total
        return [json.dumps(payload, indent=2)], code
    if oracle_total is not None:
        status = "ok" if code == 0 else "MISMATCH"
        return [f"formula={total} oracle={oracle_total} {status}"], code
    return [str(total)], code


def _cmd_enum(args) -> tuple[list[str], int]:
    _, names, rows, line = ENUMS[args.family]
    sizes = [getattr(args, name) for name in names]
    if sum(sizes) > ENUM_CAP and not args.force:
        raise ValueError(f"{'+'.join(names)}={sum(sizes)} exceeds the cap {ENUM_CAP}; pass --force to override")
    found = rows(*sizes)
    if args.json:
        return [json.dumps(found)], 0
    return (found if line is None else [line(row) for row in found]), 0


def _cmd_render(args) -> tuple[list[str], int]:
    spec = render.RenderSpec(
        word=words.check_word(args.word),
        show_bar=args.bar,
        show_segment=args.segment,
        format=args.format,
        cell_size=args.cell_size,
    )
    return [render.render(spec)], 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lines, code = args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # an internal self-check failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = "".join(line + "\n" for line in lines)
    try:
        if args.output:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not args.output:
            # stdout is closed: point it at devnull so the exit-time flush stays quiet.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
