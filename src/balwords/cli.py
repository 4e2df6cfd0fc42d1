"""Command-line interface: gen, check, count, enum, render.

Exit codes: 0 success (checked property holds), 1 checked property fails,
oracle disagreement or failed internal self-check, 2 invalid input or
output that cannot be written (an --output path or a closed stdout).  All
words are read and written as strings of '0' and '1'.  Each handler returns
the lines to write, and each line ends in a newline: text mode writes one
line per item, so an empty listing writes nothing, while the empty word is
one empty line; JSON is one line, `[]` for an empty listing.

`check balanced|circular|prefix-normal|in-bar` call the balance module's
witness scan and, when the property fails, print the witness's fields
(JSON: the "witness" object); the other properties are plain predicates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import balance, christoffel, counting, farey, forbidden, render, words

ENUM_CAP = 26
ORACLE_CAP = 20


def _check_cap(value: int, force: bool, what: str) -> None:
    if value > ENUM_CAP and not force:
        raise ValueError(f"{what}={value} exceeds the cap {ENUM_CAP}; pass --force to override")


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
    p_gen.add_argument("kind", choices=["lower", "upper", "central", "matrix"])
    p_gen.add_argument("a", type=int)
    p_gen.add_argument("b", type=int)

    p_check = sub.add_parser("check", parents=[common], help="check a property of a word")
    p_check.add_argument(
        "property",
        choices=["balanced", "circular", "prefix-normal", "plc", "central", "lyndon", "mf", "in-bar"],
    )
    p_check.add_argument("word")

    p_count = sub.add_parser("count", parents=[common], help="count balanced words with a zeros and b ones")
    p_count.add_argument("a", type=int)
    p_count.add_argument("b", type=int)
    p_count.add_argument("--audit", action="store_true", help="emit the per-term JSON breakdown")
    p_count.add_argument("--oracle", action="store_true", help="also run the brute-force oracle and compare")

    # The family parsers own --json/--output, so they follow the family.
    p_enum = sub.add_parser("enum", help="enumerate a family of words")
    enum_sub = p_enum.add_subparsers(dest="family", required=True)
    e_bal = enum_sub.add_parser("balanced", parents=[common], help="balanced words with a zeros and b ones")
    e_bal.add_argument("a", type=int)
    e_bal.add_argument("b", type=int)
    e_plc = enum_sub.add_parser("plc", parents=[common], help="prefixes of lower Christoffel words of length n")
    e_plc.add_argument("n", type=int)
    e_mf = enum_sub.add_parser("mf", parents=[common], help="minimal forbidden words of length n")
    e_mf.add_argument("n", type=int)
    e_mab = enum_sub.add_parser("mab", parents=[common], help="minimal almost-balanced words up to a length")
    e_mab.add_argument("max_len", type=int)
    e_farey = enum_sub.add_parser("farey", parents=[common], help="length-n prefix words paired with Farey fractions")
    e_farey.add_argument("n", type=int)
    for p in (e_bal, e_plc, e_mf, e_mab, e_farey):
        p.add_argument("--force", action="store_true", help="override the size cap")

    p_render = sub.add_parser("render", parents=[common], help="draw the lattice path of a word")
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
    builders = {
        "lower": christoffel.lower_christoffel,
        "upper": christoffel.upper_christoffel,
        "central": christoffel.central_word,
    }
    word = builders[args.kind](args.a, args.b)
    if args.json:
        return [json.dumps({"kind": args.kind, "a": args.a, "b": args.b, "word": word})], 0
    return [word], 0


def _cmd_check(args) -> tuple[list[str], int]:
    w = words.check_word(args.word)
    scans = {
        "balanced": balance.unbalance_witness,
        "circular": balance.rotation_witness,
        "prefix-normal": balance.prefix_normal_witness,
        "in-bar": balance.bar_witness,
    }
    predicates = {
        "plc": farey.is_plc,
        "central": christoffel.is_central,
        "lyndon": words.is_lyndon,
        "mf": forbidden.is_minimal_forbidden,
    }
    witness: dict | None = None
    if args.property in scans:
        found = scans[args.property](w)
        holds = found is None
        if not holds:
            witness = found._asdict()
    else:
        holds = predicates[args.property](w)

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
    if args.family == "balanced":
        _check_cap(args.a + args.b, args.force, "a+b")
        items = balance.enumerate_balanced(args.a, args.b)
        return ([json.dumps(items)] if args.json else items), 0
    if args.family == "plc":
        _check_cap(args.n, args.force, "n")
        items = [e.word for e in farey.enumerate_plc(args.n)]
        return ([json.dumps(items)] if args.json else items), 0
    if args.family == "mf":
        _check_cap(args.n, args.force, "n")
        found = forbidden.enumerate_mf(args.n)
        if args.json:
            return [json.dumps([{"word": m.word, "source": m.source} for m in found])], 0
        return [m.word for m in found], 0
    if args.family == "mab":
        _check_cap(args.max_len, args.force, "max_len")
        items = forbidden.enumerate_mab(args.max_len)
        return ([json.dumps(items)] if args.json else items), 0
    # farey
    _check_cap(args.n, args.force, "n")
    rows = [(e, f"{f.numerator}/{f.denominator}") for e, f in farey.plc_farey_bijection(args.n)]
    if args.json:
        return [json.dumps([{"word": e.word, "root": e.root, "fraction": f} for e, f in rows])], 0
    return [f"{e.word}  {f}" for e, f in rows], 0


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
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "check": _cmd_check,
        "count": _cmd_count,
        "enum": _cmd_enum,
        "render": _cmd_render,
    }
    try:
        lines, code = handlers[args.command](args)
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
