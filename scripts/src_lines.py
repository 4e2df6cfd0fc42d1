#!/usr/bin/env python3
"""Line counts of the balwords package, per module and in total.

For each module under src/balwords, two counts:

    lines  physical lines of the file
    code   lines that carry a token other than a comment, NL, INDENT,
           DEDENT or the end marker (a multi-line string counts on every
           line it spans), minus the lines of each module, class and
           function docstring, which are found with ``ast``

The code count is the package size that ROADMAP.md's design aim tracks
from change to change.  The script takes no options and reads only the
source files.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "balwords"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main() -> None:
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.stem, len(source.splitlines()), code_lines(source)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<12} {'lines':>6} {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<12} {physical:>6} {code:>6}")


if __name__ == "__main__":
    main()
