"""ASCII and SVG rendering of the lattice path encoded by a binary word.

'0' is one unit step right, '1' one unit step up, starting at the origin.
The optional bar overlay draws the lower and upper Christoffel boundary
paths of the word's endpoint; the optional segment (SVG only) draws the
straight line from (0,0) to (a,b).
"""

from __future__ import annotations

from typing import NamedTuple

from .christoffel import lower_christoffel, upper_christoffel
from .words import parikh


class RenderSpec(NamedTuple):
    word: str
    show_bar: bool = False
    show_segment: bool = False
    format: str = "ascii"
    cell_size: int = 20


def path_vertices(word: str) -> list[tuple[int, int]]:
    """Lattice points visited by the path, starting at (0,0).

    After k letters the point is (k - h, h) where h counts the ones read.
    """
    x = y = 0
    points = [(0, 0)]
    for c in word:
        if c == "0":
            x += 1
        else:
            y += 1
        points.append((x, y))
    return points


def _validate(spec: RenderSpec) -> tuple[int, int]:
    if not spec.word:
        raise ValueError("cannot render the empty word")
    if spec.cell_size < 1:
        raise ValueError("cell size must be >= 1")
    a, b = parikh(spec.word)
    if spec.show_bar and (a == 0 or b == 0):
        raise ValueError("the bar degenerates when a=0 or b=0")
    return a, b


def render_ascii(spec: RenderSpec) -> str:
    """Character-grid staircase: '_' right steps, '|' up steps, '.' bar boundary."""
    a, b = _validate(spec)
    if spec.show_segment:
        raise ValueError("segment rendering is only available in svg format")
    grid = [[" "] * (a + 1) for _ in range(b + 1)]

    def paint(word: str, h_char: str, v_char: str) -> None:
        # Each letter is drawn in the cell of the point its step leaves.
        for (x, y), letter in zip(path_vertices(word), word):
            grid[y][x] = h_char if letter == "0" else v_char

    if spec.show_bar:
        paint(lower_christoffel(a, b), ".", ".")
        paint(upper_christoffel(a, b), ".", ".")
    paint(spec.word, "_", "|")

    lines = ["".join(row).rstrip() for row in reversed(grid)]
    while lines and not lines[0]:
        lines.pop(0)
    return "\n".join(lines)


def render_svg(spec: RenderSpec) -> str:
    """Standalone SVG document; y grows upward, so points are flipped on emit."""
    a, b = _validate(spec)
    cs = spec.cell_size
    margin = cs
    width = a * cs + 2 * margin
    height = b * cs + 2 * margin

    def px(x: int, y: int) -> tuple[int, int]:
        return margin + x * cs, margin + (b - y) * cs

    def polyline(word: str, style: str) -> str:
        points = " ".join(f"{u},{v}" for u, v in (px(x, y) for x, y in path_vertices(word)))
        return f'  <polyline fill="none" {style} points="{points}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'  <rect width="{width}" height="{height}" fill="white"/>',
    ]
    for x in range(a + 1):
        x0, y0 = px(x, 0)
        x1, y1 = px(x, b)
        parts.append(f'  <line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#dddddd"/>')
    for y in range(b + 1):
        x0, y0 = px(0, y)
        x1, y1 = px(a, y)
        parts.append(f'  <line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#dddddd"/>')
    if spec.show_bar:
        parts.append(polyline(lower_christoffel(a, b), 'stroke="#999999" stroke-width="2"'))
        parts.append(polyline(upper_christoffel(a, b), 'stroke="#999999" stroke-width="2"'))
    if spec.show_segment:
        x0, y0 = px(0, 0)
        x1, y1 = px(a, b)
        parts.append(
            f'  <line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" '
            f'stroke="#cc0000" stroke-width="2" stroke-dasharray="4 3"/>'
        )
    parts.append(polyline(spec.word, 'stroke="#1f4fa0" stroke-width="3" stroke-linejoin="round"'))
    parts.append("</svg>")
    return "\n".join(parts)


def render(spec: RenderSpec) -> str:
    if spec.format == "ascii":
        return render_ascii(spec)
    if spec.format == "svg":
        return render_svg(spec)
    raise ValueError(f"unknown render format {spec.format!r}")
