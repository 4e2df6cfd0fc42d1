import xml.etree.ElementTree as ET

import pytest

from balwords.render import RenderSpec, path_vertices, render, render_ascii, render_svg


def test_path_vertices_track_letter_counts():
    word = "00100100101"
    points = path_vertices(word)
    assert points[0] == (0, 0)
    assert points[-1] == (7, 4)
    for k, (x, y) in enumerate(points):
        h = word[:k].count("1")
        assert (x, y) == (k - h, h)


def test_ascii_single_steps():
    assert render_ascii(RenderSpec("0")) == "_"
    assert render_ascii(RenderSpec("1")) == "|"
    assert render_ascii(RenderSpec("01")) == "_|"


def test_ascii_staircase():
    expected = "\n".join(
        [
            "      _|",
            "    __|",
            "  __|",
            "__|",
        ]
    )
    assert render_ascii(RenderSpec("00100100101")) == expected


def test_ascii_bar_overlay_keeps_word_path_on_top():
    art = render_ascii(RenderSpec("00101010", show_bar=True))
    assert "." in art and "_" in art and "|" in art


def test_ascii_bar_draws_both_boundary_words():
    # On the lower word the dots trace the upper boundary, and vice versa.
    lower = "\n".join(["     ..", "   ..._|", " ...__|", "..__|", "__|"])
    upper = "\n".join(["     __", "   __|..", " __|...", "_|...", "|.."])
    assert render_ascii(RenderSpec("00100100101", show_bar=True)) == lower
    assert render_ascii(RenderSpec("10100100100", show_bar=True)) == upper


def test_ascii_rejects_segment():
    with pytest.raises(ValueError):
        render_ascii(RenderSpec("01", show_segment=True))


def test_rejects_degenerate_bar_and_bad_specs():
    with pytest.raises(ValueError):
        render(RenderSpec("000", show_bar=True))
    with pytest.raises(ValueError):
        render(RenderSpec(""))
    with pytest.raises(ValueError):
        render(RenderSpec("01", cell_size=0))
    with pytest.raises(ValueError):
        render(RenderSpec("01", format="png"))


def test_svg_is_well_formed_and_flips_y():
    spec = RenderSpec("00101010", show_bar=True, show_segment=True, format="svg", cell_size=10)
    doc = render_svg(spec)
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 3  # lower boundary, upper boundary, word path
    b = 3
    margin = 10
    word_points = polylines[-1].attrib["points"].split()
    decoded = []
    for chunk in word_points:
        sx, sy = chunk.split(",")
        x = (int(sx) - margin) // 10
        y = b - (int(sy) - margin) // 10
        decoded.append((x, y))
    assert decoded == path_vertices("00101010")


def test_svg_is_ascii_only_and_deterministic():
    spec = RenderSpec("0101", format="svg")
    doc = render_svg(spec)
    assert doc == render_svg(spec)
    doc.encode("ascii")


def test_render_dispatch():
    assert render(RenderSpec("01")) == "_|"
    assert render(RenderSpec("01", format="svg")).startswith("<svg")
