"""Rendering: symmetry, tangency on screen, clipping, determinism."""

import cmath
import math
import xml.etree.ElementTree as ET
from random import Random

import pytest

from hypfeuer.cevians import build_config
from hypfeuer.cli import parse_triangle
from hypfeuer.cycles import (
    GeneralizedCycle,
    circle_from_center_radius,
    coefficient_center_radius,
    cycle_through,
    geodesic_through,
    intersect,
)
from hypfeuer.geom_core import Triangle
from hypfeuer.instances import instance_rng, random_triangle
from hypfeuer.svg_render import FONT_SIZE, SIZE, _Canvas, _draw_cycle, render_svg

from test_cli import NEAR_ABSOLUTE


def parse(svg: str):
    return ET.fromstring(svg)


def elements(root, tag):
    return [e for e in root.iter() if e.tag.endswith("}" + tag)]


def circle_attrs(root):
    out = {}
    for e in elements(root, "circle"):
        out[e.get("id")] = (float(e.get("cx")), float(e.get("cy")),
                            float(e.get("r")))
    return out


def dot_coords(root):
    return [(cx, cy) for e in elements(root, "circle")
            if e.get("stroke") == "none"
            for cx, cy in [(float(e.get("cx")), float(e.get("cy")))]]


def equilateral(scale=0.5):
    w = cmath.exp(2j * math.pi / 3)
    top = scale * 1j
    return Triangle.of(top, top * w, top * w * w)


def test_render_deterministic():
    tri, _ = random_triangle(instance_rng(701, 0))
    cfg = build_config(tri)
    assert render_svg(cfg) == render_svg(cfg)


def test_equilateral_threefold_symmetry():
    cfg = build_config(equilateral())
    root = parse(render_svg(cfg))
    pts = dot_coords(root)
    assert len(pts) >= 12  # vertices, feet, centers
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    for x, y in pts:
        dx, dy = x - 280.0, y - 280.0
        rx, ry = 280.0 + c * dx - s * dy, 280.0 + s * dx + c * dy
        gap = min(math.hypot(rx - px, ry - py) for px, py in pts)
        assert gap < 0.5, (x, y, gap)


def test_equilateral_circles_concentric_at_canvas_center():
    cfg = build_config(equilateral())
    attrs = circle_attrs(parse(render_svg(cfg)))
    for name in ("circumcircle", "euler-circle", "incircle"):
        cx, cy, _ = attrs[name]
        assert math.hypot(cx - 280.0, cy - 280.0) < 0.01, name


def test_feuerbach_tangency_visible_within_a_pixel():
    tri, _ = random_triangle(instance_rng(702, 0))
    cfg = build_config(tri)
    attrs = circle_attrs(parse(render_svg(cfg)))
    x1, y1, r1 = attrs["euler-circle"]
    x2, y2, r2 = attrs["incircle"]
    d = math.hypot(x1 - x2, y1 - y2)
    assert min(abs(d - abs(r1 - r2)), abs(d - (r1 + r2))) < 1.0


def test_diameter_sides_are_lines_arc_sides_are_paths():
    cfg = build_config(Triangle.of(0j, 0.4, 0.3j))
    root = parse(render_svg(cfg))
    lines = {e.get("id") for e in elements(root, "line")}
    paths = {e.get("id") for e in elements(root, "path")}
    # sides through the origin vertex are diameters, the third bends
    assert {"side-b", "side-c"} <= lines
    assert "side-a" in paths


def test_crossing_cycle_clipped_to_boundary():
    # wide flat triangle: its circumcycle is an equidistant curve that
    # leaves the disk, so the rendering must clip it at the boundary
    tri = Triangle.of(0.9, -0.9, 0.05 + 0.3j)
    cfg = build_config(tri)
    root = parse(render_svg(cfg))
    path = next(e for e in elements(root, "path")
                if e.get("id") == "circumcircle")
    d = path.get("d").split()
    ends = [(float(d[1]), float(d[2])), (float(d[-2]), float(d[-1]))]
    for x, y in ends:
        assert abs(math.hypot(x - 280.0, y - 280.0) - 260.0) < 0.1


def _former_clip(cv, cycle):
    """The former clip of a cycle that reaches the absolute: a line's chord
    about its point nearest the origin, and a circle's arc by the angles
    of its crossings about its center, the arc inside picked by a
    midpoint test."""
    if cycle.is_line:
        d = 1j * cycle.b / abs(cycle.b)
        z0 = -cycle.c * cycle.b / (2.0 * abs(cycle.b) ** 2)
        half = math.sqrt(max(0.0, 1.0 - abs(z0) ** 2))
        cv.line("c", z0 - d * half, z0 + d * half, "#000000", 1.0)
        return
    ec, er = coefficient_center_radius(cycle.a, cycle.b, cycle.c)
    p, q = intersect(cycle, GeneralizedCycle(1.0, 0j, -1.0))
    t0, t1 = cmath.phase(p - ec), cmath.phase(q - ec)
    if t1 < t0:
        p, q, t0, t1 = q, p, t1, t0
    if abs(ec + er * cmath.exp(0.5j * (t0 + t1))) >= 1.0:
        p, q, t0, t1 = q, p, t1, t0 + 2.0 * math.pi
    cv.arc("c", p, q, er, t1 - t0 > math.pi, 0, "#000000", 1.0)


def test_clipped_cycles_draw_as_the_former_clip():
    # lines through the origin and off it, and circles that cross the
    # absolute, each also with its coefficients negated, which turns the
    # tangent and the sign of the curvature but draws the same arc
    cycles = [geodesic_through(0j, 0.6 + 0.3j), GeneralizedCycle.of(0.0, 0.6 - 0.8j, 0.5)]
    rng = Random(5)
    for _ in range(200):
        pts = [cmath.rect(rng.uniform(0.0, 0.99), rng.uniform(-math.pi, math.pi))
               for _ in range(2)]
        cycles.append(cycle_through(*pts, cmath.rect(1.0 + rng.uniform(0.01, 2.0),
                                                     rng.uniform(-math.pi, math.pi))))
    drawn = 0
    for cycle in cycles:
        if not cycle.is_line:
            ec, er = coefficient_center_radius(cycle.a, cycle.b, cycle.c)
            if abs(ec) + er <= 1.0 + 1e-12:
                continue
        for same in (cycle, GeneralizedCycle(-cycle.a, -cycle.b, -cycle.c)):
            got, want = _Canvas(), _Canvas()
            _draw_cycle(got, "c", same, "#000000", 1.0)
            _former_clip(want, same)
            assert got.parts == want.parts, same
        drawn += 1
    assert drawn > 150


@pytest.mark.parametrize("cycle, element", [
    (circle_from_center_radius(0.3 - 0.2j, 0.7), "circle"),
    # horocycles: |z - 0.5| = 0.5, and one touching the absolute at
    # (1 + i) / sqrt 2, each crossing it at most once
    (GeneralizedCycle.of(1.0, -0.5 + 0j, 0.0), "circle"),
    (GeneralizedCycle.of(1.0, -0.25 - 0.25j, 0.5 ** 0.5 * 0.5 - 0.25), "circle"),
    (cycle_through(0.5, 0.5j, 1.5 + 0.5j), "path"),
    (geodesic_through(0.1, 0.5j), "path"),
    (geodesic_through(0j, 0.5j), "line"),
], ids=["circle", "horocycle", "slanted-horocycle", "crossing", "geodesic", "diameter"])
def test_a_cycle_is_drawn_whole_where_it_does_not_cross_the_absolute_twice(cycle, element):
    cv = _Canvas()
    _draw_cycle(cv, "c", cycle, "#000000", 1.0)
    assert cv.parts[0].startswith(f"<{element} ")
    if element == "circle":
        want = _Canvas()
        want.circle("c", *coefficient_center_radius(cycle.a, cycle.b, cycle.c), "#000000", 1.0)
        assert cv.parts == want.parts


def test_every_layer_is_drawn_in_order():
    # small enough that all three excircles exist
    cfg = build_config(equilateral(0.25))
    root = parse(render_svg(cfg))
    ids = [e.get("id") for e in root]
    assert ids[0] == "absolute"
    cx, cy, r = circle_attrs(root)["absolute"]
    assert (cx, cy, r) == (280.0, 280.0, 260.0)
    # each layer's first element, in document order: triangle, cevians,
    # circumcircle, Euler circle, incircle, excircles, feet, centers
    firsts = ["side-a", "bisector-cevian-a", "circumcircle", "euler-circle",
              "incircle", "excircle-a", "foot-bisector-a", "point-circumcenter"]
    assert all(name in ids for name in firsts)
    places = [ids.index(name) for name in firsts]
    assert places == sorted(places)


def _label_margins(cfg) -> float:
    """The smallest distance from a label anchor to the figure's edge."""
    return min(min(x, y, SIZE - x, SIZE - y)
               for e in elements(parse(render_svg(cfg)), "text")
               for x, y in [(float(e.get("x")), float(e.get("y")))])


@pytest.mark.parametrize("box", [0.7, 0.25, 0.95])
def test_labels_stay_a_font_size_inside_the_figure(box):
    # labels sit 12% beyond their vertex, which put them past the edge
    # of the figure for vertices near the absolute
    margins = [_label_margins(build_config(random_triangle(instance_rng(seed, 0), box)[0]))
               for seed in range(200)]
    assert min(margins) >= FONT_SIZE


def test_labels_of_a_triangle_at_the_absolute_stay_inside():
    cfg = build_config(Triangle.of(*parse_triangle(NEAR_ABSOLUTE)))
    assert _label_margins(cfg) >= FONT_SIZE
