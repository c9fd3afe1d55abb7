"""Deterministic SVG figures of triangle configurations in the disk.

Geodesics are drawn as what they are: circular arcs meeting the
boundary circle at right angles, or straight diameters.  Cycles that
cross the absolute (equidistants, circumcircles of large triangles) are
clipped to their in-disk arc, the one the sampler takes
(``cycles.disk_arc``).  Every figure draws the same layers in the same
order (triangle, cevians, circumcircle, Euler circle, incircle,
excircles, feet, centers), skipping only objects the configuration
lacks.  All coordinates are emitted with fixed 4-decimal formatting so
identical inputs give identical bytes.
"""

from __future__ import annotations

import cmath
import math

from .cevians import TriangleConfig, cevian_pencils
from .cycles import GeneralizedCycle, coefficient_center_radius, disk_arc, geodesic_of_normal

# figure width and height, and the gap between the absolute and the edge
SIZE = 560
MARGIN = 20.0
FONT_SIZE = 14
# the largest |z| of a label anchor that lies a font size inside the edge
LABEL_REACH = (SIZE / 2.0 - FONT_SIZE) / (SIZE / 2.0 - MARGIN)


class _Canvas:
    def __init__(self):
        self.scale = SIZE / 2.0 - MARGIN
        self.mid = SIZE / 2.0
        self.parts: list[str] = []

    def xy(self, z: complex) -> tuple[float, float]:
        return self.mid + self.scale * z.real, self.mid - self.scale * z.imag

    def circle(self, elem_id: str, center: complex, radius: float,
               stroke: str, width: float):
        cx, cy = self.xy(center)
        self.parts.append(
            f'<circle id="{elem_id}" cx="{cx:.4f}" cy="{cy:.4f}" '
            f'r="{radius * self.scale:.4f}" fill="none" '
            f'stroke="{stroke}" stroke-width="{width}"/>')

    def dot(self, elem_id: str, z: complex, color: str, r: float = 2.6):
        cx, cy = self.xy(z)
        self.parts.append(
            f'<circle id="{elem_id}" cx="{cx:.4f}" cy="{cy:.4f}" '
            f'r="{r}" fill="{color}" stroke="none"/>')

    def line(self, elem_id: str, p: complex, q: complex, stroke: str, width: float):
        x1, y1 = self.xy(p)
        x2, y2 = self.xy(q)
        self.parts.append(
            f'<line id="{elem_id}" x1="{x1:.4f}" y1="{y1:.4f}" '
            f'x2="{x2:.4f}" y2="{y2:.4f}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')

    def arc(self, elem_id: str, p: complex, q: complex, radius: float,
            large: bool, sweep: int, stroke: str, width: float):
        x1, y1 = self.xy(p)
        x2, y2 = self.xy(q)
        r = f"{radius * self.scale:.4f}"
        self.parts.append(
            f'<path id="{elem_id}" d="M {x1:.4f} {y1:.4f} '
            f'A {r} {r} 0 {1 if large else 0} {sweep} '
            f'{x2:.4f} {y2:.4f}" fill="none" '
            f'stroke="{stroke}" stroke-width="{width}"/>')

    def text(self, elem_id: str, z: complex, s: str):
        x, y = self.xy(z)
        self.parts.append(
            f'<text id="{elem_id}" x="{x:.4f}" y="{y:.4f}" '
            f'font-size="{FONT_SIZE}" font-family="serif" text-anchor="middle">{s}</text>')


def _draw_segment(cv: _Canvas, elem_id: str, cycle: GeneralizedCycle,
                  p: complex, q: complex, stroke: str, width: float):
    """Geodesic segment between two interior points along their geodesic."""
    if cycle.is_line:
        cv.line(elem_id, p, q, stroke, width)
        return
    ec, er = coefficient_center_radius(cycle.a, cycle.b, cycle.c)
    ang = cmath.phase((q - ec) / (p - ec))
    # interior-to-interior arcs of an orthogonal circle always span < pi
    sweep = 0 if ang > 0 else 1
    cv.arc(elem_id, p, q, er, False, sweep, stroke, width)


def _draw_cycle(cv: _Canvas, elem_id: str, cycle: GeneralizedCycle,
                stroke: str, width: float):
    """Whole cycle, clipped to the unit disk: a whole circle where it does
    not cross the absolute twice (disk_arc), otherwise a line or an arc
    between disk_arc's crossings, with the large-arc flag where the arc
    turns by more than pi (|kappa| 2 half > pi).  Every cycle of a
    configuration passes through interior points, so one that does not
    cross lies inside."""
    arc = disk_arc(cycle, 0.0)
    if arc is None:
        cv.circle(elem_id, *coefficient_center_radius(cycle.a, cycle.b, cycle.c),
                  stroke, width)
        return
    (_, _, kappa), (p, q), half = arc
    if cycle.is_line:
        cv.line(elem_id, p, q, stroke, width)
    else:
        # p to q runs along the tangent: counterclockwise, as sweep 0
        # draws, where kappa > 0
        er = coefficient_center_radius(cycle.a, cycle.b, cycle.c)[1]
        cv.arc(elem_id, *((p, q) if kappa > 0.0 else (q, p)), er,
               abs(kappa) * 2.0 * half > math.pi, 0, stroke, width)


def render_svg(cfg: TriangleConfig) -> str:
    cv = _Canvas()
    tri = cfg.triangle
    verts = tri.vertices

    cv.circle("absolute", 0j, 1.0, "#000000", 1.5)

    for v, side in cfg.sides.items():
        _, p, q = tri.opposite(v)
        _draw_segment(cv, f"side-{v}", side, p, q, "#1a1a1a", 1.6)
    for v in ("a", "b", "c"):
        z = verts[v]
        cv.dot(f"vertex-{v}", z, "#1a1a1a", 3.0)
        # 12% beyond the vertex, but never past LABEL_REACH
        cv.text(f"label-{v}", z * min(1.12, LABEL_REACH / abs(z)) if abs(z) > 1e-9
                else z + 0.06, v)

    # a pencil holds a cevian exactly where its foot exists and its line is a geodesic
    pencils = cevian_pencils(cfg)
    for family, stroke in (("bisector", "#7a7a7a"), ("pseudoaltitude", "#bbbbbb")):
        feet = getattr(cfg.feet, family)
        for v, n in sorted(pencils[family][0].items()):
            _draw_segment(cv, f"{family}-cevian-{v}", geodesic_of_normal(n), verts[v],
                          feet[v], stroke, 0.9)

    _draw_cycle(cv, "circumcircle", cfg.circumcircle, "#9467bd", 1.1)

    if cfg.euler_circle is not None:
        _draw_cycle(cv, "euler-circle", cfg.euler_circle, "#d62728", 1.4)

    if cfg.incircle is not None:
        _draw_cycle(cv, "incircle", cfg.incircle.cycle, "#2ca02c", 1.2)

    for v, spec in sorted(cfg.excircles.items()):
        if spec is not None:
            _draw_cycle(cv, f"excircle-{v}", spec.cycle, "#17becf", 1.0)

    for v, z in sorted(cfg.feet.bisector.items()):
        cv.dot(f"foot-bisector-{v}", z, "#1f77b4", 2.2)
    for v, z in sorted(cfg.feet.pseudoaltitude.items()):
        cv.dot(f"foot-pseudoaltitude-{v}", z, "#ff7f0e", 2.2)

    named = {
        "circumcenter": cfg.circumcenter,
        "euler-center": cfg.euler_center,
        "bisector-point": pencils["bisector"][1],
        "pseudo-orthocenter": pencils["pseudoaltitude"][1],
        "incenter": cfg.incircle.center if cfg.incircle else None,
    }
    for name, z in named.items():
        if z is not None:
            cv.dot(f"point-{name}", z, "#d62728", 2.4)

    body = "\n".join(cv.parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
        f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">\n'
        f'{body}\n</svg>\n'
    )
