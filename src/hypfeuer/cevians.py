"""Cevian constructions on a triangle and the centers built from them.

Both families of cevian feet have closed forms.  Move the base endpoint
B to the origin and the side BC onto the positive real axis; the apex A
then sits at Euclidean radius k at the angle beta = |angle(A, B, C)|,
and S is the triangle's area.

* The area bisector foot balances area(ABX) = area(AXC), so area(ABX)
  = S/2.  For X at radius t on the side, area(ABX) = 2 atan(k t sin(beta)
  / (1 - k t cos(beta))), which gives t = sin(S/4) / (k sin(beta + S/4)).
  The foot always lies strictly between B and C.
* The pseudoaltitude foot balances sigma(B, X, A) = sigma(A, X, C).
  sigma is additive over the cevian, so both sides equal S/2 there, and
  the locus of constant sigma(B, X, A) is a cycle through B and A.  It
  meets the side line at the signed radius t = k cos(beta + S/4) /
  cos(S/4).  A negative t puts the foot beyond B, like a Euclidean obtuse
  foot; past the ideal endpoints there is no foot.

The three bisector feet span the Euler circle, which also passes through
the three pseudoaltitude feet; the apex-to-foot geodesics of each family
meet in the bisector point and the pseudo-orthocenter respectively, when
they meet inside the disk at all.  Tangent circles (incircle, excircles)
come from the angle-bisector geodesics, built once per configuration.

Everything degenerate is flagged on the returned TriangleConfig rather
than raised: large triangles routinely lose their circumcenter, their
pseudo-orthocenter, or one or more excircles beyond the absolute.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import BracketFailure, DivergentCevians, GeometryError
from .geom_core import (
    DiskIsometry,
    Triangle,
    complex_angle,
    mobius_from_origin,
    mobius_to_origin,
)
from .cycles import (
    GeneralizedCycle,
    circle_from_center_radius,
    cycle_through,
    diameter_with_direction,
    geodesic_through,
    hyp_center_radius,
    interior_intersections,
    membership_residual,
    point_geodesic_distance,
    transform,
)

VERTICES = ("a", "b", "c")

# brent_root runs until the bracket is this narrow, unless told otherwise
BRACKET_WIDTH = 1e-14

# an area bisector foot stays this far from the triangle vertices
EDGE_INSET = 1e-9

# a pseudoaltitude foot never passes this ideal-chord coordinate
IDEAL_LIMIT = 1.0 - 1e-6


def brent_root(f, lo: float, hi: float, flo: float, fhi: float,
               width: float = BRACKET_WIDTH) -> tuple[float, float]:
    """Root of f in a sign-changing bracket, and the final bracket width.

    It serves instances._rebalance_quad, whose angle balance has no
    closed form.  Brent's method (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4): inverse quadratic or
    secant steps while they shrink the bracket fast enough, bisection
    otherwise.  It stops once the bracket is at most `width` wide and
    returns its end with the smaller |f|; flo and fhi are f at the
    bracket ends.
    """
    if flo == 0.0:
        return lo, 0.0
    if fhi == 0.0:
        return hi, 0.0
    # cur: best estimate; blk: the other end of the bracket; pre: last cur
    xpre, fpre = lo, flo
    xcur, fcur = hi, fhi
    xblk, fblk = lo, flo
    spre = scur = hi - lo
    delta = 0.5 * width
    for _ in range(200):
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        sbis = 0.5 * (xblk - xcur)
        if abs(sbis) <= delta:
            break
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
        if fcur == 0.0:
            return xcur, 0.0
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
    return xcur, abs(xblk - xcur)


def _side_frame(tri: Triangle, vertex: str) -> tuple[complex, complex, float, float]:
    """The side opposite a vertex in the frame that moves its first
    endpoint b1 to the origin: b1, the second endpoint's image w there,
    the apex's Euclidean radius k and the base angle beta at b1.  The
    side point at radius t is mobius_from_origin(b1, t w / |w|)."""
    apex, b1, b2 = tri.opposite(vertex)
    return (b1, mobius_to_origin(b1, b2), abs(mobius_to_origin(b1, apex)),
            abs(complex_angle(apex, b1, b2)))


def pseudoaltitude_foot(tri: Triangle, vertex: str) -> complex:
    """Foot of the pseudoaltitude from a vertex; it may lie beyond the side."""
    b1, w, k, beta = _side_frame(tri, vertex)
    quarter = tri.area / 4.0
    t = k * math.cos(beta + quarter) / math.cos(quarter)
    if abs(t) > IDEAL_LIMIT:
        raise BracketFailure("pseudoaltitude foot beyond the ideal endpoints")
    return mobius_from_origin(b1, t * w / abs(w))


def bisector_foot(tri: Triangle, vertex: str) -> complex:
    """Foot of the area-bisecting cevian from a vertex; always inside the segment."""
    b1, w, k, beta = _side_frame(tri, vertex)
    quarter = tri.area / 4.0
    t = math.sin(quarter) / (k * math.sin(beta + quarter))
    if not EDGE_INSET <= t <= abs(w) - EDGE_INSET:
        raise BracketFailure("area bisector foot outside the segment")
    return mobius_from_origin(b1, t * w / abs(w))


def side_lines(tri: Triangle) -> dict[str, GeneralizedCycle]:
    """Geodesic carrying the side opposite each vertex."""
    return {
        "a": geodesic_through(tri.b, tri.c),
        "b": geodesic_through(tri.c, tri.a),
        "c": geodesic_through(tri.a, tri.b),
    }


def bisector_direction(tri: Triangle, vertex: str) -> complex:
    """Unit direction of the internal angle bisector at a vertex, taken in
    the frame that moves the vertex to the origin, where the bisector of
    two unit directions is just their sum."""
    v, p, q = tri.opposite(vertex)
    u1 = mobius_to_origin(v, p)
    u2 = mobius_to_origin(v, q)
    u1, u2 = u1 / abs(u1), u2 / abs(u2)
    u = u1 + u2
    if abs(u) < 1e-12:
        # straight angle: fall back to the perpendicular
        u = 1j * u1
    return u / abs(u)


def vertex_bisector(tri: Triangle, vertex: str, external: bool = False) -> GeneralizedCycle:
    """Internal (or external) angle-bisector geodesic at a vertex."""
    u = bisector_direction(tri, vertex)
    if external:
        u *= 1j
    v = tri.opposite(vertex)[0]
    return transform(DiskIsometry.translation(-v), diameter_with_direction(u))


def concurrency_point(lines) -> tuple[complex, float]:
    """Common point of several geodesics and its worst distance to the others.

    Each pair is intersected inside the disk and the intersection is
    scored by its largest distance to the remaining lines; the candidate
    with the smallest score wins.  Divergence (no pair meets inside the
    disk) is an error for the caller to flag.
    """
    lines = list(lines)
    best = None
    for i, j in itertools.combinations(range(len(lines)), 2):
        pts = interior_intersections(lines[i], lines[j])
        if pts:
            r = max((point_geodesic_distance(pts[0], line)
                     for k, line in enumerate(lines) if k not in (i, j)), default=0.0)
            if best is None or r < best[1]:
                best = (pts[0], r)
    if best is None:
        raise DivergentCevians("no pair of geodesics meets inside the disk")
    return best


@dataclass(frozen=True)
class CircleSpec:
    """A tangent circle with its construction diagnostics."""

    center: complex
    radius: float
    cycle: GeneralizedCycle
    side_spread: float  # max - min distance to the three side lines
    concurrency_residual: float  # distance from center to the third bisector


def _tangent_spec(center: complex, third: GeneralizedCycle,
                  sides: dict[str, GeneralizedCycle]) -> CircleSpec:
    ds = [point_geodesic_distance(center, sides[v]) for v in VERTICES]
    radius = sum(ds) / 3.0
    return CircleSpec(center, radius, circle_from_center_radius(center, radius),
                      max(ds) - min(ds), point_geodesic_distance(center, third))


def _incircle(internal: dict[str, GeneralizedCycle],
              sides: dict[str, GeneralizedCycle]) -> CircleSpec:
    pts = interior_intersections(internal["a"], internal["b"])
    if not pts:
        raise DivergentCevians("internal bisectors diverge")
    return _tangent_spec(pts[0], internal["c"], sides)


def _excircle(vertex: str, internal: dict[str, GeneralizedCycle],
              external: dict[str, GeneralizedCycle],
              sides: dict[str, GeneralizedCycle]) -> CircleSpec | None:
    e1, e2 = (external[v] for v in VERTICES if v != vertex)
    pts = interior_intersections(internal[vertex], e1)
    if not pts:
        return None
    return _tangent_spec(pts[0], e2, sides)


def incircle(tri: Triangle) -> CircleSpec:
    return _incircle({v: vertex_bisector(tri, v) for v in VERTICES}, side_lines(tri))


def excircle(tri: Triangle, vertex: str) -> CircleSpec | None:
    """Escribed circle beyond the side opposite `vertex`, or None if absent.

    The center is the meet of the internal bisector at the vertex with an
    external bisector at another; if that pair diverges the circle does
    not exist (any interior meet is automatically equidistant from all
    three side lines, so pair intersection is a sound existence test).
    """
    return _excircle(vertex, {vertex: vertex_bisector(tri, vertex)},
                     {v: vertex_bisector(tri, v, external=True)
                      for v in VERTICES if v != vertex},
                     side_lines(tri))


@dataclass
class CevianFeet:
    """The feet that exist, keyed by the vertex they are dropped from."""

    bisector: dict[str, complex] = field(default_factory=dict)
    pseudoaltitude: dict[str, complex] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return len(self.bisector) == 3 and len(self.pseudoaltitude) == 3


@dataclass
class TriangleConfig:
    """Every derived object of one triangle, with degeneracy flags."""

    triangle: Triangle
    sides: dict[str, GeneralizedCycle]
    feet: CevianFeet
    bisector_cevians: dict[str, GeneralizedCycle]
    pseudoaltitude_cevians: dict[str, GeneralizedCycle]
    circumcircle: GeneralizedCycle
    circumcenter: complex | None
    circumradius: float | None
    euler_circle: GeneralizedCycle | None
    euler_center: complex | None
    euler_radius: float | None
    euler_membership: dict[str, float]
    bisector_point: complex | None
    bisector_residual: float | None
    pseudo_orthocenter: complex | None
    orthocenter_residual: float | None
    incircle: CircleSpec | None
    excircles: dict[str, CircleSpec | None]
    flags: list[str]

    def flagged(self, *prefixes: str) -> bool:
        """True if any flag starts with one of the given prefixes."""
        return any(f.startswith(p) for f in self.flags for p in prefixes)


def build_config(tri: Triangle) -> TriangleConfig:
    flags: set[str] = set()
    feet = CevianFeet()
    for v in VERTICES:
        try:
            feet.bisector[v] = bisector_foot(tri, v)
        except GeometryError:
            flags.add(f"bracket_failure_bisector_{v}")
        try:
            feet.pseudoaltitude[v] = pseudoaltitude_foot(tri, v)
        except GeometryError:
            flags.add(f"bracket_failure_pseudoaltitude_{v}")

    circumcircle = cycle_through(tri.a, tri.b, tri.c)
    circumcenter = circumradius = None
    try:
        circumcenter, circumradius = hyp_center_radius(circumcircle)
    except GeometryError:
        flags.add("no_circumcenter")

    euler_circle = euler_center = euler_radius = None
    euler_membership: dict[str, float] = {}
    if len(feet.bisector) == 3:
        euler_circle = cycle_through(feet.bisector["a"], feet.bisector["b"],
                                     feet.bisector["c"])
        for v, foot in feet.pseudoaltitude.items():
            euler_membership[v] = membership_residual(euler_circle, foot)
        try:
            euler_center, euler_radius = hyp_center_radius(euler_circle)
        except GeometryError:
            flags.add("no_euler_center")
    else:
        flags.add("no_euler_circle")

    verts = tri.vertices
    bisector_cevians = {v: geodesic_through(verts[v], feet.bisector[v])
                        for v in feet.bisector}
    pseudoaltitude_cevians = {v: geodesic_through(verts[v], feet.pseudoaltitude[v])
                              for v in feet.pseudoaltitude}

    bisector_point = bisector_residual = None
    if len(bisector_cevians) == 3:
        try:
            bisector_point, bisector_residual = concurrency_point(
                bisector_cevians[v] for v in VERTICES)
        except DivergentCevians:
            flags.add("divergent_bisector_cevians")
    else:
        flags.add("divergent_bisector_cevians")

    pseudo_orthocenter = orthocenter_residual = None
    if len(pseudoaltitude_cevians) == 3:
        try:
            pseudo_orthocenter, orthocenter_residual = concurrency_point(
                pseudoaltitude_cevians[v] for v in VERTICES)
        except DivergentCevians:
            flags.add("divergent_pseudoaltitude_cevians")
    else:
        flags.add("divergent_pseudoaltitude_cevians")

    sides = side_lines(tri)
    internal = {v: vertex_bisector(tri, v) for v in VERTICES}
    external = {v: vertex_bisector(tri, v, external=True) for v in VERTICES}
    inc = None
    try:
        inc = _incircle(internal, sides)
    except GeometryError:
        flags.add("no_incircle")

    excircles: dict[str, CircleSpec | None] = {}
    for v in VERTICES:
        try:
            excircles[v] = _excircle(v, internal, external, sides)
        except GeometryError:
            excircles[v] = None
        if excircles[v] is None:
            flags.add(f"excircle_absent_{v}")

    return TriangleConfig(
        triangle=tri,
        sides=sides,
        feet=feet,
        bisector_cevians=bisector_cevians,
        pseudoaltitude_cevians=pseudoaltitude_cevians,
        circumcircle=circumcircle,
        circumcenter=circumcenter,
        circumradius=circumradius,
        euler_circle=euler_circle,
        euler_center=euler_center,
        euler_radius=euler_radius,
        euler_membership=euler_membership,
        bisector_point=bisector_point,
        bisector_residual=bisector_residual,
        pseudo_orthocenter=pseudo_orthocenter,
        orthocenter_residual=orthocenter_residual,
        incircle=inc,
        excircles=excircles,
        flags=sorted(flags),
    )
