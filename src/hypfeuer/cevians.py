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
they meet inside the disk at all.  The tangent circles (incircle,
excircles) are centered at signed sums of the triangle's vertex vectors,
the cross products of the sides' unit hyperboloid normals
(`tangent_circles`); an absent excircle is a center vector that is not
timelike.  The circle inscribed in a vertex's angle and touching a
given circle from inside (the tangent-cevian check's shot) is a
quadratic in that vertex's frame; the point where two circles touch is
one radius from a center toward or away from the other center
(`tangent_contact`).

Everything degenerate is flagged on the returned TriangleConfig rather
than raised: large triangles routinely lose their circumcenter, their
pseudo-orthocenter, or one or more excircles beyond the absolute.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

from .errors import BracketFailure, DegenerateAngle, DivergentCevians, GeometryError
from .geom_core import (
    COINCIDENT_EPS,
    Triangle,
    mobius_from_origin,
    wrap_angle,
)
from .cycles import (
    INTERIOR_MARGIN,
    GeneralizedCycle,
    _circle_vector,
    _to_disk,
    _translate_raw,
    circle_from_center_radius,
    cycle_through,
    geodesic_meet,
    geodesic_through,
    hyp_center_radius,
    membership_residual,
    point_geodesic_distances,
)

VERTICES = ("a", "b", "c")

# an area bisector foot stays this far from the triangle vertices
EDGE_INSET = 1e-9

# a pseudoaltitude foot never passes this ideal-chord coordinate
IDEAL_LIMIT = 1.0 - 1e-6

_EPS = sys.float_info.epsilon


# the label of the first base endpoint b1 in Triangle.opposite(vertex)
_FIRST_BASE = {"a": "b", "b": "c", "c": "a"}


def _side_frame(tri: Triangle, vertex: str) -> tuple[complex, complex, float, float]:
    """The side opposite a vertex in the frame that moves its first
    endpoint b1 to the origin: b1, the second endpoint's image w there,
    the apex's Euclidean radius k and the base angle beta at b1.  The
    side point at radius t is mobius_from_origin(b1, t w / |w|).

    w and the apex's image are the triangle's rays at b1, and beta is
    complex_angle(apex, b1, b2) written out on them."""
    b1 = tri.opposite(vertex)[1]
    w, to_apex = tri.rays[_FIRST_BASE[vertex]]
    k = abs(to_apex)
    if k < COINCIDENT_EPS or abs(w) < COINCIDENT_EPS:
        raise DegenerateAngle("angle vertex coincides with a ray endpoint")
    return b1, w, k, abs(wrap_angle(cmath.phase(w) - cmath.phase(to_apex)))


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


def concurrency_point(lines) -> tuple[complex, float]:
    """Common point of several geodesics and its worst distance to the others.

    Each pair, in index order, is met inside the disk (geodesic_meet)
    and the meet is scored by its largest distance to the remaining
    lines; the first candidate with the smallest score wins.  Divergence
    (no pair meets inside the disk) is an error for the caller to flag.
    """
    lines = tuple(lines)
    n = len(lines)
    best_z = best_r = None
    for i in range(n - 1):
        for j in range(i + 1, n):
            z = geodesic_meet(lines[i], lines[j])
            if z is None:
                continue
            if n == 3:
                # the one remaining line
                r = point_geodesic_distances(z, (lines[3 - i - j],))[0]
            else:
                r = max(point_geodesic_distances(
                    z, lines[:i] + lines[i + 1:j] + lines[j + 1:]), default=0.0)
            if best_z is None or r < best_r:
                best_z, best_r = z, r
    if best_z is None:
        raise DivergentCevians("no pair of geodesics meets inside the disk")
    return best_z, best_r


@dataclass(frozen=True)
class CircleSpec:
    """A tangent circle with its construction diagnostics."""

    center: complex
    radius: float
    cycle: GeneralizedCycle
    side_spread: float  # max - min distance to the three side lines
    concurrency_residual: float  # distance from center to the bisector at c


def tangent_circles(tri: Triangle, sides: dict[str, GeneralizedCycle],
                    ) -> tuple[CircleSpec | None, dict[str, CircleSpec | None]]:
    """The incircle and the excircle beyond the side opposite each
    vertex, from the side lines that side_lines returns; None where a
    circle is absent.

    A side (A, B, A) is the hyperboloid plane with normal (A, Re B, Im B).
    Scaled to Minkowski norm sqrt(|B|^2 - A^2) = 1 and signed positive at
    the opposite vertex, the normal n_v takes sinh of the signed distance
    to the side.  The vertex vectors V_a = n_b x n_c, V_b = n_c x n_a and
    V_c = n_a x n_b each lie on two sides, and n_v . V_v = det(n_a, n_b,
    n_c) for every v.  So the signed sum V_a + V_b + V_c is equidistant
    from the three sides on the vertices' sides of them (the incenter),
    and V_a - V_b - V_c, on which n_a . X has the opposite sign to n_b . X
    and n_c . X, is the excenter beyond side a (and cyclically).  A center
    exists when its sum is timelike and its disk point keeps
    INTERIOR_MARGIN from the absolute, as in geodesic_meet.

    The radius is the mean of the three side distances; the diagnostics
    are their spread and the distance to the same sign pattern's
    bisector at c, n_a - n_b or n_a + n_b.
    """
    n = []
    for v in VERTICES:
        s = sides[v]
        scale = math.copysign(1.0 / math.sqrt(abs(s.b) ** 2 - s.a * s.a),
                              s.evaluate(tri.vertices[v]))
        n.append((scale * s.a, scale * s.b.real, scale * s.b.imag))
    (a1, x1, y1), (a2, x2, y2), (a3, x3, y3) = n
    # the t, x and y components of V_a, V_b and V_c
    vt = (x2 * y3 - y2 * x3, x3 * y1 - y3 * x1, x1 * y2 - y1 * x2)
    vx = (y2 * a3 - a2 * y3, y3 * a1 - a3 * y1, y1 * a2 - a1 * y2)
    vy = (a2 * x3 - x2 * a3, a3 * x1 - x3 * a1, a1 * x2 - x1 * a2)
    thirds: dict[float, GeneralizedCycle] = {}
    specs = []
    for sa, sb, sc in ((1.0, 1.0, 1.0), (1.0, -1.0, -1.0),
                       (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)):
        z = _to_disk(sa * vt[0] + sb * vt[1] + sc * vt[2],
                     sa * vx[0] + sb * vx[1] + sc * vx[2],
                     sa * vy[0] + sb * vy[1] + sc * vy[2])
        if z is None or abs(z) >= 1.0 - INTERIOR_MARGIN:
            specs.append(None)
            continue
        sign = sa * sb  # n_a . X = sign n_b . X on the bisector at c
        if sign not in thirds:
            ta = a1 - sign * a2
            thirds[sign] = GeneralizedCycle.of(
                ta, complex(x1 - sign * x2, y1 - sign * y2), ta)
        *ds, off_third = point_geodesic_distances(
            z, (sides["a"], sides["b"], sides["c"], thirds[sign]))
        radius = sum(ds) / 3.0
        specs.append(CircleSpec(z, radius, circle_from_center_radius(z, radius),
                                max(ds) - min(ds), off_third))
    return specs[0], dict(zip(VERTICES, specs[1:]))


def _shoot_tangent_circle(tri: Triangle, vertex: str,
                          w: GeneralizedCycle) -> GeneralizedCycle | None:
    """Circle inscribed in the angle at `vertex` and touching w from inside.

    In the frame that moves the vertex to the origin the angle's sides
    are diameters along unit directions u1 and u2, and its internal
    bisector runs along their normalized sum u.  With sin_half = sin(alpha/2) for the angle alpha, every circle
    inscribed in the angle is the Euclidean circle with center e u and
    radius e sin_half, for 0 < e (1 + sin_half) < 1.  If w has Euclidean
    center m and radius R in the frame, the circle touches w from inside
    where |e u - m| = R - e sin_half, i.e.

        (1 - sin_half^2) e^2 - 2 (Re(conj(u) m) - R sin_half) e
            + |m|^2 - R^2 = 0.

    The inscribed circle meets the bisector at the radii e (1 - sin_half)
    and e (1 + sin_half), so its center lies at arc length
    s = atanh(e (1 - sin_half)) + atanh(e (1 + sin_half)) from the vertex.
    The smallest root with s in (EDGE_INSET, 20] wins; the lower bound
    drops the trivial root at the vertex itself when w passes through it.
    Its coefficients in the frame, (1, -e u, e^2 (1 - sin_half^2)), are
    pulled back by one translation.  None when no root qualifies.
    """
    v = tri.opposite(vertex)[0]
    u1, u2 = tri.rays[vertex]
    u1, u2 = u1 / abs(u1), u2 / abs(u2)
    u = u1 + u2
    if abs(u) < 1e-12:
        # straight angle: the bisector is the perpendicular
        u = 1j * u1
    u /= abs(u)
    sin_half = abs((u * u1.conjugate()).imag)
    wa, wb, wc = _translate_raw(v, w.a, w.b, w.c)
    m = -wb / wa
    big_r = math.sqrt(max(abs(wb) ** 2 - wa * wc, 0.0)) / abs(wa)
    qa = 1.0 - sin_half * sin_half
    qb = -2.0 * ((u.conjugate() * m).real - big_r * sin_half)
    qc = abs(m) ** 2 - big_r * big_r
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return None
    # the sign-aware form, as in cycles.intersect
    q = -(qb + math.copysign(math.sqrt(disc), qb)) / 2.0
    if q == 0.0:
        return None
    for e in sorted((q / qa, qc / q)):
        near, far = e * (1.0 - sin_half), e * (1.0 + sin_half)
        if e <= 0.0 or far >= 1.0:
            continue
        s = math.atanh(near) + math.atanh(far)
        if EDGE_INSET < s <= 20.0:
            return GeneralizedCycle.of(*_translate_raw(-v, 1.0, -e * u, e * e * qa))
    return None


def tangent_contact(circle: GeneralizedCycle, other: GeneralizedCycle, inside: bool,
                    tol: float) -> tuple[complex | None, float]:
    """(contact, gap) of `circle` with the circle `other`: the point one
    radius r from circle's center O1 on the geodesic through other's
    center O2 (away from O2 when circle lies inside other, toward it when
    outside), and |d - (R -+ r)| for the distance d between the centers.

    On the hyperboloid N = O2 - <O1, O2> O1 is tangent at O1 with
    |N| = sinh d, so the point is cosh r O1 -+ sinh r N / |N|.  Only a true
    tangency puts it on other; cevians through homothetic centers would
    concur by Monge for any circles inscribed in the angles.  The contact
    is None for sinh d < eps / tol: with each center rounded by about eps,
    the direction between them could then be off by the tolerance.
    """
    t1, x1, y1, n1, s1 = _circle_vector(circle)
    t2, x2, y2, n2, s2 = _circle_vector(other)
    t1, x1, y1, t2, x2, y2 = t1 / n1, x1 / n1, y1 / n1, t2 / n2, x2 / n2, y2 / n2
    c = t1 * t2 - x1 * x2 - y1 * y2
    nt, nx, ny = t2 - c * t1, x2 - c * x1, y2 - c * y1
    sinh_d = math.sqrt(max(nx * nx + ny * ny - nt * nt, 0.0))
    sinh_r = s1 / n1
    r, big_r = math.asinh(sinh_r), math.asinh(s2 / n2)
    gap = abs(math.asinh(sinh_d) - (abs(big_r - r) if inside else big_r + r))
    if sinh_d * tol < _EPS:
        return None, gap
    cosh_r = math.sqrt(1.0 + sinh_r * sinh_r)
    k = (-sinh_r if inside else sinh_r) / sinh_d
    return _to_disk(cosh_r * t1 + k * nt, cosh_r * x1 + k * nx, cosh_r * y1 + k * ny), gap


@dataclass
class CevianFeet:
    """The feet that exist, keyed by the vertex they are dropped from."""

    bisector: dict[str, complex] = field(default_factory=dict)
    pseudoaltitude: dict[str, complex] = field(default_factory=dict)


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
        return any(f.startswith(prefixes) for f in self.flags)


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
    inc, excircles = tangent_circles(tri, sides)
    if inc is None:
        flags.add("no_incircle")
    flags.update(f"excircle_absent_{v}" for v, spec in excircles.items() if spec is None)

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
