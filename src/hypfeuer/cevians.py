"""Cevian constructions on a triangle and the centers built from them.

Both families of cevian feet have closed forms in one complex number
per side.  Move the base endpoint B to the origin and the side BC onto
the positive real axis; the apex A then sits at x + iy with y >= 0.
With S the triangle's area and tau = tan(S/4), let zeta = (x + iy)(1 +
i tau), that is k e^{i(beta + S/4)} / cos(S/4) for the apex at
Euclidean radius k and angle beta.

* The area bisector foot balances area(ABX) = area(AXC), so area(ABX)
  = S/2.  For X at radius t on the side, area(ABX) = 2 atan(t y / (1 -
  t x)), which gives t = tau / Im(zeta).  The foot always lies strictly
  between B and C.
* The pseudoaltitude foot balances sigma(B, X, A) = sigma(A, X, C).
  sigma is additive over the cevian, so both sides equal S/2 there, and
  the locus of constant sigma(B, X, A) is a cycle through B and A.  It
  meets the side line at the signed radius t = Re(zeta).  A negative t
  puts the foot beyond B, like a Euclidean obtuse foot; past the ideal
  endpoints there is no foot.

Neither form takes a phase: a base angle taken as a difference of two
phases carries their rounding, up to a few ulps of pi, where y carries
that of one complex product.

The three bisector feet span the Euler circle, which also passes through
the three pseudoaltitude feet; the apex-to-foot geodesics of each family
meet in the bisector point and the pseudo-orthocenter respectively, when
they meet inside the disk at all.  Each vertex and foot is lifted to the
hyperboloid once, each side and cevian is the normal of its plane, the
cross product of two lifts, and a family's concurrency is the pencil of
its normals, which `concurrency_point` scales to unit normals.  The
tangent circles (incircle, excircles) are centered at signed sums of the
vertex lifts, each weighted by the norm of the opposite side's normal
(`tangent_circles`); an absent excircle is a center vector that is not
timelike, or one so near the absolute that the circle built about it
reads back as no circle, each with its own flag.  The
circle inscribed in a vertex's angle and touching a given circle from
inside (the tangent-cevian check's shot) is a quadratic in that
vertex's frame; the point where two circles touch is one radius from a
center toward or away from the other center, a hyperboloid vector
(`tangent_contact`).

An object that cannot exist is None on the returned TriangleConfig, not
raised: large triangles routinely lose their circumcenter, their
pseudo-orthocenter, or one or more excircles beyond the absolute.
"""

from __future__ import annotations

import math
import sys

from .errors import (BracketFailure, DegenerateAngle, DegenerateTriangle,
                     DivergentCevians, GeometryError, NoHyperbolicCenter)
from .geom_core import (
    COINCIDENT_EPS,
    Record,
    Triangle,
    mobius_from_origin,
    mobius_to_origin,
)
from .cycles import (
    GeneralizedCycle,
    _circle_vector,
    _translate_raw,
    circle_from_center_radius,
    coefficient_center_radius,
    cycle_through,
    geodesic_of_normal,
    hyp_center_radius,
    meet_point,
    membership_residual,
    plane_distances,
    point_lift,
    sign_aware_q,
    through_normal,
    unit_normal,
)

VERTICES = ("a", "b", "c")

# a hyperboloid vector (t, x, y): a lift, a normal or a meet
Vector = tuple[float, float, float]

# a circle as its unit center vector and sinh of its radius (circle_vector)
CircleVector = tuple[float, float, float, float]

# an area bisector foot stays this far from the triangle vertices
EDGE_INSET = 1e-9

# a pseudoaltitude foot never passes this ideal-chord coordinate
IDEAL_LIMIT = 1.0 - 1e-6

_EPS = sys.float_info.epsilon


# a side in its frame (_side_frame): b1, the unit direction u of the
# side at b1, the radius s of b2 there, zeta and tau
SideFrame = tuple[complex, complex, float, complex, float]


def _side_frame(tri: Triangle, vertex: str) -> SideFrame:
    """The side opposite a vertex in the frame that moves its first
    endpoint b1 to the origin and turns the side onto the positive real
    axis: (b1, u, s, zeta, tau), as in the module docstring.  The side
    point at radius t is mobius_from_origin(b1, t u)."""
    apex, b1, b2 = tri.opposite(vertex)
    w = mobius_to_origin(b1, b2)
    z = mobius_to_origin(b1, apex)
    s = abs(w)
    if abs(z) < COINCIDENT_EPS or s < COINCIDENT_EPS:
        raise DegenerateAngle("angle vertex coincides with a ray endpoint")
    u = w / s
    p = z * u.conjugate()
    tau = math.tan(tri.area / 4.0)
    return b1, u, s, complex(p.real, abs(p.imag)) * complex(1.0, tau), tau


def pseudoaltitude_foot(frame: SideFrame) -> complex:
    """Foot of the pseudoaltitude onto a side frame's side, at radius
    Re(zeta); it may lie beyond the side."""
    b1, u, _, zeta, _ = frame
    t = zeta.real
    if abs(t) > IDEAL_LIMIT:
        raise BracketFailure("pseudoaltitude foot beyond the ideal endpoints")
    return mobius_from_origin(b1, t * u)


def bisector_foot(frame: SideFrame) -> complex:
    """Foot of the area-bisecting cevian onto a side frame's side, at
    radius tau / Im(zeta); always inside the segment."""
    b1, u, s, zeta, tau = frame
    t = tau / zeta.imag
    if not EDGE_INSET <= t <= s - EDGE_INSET:
        raise BracketFailure("area bisector foot outside the segment")
    return mobius_from_origin(b1, t * u)


# the cross product of two coinciding unit normals is rounding alone,
# at most a few eps times their norms; over 9,600 drawn triangles in
# four boxes the smallest honest pencil's ratio was 7.0e-5
_COINCIDENT_RATIO = 16.0 * sys.float_info.epsilon


def concurrency_point(normals) -> tuple[complex, float]:
    """Common point of geodesics given by their normals, of any scale and
    sign, and its worst distance to the other lines; NotACycle when a
    normal is not spacelike.

    Each normal is scaled to a unit normal first (unit_normal).  Two
    geodesics meet on the cross product m of their unit normals, and
    q = m_t^2 - |m_xy|^2 is sin^2 of their angle when they meet.  The
    pair with the largest q is the most transversal one, and its meet
    (meet_point) is the point; its distance to every other line
    n_k is asinh(|n_k . m| / sqrt(q)), i.e. |det(n_i, n_j, n_k)| over
    sqrt(q), the pencil determinant (plane_distances).  DivergentCevians
    when that meet is not timelike, or when the pair's m is no longer
    than its rounding (|m| <= 16 eps |n_i| |n_j|, Euclidean norms): the
    two lines coincide and m has no direction.  The caller flags either.
    """
    normals = tuple(unit_normal(n) for n in normals)
    count = len(normals)
    best_q, best = -math.inf, None
    for i in range(count - 1):
        for j in range(i + 1, count):
            m = mt, mx, my = through_normal(normals[i], normals[j])
            q = mt * mt - mx * mx - my * my
            if q > best_q:
                best_q, best = q, (i, j, m)
    if best is not None:
        i, j, m = best
        scale = math.hypot(*normals[i]) * math.hypot(*normals[j])
        if math.hypot(*m) <= _COINCIDENT_RATIO * scale:
            raise DivergentCevians("the lines coincide")
        z = meet_point(*m)
        if z is not None:
            others = normals[:i] + normals[i + 1:j] + normals[j + 1:]
            return z, max(plane_distances(m, others), default=0.0)
    raise DivergentCevians("the most transversal pair does not meet inside the disk")


class CircleSpec(Record):
    """A tangent circle and how far its built cycle is from touching
    the three sides."""

    __slots__ = ("center", "radius", "cycle", "tangency_gap")


def tangent_circles(lifts: dict[str, Vector], side_normals: dict[str, Vector],
                    flags: set[str],
                    ) -> tuple[CircleSpec | None, dict[str, CircleSpec | None]]:
    """The incircle and the excircle beyond the side opposite each
    vertex, from the vertex lifts L_v (point_lift) and the side normals
    n_a = L_b x L_c, n_b = L_c x L_a, n_c = L_a x L_b (through_normal);
    None where a circle is absent, with the flag that names why added
    to flags: no_incircle or excircle_absent_v where its center vector
    is not timelike, and incircle_center_at_absolute or
    excircle_center_at_absolute_v where the circle built about it has
    its center rounded onto the absolute and reads back as no circle.

    n_a vanishes on L_b and L_c and takes det(L_a, L_b, L_c) = D at L_a,
    and so does every side at its opposite vertex.  So the sum
    X = |n_a| L_a + |n_b| L_b + |n_c| L_c, with |n| = sqrt(n_x^2 + n_y^2
    - n_t^2), has n_v . X = D |n_v| for each side v: X is the same
    distance asinh(|D| / sqrt(<X, X>)) from the three sides, on the
    vertices' sides of them (the incenter).  Flipping the sign of
    |n_a| L_a flips the sign of n_a . X alone: the excenter beyond side a
    (and cyclically).  As |n_a| = sinh(a) |L_b| |L_c| for the side length
    a, X is the sum sinh(a) A + sinh(b) B + sinh(c) C of the unit vertex
    vectors times a common factor.  A center exists where its sum is
    timelike, and meet_point reads it as a disk point.  A side whose
    normal is not spacelike, its vertices equal to rounding, raises
    DegenerateTriangle.

    The radius is the mean of the three side distances
    (plane_distances).  The built circle's center and radius are read
    back from its own coefficients (_circle_vector); tangency_gap is the
    worst difference between that center's distance to a side and that
    radius.
    """
    units, weighted = [], []
    for v in VERTICES:
        n0, n1, n2 = side_normals[v]
        norm2 = n1 * n1 + n2 * n2 - n0 * n0
        if norm2 <= 0.0:
            # two vertices so close that their side rounds to no geodesic
            raise DegenerateTriangle(f"side {v} has no spacelike normal")
        norm = math.sqrt(norm2)
        units.append((n0 / norm, n1 / norm, n2 / norm))
        lt, lx, ly = lifts[v]
        weighted.append((norm * lt, norm * lx, norm * ly))
    (at, ax, ay), (bt, bx, by), (ct, cx, cy) = weighted
    specs = []
    for v, (sa, sb, sc) in zip(("", *VERTICES), ((1.0, 1.0, 1.0), (-1.0, 1.0, 1.0),
                                                 (1.0, -1.0, 1.0), (1.0, 1.0, -1.0))):
        x = (sa * at + sb * bt + sc * ct, sa * ax + sb * bx + sc * cx,
             sa * ay + sb * by + sc * cy)
        z = meet_point(*x)
        if z is None:
            flags.add(f"excircle_absent_{v}" if v else "no_incircle")
            specs.append(None)
            continue
        radius = sum(plane_distances(x, units)) / 3.0
        cycle = circle_from_center_radius(z, radius)
        try:
            pt, px, py, norm, s = _circle_vector(cycle)
        except NoHyperbolicCenter:
            flags.add(f"excircle_center_at_absolute_{v}" if v else "incircle_center_at_absolute")
            specs.append(None)
            continue
        back = math.asinh(s / norm)
        da, db, dc = plane_distances((pt, px, py), units)
        gap = max(abs(da - back), abs(db - back), abs(dc - back))
        specs.append(CircleSpec(z, radius, cycle, gap))
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
    v, p, q = tri.opposite(vertex)
    u1, u2 = mobius_to_origin(v, p), mobius_to_origin(v, q)
    u1, u2 = u1 / abs(u1), u2 / abs(u2)
    u = u1 + u2
    if abs(u) < 1e-12:
        # straight angle: the bisector is the perpendicular
        u = 1j * u1
    u /= abs(u)
    sin_half = abs((u * u1.conjugate()).imag)
    m, big_r = coefficient_center_radius(*_translate_raw(v, w.a, w.b, w.c))
    qa = 1.0 - sin_half * sin_half
    qb = -2.0 * ((u.conjugate() * m).real - big_r * sin_half)
    qc = abs(m) ** 2 - big_r * big_r
    q = sign_aware_q(qa, qb, qc)
    if q is None or q == 0.0:
        return None
    for e in sorted((q / qa, qc / q)):
        near, far = e * (1.0 - sin_half), e * (1.0 + sin_half)
        if e <= 0.0 or far >= 1.0:
            continue
        s = math.atanh(near) + math.atanh(far)
        if EDGE_INSET < s <= 20.0:
            return GeneralizedCycle.of(*_translate_raw(-v, 1.0, -e * u, e * e * qa))
    return None


def tangent_contact(circle: CircleVector, other: CircleVector, inside: bool,
                    tol: float) -> tuple[Vector | None, float]:
    """(contact, gap) of two circles given as (O_t, O_x, O_y, sinh r)
    (circle_vector): the unit hyperboloid vector one radius r from
    circle's center O1 on the geodesic through other's center O2 (away
    from O2 when circle lies inside other, toward it when outside), and
    |d - (R -+ r)| for the distance d between the centers.

    N = O2 - <O1, O2> O1 is tangent at O1 with |N| = sinh d, so the point
    is cosh r O1 -+ sinh r N / |N|.  Only a true tangency puts it on
    other; cevians through homothetic centers would concur by Monge for
    any circles inscribed in the angles.  The contact is None for
    sinh d < eps / tol: with each center rounded by about eps, the
    direction between them could then be off by the tolerance.
    """
    t1, x1, y1, sinh_r = circle
    t2, x2, y2, sinh_big = other
    c = t1 * t2 - x1 * x2 - y1 * y2
    nt, nx, ny = t2 - c * t1, x2 - c * x1, y2 - c * y1
    sinh_d = math.sqrt(max(nx * nx + ny * ny - nt * nt, 0.0))
    r, big_r = math.asinh(sinh_r), math.asinh(sinh_big)
    gap = abs(math.asinh(sinh_d) - (abs(big_r - r) if inside else big_r + r))
    if sinh_d * tol < _EPS:
        return None, gap
    cosh_r = math.sqrt(1.0 + sinh_r * sinh_r)
    k = (-sinh_r if inside else sinh_r) / sinh_d
    return (cosh_r * t1 + k * nt, cosh_r * x1 + k * nx, cosh_r * y1 + k * ny), gap


class CevianFeet(Record):
    """The feet that exist, keyed by the vertex they are dropped from."""

    __slots__ = ("bisector", "pseudoaltitude")


class TriangleConfig(Record):
    """Every derived object of one triangle: one that does not exist is
    None or missing from its dict, and `flags` say why, for the report.

    Each vertex and foot is lifted once (point_lift), and each side and
    cevian is kept as its normal, the cross product of its two lifts
    (through_normal): the checks read these.  The geodesics that
    construct and render print, `sides`, `bisector_cevians` and
    `pseudoaltitude_cevians`, are built from the stored normals on each
    read, bit for bit what geodesic_through gives.

    The cevian pencils are `euler_membership`, `bisector_normals`,
    `pseudoaltitude_normals`, `bisector_point`, `bisector_residual`,
    `pseudo_orthocenter` and `orthocenter_residual`.  A configuration
    built without them (build_config's pencils false) holds {} and None
    there, and its flags name no divergent pencil.
    """

    __slots__ = ("triangle", "feet", "lifts", "side_normals", "bisector_normals",
                 "pseudoaltitude_normals", "circumcircle", "circumcenter",
                 "circumradius", "euler_circle", "euler_center", "euler_radius",
                 "euler_membership", "bisector_point", "bisector_residual",
                 "pseudo_orthocenter", "orthocenter_residual", "incircle",
                 "excircles", "flags")

    @property
    def sides(self) -> dict[str, GeneralizedCycle]:
        """Geodesic carrying the side opposite each vertex."""
        return {v: geodesic_of_normal(n) for v, n in self.side_normals.items()}

    @property
    def bisector_cevians(self) -> dict[str, GeneralizedCycle]:
        return {v: geodesic_of_normal(n) for v, n in self.bisector_normals.items()}

    @property
    def pseudoaltitude_cevians(self) -> dict[str, GeneralizedCycle]:
        return {v: geodesic_of_normal(n) for v, n in self.pseudoaltitude_normals.items()}


def _concurrency(normals: dict[str, Vector], flag: str, flags: set[str]):
    """(point, residual) of a cevian family with all three feet, or
    (None, None): with the flag added when the three cevians do not
    meet, and without it when a foot is missing, whose bracket_failure
    flag already names the cause."""
    if len(normals) == 3:
        try:
            return concurrency_point([normals[v] for v in VERTICES])
        except DivergentCevians:
            flags.add(flag)
    return None, None


def build_config(tri: Triangle, pencils: bool = True) -> TriangleConfig:
    """Every derived object of a triangle (TriangleConfig), built in one
    fixed order.  With pencils false the cevian pencils are left out:
    the Euler membership of the pseudoaltitude feet, both families'
    cevian normals and their concurrency points, which only the Euler
    suites read.  Their dicts are then empty, their points and
    residuals None, and no divergent_* flag is set; every other object
    and flag is built as with pencils true."""
    flags: set[str] = set()
    feet = CevianFeet({}, {})
    for v in VERTICES:
        frame = _side_frame(tri, v)
        try:
            feet.bisector[v] = bisector_foot(frame)
        except BracketFailure:
            flags.add(f"bracket_failure_bisector_{v}")
        try:
            feet.pseudoaltitude[v] = pseudoaltitude_foot(frame)
        except BracketFailure:
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
        if pencils:
            for v, foot in feet.pseudoaltitude.items():
                euler_membership[v] = membership_residual(euler_circle, foot)
        try:
            euler_center, euler_radius = hyp_center_radius(euler_circle)
        except GeometryError:
            flags.add("no_euler_center")
    else:
        flags.add("no_euler_circle")

    lifts = {v: point_lift(z) for v, z in tri.vertices.items()}
    la, lb, lc = lifts["a"], lifts["b"], lifts["c"]
    # the order of geodesic_through(b, c), (c, a) and (a, b)
    side_normals = {"a": through_normal(lb, lc), "b": through_normal(lc, la),
                    "c": through_normal(la, lb)}
    bisector_normals: dict[str, Vector] = {}
    pseudoaltitude_normals: dict[str, Vector] = {}
    bisector_point = bisector_residual = pseudo_orthocenter = orthocenter_residual = None
    if pencils:
        bisector_normals = {v: through_normal(lifts[v], point_lift(foot))
                            for v, foot in feet.bisector.items()}
        pseudoaltitude_normals = {v: through_normal(lifts[v], point_lift(foot))
                                  for v, foot in feet.pseudoaltitude.items()}
        bisector_point, bisector_residual = _concurrency(
            bisector_normals, "divergent_bisector_cevians", flags)
        pseudo_orthocenter, orthocenter_residual = _concurrency(
            pseudoaltitude_normals, "divergent_pseudoaltitude_cevians", flags)

    inc, excircles = tangent_circles(lifts, side_normals, flags)

    return TriangleConfig(
        triangle=tri,
        feet=feet,
        lifts=lifts,
        side_normals=side_normals,
        bisector_normals=bisector_normals,
        pseudoaltitude_normals=pseudoaltitude_normals,
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
