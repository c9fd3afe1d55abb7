"""Residual-based checks for the classical statements this package covers.

Every check returns a TheoremCheck: a named residual compared against a
tolerance, with a witness dictionary holding the objects involved.  A
check never raises on a degenerate instance; it returns status
"skipped" with a named reason instead, so suite statistics stay honest
(nothing absent is silently dropped).  A triangle check skips when an
object it reads is None on the TriangleConfig, never on its flags.

Tolerance tiers: constructive identities get 1e-10, single theorem
statements 1e-9, and results sitting at the end of a tangency or
concurrency chain 1e-8, because error compounds through the stacked
constructions and contact-point extraction.

This module only verifies: what a check builds or samples lives with
its objects in ``geom_core``, ``cycles`` or ``cevians``, where the
instance generators reach it without importing the checks.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import (
    AxisOutsideDisk,
    CoincidentPoints,
    ConcentricCycles,
    DegenerateAngle,
    DegenerateConfiguration,
    DegenerateTriangle,
    DivergentCevians,
    GeometryError,
    MissingCenter,
    NoHyperbolicCenter,
    NotACircle,
)
from .geom_core import (
    TAU,
    Record,
    convex_quad_angles,
    disk_distance,
    sigma,
    signed_angle,
    triangle_area,
)
from .cycles import (
    CycleClass,
    GeneralizedCycle,
    _arc_samples,
    circle_vector,
    classify,
    geodesic_through,
    hyp_center_radius,
    lexell_cycle,
    membership_residual,
    point_geodesic_distance,
    sample_points,
    tangency_residual,
    through_normal,
)
from .cevians import (
    TriangleConfig,
    _shoot_tangent_circle,
    concurrency_point,
    tangent_contact,
)
from .power import (
    MONGE_PATTERNS,
    monge_centers,
    monge_line,
    power_of_point,
    pseudolength,
    radical_axis,
)


class Tolerances(Record):
    __slots__ = ("construct", "theorem", "chain")

    def __init__(self, construct: float = 1e-10, theorem: float = 1e-9,
                 chain: float = 1e-8):
        self.construct = construct
        self.theorem = theorem
        self.chain = chain


DEFAULT_TOLERANCES = Tolerances()


class TheoremCheck(Record):
    __slots__ = ("name", "residual", "tolerance", "status", "flag", "witness")

    def __init__(self, name: str, residual: float | None, tolerance: float,
                 status: str, flag: str | None = None, witness: dict | None = None):
        self.name = name
        self.residual = residual
        self.tolerance = tolerance
        self.status = status  # "pass" | "fail" | "skipped"
        self.flag = flag
        self.witness = {} if witness is None else witness


def _finish(name: str, residual: float, tolerance: float,
            witness: dict | None = None) -> TheoremCheck:
    status = "pass" if residual <= tolerance else "fail"
    return TheoremCheck(name, residual, tolerance, status, None, witness)


def _skip(name: str, tolerance: float, flag: str,
          witness: dict | None = None) -> TheoremCheck:
    return TheoremCheck(name, None, tolerance, "skipped", flag, witness)


class InstanceReport(Record):
    __slots__ = ("index", "instance", "flags", "checks")

    def __init__(self, index: int, instance: dict, flags: list[str],
                 checks: list[TheoremCheck]):
        self.index = index
        self.instance = instance
        self.flags = flags
        self.checks = checks


class VerificationReport(Record):
    __slots__ = ("seed", "params", "instances", "wall_time")

    def __init__(self, seed: int, params: dict, instances: list[InstanceReport],
                 wall_time: float = 0.0):
        self.seed = seed
        self.params = params
        self.instances = instances
        self.wall_time = wall_time

    def counts(self) -> Counter:
        """How many checks have each status ("pass", "fail" or "skipped"),
        0 for a status no check has."""
        return Counter(c.status for inst in self.instances for c in inst.checks)


# ---------------------------------------------------------------- lemma: arcs

# Samples per arc, its degree bound plus one.  For x off a and b,
#
#     sigma(a, x, b) = 2 arg((b - x)/(a - x)) - 2 arg(1 - b conj(a)) + pi
#
# (mod 2 pi), and x -> (b - x)/(a - x) is a Mobius map sending the cycle
# through a and b onto a line through 0.  The cycle's rational parameter
# t enters through a Mobius map too, so sigma = const on it exactly when
# Im(e^{-i theta} (alpha t + beta)/(gamma t + delta)) vanishes, i.e. when
# a real quadratic in t does: 3 samples that agree prove it everywhere,
# and the 4th is spare.
ARC_SAMPLES = 4
ARC_SAMPLES_MIN = 3


def check_inscribed_angle(cycle: GeneralizedCycle, a: complex, b: complex,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """Constancy of sigma(a, X, b) as X runs over one arc of the cycle,
    at ARC_SAMPLES points (see the identity above ARC_SAMPLES).

    When the cycle is a compact circle the constant itself is pinned:
    it equals twice the angle at a between the center and b.
    """
    for z in (a, b):
        if membership_residual(cycle, z) > 1e-9:
            return _skip("inscribed_angle", tol.theorem, "endpoint_off_cycle")
    xs = _arc_samples(cycle, a, b, ARC_SAMPLES)
    if len(xs) < ARC_SAMPLES_MIN:
        return _skip("inscribed_angle", tol.theorem, "arc_outside_disk")
    try:
        values = [sigma(a, x, b) for x in xs]
    except DegenerateAngle:
        return _skip("inscribed_angle", tol.theorem, "sample_at_endpoint")
    # sigma is an angle: compare mod 2pi, or collinear samples on a
    # geodesic flap between the identified values +pi and -pi
    base = values[len(values) // 2]
    deltas = [math.remainder(v - base, TAU) for v in values]
    spread = max(deltas) - min(deltas)
    witness = {"samples": len(xs), "sigma": base}
    residual = spread
    try:
        center, _ = hyp_center_radius(cycle)
        doubled = 2.0 * abs(signed_angle(center, a, b))
        # the other arc sees the reflex central angle 2pi - doubled
        form_gap = min(abs(math.remainder(abs(base) - doubled, TAU)),
                       abs(math.remainder(abs(base) + doubled, TAU)))
        witness["center_angle_gap"] = form_gap
        residual = max(residual, form_gap)
    except GeometryError:
        pass  # no circle inside the disk: no central angle to compare
    return _finish("inscribed_angle", residual, tol.theorem, witness)


# ------------------------------------------------------------ lemma: trapezoid

def check_trapezoid(a: complex, b: complex, c: complex, d: complex,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """Equal areas of abc and abd versus the angle balance of quad abcd.

    The two statements vanish together (an iff).  An instance is built
    to satisfy one side exactly, so that side is pinned near zero and
    the other is the lemma's residual; max() of the two measures it
    without knowing which side the construction pinned, and fails when
    either side is off.
    """
    angles = convex_quad_angles(a, b, c, d)
    if angles is None:
        return _skip("trapezoid", tol.theorem, "non_convex")
    qa, qb, qc, qd = angles
    try:
        area_c, area_d = triangle_area(a, b, c), triangle_area(a, b, d)
    except (DegenerateAngle, DegenerateTriangle):
        return _skip("trapezoid", tol.theorem, "degenerate_quad")
    area_gap = abs(area_c - area_d)
    angle_gap = abs(qa + qd - qb - qc)
    return _finish("trapezoid", max(area_gap, angle_gap), tol.theorem,
                   {"area_gap": area_gap, "angle_gap": angle_gap})


# -------------------------------------------------------------- lexell locus

# Samples of the locus besides the apex x0.  With a* = 1/conj(a), half
# the signed area of (a, b, x) is
#
#     arg((1 - a conj(b)) conj(a) b) + arg((x - a*)/(x - b*))   (mod 2 pi),
#
# since 1 - x conj(a) = -conj(a) (x - a*) and 1 - b conj(x) is the
# conjugate of -conj(b) (x - b*).  This is the Mobius argument of the
# inscribed angle on the cycle through a*, b* and x0, so with x0 fixing
# the constant, 3 samples that agree with it prove the area constant on
# the whole locus; the 4th is spare.
LEXELL_SAMPLES = 4
LEXELL_AREAS_MIN = 4  # x0 and 3 samples


def check_lexell(a: complex, b: complex, x0: complex,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """Constancy of the area of (a, b, X) as X runs over the constant-area
    locus through x0, at x0 and LEXELL_SAMPLES points (see the identity
    above LEXELL_SAMPLES)."""
    try:
        base = geodesic_through(a, b)
    except CoincidentPoints:
        return _skip("lexell", tol.theorem, "coincident_base")
    if point_geodesic_distance(x0, base) < 1e-6:
        return _skip("lexell", tol.theorem, "apex_on_base")
    locus = lexell_cycle(a, b, x0)
    xs = [x for x in sample_points(locus, LEXELL_SAMPLES, margin=1e-4)
          if abs(x - a) >= 1e-6 and abs(x - b) >= 1e-6]
    try:
        areas = [triangle_area(a, b, x0)]
    except (DegenerateAngle, DegenerateTriangle):
        return _skip("lexell", tol.theorem, "apex_on_base")
    for x in xs:
        try:
            areas.append(triangle_area(a, b, x))
        except (DegenerateAngle, DegenerateTriangle):
            pass  # a degenerate sample is dropped, not scored
    if len(areas) < LEXELL_AREAS_MIN:
        return _skip("lexell", tol.theorem, "arc_outside_disk")
    return _finish("lexell", max(areas) - min(areas), tol.theorem,
                   {"area": areas[0], "samples": len(areas)})


# ----------------------------------------------------------- triangle checks

def check_six_point(cfg: TriangleConfig,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """The circle through the bisector feet contains the pseudoaltitude
    feet, and its radius is its center's distance to each bisector foot."""
    if cfg.euler_circle is None or len(cfg.euler_membership) < 3:
        return _skip("six_point", tol.theorem, "cevian_degeneracy")
    residual = max(cfg.euler_membership.values())
    witness: dict = {"membership": dict(cfg.euler_membership)}
    if cfg.euler_center is not None:
        witness["radius_gap"] = _radius_gap(cfg.euler_center, cfg.euler_radius,
                                            cfg.feet.bisector.values())
        residual = max(residual, witness["radius_gap"])
    return _finish("six_point", residual, tol.theorem, witness)


def _radius_gap(center: complex, radius: float, points) -> float:
    """Worst |d(center, p) - radius| over points the circle passes through."""
    return max(abs(disk_distance(center, p) - radius) for p in points)


def check_euler_line(cfg: TriangleConfig,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """Collinearity of circumcenter, Euler center, bisector point and
    pseudo-orthocenter, and the circumradius at every vertex."""
    o = cfg.circumcenter
    others = {"euler_center": cfg.euler_center,
              "bisector_point": cfg.bisector_point,
              "pseudo_orthocenter": cfg.pseudo_orthocenter}
    if o is None or None in others.values():
        return _skip("euler_line", tol.theorem, "center_undefined")
    radius_gap = _radius_gap(o, cfg.circumradius, cfg.triangle.vertices.values())
    distances = {name: disk_distance(o, p) for name, p in others.items()}
    far_name = max(distances, key=distances.get)
    witness: dict = {"anchor": far_name, "radius_gap": radius_gap}
    # in a totally symmetric configuration all four points coincide, no
    # line is drawn, and the residual is the farthest point's distance;
    # a NaN distance draws the line
    residual = distances[far_name]
    if not residual < 1e-12:
        line = geodesic_through(o, others[far_name])
        residual = max(point_geodesic_distance(p, line)
                       for name, p in others.items() if name != far_name)
    return _finish("euler_line", max(residual, radius_gap), tol.theorem, witness)


def check_euler_ratios(cfg: TriangleConfig,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """The three bisector pseudolength ratios agree, and so do the three
    pseudoaltitude pseudolength products (the homothety and inversion
    constants of the circumcircle-to-Euler-circle maps).  The residual
    also takes the concurrency residuals of both cevian families, the
    pencil determinants that define M and H (concurrency_point)."""
    m, h = cfg.bisector_point, cfg.pseudo_orthocenter
    if m is None or h is None:
        return _skip("euler_ratios", tol.construct, "cevian_degeneracy")
    verts = cfg.triangle.vertices
    ratios = [pseudolength(m, cfg.feet.bisector[v]) / pseudolength(m, verts[v])
              for v in ("a", "b", "c")]
    products = [pseudolength(h, cfg.feet.pseudoaltitude[v]) * pseudolength(h, verts[v])
                for v in ("a", "b", "c")]
    residual = max(max(ratios) - min(ratios), max(products) - min(products),
                   cfg.bisector_residual, cfg.orthocenter_residual)
    return _finish("euler_ratios", residual, tol.construct,
                   {"ratio": ratios[0], "product": products[0]})


def check_feuerbach(cfg: TriangleConfig,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """Tangency of the Euler circle with the incircle and every excircle
    that exists; absent excircles reduce the check set and are recorded.
    The residual also takes each existing circle's tangency_gap, how far
    the built circle is from touching the three sides (tangent_circles).
    A circle whose |B|^2 - AC rounds to 0 (tangency_residual) skips the
    check as degenerate_circle."""
    if cfg.euler_circle is None or cfg.incircle is None:
        return _skip("feuerbach", tol.chain, "euler_or_incircle_missing")
    circles = [("incircle", cfg.incircle)]
    circles += ((f"excircle_{v}", spec) for v, spec in sorted(cfg.excircles.items()))
    witness: dict = {}
    residuals = []
    for key, spec in circles:
        if spec is None:
            witness[key] = "absent"
            continue
        try:
            r = tangency_residual(cfg.euler_circle, spec.cycle)
        except NotACircle:  # a circle whose radius rounds to zero
            return _skip("feuerbach", tol.chain, "degenerate_circle")
        witness[key] = r
        residuals += (r, spec.tangency_gap)
    return _finish("feuerbach", max(residuals), tol.chain, witness)


# ------------------------------------------------------------ power checks

# Samples per axis.  A point with lift X has power (<X, P> + k) / (<X, P>
# - k) for its cycle's hyperboloid plane <X, P> + k = 0, so two powers
# differ by 2 <X, k1 P2 - k2 P1> over the product of the denominators.
# The gap is linear in X, and X runs over the geodesic axis as a conic
# of rational degree 2: the cleared gap is a quadratic in the axis
# parameter, and 3 samples that agree prove it vanishes on the whole
# axis; the 4th is spare.
AXIS_SAMPLES = 4
AXIS_SAMPLES_MIN = 3


def check_radical_axis(c1: GeneralizedCycle, c2: GeneralizedCycle,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """The radical axis equalizes powers along its whole length, at
    AXIS_SAMPLES points (see the identity above AXIS_SAMPLES).

    The residual is |P1 - P2| / max(1, |P1|, |P2|) at each sample.
    Inside the unit scale powers are products of two pseudolengths, each
    below 1, so an absolute gap is the right measure there; above it
    powers grow without bound near the absolute, where rounding error is
    relative to the powers themselves, so the gap is taken relative to
    them.  The axis is a geodesic by construction (its leading and
    constant coefficients are equal).

    Equal powers alone would pass a power_of_point that is wrong for
    both cycles alike, so each circle member's power is also checked
    against its definition: the chord through the center o gives
    tanh((d - r)/2) tanh((d + r)/2) for d = d(p, o) and radius r, which
    is (rho^2 - tau^2) / (1 - rho^2 tau^2) in the pseudolengths
    rho = tanh(d/2) and tau = tanh(r/2), and its gap |P - that| /
    max(1, |P|) joins the residual.  Equidistant members have no center
    and stay unchecked; the witness ``power_checked`` lists the members
    (1, 2) that were checked.
    """
    try:
        classes = (classify(c1), classify(c2))
        if CycleClass.GEODESIC in classes:
            return _skip("radical_axis", tol.construct, "constant_power_member")
        axis = radical_axis(c1, c2)
        circles = []  # (member, center, tau^2) of each circle member
        for member, cycle, cls in ((1, c1, classes[0]), (2, c2, classes[1])):
            if cls is CycleClass.HYP_CIRCLE:
                center, radius = hyp_center_radius(cycle)
                circles.append((member, center, math.tanh(0.5 * radius) ** 2))
    except ConcentricCycles:
        return _skip("radical_axis", tol.construct, "concentric")
    except AxisOutsideDisk:
        return _skip("radical_axis", tol.construct, "axis_outside_disk")
    except GeometryError:
        return _skip("radical_axis", tol.construct, "unclassifiable_member")
    residual = 0.0
    used = 0
    for p in sample_points(axis, AXIS_SAMPLES, margin=1e-6):
        try:
            powers = (power_of_point(p, c1), power_of_point(p, c2))
        except DegenerateConfiguration:
            continue
        p1, p2 = powers
        residual = max(residual, abs(p1 - p2) / max(1.0, abs(p1), abs(p2)))
        for member, center, tau2 in circles:
            rho2 = pseudolength(p, center) ** 2
            chord = (rho2 - tau2) / (1.0 - rho2 * tau2)
            got = powers[member - 1]
            residual = max(residual, abs(got - chord) / max(1.0, abs(got)))
        used += 1
    if used < AXIS_SAMPLES_MIN:
        return _skip("radical_axis", tol.construct, "axis_outside_disk")
    return _finish("radical_axis", residual, tol.construct,
                   {"samples": used,
                    "power_checked": [member for member, _, _ in circles]})


def check_monge(c1: GeneralizedCycle, c2: GeneralizedCycle, c3: GeneralizedCycle,
                tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """Collinearity of pairwise homothetic centers for every sign pattern
    of MONGE_PATTERNS, each residual under its key.  A pattern with a
    missing center, or whose first two centers coincide (concentric
    circles share every center), has its flag there instead; with no
    pattern left the check skips as coincident_centers if any pattern
    was flagged so, else missing_center, and as member_not_circle when
    a cycle is not a circle inside the disk."""
    try:
        pair_centers = monge_centers(c1, c2, c3)
    except NoHyperbolicCenter:
        return _skip("monge", tol.theorem, "member_not_circle")
    witness: dict = {}
    residuals = []
    skip_flag = "missing_center"
    for key, signs in MONGE_PATTERNS.items():
        try:
            _, res, _ = monge_line(pair_centers, signs)
        except MissingCenter:
            res = "missing_center"
        except CoincidentPoints:
            res = skip_flag = "coincident_centers"
        else:
            residuals.append(res)
        witness[key] = res
    if not residuals:
        return _skip("monge", tol.theorem, skip_flag, witness)
    return _finish("monge", max(residuals), tol.theorem, witness)


# --------------------------------------------------- tangency chain checks

def check_tangent_cevians(cfg: TriangleConfig,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """Concurrency of the vertex-to-contact cevians of the three circles
    inscribed in the angles and touching the circumcircle from inside.
    Each cevian is the normal vertex lift x contact vector, and the
    pencil of the three (concurrency_point) gives the residual.  The
    residual also takes each circle's tangency gap (tangent_contact):
    a small triangle's cevians move too little to show a circle that
    misses the circumcircle.  A shot circle that is not inside the disk
    skips the check as tangent_circle_outside_disk_{v}."""
    if cfg.circumcenter is None:
        return _skip("tangent_cevians", tol.chain, "target_not_circle")
    w = cfg.circumcircle
    target = circle_vector(w)
    normals = []
    tangency = 0.0
    for v in ("a", "b", "c"):
        circle = _shoot_tangent_circle(cfg.triangle, v, w)
        if circle is None:
            return _skip("tangent_cevians", tol.chain, f"tangent_circle_absent_{v}")
        try:
            vector = circle_vector(circle)
        except NoHyperbolicCenter:
            return _skip("tangent_cevians", tol.chain, f"tangent_circle_outside_disk_{v}")
        contact, gap = tangent_contact(vector, target, True, tol.chain)
        tangency = max(tangency, gap)
        if contact is None:
            return _skip("tangent_cevians", tol.chain, f"contact_point_missing_{v}")
        normals.append(through_normal(cfg.lifts[v], contact))
    try:
        point, residual = concurrency_point(normals)
    except GeometryError:
        return _skip("tangent_cevians", tol.chain, "cevians_diverge")
    return _finish("tangent_cevians", max(residual, tangency), tol.chain,
                   {"point": point, "tangency_gap": tangency})


def check_feuerbach_point(cfg: TriangleConfig,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """Concurrency of the incircle-contact-to-incenter line with the three
    vertex-to-excircle-contact lines on the Euler circle, as the pencil
    of their normals (concurrency_point).  The incircle touches the
    Euler circle from inside, the excircles from outside; the Euler
    circle and the incircle of an equilateral triangle are one circle,
    with no contact point.

    Each excircle contact is taken one Euler radius from the Euler
    center toward the excircle's center: only that center's direction
    enters, which stays well-conditioned when a large excircle's center
    vector is nearly lightlike (a contact taken from that center, one
    radius r away, is off by about eps e^{3r}).  The residual also
    takes the three Euler-excircle tangency gaps (tangent_contact), so a
    contact taken from one side still sees an excircle that misses the
    Euler circle."""
    if cfg.euler_center is None or cfg.incircle is None or None in cfg.excircles.values():
        return _skip("feuerbach_point", tol.chain, "contact_points_missing")
    euler = circle_vector(cfg.euler_circle)
    inc = circle_vector(cfg.incircle.cycle)
    f0, _ = tangent_contact(inc, euler, True, tol.chain)
    if f0 is None:
        return _skip("feuerbach_point", tol.chain, "contact_points_missing")
    normals = [through_normal(f0, inc[:3])]
    gaps = []
    for v in ("a", "b", "c"):
        fv, gap = tangent_contact(euler, circle_vector(cfg.excircles[v].cycle), False,
                                  tol.chain)
        if fv is None:
            return _skip("feuerbach_point", tol.chain, "contact_points_missing")
        normals.append(through_normal(cfg.lifts[v], fv))
        gaps.append(gap)
    try:
        point, residual = concurrency_point(normals)
    except DivergentCevians:
        return _skip("feuerbach_point", tol.chain, "lines_diverge")
    except GeometryError:  # a line through two coincident points
        return _skip("feuerbach_point", tol.chain, "contact_points_missing")
    return _finish("feuerbach_point", max(residual, *gaps), tol.chain, {"point": point})
