"""Residual-based checks for the classical statements this package covers.

Every check returns a TheoremCheck: a named residual compared against a
tolerance, with a witness dictionary holding the objects involved.  A
check never raises; it skips, with a named reason as its flag, only for
a cause an honest instance can have, so suite statistics stay honest
(nothing absent is silently dropped).  A triangle check skips when an
object it reads is None on the TriangleConfig, never on its flags; the
two that solve a cevian pencil themselves (cevian_pencils), euler_line
and euler_ratios, skip first under its divergent_* flag when its
cevians do not meet.  The drawn checks (inscribed_angle, trapezoid,
lexell, radical_axis, monge) trust their generators: they skip only as
axis_outside_disk, where a pair of cycles has no usable radical axis in
the disk.  Only a wrong kernel gives a drawn check an input that breaks
a property its generator guarantees (an endpoint off its cycle, a quad
that is not convex, a circle whose center cannot be read), so the check
fails there (_broken): the flag names the property, and the residual is
its measure where it has one, else null.

Tolerance tiers, the one constant ``TOLERANCES``: constructive
identities get 1e-10, single theorem statements 1e-9, and results
sitting at the end of a tangency or concurrency chain 1e-8, because
error compounds through the stacked constructions and contact-point
extraction.  The tiers are fixed: every statement checked is a theorem,
so an honest residual is rounding, and a failure is mended in the
program, never by a wider tier.

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
    DegenerateAngle,
    DegenerateConfiguration,
    DegenerateTriangle,
    DivergentCevians,
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
    signed_area,
    triangle_area,
)
from .cycles import (
    GEODESIC_EPS,
    GeneralizedCycle,
    _arc_samples,
    _circle_vector,
    circle_vector,
    geodesic_through,
    hyp_center_radius,
    lexell_cycle,
    membership_residual,
    plane_distances,
    point_geodesic_distance,
    sample_points,
    spacelike_norm,
    tangency_residual,
    through_normal,
)
from .cevians import (
    TriangleConfig,
    _shoot_tangent_circle,
    cevian_pencils,
    concurrency_point,
    side_units,
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


TOLERANCES = Tolerances(1e-10, 1e-9, 1e-8)


class TheoremCheck(Record):
    # status is "pass", "fail" or "skipped"
    __slots__ = ("name", "residual", "tolerance", "status", "flag", "witness")


def _finish(name: str, residual: float, tolerance: float, witness: dict) -> TheoremCheck:
    status = "pass" if residual <= tolerance else "fail"
    return TheoremCheck(name, residual, tolerance, status, None, witness)


def _skip(name: str, tolerance: float, flag: str) -> TheoremCheck:
    return TheoremCheck(name, None, tolerance, "skipped", flag, {})


def _broken(name: str, tolerance: float, flag: str, residual: float | None = None,
            witness: dict | None = None) -> TheoremCheck:
    """A failure on an input that breaks a property its generator
    guarantees, flagged with that property."""
    return TheoremCheck(name, residual, tolerance, "fail", flag,
                        {} if witness is None else witness)


class InstanceReport(Record):
    __slots__ = ("index", "instance", "flags", "checks")


class VerificationReport(Record):
    __slots__ = ("seed", "params", "instances", "wall_time")

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


def check_inscribed_angle(cycle: GeneralizedCycle, a: complex, b: complex) -> TheoremCheck:
    """Constancy of sigma(a, X, b) as X runs over one arc of the cycle,
    at ARC_SAMPLES points (see the identity above ARC_SAMPLES).

    When the cycle is a compact circle the constant itself is pinned:
    it equals twice the angle at a between the center and b, and its
    gap joins the residual as center_angle_gap.  A cycle without a
    hyperbolic center (hyp_center_radius raises NoHyperbolicCenter: a
    horocycle or an equidistant) has no such gap; a circle whose center
    cannot be read (MissingCenter) fails as missing_center, as in
    check_radical_axis.

    arc_instance puts a and b on the cycle, far apart, with every sample
    between them inside the disk, so an endpoint off the cycle, fewer
    than ARC_SAMPLES_MIN samples or a sample at an endpoint fails.
    """
    off = max(membership_residual(cycle, a), membership_residual(cycle, b))
    if off > 1e-9:
        return _broken("inscribed_angle", TOLERANCES.theorem, "endpoint_off_cycle", off)
    xs = _arc_samples(cycle, a, b, ARC_SAMPLES)
    if len(xs) < ARC_SAMPLES_MIN:
        return _broken("inscribed_angle", TOLERANCES.theorem, "arc_outside_disk")
    try:
        values = [sigma(a, x, b) for x in xs]
    except DegenerateAngle:
        return _broken("inscribed_angle", TOLERANCES.theorem, "sample_at_endpoint")
    # sigma is an angle: compare mod 2pi, or collinear samples on a
    # geodesic flap between the identified values +pi and -pi
    base = values[len(values) // 2]
    deltas = [math.remainder(v - base, TAU) for v in values]
    spread = max(deltas) - min(deltas)
    witness = {"samples": len(xs), "sigma": base}
    residual = spread
    try:
        center, _ = hyp_center_radius(cycle)
    except NoHyperbolicCenter:
        pass  # no circle inside the disk: no central angle to compare
    except MissingCenter:
        return _broken("inscribed_angle", TOLERANCES.theorem, "missing_center")
    else:
        doubled = 2.0 * abs(signed_angle(center, a, b))
        # the other arc sees the reflex central angle 2pi - doubled
        form_gap = min(abs(math.remainder(abs(base) - doubled, TAU)),
                       abs(math.remainder(abs(base) + doubled, TAU)))
        witness["center_angle_gap"] = form_gap
        residual = max(residual, form_gap)
    return _finish("inscribed_angle", residual, TOLERANCES.theorem, witness)


# ------------------------------------------------------------ lemma: trapezoid

def check_trapezoid(a: complex, b: complex, c: complex, d: complex) -> TheoremCheck:
    """Equal areas of abc and abd versus the angle balance of quad abcd.

    The two statements vanish together (an iff).  trapezoid_quad puts c
    and d on one constant-area locus over ab, so the area gap is pinned
    near zero by construction and the angle gap is the lemma's residual;
    the residual is max() of the two, so a draw off its locus fails as
    well as an unbalanced quad.  trapezoid_quad's quads are convex and
    non-degenerate, so a quad that is not fails.
    """
    angles = convex_quad_angles(a, b, c, d)
    if angles is None:
        return _broken("trapezoid", TOLERANCES.theorem, "non_convex")
    qa, qb, qc, qd = angles
    try:
        area_c, area_d = triangle_area(a, b, c), triangle_area(a, b, d)
    except (DegenerateAngle, DegenerateTriangle):
        return _broken("trapezoid", TOLERANCES.theorem, "degenerate_quad")
    area_gap = abs(area_c - area_d)
    angle_gap = abs(qa + qd - qb - qc)
    return _finish("trapezoid", max(area_gap, angle_gap), TOLERANCES.theorem,
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


def check_lexell(a: complex, b: complex, x0: complex) -> TheoremCheck:
    """Constancy of the area of (a, b, X) as X runs over the constant-area
    locus through x0, at x0 and LEXELL_SAMPLES points (see the identity
    above LEXELL_SAMPLES).

    lexell_instance keeps a and b apart and x0 off their geodesic, and
    then every sample of the locus lies inside the disk, so a base, an
    apex or a sample count that breaks this fails.  Past the guards a
    and b are at least 1e-12 apart, and x0 and every sample at least
    1e-6 from both, so signed_area, which raises only on coincident
    vertices, never does.
    """
    try:
        base = geodesic_through(a, b)
    except CoincidentPoints:
        return _broken("lexell", TOLERANCES.theorem, "coincident_base")
    if point_geodesic_distance(x0, base) < 1e-6:
        return _broken("lexell", TOLERANCES.theorem, "apex_on_base")
    locus = lexell_cycle(a, b, x0)
    xs = [x for x in sample_points(locus, LEXELL_SAMPLES, margin=1e-4)
          if abs(x - a) >= 1e-6 and abs(x - b) >= 1e-6]
    areas = [abs(signed_area(a, b, x)) for x in (x0, *xs)]
    if len(areas) < LEXELL_AREAS_MIN:
        return _broken("lexell", TOLERANCES.theorem, "arc_outside_disk")
    return _finish("lexell", max(areas) - min(areas), TOLERANCES.theorem,
                   {"area": areas[0], "samples": len(areas)})


# ----------------------------------------------------------- triangle checks

def check_six_point(cfg: TriangleConfig) -> TheoremCheck:
    """The circle through the bisector feet contains the pseudoaltitude
    feet, each foot's membership_residual against it, and its radius is
    its center's distance to each bisector foot.  Reads no cevian
    pencil."""
    if cfg.euler_circle is None or len(cfg.feet.pseudoaltitude) < 3:
        return _skip("six_point", TOLERANCES.theorem, "cevian_degeneracy")
    membership = {v: membership_residual(cfg.euler_circle, foot)
                  for v, foot in cfg.feet.pseudoaltitude.items()}
    residual = max(membership.values())
    witness: dict = {"membership": membership}
    if cfg.euler_center is not None:
        witness["radius_gap"] = _radius_gap(cfg.euler_center, cfg.euler_radius,
                                            cfg.feet.bisector.values())
        residual = max(residual, witness["radius_gap"])
    return _finish("six_point", residual, TOLERANCES.theorem, witness)


def _radius_gap(center: complex, radius: float, points) -> float:
    """Worst |d(center, p) - radius| over points the circle passes through."""
    return max(abs(disk_distance(center, p) - radius) for p in points)


def check_euler_line(cfg: TriangleConfig) -> TheoremCheck:
    """Collinearity of circumcenter, Euler center, bisector point and
    pseudo-orthocenter, and the circumradius at every vertex.  M and H
    are solved here (cevian_pencils): a family whose cevians do not
    meet skips the check under its divergent_* flag, before any other
    cause."""
    (_, m, _, m_flag), (_, h, _, h_flag) = cevian_pencils(cfg).values()
    if m_flag or h_flag:
        return _skip("euler_line", TOLERANCES.theorem, m_flag or h_flag)
    o = cfg.circumcenter
    others = {"euler_center": cfg.euler_center, "bisector_point": m,
              "pseudo_orthocenter": h}
    if o is None or None in others.values():
        return _skip("euler_line", TOLERANCES.theorem, "center_undefined")
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
    return _finish("euler_line", max(residual, radius_gap), TOLERANCES.theorem, witness)


def check_euler_ratios(cfg: TriangleConfig) -> TheoremCheck:
    """The three bisector pseudolength ratios agree, and so do the three
    pseudoaltitude pseudolength products (the homothety and inversion
    constants of the circumcircle-to-Euler-circle maps).  The residual
    also takes each cevian family's pencil term: the distance from the
    meet of its most transversal pair, M or H, to its third cevian.
    Both come from one solve per family (cevian_pencils); a family whose
    cevians do not meet skips the check under its divergent_* flag,
    before any other cause."""
    (_, m, m_term, m_flag), (_, h, h_term, h_flag) = cevian_pencils(cfg).values()
    if m_flag or h_flag:
        return _skip("euler_ratios", TOLERANCES.construct, m_flag or h_flag)
    if m is None or h is None:
        return _skip("euler_ratios", TOLERANCES.construct, "cevian_degeneracy")
    verts = cfg.triangle.vertices
    ratios = [pseudolength(m, cfg.feet.bisector[v]) / pseudolength(m, verts[v])
              for v in ("a", "b", "c")]
    products = [pseudolength(h, cfg.feet.pseudoaltitude[v]) * pseudolength(h, verts[v])
                for v in ("a", "b", "c")]
    residual = max(max(ratios) - min(ratios), max(products) - min(products), m_term, h_term)
    return _finish("euler_ratios", residual, TOLERANCES.construct,
                   {"ratio": ratios[0], "product": products[0]})


def check_feuerbach(cfg: TriangleConfig) -> TheoremCheck:
    """Tangency of the Euler circle with the incircle and every excircle
    that exists; absent excircles reduce the check set and are recorded.
    The residual also takes each existing circle's side gap, how far its
    built cycle is from touching the three sides (_side_gap).  A circle
    whose |B|^2 - AC rounds to 0 (tangency_residual) skips the check as
    degenerate_circle."""
    if cfg.euler_circle is None or cfg.incircle is None:
        return _skip("feuerbach", TOLERANCES.chain, "euler_or_incircle_missing")
    circles = [("incircle", cfg.incircle)]
    circles += ((f"excircle_{v}", spec) for v, spec in sorted(cfg.excircles.items()))
    units = side_units(cfg.side_normals)[0]
    witness: dict = {}
    residuals = []
    for key, spec in circles:
        if spec is None:
            witness[key] = "absent"
            continue
        try:
            r = tangency_residual(cfg.euler_circle, spec.cycle)
        except NotACircle:  # a circle whose radius rounds to zero
            return _skip("feuerbach", TOLERANCES.chain, "degenerate_circle")
        witness[key] = r
        residuals += (r, _side_gap(spec.cycle, units))
    return _finish("feuerbach", max(residuals), TOLERANCES.chain, witness)


def _side_gap(cycle: GeneralizedCycle, units) -> float:
    """The worst difference between a circle's radius and its center's
    distance to each side, both read back from the circle's own
    coefficients (_circle_vector); each side is given by its unit
    normal (cevians.side_units).  tangent_circles keeps only circles
    that read back."""
    pt, px, py, norm, s = _circle_vector(cycle)
    back = math.asinh(s / norm)
    return max(abs(d - back) for d in plane_distances((pt, px, py), units))


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


def check_radical_axis(c1: GeneralizedCycle, c2: GeneralizedCycle) -> TheoremCheck:
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
    max(1, |P|) joins the residual.  A member without a hyperbolic
    center (hyp_center_radius raises NoHyperbolicCenter: a horocycle or
    an equidistant) stays unchecked; the witness ``power_checked`` lists
    the members (1, 2) that were checked.  A circle whose center cannot
    be read (hyp_center_radius raises MissingCenter) fails as
    missing_center.

    random_cycle_pair draws no geodesic (|C - A| > 1e-6), so a
    geodesic member fails as constant_power_member.  A pair without a
    radical axis in the disk skips as axis_outside_disk, concentric
    circles among them, and so does a pair with fewer than
    AXIS_SAMPLES_MIN usable samples on it.
    """
    if abs(c1.c - c1.a) < GEODESIC_EPS or abs(c2.c - c2.a) < GEODESIC_EPS:
        return _broken("radical_axis", TOLERANCES.construct, "constant_power_member")
    try:
        axis = radical_axis(c1, c2)
    except AxisOutsideDisk:
        return _skip("radical_axis", TOLERANCES.construct, "axis_outside_disk")
    circles = []  # (member, center, tau^2) of each member with a center
    for member, cycle in ((1, c1), (2, c2)):
        try:
            center, radius = hyp_center_radius(cycle)
        except NoHyperbolicCenter:
            continue
        except MissingCenter:
            return _broken("radical_axis", TOLERANCES.construct, "missing_center")
        circles.append((member, center, math.tanh(0.5 * radius) ** 2))
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
        return _skip("radical_axis", TOLERANCES.construct, "axis_outside_disk")
    return _finish("radical_axis", residual, TOLERANCES.construct,
                   {"samples": used,
                    "power_checked": [member for member, _, _ in circles]})


def check_monge(c1: GeneralizedCycle, c2: GeneralizedCycle, c3: GeneralizedCycle) -> TheoremCheck:
    """Collinearity of pairwise homothetic centers for every sign pattern
    of MONGE_PATTERNS, each residual under its key.  A pattern with a
    missing center, or whose first two centers coincide (concentric
    circles share every center), has its flag there instead.

    monge_triple draws three circles whose npn pattern always has its
    centers, so the check fails as member_not_circle when a cycle is
    not a circle inside the disk, and with no pattern left as
    coincident_centers if any pattern was flagged so, else
    missing_center, with the patterns' witness."""
    try:
        pair_centers = monge_centers(c1, c2, c3)
    except NoHyperbolicCenter:
        return _broken("monge", TOLERANCES.theorem, "member_not_circle")
    witness: dict = {}
    residuals = []
    flag = "missing_center"
    for key, signs in MONGE_PATTERNS.items():
        try:
            _, res, _ = monge_line(pair_centers, signs)
        except MissingCenter:
            res = "missing_center"
        except CoincidentPoints:
            res = flag = "coincident_centers"
        else:
            residuals.append(res)
        witness[key] = res
    if not residuals:
        return _broken("monge", TOLERANCES.theorem, flag, None, witness)
    return _finish("monge", max(residuals), TOLERANCES.theorem, witness)


# --------------------------------------------------- tangency chain checks

def check_tangent_cevians(cfg: TriangleConfig) -> TheoremCheck:
    """Concurrency of the vertex-to-contact cevians of the three circles
    inscribed in the angles and touching the circumcircle from inside.
    Each cevian is the normal vertex lift x contact vector, and the
    pencil of the three (concurrency_point) gives the residual.  The
    residual also takes each circle's tangency gap (tangent_contact):
    a small triangle's cevians move too little to show a circle that
    misses the circumcircle.  A shot circle that is not inside the disk
    skips the check as tangent_circle_outside_disk_{v}, a contact that
    is missing or whose line to its vertex is no geodesic (its normal
    not spacelike, spacelike_norm) as contact_point_missing_{v}, and
    cevians that do not meet as cevians_diverge."""
    if cfg.circumcenter is None:
        return _skip("tangent_cevians", TOLERANCES.chain, "target_not_circle")
    w = cfg.circumcircle
    target = circle_vector(w)
    normals = []
    tangency = 0.0
    for v in ("a", "b", "c"):
        circle = _shoot_tangent_circle(cfg.triangle, v, w)
        if circle is None:
            return _skip("tangent_cevians", TOLERANCES.chain, f"tangent_circle_absent_{v}")
        try:
            vector = circle_vector(circle)
        except NoHyperbolicCenter:
            return _skip("tangent_cevians", TOLERANCES.chain, f"tangent_circle_outside_disk_{v}")
        contact, gap = tangent_contact(vector, target, True, TOLERANCES.chain)
        tangency = max(tangency, gap)
        normal = contact and through_normal(cfg.lifts[v], contact)
        if not (normal and spacelike_norm(normal)):
            return _skip("tangent_cevians", TOLERANCES.chain, f"contact_point_missing_{v}")
        normals.append(normal)
    try:
        point, residual = concurrency_point(normals)
    except DivergentCevians:
        return _skip("tangent_cevians", TOLERANCES.chain, "cevians_diverge")
    return _finish("tangent_cevians", max(residual, tangency), TOLERANCES.chain,
                   {"point": point, "tangency_gap": tangency})


def check_feuerbach_point(cfg: TriangleConfig) -> TheoremCheck:
    """Concurrency of the incircle-contact-to-incenter line with the three
    vertex-to-excircle-contact lines on the Euler circle, as the pencil
    of their normals (concurrency_point).  The incircle touches the
    Euler circle from inside, the excircles from outside; the Euler
    circle and the incircle of an equilateral triangle are one circle,
    with no contact point.  A contact that is missing, or whose line is
    no geodesic (its normal not spacelike, spacelike_norm), skips the
    check as contact_points_missing, lines that do not meet as
    lines_diverge.

    Each excircle contact is taken one Euler radius from the Euler
    center toward the excircle's center: only that center's direction
    enters, which stays well-conditioned when a large excircle's center
    vector is nearly lightlike (a contact taken from that center, one
    radius r away, is off by about eps e^{3r}).  The residual also
    takes the three Euler-excircle tangency gaps (tangent_contact), so a
    contact taken from one side still sees an excircle that misses the
    Euler circle."""
    if cfg.euler_center is None or cfg.incircle is None or None in cfg.excircles.values():
        return _skip("feuerbach_point", TOLERANCES.chain, "contact_points_missing")
    euler = circle_vector(cfg.euler_circle)
    inc = circle_vector(cfg.incircle.cycle)
    f0, _ = tangent_contact(inc, euler, True, TOLERANCES.chain)
    normals = [f0 and through_normal(f0, inc[:3])]
    gaps = []
    for v in ("a", "b", "c"):
        fv, gap = tangent_contact(euler, circle_vector(cfg.excircles[v].cycle), False,
                                  TOLERANCES.chain)
        normals.append(fv and through_normal(cfg.lifts[v], fv))
        gaps.append(gap)
    if not all(n and spacelike_norm(n) for n in normals):
        return _skip("feuerbach_point", TOLERANCES.chain, "contact_points_missing")
    try:
        point, residual = concurrency_point(normals)
    except DivergentCevians:
        return _skip("feuerbach_point", TOLERANCES.chain, "lines_diverge")
    return _finish("feuerbach_point", max(residual, *gaps), TOLERANCES.chain, {"point": point})
