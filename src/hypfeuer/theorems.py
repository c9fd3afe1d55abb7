"""Residual-based checks for the classical statements this package covers.

Every check returns a TheoremCheck: a named residual compared against a
tolerance, with a witness dictionary holding the objects involved.  A
check never raises on a degenerate instance; it returns status
"skipped" carrying the upstream degeneracy flag instead, so suite
statistics stay honest (nothing absent is silently dropped).

Tolerance tiers: constructive identities get 1e-10, single theorem
statements 1e-9, and results sitting at the end of a tangency or
concurrency chain 1e-8, because error compounds through the stacked
constructions and contact-point extraction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import (
    AxisOutsideDisk,
    ConcentricCycles,
    DegenerateConfiguration,
    DivergentCevians,
    GeometryError,
    MissingCenter,
)
from .geom_core import (
    TAU,
    DiskIsometry,
    Triangle,
    absolute_inverse,
    as_complex,
    complex_angle,
    hyp_distance,
    mobius_from_origin,
    mobius_to_origin,
    signed_angle,
    sigma,
    triangle_area,
)
from .cycles import (
    CycleClass,
    GeneralizedCycle,
    circle_from_center_radius,
    classify,
    cycle_through,
    geodesic_through,
    hyp_center_radius,
    interior_intersections,
    membership_residual,
    point_geodesic_distance,
    sample_points,
    tangency_residual,
    transform,
)
from .cevians import (
    EDGE_INSET,
    TriangleConfig,
    bisector_direction,
    concurrency_point,
)
from .power import (
    homothetic_centers,
    monge_centers,
    monge_line,
    power_of_point,
    pseudolength,
    radical_axis,
)


@dataclass(frozen=True)
class Tolerances:
    construct: float = 1e-10
    theorem: float = 1e-9
    chain: float = 1e-8


DEFAULT_TOLERANCES = Tolerances()


@dataclass
class TheoremCheck:
    name: str
    residual: float | None
    tolerance: float
    status: str  # "pass" | "fail" | "skipped"
    flag: str | None = None
    witness: dict = field(default_factory=dict)


def _finish(name: str, residual: float, tolerance: float,
            witness: dict | None = None) -> TheoremCheck:
    status = "pass" if residual <= tolerance else "fail"
    return TheoremCheck(name, residual, tolerance, status, None, witness or {})


def _skip(name: str, tolerance: float, flag: str,
          witness: dict | None = None) -> TheoremCheck:
    return TheoremCheck(name, None, tolerance, "skipped", flag, witness or {})


@dataclass
class InstanceReport:
    index: int
    instance: dict
    flags: list[str]
    checks: list[TheoremCheck]


@dataclass
class VerificationReport:
    seed: int
    params: dict
    instances: list[InstanceReport]
    wall_time: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for inst in self.instances for c in inst.checks
                   if c.status == "fail")


# ---------------------------------------------------------------- lemma: arcs

def check_inscribed_angle(cycle: GeneralizedCycle, a, b,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """Constancy of sigma(a, X, b) as X runs over one arc of the cycle.

    When the cycle is a compact circle the constant itself is pinned:
    it equals twice the angle at a between the center and b.
    """
    za, zb = as_complex(a), as_complex(b)
    for z in (za, zb):
        if membership_residual(cycle, z) > 1e-9:
            return _skip("inscribed_angle", tol.theorem, "endpoint_off_cycle")
    xs = _arc_samples(cycle, za, zb, 32)
    if len(xs) < 8:
        return _skip("inscribed_angle", tol.theorem, "arc_outside_disk")
    values = [sigma(za, x, zb) for x in xs]
    # sigma is an angle: compare mod 2pi, or collinear samples on a
    # geodesic flap between the identified values +pi and -pi
    base = values[len(values) // 2]
    deltas = [math.remainder(v - base, TAU) for v in values]
    spread = max(deltas) - min(deltas)
    witness = {"samples": len(xs), "sigma": base}
    residual = spread
    try:
        if classify(cycle) is CycleClass.HYP_CIRCLE:
            center, _ = hyp_center_radius(cycle)
            doubled = 2.0 * abs(signed_angle(center, za, zb))
            # the other arc sees the reflex central angle 2pi - doubled
            form_gap = min(abs(math.remainder(abs(base) - doubled, TAU)),
                           abs(math.remainder(abs(base) + doubled, TAU)))
            witness["center_angle_gap"] = form_gap
            residual = max(residual, form_gap)
    except GeometryError:
        pass
    return _finish("inscribed_angle", residual, tol.theorem, witness)


def _arc_samples(cycle: GeneralizedCycle, a: complex, b: complex,
                 count: int) -> list[complex]:
    """Interior points on the arc of the cycle from a to b (excluding both)."""
    if cycle.is_line:
        # chord between a and b, parametrized linearly
        return [z for k in range(1, count + 1)
                for z in [a + (b - a) * k / (count + 1)] if abs(z) < 1.0 - 1e-9]
    ec, er = cycle.euclid_center_radius()
    ta = cmath.phase(a - ec)
    tb = cmath.phase(b - ec)
    delta = (tb - ta) % (2.0 * math.pi)
    best: list[complex] = []
    for lo, d in ((ta, delta), (tb, 2.0 * math.pi - delta)):
        xs = [ec + er * cmath.exp(1j * (lo + d * k / (count + 1)))
              for k in range(1, count + 1)]
        good = [z for z in xs if abs(z) < 1.0 - 1e-9
                and abs(z - a) > 1e-9 and abs(z - b) > 1e-9]
        if len(good) == len(xs):
            return good
        if len(good) > len(best):
            best = good
    return best  # neither arc fully interior: the fuller one, clipped


# ------------------------------------------------------------ lemma: trapezoid

def convex_quad_angles(a, b, c, d) -> list[float] | None:
    """Unsigned interior angles of quadrilateral abcd at a, b, c, d, or
    None unless it is convex: its four turns, taken in one pass, share a
    sign (a degenerate turn counts as not convex)."""
    quad = [as_complex(p) for p in (a, b, c, d)]
    try:
        turns = [complex_angle(quad[i - 1], quad[i], quad[(i + 1) % 4]) for i in range(4)]
    except GeometryError:
        return None
    if all(t > 0.0 for t in turns):
        return turns
    if all(t < 0.0 for t in turns):
        return [-t for t in turns]
    return None


def check_trapezoid(a, b, c, d,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """Equal areas of abc and abd versus the angle balance of quad abcd.

    The two statements vanish together (an iff), so on an instance built
    to satisfy either side exactly, the other side is the lemma's
    residual; min() of the two measures exactly that without knowing
    which side the instance construction pinned.
    """
    angles = convex_quad_angles(a, b, c, d)
    if angles is None:
        return _skip("trapezoid", tol.theorem, "non_convex")
    qa, qb, qc, qd = angles
    try:
        area_gap = abs(triangle_area(a, b, c) - triangle_area(a, b, d))
    except GeometryError:
        return _skip("trapezoid", tol.theorem, "degenerate_quad")
    angle_gap = abs(qa + qd - qb - qc)
    return _finish("trapezoid", min(area_gap, angle_gap), tol.theorem,
                   {"area_gap": area_gap, "angle_gap": angle_gap})


# -------------------------------------------------------------- lexell locus

def lexell_cycle(a, b, x0) -> GeneralizedCycle:
    """The constant-area locus through x0 over base ab: the cycle through
    x0 and the absolute inverses of a and b."""
    return cycle_through(absolute_inverse(a), absolute_inverse(b), as_complex(x0))


def check_lexell(a, b, x0,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    za, zb, z0 = as_complex(a), as_complex(b), as_complex(x0)
    base = geodesic_through(za, zb)
    if point_geodesic_distance(z0, base) < 1e-6:
        return _skip("lexell", tol.theorem, "apex_on_base")
    locus = lexell_cycle(za, zb, z0)
    areas = [triangle_area(za, zb, z0)]
    for x in sample_points(locus, 32, margin=1e-4):
        if abs(x - za) < 1e-6 or abs(x - zb) < 1e-6:
            continue
        try:
            areas.append(triangle_area(za, zb, x))
        except GeometryError:
            continue
    if len(areas) < 9:
        return _skip("lexell", tol.theorem, "arc_outside_disk")
    return _finish("lexell", max(areas) - min(areas), tol.theorem,
                   {"area": areas[0], "samples": len(areas)})


# ----------------------------------------------------------- triangle checks

def check_six_point(cfg: TriangleConfig,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """The circle through the bisector feet contains the pseudoaltitude feet."""
    if cfg.flagged("bracket_failure", "no_euler_circle"):
        return _skip("six_point", tol.theorem, "cevian_degeneracy")
    residual = max(cfg.euler_membership.values())
    return _finish("six_point", residual, tol.theorem,
                   {"membership": dict(cfg.euler_membership)})


_EULER_FLAGS = ("bracket_failure", "no_euler_circle", "no_euler_center",
                "no_circumcenter", "divergent_bisector_cevians",
                "divergent_pseudoaltitude_cevians")


def check_euler_line(cfg: TriangleConfig,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """Collinearity of circumcenter, Euler center, bisector point and
    pseudo-orthocenter, plus the re-derivation of the latter through the
    Euler circle's second side intersections (reported in the witness)."""
    if cfg.flagged(*_EULER_FLAGS):
        return _skip("euler_line", tol.theorem, "center_undefined")
    o = cfg.circumcenter
    others = {"euler_center": cfg.euler_center,
              "bisector_point": cfg.bisector_point,
              "pseudo_orthocenter": cfg.pseudo_orthocenter}
    far_name, far = max(others.items(), key=lambda kv: hyp_distance(o, kv[1]))
    witness: dict = {"anchor": far_name}
    if hyp_distance(o, far) < 1e-12:
        # totally symmetric configuration: all four points coincide
        residual = max(hyp_distance(o, p) for p in others.values())
        return _finish("euler_line", residual, tol.theorem, witness)
    line = geodesic_through(o, far)
    residual = max(point_geodesic_distance(p, line)
                   for name, p in others.items() if name != far_name)
    witness["rederived_orthocenter_gap"] = _rederived_orthocenter_gap(cfg)
    return _finish("euler_line", residual, tol.theorem, witness)


def _rederived_orthocenter_gap(cfg: TriangleConfig) -> float | None:
    """Distance from the pseudo-orthocenter to the concurrency of cevians
    drawn through the Euler circle's second intersections with the sides."""
    try:
        verts = cfg.triangle.vertices
        cevs = []
        for v in ("a", "b", "c"):
            pts = interior_intersections(cfg.euler_circle, cfg.sides[v])
            if len(pts) < 2:
                return None
            m = cfg.feet.bisector[v]
            second = max(pts, key=lambda z: abs(z - m))
            cevs.append(geodesic_through(verts[v], second))
        k, _ = concurrency_point(cevs)
        return hyp_distance(k, cfg.pseudo_orthocenter)
    except GeometryError:
        return None


def check_euler_ratios(cfg: TriangleConfig,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """The three bisector pseudolength ratios agree, and so do the three
    pseudoaltitude pseudolength products (the homothety and inversion
    constants of the circumcircle-to-Euler-circle maps)."""
    if cfg.flagged("bracket_failure", "divergent_bisector_cevians",
                   "divergent_pseudoaltitude_cevians"):
        return _skip("euler_ratios", tol.construct, "cevian_degeneracy")
    verts = cfg.triangle.vertices
    m, h = cfg.bisector_point, cfg.pseudo_orthocenter
    ratios = [pseudolength(m, cfg.feet.bisector[v]) / pseudolength(m, verts[v])
              for v in ("a", "b", "c")]
    products = [pseudolength(h, cfg.feet.pseudoaltitude[v]) * pseudolength(h, verts[v])
                for v in ("a", "b", "c")]
    residual = max(max(ratios) - min(ratios), max(products) - min(products))
    return _finish("euler_ratios", residual, tol.construct,
                   {"ratio": ratios[0], "product": products[0]})


def check_feuerbach(cfg: TriangleConfig,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """Tangency of the Euler circle with the incircle and every excircle
    that exists; absent excircles reduce the check set and are recorded."""
    if cfg.flagged("bracket_failure", "no_euler_circle") or cfg.incircle is None:
        return _skip("feuerbach", tol.chain, "euler_or_incircle_missing")
    witness: dict = {}
    residuals = []
    r = tangency_residual(cfg.euler_circle, cfg.incircle.cycle)
    witness["incircle"] = r
    residuals.append(r)
    for v, spec in sorted(cfg.excircles.items()):
        if spec is None:
            witness[f"excircle_{v}"] = "absent"
            continue
        r = tangency_residual(cfg.euler_circle, spec.cycle)
        witness[f"excircle_{v}"] = r
        residuals.append(r)
    return _finish("feuerbach", max(residuals), tol.chain, witness)


# ------------------------------------------------------------ power checks

def check_radical_axis(c1: GeneralizedCycle, c2: GeneralizedCycle,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """The radical axis equalizes powers along its whole length.

    The residual is |P1 - P2| / max(1, |P1|, |P2|) at each sample.
    Inside the unit scale powers are products of two pseudolengths, each
    below 1, so an absolute gap is the right measure there; above it
    powers grow without bound near the absolute, where rounding error is
    relative to the powers themselves, so the gap is taken relative to
    them.  The axis is a geodesic by construction (its leading and
    constant coefficients are equal); the witness records its class.
    """
    try:
        if CycleClass.GEODESIC in (classify(c1), classify(c2)):
            return _skip("radical_axis", tol.construct, "constant_power_member")
        axis = radical_axis(c1, c2)
    except ConcentricCycles:
        return _skip("radical_axis", tol.construct, "concentric")
    except AxisOutsideDisk:
        return _skip("radical_axis", tol.construct, "axis_outside_disk")
    except GeometryError:
        return _skip("radical_axis", tol.construct, "unclassifiable_member")
    spread = 0.0
    used = 0
    for p in sample_points(axis, 16, margin=1e-6):
        try:
            p1, p2 = power_of_point(p, c1), power_of_point(p, c2)
        except DegenerateConfiguration:
            continue
        spread = max(spread, abs(p1 - p2) / max(1.0, abs(p1), abs(p2)))
        used += 1
    if used < 8:
        return _skip("radical_axis", tol.construct, "axis_outside_disk")
    return _finish("radical_axis", spread, tol.construct,
                   {"class": classify(axis).value, "samples": used})


def check_monge(c1: GeneralizedCycle, c2: GeneralizedCycle, c3: GeneralizedCycle,
                tol: Tolerances = DEFAULT_TOLERANCES,
                patterns: tuple = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)),
                ) -> TheoremCheck:
    """Collinearity of pairwise homothetic centers for every valid sign
    pattern (all positive, or exactly two negative)."""
    pair_centers = monge_centers(c1, c2, c3)
    witness: dict = {}
    residuals = []
    for signs in patterns:
        key = "".join("p" if s == 1 else "n" for s in signs)
        try:
            _, res, _ = monge_line(pair_centers, signs)
        except MissingCenter:
            witness[key] = "missing_center"
            continue
        witness[key] = res
        residuals.append(res)
    if not residuals:
        return _skip("monge", tol.theorem, "missing_center", witness)
    return _finish("monge", max(residuals), tol.theorem, witness)


# --------------------------------------------------- tangency chain checks

def contact_point(c1: GeneralizedCycle, c2: GeneralizedCycle) -> complex:
    """Closest-approach midpoint of two (near-)tangent cycles.

    Tangency is only certified to a tolerance, so the contact point is
    taken as the midpoint of the closest pair among the four axis
    points on the line of Euclidean centers.
    """
    e1, s1 = c1.euclid_center_radius()
    e2, s2 = c2.euclid_center_radius()
    u = e2 - e1
    if abs(u) < 1e-15:
        raise DegenerateConfiguration("concentric cycles have no contact point")
    u /= abs(u)
    best = min(((p, q) for p in (e1 + s1 * u, e1 - s1 * u)
                for q in (e2 + s2 * u, e2 - s2 * u)),
               key=lambda pq: abs(pq[0] - pq[1]))
    return (best[0] + best[1]) / 2.0


def _shoot_tangent_circle(tri: Triangle, vertex: str, w: GeneralizedCycle,
                          external: bool) -> GeneralizedCycle | None:
    """Circle inscribed in the angle at `vertex` and tangent to w.

    In the frame that moves the vertex to the origin the angle's sides
    are diameters and its internal bisector runs along the unit direction
    u.  With sin_half = sin(alpha/2) for the angle alpha, every circle
    inscribed in the angle is the Euclidean circle with center e u and
    radius e sin_half, for 0 < e (1 + sin_half) < 1.  If w has Euclidean
    center m and radius R in the frame, the two circles touch where
    |e u - m| = R -+ e sin_half (internal and external tangency), i.e.

        (1 - sin_half^2) e^2 - 2 (Re(conj(u) m) -+ R sin_half) e
            + |m|^2 - R^2 = 0.

    The inscribed circle meets the bisector at the radii e (1 - sin_half)
    and e (1 + sin_half), so its center lies at arc length
    s = atanh(e (1 - sin_half)) + atanh(e (1 + sin_half)) from the vertex
    and its radius is atanh(e (1 + sin_half)) - atanh(e (1 - sin_half)).
    The smallest root with s in (EDGE_INSET, 20] wins; the lower bound
    drops the trivial root at the vertex itself when w passes through it.
    None when no root qualifies.
    """
    v, p, _ = tri.opposite(vertex)
    u = bisector_direction(tri, vertex)
    d = mobius_to_origin(v, p)
    sin_half = abs((u * (d / abs(d)).conjugate()).imag)
    m, big_r = transform(DiskIsometry.translation(v), w).euclid_center_radius()
    sign = 1.0 if external else -1.0
    qa = 1.0 - sin_half * sin_half
    qb = -2.0 * ((u.conjugate() * m).real + sign * big_r * sin_half)
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
            center = mobius_from_origin(v, math.tanh(s / 2.0) * u)
            return circle_from_center_radius(center, math.atanh(far) - math.atanh(near))
    return None


def check_tangent_cevians(cfg: TriangleConfig,
                          w: GeneralizedCycle | None = None,
                          external: bool = False,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """Concurrency of the vertex-to-contact cevians of the three circles
    inscribed in the angles and tangent to a common circle w (default:
    the circumcircle).  Cross-checked against the homothetic center of
    (w, incircle), which the concurrency point should land on."""
    if w is None:
        w = cfg.circumcircle
    try:
        if classify(w) is not CycleClass.HYP_CIRCLE:
            return _skip("tangent_cevians", tol.chain, "target_not_circle")
    except GeometryError:
        return _skip("tangent_cevians", tol.chain, "target_not_circle")
    verts = cfg.triangle.vertices
    cevians = []
    for v in ("a", "b", "c"):
        circle = _shoot_tangent_circle(cfg.triangle, v, w, external)
        if circle is None:
            return _skip("tangent_cevians", tol.chain, f"tangent_circle_absent_{v}")
        contact = contact_point(circle, w)
        cevians.append(geodesic_through(verts[v], contact))
    try:
        point, residual = concurrency_point(cevians)
    except GeometryError:
        return _skip("tangent_cevians", tol.chain, "cevians_diverge")
    witness: dict = {"point": point, "external": external}
    if cfg.incircle is not None:
        try:
            hc = homothetic_centers(w, cfg.incircle.cycle)
            ref = hc.negative if external else hc.positive
            if ref is not None:
                witness["homothetic_center_gap"] = max(
                    point_geodesic_distance(point, geodesic_through(verts[v], ref))
                    for v in ("a", "b", "c"))
        except GeometryError:
            pass
    return _finish("tangent_cevians", residual, tol.chain, witness)


_FEUERBACH_POINT_FLAGS = ("bracket_failure", "no_euler_circle", "excircle_absent")


def check_feuerbach_point(cfg: TriangleConfig,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremCheck:
    """Concurrency of the incircle-contact-to-incenter line with the three
    vertex-to-excircle-contact lines on the Euler circle."""
    if cfg.flagged(*_FEUERBACH_POINT_FLAGS) or cfg.incircle is None:
        return _skip("feuerbach_point", tol.chain, "contact_points_missing")
    verts = cfg.triangle.vertices
    try:
        f0 = contact_point(cfg.euler_circle, cfg.incircle.cycle)
        lines = [geodesic_through(f0, cfg.incircle.center)]
        for v in ("a", "b", "c"):
            fv = contact_point(cfg.euler_circle, cfg.excircles[v].cycle)
            lines.append(geodesic_through(verts[v], fv))
    except GeometryError:
        return _skip("feuerbach_point", tol.chain, "contact_points_missing")
    try:
        point, _ = concurrency_point(lines)
    except DivergentCevians:
        return _skip("feuerbach_point", tol.chain, "lines_diverge")
    residual = max(point_geodesic_distance(point, line) for line in lines)
    witness: dict = {"point": point}
    if cfg.euler_center is not None:
        try:
            ei_line = geodesic_through(cfg.euler_center, cfg.incircle.center)
            witness["euler_incenter_line_gap"] = point_geodesic_distance(point, ei_line)
        except GeometryError:
            pass
    return _finish("feuerbach_point", residual, tol.chain, witness)
