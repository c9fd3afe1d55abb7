"""Mutation gate: a wrong kernel or construction must fail the verifier.

Each mutant replaces one kernel or construction function in every
hypfeuer module that binds it, as the benchmark's tracer does, and
`verify --suite all` then
runs over 100 default-box instances.  A mutant is caught on an instance
when some check on it fails.  Every mutant in MUTANTS must be caught on
at least CAUGHT_AT_LEAST of them, every one in TANGENT_CEVIAN_MUTANTS
on each instance where tangent_cevians runs, and every one in
RADICAL_AXIS_MUTANTS on each instance where radical_axis runs with a
circle member, every one in TRAPEZOID_MUTANTS on each trapezoid
instance, and every one in FEUERBACH_MUTANTS on each instance where
feuerbach runs.  SURVIVORS lists the mutants no check can catch, each
with its reason; the gate checks that they still survive, so a change
that starts catching one must move it.

The drawn suites (inscribed_angle, trapezoid, lexell, radical_axis,
monge) fail rather than skip where a wrong kernel breaks what their
generators guarantee, so no mutant of any table may make them skip
more often than the unmutated kernel does.
"""

import cmath
import math
import sys
from collections import Counter

import pytest

from hypfeuer import cevians, cli, cycles, geom_core, power
from hypfeuer.cycles import GeneralizedCycle
from hypfeuer.power import HomotheticCenters

CAUGHT_AT_LEAST = 90

TRIALS = 100


def _rebind(monkeypatch, home, name, mutant):
    """Replace home.<name> wherever a hypfeuer module binds it."""
    original = getattr(home, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "hypfeuer" or mod_name.startswith("hypfeuer."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, mutant)


def _distances_scaled(original):
    def mutant(x, normals):
        return [d * (1.0 + 1e-6) for d in original(x, normals)]
    return mutant


def _distances_off_by_one(original):
    def mutant(x, normals):
        ds = original(x, normals)
        return ds[1:] + ds[:1]
    return mutant


def _through_normal_perturbed(original):
    def mutant(u, v):
        # A + 1e-6 at the scale GeneralizedCycle.of normalizes to
        n0, n1, n2 = original(u, v)
        return n0 + 1e-6 * max(abs(n0), math.hypot(n1, n2)), n1, n2
    return mutant


def _meet_other_root(original):
    def mutant(mt, mx, my):
        q = mt * mt - mx * mx - my * my
        if q <= 0.0:
            return None
        # mt + copysign(...) in the kernel: this is the inverse point
        z = complex(mx, my) / (mt - math.copysign(math.sqrt(q), mt))
        return z if abs(z) < 1.0 else None
    return mutant


def _frame_radius_scaled(original):
    def mutant(tri, vertex):
        b1, u, s, zeta, tau = original(tri, vertex)
        return b1, u, s, zeta * (1.0 + 1e-6), tau
    return mutant


def _frame_angle_shifted(original):
    def mutant(tri, vertex):
        b1, u, s, zeta, tau = original(tri, vertex)
        return b1, u, s, zeta * cmath.exp(1e-6j), tau
    return mutant


def _lexell_b_scaled(original):
    def mutant(a, b, x0):
        g = original(a, b, x0)
        return GeneralizedCycle.of(g.a, g.b * (1.0 + 1e-6), g.c)
    return mutant


def _first_angle_shifted(original):
    def mutant(a, b, c, d):
        angles = original(a, b, c, d)
        if angles is None:
            return None
        return [angles[0] + 1e-6] + angles[1:]
    return mutant


def _arc_samples_scaled(original):
    def mutant(cycle, a, b, count):
        return [z * (1.0 + 1e-6) for z in original(cycle, a, b, count)]
    return mutant


def _arc_chord_scaled(original):
    def mutant(m, t, kappa, s):
        # the chord from m scaled: the point leaves its cycle
        return m + (original(m, t, kappa, s) - m) * (1.0 + 1e-6)
    return mutant


def _through_c_shifted(original):
    def mutant(p, q, r):
        g = original(p, q, r)
        return GeneralizedCycle.of(g.a, g.b, g.c + 1e-6)
    return mutant


def _radius_scaled(original):
    def mutant(center, rho):
        return original(center, rho * (1.0 + 1e-6))
    return mutant


def _center_radius_scaled(original):
    def mutant(cycle):
        center, radius = original(cycle)
        return center, radius * (1.0 + 1e-6)
    return mutant


def _centers_scaled(original):
    def mutant(c1, c2):
        hc = original(c1, c2)
        return HomotheticCenters(*(None if z is None else z * (1.0 + 1e-6)
                                   for z in (hc.positive, hc.negative)))
    return mutant


def _shot_scaled(original):
    def mutant(tri, vertex, w):
        g = original(tri, vertex, w)
        if g is None:
            return None
        # e x (1 + 1e-6): scaled about the vertex in its frame the circle
        # stays inscribed in the angle, but no longer touches w
        v = tri.opposite(vertex)[0]
        k = 1.0 + 1e-6
        a, b, c = cycles._translate_raw(v, g.a, g.b, g.c)
        return GeneralizedCycle.of(*cycles._translate_raw(-v, a, b * k, c * k * k))
    return mutant


def _tangent_centers_scaled(original):
    def mutant(lifts, side_normals, flags):
        def moved(spec):
            if spec is None:
                return None
            z = spec.center * (1.0 + 1e-6)
            return spec.replace(
                center=z, cycle=cycles.circle_from_center_radius(z, spec.radius))
        inc, excircles = original(lifts, side_normals, flags)
        return moved(inc), {v: moved(spec) for v, spec in excircles.items()}
    return mutant


def _axis_scaled(original):
    def mutant(c1, c2):
        g = original(c1, c2)
        k = 1.0 + 1e-6
        return GeneralizedCycle.of(g.a * k, g.b, g.c * k)
    return mutant


def _power_scaled(original):
    def mutant(p, cycle):
        return original(p, cycle) * (1.0 + 1e-6)
    return mutant


def _sign_convention_flipped(original):
    def mutant(cls, a, b, c):
        g = original(cls, a, b, c)
        return GeneralizedCycle(-g.a, -g.b, -g.c)
    return classmethod(mutant)


MUTANTS = {
    # the plane distances give the tritangent radii and the pencils'
    # residuals
    "distance_scaled_1e-6": (cycles, "plane_distances", _distances_scaled),
    # the normal of every side, cevian, contact line and geodesic_through
    "through_normal_perturbed_1e-6": (cycles, "through_normal",
                                      _through_normal_perturbed),
    # the side frame's zeta carries every cevian foot
    "side_frame_radius_scaled_1e-6": (cevians, "_side_frame", _frame_radius_scaled),
    "side_frame_angle_shifted_1e-6": (cevians, "_side_frame", _frame_angle_shifted),
    # the checks' own constructions, and the circles every configuration
    # builds (circumcircle, Euler circle, tritangent circles)
    "lexell_b_scaled_1e-6": (cycles, "lexell_cycle", _lexell_b_scaled),
    "quad_first_angle_shifted_1e-6": (geom_core, "convex_quad_angles",
                                      _first_angle_shifted),
    "arc_samples_scaled_1e-6": (cycles, "_arc_samples", _arc_samples_scaled),
    # every sample of a cycle that crosses the absolute: the lexell
    # locus, the radical axis and the trapezoid's d
    "arc_point_chord_scaled_1e-6": (cycles, "arc_point", _arc_chord_scaled),
    "through_c_shifted_1e-6": (cycles, "cycle_through", _through_c_shifted),
    "circle_radius_scaled_1e-6": (cycles, "circle_from_center_radius", _radius_scaled),
    # six_point and euler_line compare each radius with the distances
    # from its center to the points the circle passes through
    "center_radius_scaled_1e-6": (cycles, "hyp_center_radius", _center_radius_scaled),
    # Monge's centers
    "homothetic_centers_scaled_1e-6": (power, "homothetic_centers", _centers_scaled),
    # the other root is the point's inverse in the absolute, always
    # outside the disk, so every vector meet_point reads is "no point
    # inside": monge loses every homothetic center and fails with no
    # pattern left, and radical_axis fails on a circle member (the
    # triangle checks skip, pinned below)
    "meet_other_root": (cycles, "meet_point", _meet_other_root),
    # the incircle and excircles, each kept at its radius
    "tangent_circles_center_scaled_1e-6": (cevians, "tangent_circles",
                                           _tangent_centers_scaled),
    # A = C scaled alike keeps the axis a geodesic, but moves it off the
    # equal-power locus
    "radical_axis_scaled_1e-6": (power, "radical_axis", _axis_scaled),
}

# Only tangent_cevians reads these.  It skips where the circumcircle is a
# horocycle or hypercycle (15 of the 100 instances), so they cannot reach
# CAUGHT_AT_LEAST; each must fail every instance on which the check runs.
TANGENT_CEVIAN_MUTANTS = {
    "tangent_shot_scaled_1e-6": (cevians, "_shoot_tangent_circle", _shot_scaled),
}

# A power wrong for both cycles alike keeps them equal, so radical_axis
# sees it only through a circle member's power against its definition;
# each must fail every instance on which the check runs with one.
RADICAL_AXIS_MUTANTS = {
    "power_scaled_1e-6": (power, "power_of_point", _power_scaled),
}

# Every trapezoid quad is drawn with c and d on one constant-area locus,
# so its angle balance is the check's evidence.  A shifted quad angle
# throws the balance off by the shift; a wrong locus (its b, or the
# chord of its samples) puts d off the true locus, so the areas differ
# and so do the angles.  Each must fail every trapezoid instance.
TRAPEZOID_MUTANTS = {
    "quad_kernel_first_angle_shifted_1e-6": (geom_core, "convex_quad_angles",
                                             _first_angle_shifted),
    "lexell_b_scaled_1e-6": MUTANTS["lexell_b_scaled_1e-6"],
    "arc_point_chord_scaled_1e-6": MUTANTS["arc_point_chord_scaled_1e-6"],
}

# feuerbach measures each tritangent circle's side gap on the cycle the
# configuration holds.  A circle moved off its center but kept at its
# radius misses its sides, so each must fail every instance on which
# the check runs.
FEUERBACH_MUTANTS = {
    "tangent_circles_center_scaled_1e-6": MUTANTS["tangent_circles_center_scaled_1e-6"],
}

SURVIVORS = {
    # -(A, B, C) has the locus of (A, B, C), and every check reads a
    # cycle through sign-free quantities (tangency, |C - A| and the
    # hyperboloid plane all turn the sign away)
    "sign_convention_flipped": (GeneralizedCycle, "of", _sign_convention_flipped),
    # the tritangent radius is the mean of a center's three side
    # distances, equal by the algebra of tangent_circles, so rotating
    # them changes nothing; a pencil's residual is the largest distance
    # to the lines outside its pair, which a rotation keeps too
    "batched_distance_off_by_one": (cycles, "plane_distances", _distances_off_by_one),
}


def _apply(monkeypatch, home, name, make):
    if home is GeneralizedCycle:
        monkeypatch.setattr(GeneralizedCycle, name,
                            make(getattr(GeneralizedCycle, name).__func__))
    else:
        _rebind(monkeypatch, home, name, make(getattr(home, name)))


def _verify():
    """(instances with a failing check, skips per check name) over the
    gate's run."""
    report = cli.run_verify(cli.Scenario(seed=0, trials=TRIALS))
    failing = sum(1 for inst in report.instances
                  if any(c.status == "fail" for c in inst.checks))
    skipped = Counter(c.name for inst in report.instances for c in inst.checks
                      if c.status == "skipped")
    return failing, skipped


def test_the_unmutated_kernel_fails_nothing():
    assert _verify()[0] == 0


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_is_caught(monkeypatch, mutant):
    _apply(monkeypatch, *MUTANTS[mutant])
    failing, _ = _verify()
    assert failing >= CAUGHT_AT_LEAST, (mutant, failing)


def _tangent_cevian_statuses():
    report = cli.run_verify(cli.Scenario(seed=0, trials=TRIALS,
                                         suite=("tangent_cevians",)))
    return [c.status for inst in report.instances for c in inst.checks]


@pytest.mark.parametrize("mutant", sorted(TANGENT_CEVIAN_MUTANTS))
def test_tangent_cevian_mutant_fails_wherever_the_check_runs(monkeypatch, mutant):
    honest = _tangent_cevian_statuses()
    # the circumcircle is a circle on 85 of the 100 instances
    assert honest.count("pass") >= 85
    _apply(monkeypatch, *TANGENT_CEVIAN_MUTANTS[mutant])
    mutated = _tangent_cevian_statuses()
    assert mutated == ["fail" if s == "pass" else s for s in honest], mutant


def _radical_axis_checks():
    report = cli.run_verify(cli.Scenario(seed=0, trials=TRIALS,
                                         suite=("radical_axis",)))
    return [c for inst in report.instances for c in inst.checks]


@pytest.mark.parametrize("mutant", sorted(RADICAL_AXIS_MUTANTS))
def test_radical_axis_mutant_fails_wherever_a_circle_is_checked(monkeypatch, mutant):
    honest = _radical_axis_checks()
    checked = [c.status == "pass" and bool(c.witness["power_checked"]) for c in honest]
    # 86 of the 100 instances run the check with a circle member
    assert sum(checked) >= 86
    _apply(monkeypatch, *RADICAL_AXIS_MUTANTS[mutant])
    mutated = [c.status for c in _radical_axis_checks()]
    assert mutated == ["fail" if hit else c.status
                       for c, hit in zip(honest, checked)], mutant


def _trapezoid_statuses():
    report = cli.run_verify(cli.Scenario(seed=0, trials=TRIALS, suite=("trapezoid",)))
    return [c.status for inst in report.instances for c in inst.checks]


@pytest.mark.parametrize("mutant", sorted(TRAPEZOID_MUTANTS))
def test_trapezoid_mutant_fails_every_trapezoid_instance(monkeypatch, mutant):
    assert _trapezoid_statuses() == ["pass"] * TRIALS
    _apply(monkeypatch, *TRAPEZOID_MUTANTS[mutant])
    assert _trapezoid_statuses() == ["fail"] * TRIALS, mutant


def _feuerbach_statuses():
    report = cli.run_verify(cli.Scenario(seed=0, trials=TRIALS, suite=("feuerbach",)))
    return [c.status for inst in report.instances for c in inst.checks]


@pytest.mark.parametrize("mutant", sorted(FEUERBACH_MUTANTS))
def test_feuerbach_mutant_fails_wherever_the_check_runs(monkeypatch, mutant):
    assert _feuerbach_statuses() == ["pass"] * TRIALS
    _apply(monkeypatch, *FEUERBACH_MUTANTS[mutant])
    assert _feuerbach_statuses() == ["fail"] * TRIALS, mutant


@pytest.mark.parametrize("mutant", sorted(SURVIVORS))
def test_survivor_still_survives(monkeypatch, mutant):
    _apply(monkeypatch, *SURVIVORS[mutant])
    failing, _ = _verify()
    assert failing < CAUGHT_AT_LEAST, (mutant, failing)


def test_meet_other_root_makes_the_triangle_checks_skip(monkeypatch):
    # the pencils diverge, and the concurrency points, the tritangent
    # centers and the circles' centers go missing, so every triangle
    # check that needs an interior meet skips everywhere instead of
    # failing; monge's failures alone catch the mutant
    honest_skips = _verify()[1]
    _apply(monkeypatch, *MUTANTS["meet_other_root"])
    skipped = _verify()[1]
    for name in ("euler_line", "euler_ratios", "feuerbach", "tangent_cevians",
                 "feuerbach_point"):
        assert honest_skips[name] < skipped[name] == TRIALS, name


def _inscribed_angle_checks():
    report = cli.run_verify(cli.Scenario(seed=0, trials=TRIALS, suite=("inscribed_angle",)))
    return [c for inst in report.instances for c in inst.checks]


def test_meet_other_root_fails_inscribed_angle_on_every_circle(monkeypatch):
    # the mutant reads no circle's center, so each of the 65 instances
    # whose cycle is a circle fails as missing_center; the 35 others,
    # horocycles and equidistants, have no center and still pass
    honest = _inscribed_angle_checks()
    assert {c.status for c in honest} == {"pass"}
    circles = ["center_angle_gap" in c.witness for c in honest]
    assert sum(circles) == 65
    _apply(monkeypatch, *MUTANTS["meet_other_root"])
    mutated = [(c.status, c.flag) for c in _inscribed_angle_checks()]
    assert mutated == [("fail", "missing_center") if circle else ("pass", None)
                       for circle in circles]


DRAWN_SUITES = ("inscribed_angle", "trapezoid", "lexell", "radical_axis", "monge")

EVERY_MUTANT = {**MUTANTS, **TANGENT_CEVIAN_MUTANTS, **RADICAL_AXIS_MUTANTS,
                **TRAPEZOID_MUTANTS, **FEUERBACH_MUTANTS, **SURVIVORS}


def _drawn_outcomes():
    """(skips per (suite, flag), radical_axis passes that checked no
    member's power) over the drawn suites of the gate's instances."""
    report = cli.run_verify(cli.Scenario(seed=0, trials=TRIALS, suite=DRAWN_SUITES))
    checks = [c for inst in report.instances for c in inst.checks]
    skips = Counter((c.name, c.flag) for c in checks if c.status == "skipped")
    unchecked = sum(1 for c in checks if c.name == "radical_axis" and c.status == "pass"
                    and not c.witness["power_checked"])
    return skips, unchecked


def test_the_drawn_suites_skip_only_where_the_axis_misses_the_disk():
    # 4 pairs of equidistants have no center to check a power against
    assert _drawn_outcomes() == (Counter({("radical_axis", "axis_outside_disk"): 10}), 4)


@pytest.mark.parametrize("mutant", sorted(EVERY_MUTANT))
def test_no_mutant_adds_a_drawn_suite_skip(monkeypatch, mutant):
    honest_skips, honest_unchecked = _drawn_outcomes()
    _apply(monkeypatch, *EVERY_MUTANT[mutant])
    skips, unchecked = _drawn_outcomes()
    for key, count in skips.items():
        assert count <= honest_skips[key], (mutant, key, count)
    assert unchecked <= honest_unchecked, (mutant, unchecked)
