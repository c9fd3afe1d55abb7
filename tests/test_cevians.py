"""Cevian feet, the six-point circle, tritangent circles, concurrency."""

import cmath
import math
import sys

import pytest

from hypfeuer import cevians
from hypfeuer.errors import BracketFailure, DivergentCevians
from hypfeuer.geom_core import (
    DiskIsometry,
    Triangle,
    hyp_distance,
    hyp_midpoint,
    mobius_to_origin,
    sigma,
    triangle_area,
)
from hypfeuer.cycles import (
    CycleClass,
    classify,
    geodesic_through,
    hyp_center_radius,
    membership_residual,
    point_geodesic_distance,
)
from hypfeuer.cevians import (
    BRACKET_WIDTH,
    VERTICES,
    bisector_foot,
    brent_root,
    build_config,
    concurrency_point,
    excircle,
    incircle,
    pseudoaltitude_foot,
    side_lines,
    vertex_bisector,
)
from hypfeuer.instances import instance_rng, random_triangle
from hypfeuer.theorems import check_tangent_cevians


def isosceles():
    # symmetric about the imaginary axis
    return Triangle.of(0.5j, -0.35, 0.35)


def clean_configs(count, seed=101):
    # absent excircles are everyday geometry, not a degradation of the
    # cevian machinery these tests probe
    out = []
    idx = 0
    while len(out) < count:
        tri, _ = random_triangle(instance_rng(seed, idx))
        cfg = build_config(tri)
        idx += 1
        if all(f.startswith("excircle_absent") for f in cfg.flags):
            out.append(cfg)
        if idx > count * 40:
            raise AssertionError("generator cannot produce clean configs")
    return out


# --------------------------------------------------------------- foot oracles

def test_isosceles_bisector_foot_is_base_midpoint():
    tri = isosceles()
    apex = "a" if tri.a == 0.5j else ("b" if tri.b == 0.5j else "c")
    foot = bisector_foot(tri, apex)
    mid = hyp_midpoint(-0.35, 0.35)
    assert foot == pytest.approx(mid, abs=1e-12)


def test_isosceles_pseudoaltitude_foot_is_base_midpoint():
    tri = isosceles()
    apex = "a" if tri.a == 0.5j else ("b" if tri.b == 0.5j else "c")
    foot = pseudoaltitude_foot(tri, apex)
    assert foot == pytest.approx(0.0, abs=1e-12)


def test_feet_satisfy_their_defining_balances():
    for cfg in clean_configs(12):
        tri = cfg.triangle
        for v in VERTICES:
            apex, b1, b2 = tri.opposite(v)
            mb = cfg.feet.bisector[v]
            assert abs(triangle_area(apex, b1, mb)
                       - triangle_area(apex, mb, b2)) < 1e-11
            hb = cfg.feet.pseudoaltitude[v]
            assert abs(sigma(b1, hb, apex) - sigma(apex, hb, b2)) < 1e-10


def test_feet_lie_on_their_side():
    for cfg in clean_configs(8):
        for v in VERTICES:
            side = cfg.sides[v]
            assert membership_residual(side, cfg.feet.bisector[v]) < 1e-11
            assert membership_residual(side, cfg.feet.pseudoaltitude[v]) < 1e-11


def test_balance_is_sharp_against_perturbation():
    # shifting a foot along the side must visibly break its balance,
    # otherwise the root finder could return anything
    cfg = clean_configs(1, seed=103)[0]
    tri = cfg.triangle
    apex, b1, b2 = tri.opposite("a")
    foot = cfg.feet.pseudoaltitude["a"]
    moved = foot + (b2 - b1) / abs(b2 - b1) * 1e-4
    assert abs(sigma(b1, moved, apex) - sigma(apex, moved, b2)) > 1e-6


def _side_frame(b1, b2):
    """The side line b1 b2 as the real axis of an isometry's frame, b1 at 0
    and b2 at the coordinate far > 0: the map back from a frame
    coordinate t to the disk, and far."""
    w = mobius_to_origin(b1, b2)
    back = DiskIsometry(b1, -cmath.phase(w), False).inverse()
    return back, abs(w)


def _brent_foot(tri, vertex, pseudoaltitude):
    """Side-frame coordinate of a foot found by a Brent solve of its
    defining balance, or None when the balance changes sign nowhere.

    The side line is cut at its two vertices, where the balance jumps:
    the bisector foot is looked for inside the segment, the
    pseudoaltitude foot also beyond either end, up to the ideal limit.
    """
    apex, b1, b2 = tri.opposite(vertex)
    back, far = _side_frame(b1, b2)
    inset = cevians.EDGE_INSET

    def balance(t):
        x = back(t)
        if pseudoaltitude:
            return sigma(b1, x, apex) - sigma(apex, x, b2)
        return triangle_area(apex, b1, x) - triangle_area(apex, x, b2)

    pieces = [(inset, far - inset)]
    if pseudoaltitude:
        limit = cevians.IDEAL_LIMIT
        pieces += [(-limit, -inset), (far + inset, limit)]
    roots = []
    for lo, hi in pieces:
        flo, fhi = balance(lo), balance(hi)
        if flo * fhi <= 0.0:
            roots.append(brent_root(balance, lo, hi, flo, fhi, width=1e-15)[0])
    assert len(roots) <= 1
    return roots[0] if roots else None


def _foot_matches_brent(tri, vertex, pseudoaltitude):
    """Compare one foot with its Brent solve; returns where it fell on
    the side line."""
    apex, b1, b2 = tri.opposite(vertex)
    back, far = _side_frame(b1, b2)
    fn = pseudoaltitude_foot if pseudoaltitude else bisector_foot
    t = _brent_foot(tri, vertex, pseudoaltitude)
    if t is None:
        with pytest.raises(BracketFailure):
            fn(tri, vertex)
        return "absent"
    assert abs(fn(tri, vertex) - back(t)) < 1e-12
    return "before" if t < 0.0 else "after" if t > far else "on"


@pytest.mark.parametrize("box", [0.25, 0.7, 0.95])
def test_closed_form_feet_match_brent_solves(box):
    # every draw, not only clean configs; pseudoaltitude feet fall beyond
    # both ends of their side in every box
    where = {"bisector": set(), "pseudoaltitude": set()}
    for idx in range(60):
        tri, _ = random_triangle(instance_rng(107, idx), box)
        for v in VERTICES:
            where["bisector"].add(_foot_matches_brent(tri, v, False))
            where["pseudoaltitude"].add(_foot_matches_brent(tri, v, True))
    assert where == {"bisector": {"on"}, "pseudoaltitude": {"before", "on", "after"}}


@pytest.mark.parametrize("apex, where", [
    (0.99999999 * cmath.exp(1e-4j), "absent"),
    (0.99999999 * cmath.exp(1j * (math.pi - 1e-4)), "absent"),
    (0.9999 * cmath.exp(1e-3j), "before"),
    (0.99999 * cmath.exp(1j * (math.pi - 2e-3)), "after"),
])
def test_closed_form_pseudoaltitude_foot_near_the_absolute(apex, where):
    # an apex almost on the extension of its base, close to the absolute:
    # the foot lies near an ideal endpoint or beyond it (BracketFailure),
    # and the closed form fails in exactly the cases the solve does
    tri = Triangle.of(apex, 0j, 0.3)
    vertex = next(v for v in VERTICES if tri.opposite(v)[0] == apex)
    assert _foot_matches_brent(tri, vertex, True) == where


def test_build_config_and_tangent_cevians_solve_nothing(monkeypatch):
    # the feet and the tangent circles are closed forms; the bisector
    # geodesics and side lines are built once per configuration
    calls = {"brent_root": 0, "vertex_bisector": 0, "side_lines": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in [m for n, m in sys.modules.items() if n.startswith("hypfeuer")]:
        if hasattr(module, "brent_root"):
            counting(module, "brent_root")
    counting(cevians, "vertex_bisector")
    counting(cevians, "side_lines")
    # a small triangle with all three excircles
    cfg = build_config(Triangle.of(0.156 - 0.075j, -0.117 - 0.181j, -0.047 + 0.085j))
    assert not cfg.flags
    assert calls == {"brent_root": 0, "vertex_bisector": 6, "side_lines": 1}
    check = check_tangent_cevians(cfg)
    assert check.status == "pass"
    assert calls["brent_root"] == 0


# ------------------------------------------------------------ euler circle

def test_six_point_membership_on_clean_configs():
    for cfg in clean_configs(15):
        assert cfg.euler_circle is not None
        assert max(cfg.euler_membership.values()) < 1e-10


def test_euler_center_distance_consistency():
    for cfg in clean_configs(6):
        if cfg.euler_center is None:
            continue
        ctr, rho = hyp_center_radius(cfg.euler_circle)
        assert ctr == pytest.approx(cfg.euler_center, abs=1e-11)
        for v in VERTICES:
            assert hyp_distance(ctr, cfg.feet.bisector[v]) == pytest.approx(
                rho, abs=1e-9)


# ------------------------------------------------------------- concurrency

def test_cevian_concurrency_residuals():
    for cfg in clean_configs(12):
        assert cfg.bisector_point is not None
        assert cfg.bisector_residual < 1e-10
        assert cfg.pseudo_orthocenter is not None
        assert cfg.orthocenter_residual < 1e-10


def test_circumcenter_equidistant_from_vertices():
    for cfg in clean_configs(8):
        if cfg.circumcenter is None:
            continue
        tri = cfg.triangle
        ds = [hyp_distance(cfg.circumcenter, p) for p in (tri.a, tri.b, tri.c)]
        assert max(ds) - min(ds) < 1e-10
        assert cfg.circumradius == pytest.approx(ds[0], abs=1e-10)


# ------------------------------------------------------- tritangent circles

def test_incircle_touches_all_sides():
    for cfg in clean_configs(10):
        inc = cfg.incircle
        assert inc is not None
        assert inc.side_spread < 1e-10
        sides = cfg.sides
        for v in VERTICES:
            gap = abs(point_geodesic_distance(inc.center, sides[v]) - inc.radius)
            assert gap < 1e-9
        assert classify(inc.cycle) is CycleClass.HYP_CIRCLE


def test_excircle_touches_all_sides_when_present():
    found = 0
    idx = 0
    while found < 5 and idx < 400:
        tri, _ = random_triangle(instance_rng(202, idx), 0.45)
        idx += 1
        sides = side_lines(tri)
        for v in VERTICES:
            spec = excircle(tri, v)
            if spec is None:
                continue
            found += 1
            for w in VERTICES:
                gap = abs(point_geodesic_distance(spec.center, sides[w]) - spec.radius)
                assert gap < 1e-9
    assert found >= 5


def test_incircle_center_on_internal_bisectors():
    tri = clean_configs(1, seed=104)[0].triangle
    inc = incircle(tri)
    for v in VERTICES:
        line = vertex_bisector(tri, v)
        assert point_geodesic_distance(inc.center, line) < 1e-10


def test_isosceles_internal_bisector_is_symmetry_axis():
    tri = isosceles()
    apex = "a" if tri.a == 0.5j else ("b" if tri.b == 0.5j else "c")
    line = vertex_bisector(tri, apex)
    assert line.is_line
    assert membership_residual(line, 0.2j) < 1e-12


# ------------------------------------------------------------ config flags

def test_flags_are_sorted_strings():
    rng_configs = []
    for idx in range(30):
        tri, _ = random_triangle(instance_rng(105, idx))
        rng_configs.append(build_config(tri))
    for cfg in rng_configs:
        assert list(cfg.flags) == sorted(cfg.flags)
        for f in cfg.flags:
            assert isinstance(f, str)


def test_flagged_prefix_matching():
    cfg = next(c for c in (build_config(random_triangle(instance_rng(106, i))[0])
                           for i in range(60)) if c.flags)
    prefix = cfg.flags[0].rsplit("_", 1)[0]
    assert cfg.flagged(prefix)
    assert not cfg.flagged("nonexistent_prefix")


def test_euclidean_limit_of_feet():
    # tiny triangles behave euclidean: bisector foot -> midpoint,
    # pseudoaltitude foot -> altitude foot
    lam = 1e-3
    base = (0.3 + 0.1j, -0.2 + 0.35j, -0.05 - 0.3j)
    tri = Triangle.of(*(lam * z for z in base))
    verts = tri.vertices
    for v in VERTICES:
        apex, b1, b2 = tri.opposite(v)
        mid = (b1 + b2) / 2.0
        foot_b = bisector_foot(tri, v)
        assert abs(foot_b - mid) / lam < 2e-4
        d = (b2 - b1) / abs(b2 - b1)
        t = ((apex - b1) / d).real
        alt = b1 + max(0.0, t) * d
        foot_h = pseudoaltitude_foot(tri, v)
        assert abs(foot_h - alt) / lam < 2e-4


# ------------------------------------------------------------ root-finder

@pytest.mark.parametrize("f, lo, hi, root", [
    (lambda x: x ** 3 - 0.3, 0.0, 1.0, 0.3 ** (1.0 / 3.0)),   # increasing
    (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151607),  # decreasing
    (lambda x: math.tanh(40.0 * (x - 0.2)), -0.9, 0.9, 0.2),   # steep step
])
def test_brent_root_within_bracket_width(f, lo, hi, root):
    x, width = brent_root(f, lo, hi, f(lo), f(hi))
    assert 0.0 <= width <= BRACKET_WIDTH
    assert abs(x - root) <= BRACKET_WIDTH


def test_brent_root_at_bracket_end_has_zero_width():
    f = lambda x: x - 0.25  # noqa: E731
    assert brent_root(f, 0.25, 1.0, f(0.25), f(1.0)) == (0.25, 0.0)
    assert brent_root(f, -1.0, 0.25, f(-1.0), f(0.25)) == (0.25, 0.0)


# ------------------------------------------------------ n-line concurrency

def test_concurrency_point_of_four_geodesics():
    p = 0.21 - 0.13j
    lines = [geodesic_through(p, q) for q in (0.6, -0.4 + 0.5j, -0.7j, 0.3 + 0.6j)]
    point, residual = concurrency_point(lines)
    assert abs(point - p) < 1e-12
    assert residual < 1e-12


def test_concurrency_point_scores_against_every_other_line():
    # three lines through p and a fourth that misses it: the winner is a
    # meet of two lines through p, scored by its distance to the fourth
    p = -0.15 + 0.2j
    lines = [geodesic_through(p, q) for q in (0.5, 0.4j, -0.5 - 0.3j)]
    stray = geodesic_through(p + 0.01, 0.6 + 0.6j)
    point, residual = concurrency_point(lines + [stray])
    assert abs(point - p) < 1e-12
    assert residual == pytest.approx(point_geodesic_distance(point, stray), rel=1e-9)


def test_concurrency_point_divergent_lines_raise():
    # short geodesics near four separate stretches of the absolute
    lines = [geodesic_through(0.95 * cmath.exp(1j * (t - 0.1)),
                              0.95 * cmath.exp(1j * (t + 0.1)))
             for t in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)]
    with pytest.raises(DivergentCevians):
        concurrency_point(lines)
