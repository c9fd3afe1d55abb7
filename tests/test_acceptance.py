"""End-to-end acceptance run: ten criteria, one printed line each.

Every criterion prints "[acceptance NN] title: PASS/FAIL (detail)" so a
plain `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import math
import time

import pytest

from hypfeuer.cevians import build_config
from hypfeuer.cli import main
from hypfeuer.cycles import (
    coefficient_distance,
    geodesic_through,
    point_geodesic_distance,
)
from hypfeuer.geom_core import Triangle, mobius_from_origin, mobius_to_origin
from hypfeuer.instances import (
    PURPOSE_ARC,
    PURPOSE_CYCLE_PAIR,
    PURPOSE_LEXELL,
    PURPOSE_MONGE,
    PURPOSE_QUAD,
    PURPOSE_TRIANGLE,
    arc_instance,
    instance_rng,
    lexell_instance,
    monge_triple,
    random_cycle_pair,
    random_triangle,
    trapezoid_quad,
)
from hypfeuer.power import homothety_cycle, pseudolength, radical_axis
from hypfeuer.theorems import (
    check_euler_line,
    check_euler_ratios,
    check_feuerbach,
    check_feuerbach_point,
    check_inscribed_angle,
    check_lexell,
    check_monge,
    check_radical_axis,
    check_six_point,
    check_tangent_cevians,
    check_trapezoid,
)

SEED = 42


def report(num, title, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {title}: {status} ({detail})", flush=True)
    assert ok, f"{title}: {detail}"


@pytest.fixture(scope="module")
def batch():
    start = time.perf_counter()
    configs = []
    for i in range(1000):
        tri, _ = random_triangle(instance_rng(SEED, i, PURPOSE_TRIANGLE))
        configs.append(build_config(tri))
    return {"configs": configs, "seconds": time.perf_counter() - start}


def test_01_six_point_circle(batch):
    start = time.perf_counter()
    done = good = 0
    for cfg in batch["configs"]:
        chk = check_six_point(cfg)
        if chk.status == "skipped":
            continue
        done += 1
        if chk.residual < 1e-9:
            good += 1
    elapsed = batch["seconds"] + time.perf_counter() - start
    ok = done > 0 and good / done >= 0.99 and elapsed < 60.0
    report(1, "six-point circle membership", ok,
           f"{good}/{done} under 1e-9 in {elapsed:.1f}s")


def test_02_feuerbach_tangency(batch):
    worst = 0.0
    checked = skipped = absent = 0
    consistent = True
    for cfg in batch["configs"]:
        for v in "abc":
            named = {f"excircle_absent_{v}", f"excircle_center_at_absolute_{v}"}
            if (cfg.excircles[v] is None) != bool(named.intersection(cfg.flags)):
                consistent = False
        chk = check_feuerbach(cfg)
        if chk.status == "skipped":
            skipped += 1
            continue
        checked += 1
        for value in chk.witness.values():
            if value == "absent":
                absent += 1
            else:
                worst = max(worst, value)
    ok = consistent and checked > 0 and worst < 1e-8
    report(2, "Feuerbach tangencies", ok,
           f"worst {worst:.2e} over {checked} configs, "
           f"{absent} absent excircles flagged, {skipped} skipped")


def test_03_euler_line_and_homothety(batch):
    worst_line = worst_map = 0.0
    used = 0
    for cfg in batch["configs"]:
        chk = check_euler_line(cfg)
        if chk.status == "skipped":
            continue
        used += 1
        worst_line = max(worst_line, chk.residual)
        m = cfg.bisector_point
        ratio = -pseudolength(m, cfg.feet.bisector["a"]) / pseudolength(m, cfg.triangle.a)
        try:
            image = homothety_cycle(m, ratio, cfg.circumcircle)
            worst_map = max(worst_map,
                            coefficient_distance(image, cfg.euler_circle))
        except Exception:
            worst_map = math.inf
    ok = used > 0 and worst_line < 1e-9 and worst_map < 1e-9
    report(3, "Euler line and circumcircle homothety", ok,
           f"collinearity {worst_line:.2e}, map {worst_map:.2e}, {used} configs")


def test_04_ratio_identities(batch):
    worst = 0.0
    used = 0
    for cfg in batch["configs"]:
        chk = check_euler_ratios(cfg)
        if chk.status == "skipped":
            continue
        used += 1
        worst = max(worst, chk.residual)
    ok = used > 0 and worst < 1e-10
    report(4, "bisector ratio and pseudoaltitude product identities", ok,
           f"worst spread {worst:.2e} over {used} configs")


def test_05_arc_trapezoid_lexell():
    worst = {"arc": 0.0, "quad": 0.0, "locus": 0.0}
    counts = {"arc": 0, "quad": 0, "locus": 0}
    for i in range(500):
        chk = check_inscribed_angle(*arc_instance(instance_rng(SEED, i, PURPOSE_ARC)))
        if chk.status == "pass":
            counts["arc"] += 1
            worst["arc"] = max(worst["arc"], chk.residual)
        quad = trapezoid_quad(instance_rng(SEED, i, PURPOSE_QUAD),
                              converse=bool(i % 2))
        chk = check_trapezoid(*quad)
        if chk.status == "pass":
            counts["quad"] += 1
            worst["quad"] = max(worst["quad"], chk.residual)
        chk = check_lexell(*lexell_instance(instance_rng(SEED, i, PURPOSE_LEXELL)))
        if chk.status == "pass":
            counts["locus"] += 1
            worst["locus"] = max(worst["locus"], chk.residual)
    ok = (all(c == 500 for c in counts.values())
          and all(w < 1e-9 for w in worst.values()))
    report(5, "inscribed angle, trapezoid, constant-area locus", ok,
           f"counts {tuple(counts.values())}, worst "
           f"{worst['arc']:.1e}/{worst['quad']:.1e}/{worst['locus']:.1e}")


def test_06_radical_axis():
    worst = 0.0
    passes = geodesics = 0
    index = 0
    while passes < 1000 and index < 1500:
        c1, c2 = random_cycle_pair(instance_rng(SEED, index, PURPOSE_CYCLE_PAIR))
        index += 1
        chk = check_radical_axis(c1, c2)
        if chk.status == "skipped":
            continue
        passes += 1
        worst = max(worst, chk.residual)
        axis = radical_axis(c1, c2)
        if abs(axis.c - axis.a) < 1e-12:
            geodesics += 1
    ok = passes == 1000 and geodesics == 1000 and worst < 1e-10
    report(6, "radical axis class and equal powers", ok,
           f"{passes} axes from {index} pairs, worst spread {worst:.2e}")


def test_07_monge_lines():
    worst = 0.0
    full = failed = 0
    for i in range(500):
        triple = monge_triple(instance_rng(SEED, i, PURPOSE_MONGE))
        chk = check_monge(*triple)
        if chk.status == "skipped":
            continue
        if chk.residual >= 1e-9:
            failed += 1
        worst = max(worst, chk.residual)
        numeric = [v for v in chk.witness.values() if not isinstance(v, str)]
        if len(numeric) == 4:
            full += 1
    ok = failed == 0 and worst < 1e-9 and full / 500 >= 0.9
    report(7, "Monge collinearity over sign patterns", ok,
           f"worst {worst:.2e}, {full}/500 triples with all four lines")


def test_08_tangency_concurrencies():
    # triangles small enough that every excircle exists, so both
    # concurrency statements have their full ingredient set
    configs = []
    index = 0
    while len(configs) < 200 and index < 800:
        tri, _ = random_triangle(instance_rng(SEED, index, PURPOSE_TRIANGLE),
                                 max_vertex_radius=0.25)
        index += 1
        cfg = build_config(tri)
        if not cfg.flags:
            configs.append(cfg)
    worst_cev = worst_pt = worst_fi = 0.0
    done = 0
    for i, cfg in enumerate(configs):
        chk13 = check_tangent_cevians(cfg)
        chk14 = check_feuerbach_point(cfg)
        if chk13.status != "pass" or chk14.status != "pass":
            continue
        done += 1
        worst_cev = max(worst_cev, chk13.residual)
        worst_pt = max(worst_pt, chk14.residual)
        # the incircle touches the Euler circle from inside, so the
        # contact lies r_in beyond the incenter on the ray from the Euler
        # center: in the incenter's frame, against the Euler center's image
        inc = cfg.incircle
        away = -mobius_to_origin(inc.center, cfg.euler_center)
        f0 = mobius_from_origin(inc.center,
                                math.tanh(inc.radius / 2.0) * away / abs(away))
        fi_line = geodesic_through(f0, inc.center)
        worst_fi = max(worst_fi, point_geodesic_distance(
            chk14.witness["point"], fi_line))
    ok = (done == 200 and worst_cev < 1e-8 and worst_pt < 1e-8
          and worst_fi < 1e-8)
    report(8, "tangent-cevian and contact-line concurrencies", ok,
           f"{done}/200, cevians {worst_cev:.1e}, point {worst_pt:.1e}, "
           f"contact line {worst_fi:.1e}")


def test_09_euclidean_limit():
    base = (0.1 + 0.1j, 0.5, -0.1 + 0.4j)

    def euclid_midpoint(p, q):
        return (p + q) / 2.0

    def euclid_altitude_foot(v, p, q):
        d = q - p
        t = ((v - p).real * d.real + (v - p).imag * d.imag) / abs(d) ** 2
        return p + t * d

    errors = []
    for lam in (1e-1, 1e-2, 1e-3):
        tri = Triangle.of(*(lam * z for z in base))
        cfg = build_config(tri)
        verts = tri.vertices
        worst = 0.0
        for v in "abc":
            _, p, q = tri.opposite(v)
            worst = max(worst,
                        abs(cfg.feet.bisector[v] - euclid_midpoint(p, q)) / lam,
                        abs(cfg.feet.pseudoaltitude[v]
                            - euclid_altitude_foot(verts[v], p, q)) / lam)
        errors.append(worst)
    ok = errors[0] > errors[1] > errors[2] and errors[2] < 1e-5
    report(9, "Euclidean small-triangle limit of the feet", ok,
           "rel errors " + "/".join(f"{e:.1e}" for e in errors))


def test_10_deterministic_reports(tmp_path):
    argv = ["verify", "--suite", "all", "--trials", "100", "--seed", "7"]
    out1, out2 = tmp_path / "one.json", tmp_path / "two.json"
    code1 = main([*argv, "--out", str(out1)])
    code2 = main([*argv, "--out", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    ok = same and code1 == code2 == 0
    report(10, "byte-identical verification reports", ok,
           f"codes {code1}/{code2}, {len(out1.read_bytes())} bytes, "
           f"identical={same}")
