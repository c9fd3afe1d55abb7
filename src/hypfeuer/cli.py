"""Command-line surface: construct, verify, render.

Reports are pure functions of (scenario, seed, tolerances): instance
randomness comes from per-(seed, index, purpose) streams, floats are
serialized as shortest round-trip decimals, complex values as "x+yi"
strings, and wall time goes to stderr so report bytes stay identical
across runs.
"""

from __future__ import annotations

import argparse
import cmath
import enum
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, is_dataclass, replace

from .cevians import TriangleConfig, build_config
from .errors import GeometryError, SamplingExhausted
from .geom_core import Triangle
from .instances import (
    DEFAULT_MAX_VERTEX_RADIUS,
    DEFAULT_MIN_ANGLE,
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
from .svg_render import FigureSpec, render_svg
from .theorems import (
    DEFAULT_TOLERANCES,
    InstanceReport,
    Tolerances,
    VerificationReport,
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

# The suite registry, in report order: name -> (purpose stream, call).
# The call gets a fresh draw from that stream, or for purpose None the
# instance's shared triangle configuration, then the instance index and
# the tolerances.  The lambdas look the generators and checks up by name
# at call time, so a rebinding of a module attribute (as the benchmark's
# tracer does) is seen.
SUITES = {
    "inscribed_angle": (PURPOSE_ARC, lambda rng, index, tol:
                        check_inscribed_angle(*arc_instance(rng), tol)),
    "trapezoid": (PURPOSE_QUAD, lambda rng, index, tol:
                  check_trapezoid(*trapezoid_quad(rng, converse=bool(index % 2)),
                                  tol=tol)),
    "lexell": (PURPOSE_LEXELL, lambda rng, index, tol:
               check_lexell(*lexell_instance(rng), tol)),
    "six_point": (None, lambda cfg, index, tol: check_six_point(cfg, tol)),
    "euler_line": (None, lambda cfg, index, tol: check_euler_line(cfg, tol)),
    "euler_ratios": (None, lambda cfg, index, tol: check_euler_ratios(cfg, tol)),
    "feuerbach": (None, lambda cfg, index, tol: check_feuerbach(cfg, tol)),
    "radical_axis": (PURPOSE_CYCLE_PAIR, lambda rng, index, tol:
                     check_radical_axis(*random_cycle_pair(rng), tol)),
    "monge": (PURPOSE_MONGE, lambda rng, index, tol:
              check_monge(*monge_triple(rng), tol)),
    "tangent_cevians": (None, lambda cfg, index, tol:
                        check_tangent_cevians(cfg, tol=tol)),
    "feuerbach_point": (None, lambda cfg, index, tol:
                        check_feuerbach_point(cfg, tol)),
}

SUITE_ORDER = tuple(SUITES)

# suites that need a full triangle configuration
TRIANGLE_SUITES = frozenset(n for n, (purpose, _) in SUITES.items() if purpose is None)


@dataclass(frozen=True)
class Scenario:
    seed: int = 0
    trials: int = 10
    suite: tuple[str, ...] = SUITE_ORDER
    tolerances: Tolerances = DEFAULT_TOLERANCES
    triangle: tuple[complex, complex, complex] | None = None
    max_vertex_radius: float = DEFAULT_MAX_VERTEX_RADIUS
    min_angle: float = DEFAULT_MIN_ANGLE
    out: str | None = None


# ------------------------------------------------------------- serialization

def format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 or z.imag != z.imag else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def parse_complex(text: str) -> complex:
    cleaned = text.replace(" ", "")
    if cleaned.endswith("i"):
        # only a trailing i is the imaginary unit ("inf" keeps its own)
        cleaned = cleaned[:-1] + "j"
    try:
        z = complex(cleaned)
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None
    if not cmath.isfinite(z):
        raise ValueError(f"complex number {text!r} is not finite")
    return z


def parse_triangle(spec) -> tuple[complex, complex, complex]:
    parts = spec.split(",") if isinstance(spec, str) else list(spec)
    if len(parts) != 3:
        raise ValueError("triangle needs exactly three comma-separated vertices")
    a, b, c = (parse_complex(str(p)) for p in parts)
    return a, b, c


def parse_suite(spec) -> tuple[str, ...]:
    if isinstance(spec, (list, tuple)):
        names = [str(s) for s in spec]
    elif spec.strip() in ("all", ""):
        return SUITE_ORDER if spec.strip() == "all" else ()
    else:
        names = [s.strip() for s in spec.split(",") if s.strip()]
    for name in names:
        if name not in SUITE_ORDER:
            raise ValueError(f"unknown suite {name!r}; choose from "
                             f"{', '.join(SUITE_ORDER)} or 'all'")
    # keep registry order regardless of how the user listed them
    return tuple(n for n in SUITE_ORDER if n in set(names))


def _json_default(obj):
    """json.dumps hook for the values the standard encoder does not know:
    complex -> 'x+yi', enums by value, dataclasses as their fields."""
    if isinstance(obj, complex):
        return format_complex(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _to_json(doc) -> str:
    """The document as indented, key-sorted JSON with a final newline."""
    return json.dumps(doc, default=_json_default, indent=2, sort_keys=True) + "\n"


# ------------------------------------------------------------ suite running

def _run_instance(scn: Scenario, index: int) -> InstanceReport:
    instance: dict = {}
    flags: list[str] = []
    cfg = None
    if any(s in TRIANGLE_SUITES for s in scn.suite):
        if scn.triangle is not None:
            tri, resamples = Triangle.of(*scn.triangle), 0
        else:
            tri, resamples = random_triangle(
                instance_rng(scn.seed, index, PURPOSE_TRIANGLE),
                scn.max_vertex_radius, scn.min_angle)
        cfg = build_config(tri)
        flags = list(cfg.flags)
        instance["triangle"] = {"a": tri.a, "b": tri.b, "c": tri.c}
        instance["resamples"] = resamples
    checks = []
    for name in scn.suite:
        purpose, call = SUITES[name]
        source = cfg if purpose is None else instance_rng(scn.seed, index, purpose)
        checks.append(call(source, index, scn.tolerances))
    return InstanceReport(index, instance, flags, checks)


def run_verify(scn: Scenario) -> VerificationReport:
    start = time.perf_counter()
    instances = [_run_instance(scn, i) for i in range(scn.trials)]
    params = {
        "trials": scn.trials,
        "suite": list(scn.suite),
        "tolerances": asdict(scn.tolerances),
        "max_vertex_radius": scn.max_vertex_radius,
        "min_angle": scn.min_angle,
        "triangle": ({k: format_complex(v) for k, v in
                      zip("abc", scn.triangle)} if scn.triangle else None),
    }
    return VerificationReport(scn.seed, params, instances,
                              time.perf_counter() - start)


def report_json(report: VerificationReport) -> str:
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for inst in report.instances:
        for check in inst.checks:
            counts[check.status] += 1
    doc = {
        "seed": report.seed,
        "params": report.params,
        "summary": {
            "instances": len(report.instances),
            "passed": counts["pass"],
            "failed": counts["fail"],
            "skipped": counts["skipped"],
        },
        "instances": report.instances,
    }
    return _to_json(doc)


def config_json(cfg: TriangleConfig) -> str:
    tri = cfg.triangle
    doc = {
        "triangle": {"a": tri.a, "b": tri.b, "c": tri.c, "swapped": tri.swapped},
        "sides": cfg.sides,
        "feet": cfg.feet,
        "cevians": {"bisector": cfg.bisector_cevians,
                    "pseudoaltitude": cfg.pseudoaltitude_cevians},
        "circumcircle": cfg.circumcircle,
        "circumcenter": cfg.circumcenter,
        "circumradius": cfg.circumradius,
        "euler_circle": cfg.euler_circle,
        "euler_center": cfg.euler_center,
        "euler_radius": cfg.euler_radius,
        "euler_membership": cfg.euler_membership,
        "bisector_point": cfg.bisector_point,
        "bisector_residual": cfg.bisector_residual,
        "pseudo_orthocenter": cfg.pseudo_orthocenter,
        "orthocenter_residual": cfg.orthocenter_residual,
        "incircle": cfg.incircle,
        "excircles": cfg.excircles,
        "flags": list(cfg.flags),
    }
    return _to_json(doc)


# ------------------------------------------------------------------ the CLI

def _write_out(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(scn: Scenario) -> int:
    report = run_verify(scn)
    _write_out(report_json(report), scn.out)
    print(f"{len(report.instances)} instances, {report.failed} failed, "
          f"{report.wall_time:.2f}s", file=sys.stderr)
    return 0 if report.failed == 0 else 1


def cmd_construct(scn: Scenario) -> int:
    cfg = build_config(Triangle.of(*scn.triangle))
    _write_out(config_json(cfg), scn.out)
    return 0


def cmd_render(scn: Scenario, fmt: str) -> int:
    if scn.triangle is not None:
        tri = Triangle.of(*scn.triangle)
    else:
        tri, _ = random_triangle(instance_rng(scn.seed, 0, PURPOSE_TRIANGLE),
                                 scn.max_vertex_radius, scn.min_angle)
    cfg = build_config(tri)
    text = config_json(cfg) if fmt == "json" else render_svg(cfg, FigureSpec())
    _write_out(text, scn.out)
    return 0


# scenario key -> (the JSON types its value may have, their name)
_SCENARIO_TYPES = {
    "seed": ((int,), "an integer"),
    "trials": ((int,), "an integer"),
    "suite": ((str, list), "a string or a list"),
    "tolerances": ((dict,), "an object"),
    "triangle": ((str, list), "a string or a list"),
    "max_vertex_radius": ((int, float), "a number"),
    "min_angle": ((int, float), "a number"),
    "out": ((str,), "a string"),
}


def _check_type(what: str, value, kinds: tuple, name: str):
    # bool is an int subclass, but true is no seed
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{what} must be {name}, got {json.dumps(value)}")


def _check_scenario_types(data: dict):
    """Reject unknown scenario or tolerance keys and values of a JSON type
    no option takes."""
    unknown = set(data) - set(_SCENARIO_TYPES)
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    for key, value in data.items():
        _check_type(f"scenario key {key!r}", value, *_SCENARIO_TYPES[key])
    tolerances = data.get("tolerances", {})
    unknown = set(tolerances) - {f.name for f in fields(Tolerances)}
    if unknown:
        raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
    for key, value in tolerances.items():
        _check_type(f"tolerance {key!r}", value, (int, float), "a number")


def scenario_from_args(args) -> Scenario:
    data = {}
    if args.scenario:
        with open(args.scenario, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("scenario file must hold a JSON object")
        _check_scenario_types(data)

    def pick(flag, key, default):
        if flag is not None:
            return flag
        return data.get(key, default)

    tol_data = dict(data.get("tolerances", {}))
    for flag, key in ((args.tol_construct, "construct"),
                      (args.tol_theorem, "theorem"),
                      (args.tol_chain, "chain")):
        if flag is not None:
            tol_data[key] = flag
    tol = replace(DEFAULT_TOLERANCES, **{k: float(v) for k, v in tol_data.items()})

    trials = int(pick(args.trials, "trials", 10))
    if trials < 0:
        raise ValueError("--trials must be non-negative")
    triangle_raw = pick(args.triangle, "triangle", None)
    out = pick(args.out, "out", None)
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        raise ValueError(f"output directory of {out!r} does not exist")
    # outside these ranges the triangle sampler would never find a triangle
    max_vertex_radius = float(data.get("max_vertex_radius", DEFAULT_MAX_VERTEX_RADIUS))
    if not 0.0 < max_vertex_radius < 1.0:
        raise ValueError("max_vertex_radius must lie in (0, 1), "
                         f"got {max_vertex_radius!r}")
    # the angles of a hyperbolic triangle sum to less than pi
    min_angle = float(data.get("min_angle", DEFAULT_MIN_ANGLE))
    if not 0.0 <= min_angle < math.pi / 3.0:
        raise ValueError(f"min_angle must lie in [0, pi/3), got {min_angle!r}")
    return Scenario(
        seed=int(pick(args.seed, "seed", 0)),
        trials=trials,
        suite=parse_suite(pick(args.suite, "suite", "all")),
        tolerances=tol,
        triangle=parse_triangle(triangle_raw) if triangle_raw is not None else None,
        max_vertex_radius=max_vertex_radius,
        min_angle=min_angle,
        out=out,
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="hypfeuer",
        description="Triangle constructions and theorem verification "
                    "in the hyperbolic disk.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "construct": "serialize the full configuration of one triangle",
        "verify": "run theorem suites over seeded random instances",
        "render": "draw a configuration as an SVG figure",
    }
    for name in ("construct", "verify", "render"):
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--suite", type=str, default=None,
                        help="comma-separated check names, or 'all'")
        sp.add_argument("--tol-construct", type=float, default=None)
        sp.add_argument("--tol-theorem", type=float, default=None)
        sp.add_argument("--tol-chain", type=float, default=None)
        sp.add_argument("--triangle", type=str, default=None,
                        help='vertices as "a,b,c", e.g. "0.1+0.1i,0.5,0.3i"')
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--format", type=str, default=None,
                        choices=("json", "svg"))
        sp.add_argument("--scenario", type=str, default=None,
                        help="JSON file with scenario fields; flags override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scn = scenario_from_args(args)
        fmt = args.format or ("svg" if args.command == "render" else "json")
        if args.command != "render" and fmt != "json":
            raise ValueError("--format svg only applies to render")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"hypfeuer: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            return cmd_verify(scn)
        if args.command == "construct":
            if scn.triangle is None:
                print("hypfeuer: construct needs --triangle", file=sys.stderr)
                return 2
            return cmd_construct(scn)
        return cmd_render(scn, fmt)
    except GeometryError as exc:
        print(f"hypfeuer: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (SamplingExhausted, OSError) as exc:
        print(f"hypfeuer: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
