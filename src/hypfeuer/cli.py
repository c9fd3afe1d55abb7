"""Command-line surface: construct, verify, render.

Reports are pure functions of the scenario, seed included: instance
randomness comes from per-(seed, index, purpose) streams, floats are
serialized as shortest round-trip decimals, complex values as "x+yi"
strings, and wall time goes to stderr so report bytes stay identical
across runs.  A NaN or an infinity is never written: the command exits
1 instead.

verify runs its instances in blocks (run_verify), one stage at a time
over a block: the triangle draws and configurations, then each suite.
No stage call reads another instance's stream or configuration, so the
report, and the error that stops a run, are those of running each
instance whole, in turn; only the time differs.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import os
import sys
import time
from types import SimpleNamespace

from .cevians import TriangleConfig, build_config
from .errors import GeometryError, SamplingExhausted
from .geom_core import Record, Triangle
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
from .svg_render import render_svg
from .theorems import (
    TOLERANCES,
    InstanceReport,
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

# a triangle suite's source: the instance's configuration, built without
# or with the cevian pencils (build_config's pencils)
CONFIG, PENCILS = "config", "pencils"

# The suite registry, in report order: name -> (source, call).  The call
# gets a fresh draw from the source's purpose stream, or for CONFIG and
# PENCILS the configuration.
# The lambdas look the generators and checks up by name at call time, so
# a rebinding of a module attribute (as the benchmark's tracer does) is
# seen.
SUITES = {
    "inscribed_angle": (PURPOSE_ARC, lambda rng: check_inscribed_angle(*arc_instance(rng))),
    "trapezoid": (PURPOSE_QUAD, lambda rng: check_trapezoid(*trapezoid_quad(rng))),
    "lexell": (PURPOSE_LEXELL, lambda rng: check_lexell(*lexell_instance(rng))),
    "six_point": (PENCILS, lambda cfg: check_six_point(cfg)),
    "euler_line": (PENCILS, lambda cfg: check_euler_line(cfg)),
    "euler_ratios": (PENCILS, lambda cfg: check_euler_ratios(cfg)),
    "feuerbach": (CONFIG, lambda cfg: check_feuerbach(cfg)),
    "radical_axis": (PURPOSE_CYCLE_PAIR, lambda rng: check_radical_axis(*random_cycle_pair(rng))),
    "monge": (PURPOSE_MONGE, lambda rng: check_monge(*monge_triple(rng))),
    "tangent_cevians": (CONFIG, lambda cfg: check_tangent_cevians(cfg)),
    "feuerbach_point": (CONFIG, lambda cfg: check_feuerbach_point(cfg)),
}

SUITE_ORDER = tuple(SUITES)

# suites that read a triangle configuration, and those that read its pencils
TRIANGLE_SUITES = frozenset(n for n, (src, _) in SUITES.items() if src in (CONFIG, PENCILS))
PENCIL_SUITES = frozenset(n for n, (src, _) in SUITES.items() if src == PENCILS)


class Scenario(Record):
    __slots__ = ("seed", "trials", "suite", "triangle", "max_vertex_radius",
                 "min_angle", "out")
    _defaults = (0, 10, SUITE_ORDER, None, DEFAULT_MAX_VERTEX_RADIUS,
                 DEFAULT_MIN_ANGLE, None)


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


def _given_triangle(spec) -> Triangle:
    """Triangle.of of a triangle's vertices, run once per scenario; its
    refusal is a usage error (a ValueError)."""
    try:
        return Triangle.of(*parse_triangle(spec))
    except GeometryError as exc:
        raise ValueError(f"triangle refused: {type(exc).__name__}: {exc}") from None


def parse_suite(spec) -> tuple[str, ...]:
    if isinstance(spec, (list, tuple)):
        names = [str(s) for s in spec]
    elif spec.strip() in ("all", ""):
        return SUITE_ORDER if spec.strip() == "all" else ()
    else:
        names = [s.strip() for s in spec.split(",") if s.strip()]
    given = frozenset(names)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from "
                             f"{', '.join(SUITE_ORDER)} or 'all'")
    # keep registry order regardless of how the user listed them
    return tuple(n for n in SUITE_ORDER if n in given)


# Reports and configurations go through one recursive writer whose bytes
# equal json.dumps(doc, indent=2, sort_keys=True) + "\n", with complex
# values as format_complex strings and records (geom_core.Record) as
# their fields.  json.dumps never takes its C encoder when asked for an
# indent, and its generator-based fallback cost more than the
# constructions it wrote.  The writer takes what hypfeuer builds, each
# by its exact type: a document that is a dict, a list or a record, and
# inside it dicts with str keys, lists, records, and the scalars str,
# float, int, bool, None and complex, which _write_items writes.
# Anything else (a top-level scalar, a tuple, an enum, a dataclass, a
# subclass of a built-in type, a non-str key) raises TypeError.

_quote = json.encoder.encode_basestring_ascii


class NonFiniteNumber(ValueError):
    """NaN or an infinity met while writing JSON, which has no literal for
    either; the path to it is collected on the way out, innermost first."""

    def __init__(self, value):
        super().__init__(value)
        self.value = value
        self.path: list[str] = []

    def __str__(self):
        where = "".join(reversed(self.path)).lstrip(".")
        return f"non-finite number {self.value!r} at {where} cannot be written as JSON"


# record type -> its field names, sorted; filled on first sight
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}

# inner indent -> key -> the text before that key's value when it is not
# the first: "," + the indent + the quoted key + ": ".  hypfeuer's keys
# are a fixed vocabulary (field, witness and vertex names), so the
# cache stays small.
_KEY_TEXT: dict[str, dict[str, str]] = {}


def _write_items(items, append, indent: str, brackets: str):
    """Append a container: items are its (key, value) pairs in order,
    each key a str for an object (brackets "{}") or an index for an
    array ("[]").  Every scalar (float, complex, str, None, bool, int)
    is written here, and every container or record through _write."""
    inner = indent + "  "
    if brackets == "{}":
        keys = _KEY_TEXT.get(inner)
        if keys is None:
            keys = _KEY_TEXT[inner] = {}
    else:
        keys = None
        sep = "," + inner
    first = True
    try:
        for key, value in items:
            if keys is None:
                text = sep
            else:
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                text = keys.get(key)
                if text is None:
                    text = keys[key] = "," + inner + _quote(key) + ": "
            if first:
                text = brackets[0] + text[1:]
                first = False
            t = type(value)
            if t is float or t is complex:
                if not cmath.isfinite(value):
                    raise NonFiniteNumber(value)
                append(f"{text}{value!r}" if t is float
                       else f'{text}"{format_complex(value)}"')
            elif t is str or value is None:
                append(text + ("null" if value is None else _quote(value)))
            elif t is bool:
                append(text + ("true" if value else "false"))
            elif t is int:
                append(text + int.__repr__(value))
            else:
                append(text)
                _write(value, append, inner)
    except NonFiniteNumber as exc:
        exc.path.append(f"[{key}]" if keys is None else f".{key}")
        raise
    append(brackets if first else indent + brackets[1])


def _write(obj, append, indent: str):
    """Append the JSON text of obj, a dict, a list or a record; indent is
    the newline and indentation that obj's own line starts with.  A
    scalar is written by _write_items, so here it raises TypeError."""
    t = type(obj)
    if t is dict:
        _write_items(sorted(obj.items()), append, indent, "{}")
    elif t in _FIELD_NAMES:
        _write_items([(n, getattr(obj, n)) for n in _FIELD_NAMES[t]], append, indent, "{}")
    elif t is list:
        _write_items(enumerate(obj), append, indent, "[]")
    else:
        if not issubclass(t, Record):
            raise TypeError(f"{t.__name__} is not JSON serializable")
        _FIELD_NAMES[t] = tuple(sorted(t.__slots__))
        _write(obj, append, indent)


def _to_json(doc) -> str:
    """The document (a dict, a list or a record) as indented, key-sorted
    JSON with a final newline.  Raises NonFiniteNumber (a ValueError)
    rather than write NaN or an infinity."""
    chunks: list[str] = []
    _write(doc, chunks.append, "\n")
    chunks.append("\n")
    return "".join(chunks)


# ------------------------------------------------------------ suite running

def _triangle(scn: Scenario, index: int) -> tuple[Triangle, int]:
    """The scenario's triangle, or instance index's seeded draw, and the
    number of draws rejected on the way."""
    if scn.triangle is not None:
        return scn.triangle, 0
    return random_triangle(instance_rng(scn.seed, index, PURPOSE_TRIANGLE),
                           scn.max_vertex_radius, scn.min_angle)


# instances per block: run_verify runs one stage over a block's instances
# before the next stage.  A block's configurations stay alive until its
# last suite, so the whole run as one block would hold every one.
BLOCK = 32


def run_verify(scn: Scenario) -> VerificationReport:
    """The report of the asked suites over instances 0 .. trials - 1.

    The instances run in blocks of BLOCK, one stage at a time over the
    block: the triangle draw and build_config (when an asked suite reads
    a configuration), then each asked suite in report order.  A suite
    call gets its source alone, the instance's own (seed, index,
    purpose) stream or its configuration, and the triangle draw reads
    only its own stream, so the report is that of running each instance
    whole, in turn.  So is an error: when a stage raises at an
    instance, that instance and the later ones of the block run no
    further stage, and after the block the error of the earliest
    instance is raised, which an instance-by-instance run raises first.
    """
    start = time.perf_counter()
    asked = set(scn.suite)
    pencils = bool(asked & PENCIL_SUITES) if asked & TRIANGLE_SUITES else None
    instances: list[InstanceReport] = []
    for first in range(0, scn.trials, BLOCK):
        block = [InstanceReport(index, {}, [], [])
                 for index in range(first, min(first + BLOCK, scn.trials))]
        configs: list[TriangleConfig] = []
        # whatever a stage raises, of any type, waits for the end of the
        # block, as an earlier instance may raise in a later stage
        error = None
        if pencils is not None:
            for report in block:
                try:
                    tri, resamples = _triangle(scn, report.index)
                    cfg = build_config(tri, pencils)
                except Exception as exc:
                    error, block = exc, block[:len(configs)]
                    break
                configs.append(cfg)
                report.instance.update(triangle={"a": tri.a, "b": tri.b, "c": tri.c},
                                       resamples=resamples)
                report.flags.extend(cfg.flags)
        for name in scn.suite:
            src, call = SUITES[name]
            on_config = name in TRIANGLE_SUITES
            for k, report in enumerate(block):
                try:
                    source = configs[k] if on_config else instance_rng(scn.seed, report.index, src)
                    report.checks.append(call(source))
                except Exception as exc:
                    error, block = exc, block[:k]
                    break
        if error is not None:
            raise error
        instances += block
    tri = scn.triangle
    params = {
        "trials": scn.trials,
        "suite": list(scn.suite),
        "tolerances": TOLERANCES,
        "max_vertex_radius": scn.max_vertex_radius,
        "min_angle": scn.min_angle,
        # the vertices as given: Triangle.of swaps b and c of a counterclockwise triangle
        "triangle": tri and dict(zip("acb" if tri.swapped else "abc", (tri.a, tri.b, tri.c))),
    }
    return VerificationReport(scn.seed, params, instances,
                              time.perf_counter() - start)


def report_json(report: VerificationReport) -> str:
    counts = report.counts()
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
    failed = report.counts()["fail"]
    print(f"{len(report.instances)} instances, {failed} failed, "
          f"{report.wall_time:.2f}s", file=sys.stderr)
    return 0 if failed == 0 else 1


def cmd_render(scn: Scenario, fmt: str) -> int:
    """render, and construct, which is render --format json of a given
    triangle."""
    cfg = build_config(_triangle(scn, 0)[0])
    text = config_json(cfg) if fmt == "json" else render_svg(cfg)
    _write_out(text, scn.out)
    return 0


# scenario key -> (the JSON types its value may have, their name)
_SCENARIO_TYPES = {
    "seed": ((int,), "an integer"),
    "trials": ((int,), "an integer"),
    "suite": ((str, list), "a string or a list"),
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
    """Reject unknown scenario keys and values of a JSON type no option
    takes."""
    unknown = set(data) - set(_SCENARIO_TYPES)
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    for key, value in data.items():
        _check_type(f"scenario key {key!r}", value, *_SCENARIO_TYPES[key])


def scenario_from_args(args) -> Scenario:
    data = {}
    if args.scenario:
        with open(args.scenario, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError("scenario file nests too deeply") from None
        if not isinstance(data, dict):
            raise ValueError("scenario file must hold a JSON object")
        _check_scenario_types(data)

    default = Scenario()

    def pick(flag, key):
        if flag is not None:
            return flag
        return data.get(key, getattr(default, key))

    # Random seeds with |seed|, so a negative seed would repeat its positive twin
    seed = int(pick(args.seed, "seed"))
    if seed < 0:
        raise ValueError("--seed must be non-negative")
    trials = int(pick(args.trials, "trials"))
    if trials < 0:
        raise ValueError("--trials must be non-negative")
    # a default is read already; a given suite or triangle is read last
    suite = pick(args.suite, "suite")
    triangle = pick(args.triangle, "triangle")
    out = pick(args.out, "out")
    if out and os.path.isdir(out):
        raise ValueError(f"output {out!r} is a directory")
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        raise ValueError(f"output directory of {out!r} does not exist")
    # outside these ranges the triangle sampler would never find a triangle
    max_vertex_radius = float(data.get("max_vertex_radius", default.max_vertex_radius))
    if not 0.0 < max_vertex_radius < 1.0:
        raise ValueError("max_vertex_radius must lie in (0, 1), "
                         f"got {max_vertex_radius!r}")
    # the angles of a hyperbolic triangle sum to less than pi
    min_angle = float(data.get("min_angle", default.min_angle))
    if not 0.0 <= min_angle < math.pi / 3.0:
        raise ValueError(f"min_angle must lie in [0, pi/3), got {min_angle!r}")
    return Scenario(
        seed=seed,
        trials=trials,
        suite=suite if suite is default.suite else parse_suite(suite),
        triangle=triangle if triangle is default.triangle else _given_triangle(triangle),
        max_vertex_radius=max_vertex_radius,
        min_angle=min_angle,
        out=out,
    )


COMMANDS = ("construct", "verify", "render")

# flag -> what reads its value: int, float, str or a tuple of the
# choices; parse_args stores the value under the flag's name with
# underscores for dashes
_FLAGS = {
    "--seed": int,
    "--trials": int,
    "--suite": str,
    "--triangle": str,
    "--out": str,
    "--format": ("json", "svg"),
    "--scenario": str,
}

# what --help prints, laid out as argparse lays it out at 80 columns
_HELP = """\
usage: hypfeuer [-h] [--seed SEED] [--trials TRIALS] [--suite SUITE]
                [--triangle TRIANGLE] [--out OUT] [--format {json,svg}]
                [--scenario SCENARIO]
                {construct,verify,render}

Triangle constructions and theorem verification in the hyperbolic disk.

positional arguments:
  {construct,verify,render}
                        construct: serialize the full configuration of one
                        triangle; verify: run theorem suites over seeded
                        random instances; render: draw a configuration as an
                        SVG figure

options:
  -h, --help            show this help message and exit
  --seed SEED
  --trials TRIALS
  --suite SUITE         comma-separated check names, or 'all'
  --triangle TRIANGLE   vertices as "a,b,c", e.g. "0.1+0.1i,0.5,0.3i"
  --out OUT
  --format {json,svg}
  --scenario SCENARIO   JSON file with scenario fields; flags override
"""

# what a usage error prints before its message: the help's first lines
_USAGE = _HELP[:_HELP.index("\n\n") + 1]

# what a value can start with after a leading minus: a negative number,
# or a first vertex with a negative real part ("-0.1+0.2i", "-.25i", "-i")
_VALUE_STARTS = frozenset("0123456789.i")


def _is_flag(word: str) -> bool:
    """Whether a word names a flag rather than being a value."""
    return len(word) > 1 and word[0] == "-" and word[1] not in _VALUE_STARTS


class Parser:
    """The command line: one command (construct, verify or render) and
    the flags of _FLAGS, each as `--flag value` or `--flag=value`, by its
    name or any unique prefix of it, in any order around the command; a
    repeated flag keeps its last value.  A word that starts with "-" is a
    flag unless its next character is a digit, "." or "i", so `--seed -3`
    and `--triangle -0.1+0.2i,0.3,0.1i` read as values.  `-h`/`--help`
    prints the help and exits 0; a usage error prints the usage and
    `hypfeuer: error: ...` to stderr and exits 2, as argparse does."""

    def __init__(self):
        # flag prefix -> the flags it names: each exact name, and every
        # prefix past the "--", which is ambiguous when it names several
        self._prefixes: dict[str, list[str]] = {"-h": ["--help"]}
        for flag in ("--help", *_FLAGS):
            for end in range(3, len(flag) + 1):
                self._prefixes.setdefault(flag[:end], []).append(flag)
        # flag -> (the field its value goes to, what reads the value)
        self._targets = {flag: (flag[2:].replace("-", "_"), reader)
                         for flag, reader in _FLAGS.items()}
        self._fields = ("command", *(field for field, _ in self._targets.values()))

    def parse_args(self, argv) -> SimpleNamespace:
        """The command and each flag's value, None where not given."""
        values = dict.fromkeys(self._fields)
        extras = []
        i, count = 0, len(argv)
        while i < count:
            word = argv[i]
            i += 1
            if not _is_flag(word):
                if values["command"] is None:
                    values["command"] = self._read("command", COMMANDS, word)
                else:
                    extras.append(word)
                continue
            name, eq, value = word.partition("=")
            flags = self._prefixes.get(name)
            if flags is None:
                extras.append(word)
                continue
            if len(flags) > 1:
                self.error(f"ambiguous option: {word} could match {', '.join(flags)}")
            (flag,) = flags
            if flag == "--help":
                if eq:
                    self.error(f"argument -h/--help: ignored explicit argument {value!r}")
                sys.stdout.write(_HELP)
                raise SystemExit(0)
            if not eq:
                if i == count or _is_flag(argv[i]):
                    self.error(f"argument {flag}: expected one argument")
                value = argv[i]
                i += 1
            field, reader = self._targets[flag]
            values[field] = self._read(flag, reader, value)
        if values["command"] is None:
            self.error("the following arguments are required: command")
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return SimpleNamespace(**values)

    def _read(self, name: str, reader, value: str):
        if type(reader) is tuple:
            if value not in reader:
                self.error(f"argument {name}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, reader))})")
            return value
        try:
            return reader(value)
        except ValueError:
            self.error(f"argument {name}: invalid {reader.__name__} value: {value!r}")

    def error(self, message: str):
        sys.stderr.write(f"{_USAGE}hypfeuer: error: {message}\n")
        raise SystemExit(2)


@functools.cache
def build_parser() -> Parser:
    """The argument parser, built once per process."""
    return Parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        scn = scenario_from_args(args)
        fmt = args.format or ("svg" if args.command == "render" else "json")
        if args.command != "render" and fmt != "json":
            raise ValueError("--format svg only applies to render")
        if args.command == "construct" and scn.triangle is None:
            raise ValueError("construct needs --triangle")
    except (ValueError, OverflowError, OSError) as exc:
        print(f"hypfeuer: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            return cmd_verify(scn)
        return cmd_render(scn, fmt)
    except GeometryError as exc:
        print(f"hypfeuer: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except NonFiniteNumber as exc:
        print(f"hypfeuer: {exc}", file=sys.stderr)
        return 1
    except (SamplingExhausted, OSError) as exc:
        print(f"hypfeuer: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
