"""One benchmark run of one workload, in a fresh interpreter.

    python3 -I bench/worker.py <root> <workload> <seed> <seconds> <trace>

The worker imports hypfeuer from <root>/src, warms up with the
workload's set-up plan, then calls `hypfeuer.cli.main` in a closed loop
over the units that <seconds> buys (spec.units): units 0, 1, ..., each
one timed call (for construct_render, a few triangles), with every
output checked outside the timed region.  With <trace> 1 it measures
the units of half the time untraced, installs the tracer, runs the
canonical batch (the per-instance counts come from it) and measures the
same units again traced.  Untraced, it also times spec.SETUP_SPAWNS
set-up probes between units (bench/probe.py), each a fresh interpreter
it waits for.  A suite that set-up could not run unskipped is an output
problem: its lazy imports would then be missing from setup_s,
peak_rss_mb and the trace.  It prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
import xml.etree.ElementTree as ET

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe  # noqa: E402
import reference  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402

# verify units use CLI seeds seed * UNIT_SEEDS + j (j < UNIT_SEEDS), so
# units of one run never share instances with another run's units
UNIT_SEEDS = 1000

# seconds a set-up probe may take; a normal one takes about one
PROBE_TIMEOUT = 10

# construct_render compares `render --format json` with `construct`
# bytes on every this-many-th triangle
RENDER_JSON_EVERY = 10


def _reject_constant(token: str):
    raise ValueError(f"{token} is not JSON")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity that json.dumps can emit."""
    return json.loads(text, parse_constant=_reject_constant)


class Tally:
    """Operations attempted, their outcomes, and output-check problems."""

    def __init__(self):
        self.attempted = self.passed = self.failed = self.skipped = 0
        self.problems: list[str] = []

    def problem(self, text: str):
        self.problems.append(text)
        if len(self.problems) <= 20:
            print(f"output check failed: {text}", file=sys.stderr)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "passed": self.passed,
                "failed": self.failed, "skipped": self.skipped,
                "problems": self.problems[:20], "correct": not self.problems}


def _call(cli, args: list[str], tally: Tally):
    """probe.call, with an escaping exception reported as a failed output."""
    try:
        return probe.call(cli, args)
    except Exception:  # a traceback out of the CLI is itself a defect
        tally.problem(f"{args}: raised\n{traceback.format_exc()}")
        return None


class VerifyWorkload:
    def __init__(self, cli, w: spec.Workload, seed: int):
        self.cli, self.seed, self.per_unit = cli, seed, w.unit_trials
        self.suites = list(cli.parse_suite(w.suite))
        self.extra = (["--scenario", os.path.join(HERE, w.scenario)]
                      if w.scenario else [])

    def argv(self, seed: int, trials: int, suites: list[str],
             triangle: str | None = None) -> list[str]:
        args = ["verify", f"--seed={seed}", f"--trials={trials}",
                f"--suite={','.join(suites)}"]
        if triangle:
            args.append(f"--triangle={triangle}")
        return args + self.extra

    def run(self, args: list[str], trials: int, suites: list[str], tally: Tally):
        """(seconds, report, text) of one checked call; report is None on failure."""
        n = trials * len(suites)
        tally.attempted += n
        got = _call(self.cli, args, tally)
        if got is None:
            tally.failed += n
            return None, None, ""
        rc, elapsed, text, err = got
        try:
            doc = strict_json(text)
            counts = {"pass": 0, "fail": 0, "skipped": 0}
            for inst in doc["instances"]:
                if [c["name"] for c in inst["checks"]] != suites:
                    raise ValueError(f"instance {inst['index']} checks differ from {suites}")
                for c in inst["checks"]:
                    counts[c["status"]] += 1
                    _check_status(c)
            summary = doc["summary"]
            if not len(doc["instances"]) == summary["instances"] == trials:
                raise ValueError(f"{summary['instances']} instances, asked for {trials}")
            if ([summary["passed"], summary["failed"], summary["skipped"]]
                    != [counts["pass"], counts["fail"], counts["skipped"]]):
                raise ValueError(f"summary {summary} differs from statuses {counts}")
            if rc != (1 if counts["fail"] else 0):
                raise ValueError(f"exit code {rc} with {counts['fail']} failed checks")
        except (ValueError, KeyError, TypeError) as exc:
            tally.problem(f"{args}: {exc!r}; stderr: {err.strip()}")
            tally.failed += n
            return None, None, text
        tally.passed += counts["pass"]
        tally.failed += counts["fail"]
        tally.skipped += counts["skipped"]
        return elapsed, doc, text

    def setup_plan(self, tally: Tally) -> tuple[list[list[str]], list, list[str]]:
        """The calls that make every suite run unskipped once, run here as
        warm-up: returns them, their exit codes and any suite they skipped."""
        triangle = [s for s in self.suites if s in self.cli.TRIANGLE_SUITES]
        rest = [s for s in self.suites if s not in self.cli.TRIANGLE_SUITES]
        calls = []
        if rest:
            look = 10
            _, doc, _ = self.run(self.argv(self.seed, look, rest), look, rest, tally)
            need = look
            if doc:
                need = max(next((i + 1 for i, inst in enumerate(doc["instances"])
                                 if inst["checks"][j]["status"] != "skipped"), look)
                           for j in range(len(rest)))
            calls.append((self.argv(self.seed, need, rest), need, rest))
        if triangle:
            tri = self._setup_triangle(triangle, tally)
            calls.append((self.argv(self.seed, 1, triangle, tri), 1, triangle))
        never_ran, codes = set(self.suites), []
        for args, trials, suites in calls:
            _, doc, _ = self.run(args, trials, suites, tally)
            codes.append(int(doc["summary"]["failed"] > 0) if doc else None)
            for inst in (doc or {}).get("instances", ()):
                never_ran -= {c["name"] for c in inst["checks"] if c["status"] != "skipped"}
        return [c[0] for c in calls], codes, sorted(never_ran)

    def _setup_triangle(self, suites: list[str], tally: Tally) -> str:
        """spec.SETUP_TRIANGLE if every triangle suite runs on it, else the
        first triangle of the seeded stream on which every one does (or,
        failing that, SETUP_TRIANGLE again, whose skips the caller reports)."""
        look = spec.SETUP_SEARCH_TRIALS
        for args, trials in ((self.argv(self.seed, 1, suites, spec.SETUP_TRIANGLE), 1),
                             (self.argv(self.seed, look, suites), look)):
            _, doc, _ = self.run(args, trials, suites, tally)
            for inst in (doc or {}).get("instances", ()):
                if all(c["status"] != "skipped" for c in inst["checks"]):
                    return ",".join(inst["instance"]["triangle"][k] for k in "abc")
        return spec.SETUP_TRIANGLE

    def unit(self, j: int, tally: Tally) -> float | None:
        args = self.argv(self.seed * UNIT_SEEDS + j, self.per_unit, self.suites)
        elapsed, doc, _ = self.run(args, self.per_unit, self.suites, tally)
        return elapsed if doc else None

    def canonical(self, trials: int, tally: Tally) -> dict:
        _, doc, text = self.run(self.argv(self.seed, trials, self.suites), trials,
                                self.suites, tally)
        checks = [c for inst in (doc or {}).get("instances", ()) for c in inst["checks"]]
        ran = [c for c in checks if c["status"] != "skipped"]
        return {
            "instances": trials,
            "resamples": sum(inst["instance"].get("resamples", 0)
                             for inst in (doc or {}).get("instances", ())),
            "fail_share": sum(c["status"] == "fail" for c in checks) / max(1, len(checks)),
            "skip_share": (len(checks) - len(ran)) / max(1, len(checks)),
            "max_residual_ratio": max((c["residual"] / c["tolerance"] for c in ran),
                                      default=0.0),
            "report_bytes": len(text.encode()),
        }


def _check_status(c: dict):
    status, residual, tol = c["status"], c["residual"], c["tolerance"]
    if status == "skipped":
        if residual is not None or not c["flag"]:
            raise ValueError(f"{c['name']} skipped without a flag or with a residual")
    elif not isinstance(residual, (int, float)):
        raise ValueError(f"{c['name']} {status} without a residual")
    elif (residual <= tol) != (status == "pass"):
        raise ValueError(f"{c['name']} {status} with residual {residual} against {tol}")


class ConstructWorkload:
    def __init__(self, cli, w: spec.Workload, seed: int):
        # bound now, before any tracer is installed: the harness's own
        # draws must not show up as hypfeuer spans
        from hypfeuer.instances import PURPOSE_TRIANGLE, instance_rng, random_triangle

        self.cli = cli
        self.per_unit = w.unit_trials
        self._draw = lambda i: random_triangle(instance_rng(seed, i, PURPOSE_TRIANGLE))

    def triangle(self, i: int) -> tuple[str, int]:
        tri, resamples = self._draw(i)
        return ",".join(self.cli.format_complex(z) for z in (tri.a, tri.b, tri.c)), resamples

    def request(self, args: list[str], tally: Tally):
        """(seconds, output) for one checked call; None on failure."""
        tally.attempted += 1
        got = _call(self.cli, args, tally)
        if got is None:
            tally.failed += 1
            return None
        rc, elapsed, text, err = got
        try:
            if rc != 0:
                raise ValueError(f"exit code {rc}")
            if args[0] == "render" and "--format=json" not in args:
                if not ET.fromstring(text).tag.endswith("svg"):
                    raise ValueError("root element is not <svg>")
            elif "flags" not in strict_json(text):
                raise ValueError("configuration without flags")
        except (ValueError, ET.ParseError) as exc:
            tally.problem(f"{args}: {exc!r}; stderr: {err.strip()}")
            tally.failed += 1
            return None
        tally.passed += 1
        return elapsed, text

    def pair(self, triangle: str, tally: Tally, compare: bool = False):
        """construct and render one triangle: seconds for both, or None."""
        built = self.request(["construct", f"--triangle={triangle}"], tally)
        drawn = self.request(["render", f"--triangle={triangle}"], tally)
        if built and compare:
            as_json = self.request(["render", f"--triangle={triangle}", "--format=json"], tally)
            if as_json and as_json[1] != built[1]:
                tally.problem(f"render --format json differs from construct for {triangle}")
        return built[0] + drawn[0] if built and drawn else None

    def setup_plan(self, tally: Tally) -> tuple[list[list[str]], list, list[str]]:
        triangle, _ = self.triangle(0)
        plan = [["construct", f"--triangle={triangle}"], ["render", f"--triangle={triangle}"]]
        codes = [0 if self.request(args, tally) else None for args in plan]
        return plan, codes, []

    def unit(self, j: int, tally: Tally) -> float | None:
        total = 0.0
        for i in range(j * self.per_unit, (j + 1) * self.per_unit):
            elapsed = self.pair(self.triangle(i)[0], tally,
                                compare=i % RENDER_JSON_EVERY == 0)
            if elapsed is None:
                return None
            total += elapsed
        return total

    def canonical(self, trials: int, tally: Tally) -> dict:
        before = (tally.attempted, tally.failed)
        resamples = 0
        for i in range(trials):
            triangle, drawn = self.triangle(i)
            resamples += drawn
            self.pair(triangle, tally)
        calls = tally.attempted - before[0]
        return {"instances": trials, "resamples": resamples,
                "fail_share": (tally.failed - before[1]) / max(1, calls),
                "skip_share": 0.0, "max_residual_ratio": 0.0, "report_bytes": 0}


class ProbeFailed(Exception):
    """A set-up probe crashed, timed out or printed no result."""


def setup_seconds(root: str, plan: list[list[str]]) -> tuple[float, list]:
    """Seconds from spawn until a fresh probe interpreter has run the
    plan, as measured, and the probe's exit codes.

    Not scaled to reference speed: a spawn's time did not follow the
    reference kernel's (scaled, set-up times spread twice as wide).
    """
    args = [sys.executable, "-I", os.path.join(HERE, "probe.py"), root, json.dumps(plan)]
    start = time.perf_counter()
    proc = subprocess.Popen(args, cwd=root, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise ProbeFailed("set-up probe timed out") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        sys.stderr.write(err)
        raise ProbeFailed(f"set-up probe exited with {proc.returncode}")
    return elapsed, json.loads(line)["exit_codes"]


def timed(workload, units: int, tally: Tally,
          between=lambda j: None) -> tuple[float, float, list[float]]:
    """Instances per second over units 0 .. units-1, each run once: at
    reference speed (see reference.py) and as measured; and each unit's
    seconds at reference speed.  Units are never repeated, so that a run
    covers as many distinct inputs as it can: which inputs a seed draws
    moved throughput by 10% between seeds when 300 instances were
    repeated.  between(j) runs, untimed, after unit j.
    """
    scaled, raw, per_unit = 0.0, 0.0, []
    before = reference.reference_seconds()
    for j in range(units):
        elapsed = workload.unit(j, tally)
        after = reference.reference_seconds()
        if elapsed is not None:
            raw += elapsed
            per_unit.append(reference.scaled(elapsed, before, after))
            scaled += per_unit[-1]
        if between(j):
            after = reference.reference_seconds()
        before = after
    if not per_unit:
        return 0.0, 0.0, per_unit
    instances = len(per_unit) * workload.per_unit
    return instances / scaled, instances / raw, per_unit


def probe_setup(root: str, plan: list[list[str]], codes: list, units: int,
                tally: Tally, setups: list[float]):
    """between() for timed: spec.SETUP_SPAWNS set-up probes spread evenly
    over the run's units, so that their median samples the machine across
    the run rather than in one spell of a second or two."""
    after = [i * units // spec.SETUP_SPAWNS for i in range(spec.SETUP_SPAWNS)]

    def between(j: int) -> bool:
        for _ in range(after.count(j)):
            elapsed, got = setup_seconds(root, plan)
            setups.append(elapsed)
            if got != codes:
                tally.problem(f"set-up probe exit codes {got} differ from {codes}")
        return j in after

    return between


def count_metrics(tracer: tracing.Tracer, canon: dict) -> dict[str, float]:
    """Per-instance counts over the canonical batch."""
    n = canon["instances"]
    feet = (tracer.calls("cevians.bisector_foot")
            + tracer.calls("cevians.pseudoaltitude_foot"))
    evals = (tracer.count("geom_core.sigma", inside="cevians.pseudoaltitude_foot")
             + tracer.count("geom_core.triangle_area", inside="cevians.bisector_foot"))
    shoots = tracer.calls("theorems.check_tangent_cevians")
    minimize = [s[4] for s in tracer.spans if s[0] == tracing.MINIMIZE]
    m = {
        "cevians.foot_evals": evals / 2 / feet if feet else 0.0,
        "power.homothetic_centers.calls": tracer.calls("power.homothetic_centers") / n,
        "power.crossing_angle.calls": tracer.count("power.crossing_angle") / n,
        "theorems.tangent_shoot_evals":
            tracer.count("cycles.tangency_ratio", inside="theorems.check_tangent_cevians")
            / shoots if shoots else 0.0,
        "theorems.minimize.calls": len(minimize) / n,
        "theorems.minimize.nfev": statistics.mean(minimize) if minimize else 0.0,
        "instances.resamples": canon["resamples"] / n,
        "cli.report_bytes": canon["report_bytes"] / n,
        "fail_share": canon["fail_share"],
        "skip_share": canon["skip_share"],
        "max_residual_ratio": canon["max_residual_ratio"],
    }
    for module, fns in tracing.COUNTERS.items():
        for fn in fns:
            m[f"{module}.{fn}.calls"] = tracer.count(f"{module}.{fn}") / n
    return m


def time_metrics(tracer: tracing.Tracer) -> tuple[dict[str, float], dict[str, int]]:
    """p50/p90 per call of every timed span, its sample count, and self shares."""
    m, samples = {}, {}
    for metric in spec.PER_LAYER:
        if not metric.name.endswith(".ms"):
            continue
        span = metric.name[:-3]
        ran = ("pass", "fail") if span.startswith("theorems.check_") else None
        durations = tracer.durations_ms(span, ran)
        m[metric.name], m[f"{span}.ms_p90"] = tracing.p50_p90(durations)
        samples[span] = len(durations)
    shares = tracer.self_shares()
    for metric in spec.PER_LAYER:
        if metric.name.endswith(".self_share"):
            m[metric.name] = shares.get(metric.name.split(".", 1)[0], 0.0)
    return m, samples


def main(argv: list[str]) -> int:
    root, name = argv[0], argv[1]
    seed, seconds, trace = int(argv[2]), float(argv[3]), argv[4] == "1"
    w = next(w for w in spec.WORKLOADS if w.name == name)
    cli = probe.load_cli(root)
    workload = (VerifyWorkload if w.suite else ConstructWorkload)(cli, w, seed)
    tally = Tally()
    plan, codes, never_ran = workload.setup_plan(tally)
    if never_ran:
        tally.problem(f"set-up ran no instance of {never_ran} unskipped")
    out = {"plan": plan, "plan_codes": codes, "plan_never_ran": never_ran}
    if not trace:
        units, setups = spec.units(w, seconds), []
        throughput, raw, unit_seconds = timed(
            workload, units, tally, probe_setup(root, plan, codes, units, tally, setups))
        out.update(instances_per_s=throughput, raw_instances_per_s=raw,
                   unit_seconds=unit_seconds, setup_samples=setups,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        half = spec.units(w, seconds / 2)
        untraced, _, _ = timed(workload, half, tally)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            canon = workload.canonical(spec.CANONICAL_TRIALS, tally)
            layers = count_metrics(tracer, canon)
            traced, _, _ = timed(workload, half, tally)
        finally:
            tracer.uninstall()
        timings, span_samples = time_metrics(tracer)
        layers.update(timings)
        layers["trace_overhead"] = traced / untraced if untraced else 0.0
        out.update(layers=layers, span_samples=span_samples,
                   units=half,
                   trace=tracer.dump())
    out.update(tally.as_dict())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
