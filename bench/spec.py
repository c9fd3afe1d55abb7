"""What the benchmark measures: its workloads, its metrics, and which
end-to-end number each per-layer metric is expected to move.

This module is the single source of `BENCHMARK.json`; regenerate that
file with `python3 bench/spec.py > BENCHMARK.json` after editing it
(the smoke test fails while the two disagree).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# Seconds one run measures (see units): each workload runs
# Workload.per_second instances for each of them.
RUN_SECONDS = 20

# Fresh interpreters started per run, spread over its work, to time
# set-up; setup_s is their median.
SETUP_SPAWNS = 7

# Untraced runs of each workload, in rotating order, when one command runs
# them all (`python3 bench/run.py`); each metric is their median.
ALL_REPEATS = 3

# Instances (or triangles) in the fixed batch the traced run takes its
# per-instance counts from: `verify --seed S --trials 100`, the ROADMAP's
# headline command, so counts are exact and reproducible per seed.
CANONICAL_TRIALS = 100

# A triangle on which all six triangle suites run unskipped (its
# excircles exist).  Set-up uses it instead of searching the seeded
# stream, so setup_s does not depend on where in that stream such a
# triangle first appears.  Should a suite skip on it, set-up searches the
# first SETUP_SEARCH_TRIALS instances of the stream instead, and reports
# an output problem if no triangle there runs every suite either.
SETUP_TRIANGLE = "0.156-0.075i,-0.117-0.181i,-0.047+0.085i"
SETUP_SEARCH_TRIALS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # verify workloads: the --suite value and an optional scenario file
    # under bench/; None for the construct/render workload
    suite: str | None
    scenario: str | None
    # instances per timed unit: --trials of one verify call, or triangles
    # each constructed and rendered
    unit_trials: int
    # instances a run measures per second of --seconds.  Not the rate the
    # machine runs them at: contact_chain's instance costs are heavy-tailed
    # (13 ms at the median, up to 155 ms), so it takes the most instances,
    # about 60 of the 110 s that one run of each workload takes on the
    # machine this was tuned on, so that its spread over seeds stays low.
    per_second: int


def units(w: Workload, seconds: float) -> int:
    """Timed units in a run that measures for <seconds>.  A fixed amount
    of work, not a deadline, so that every run of one seed covers the
    same inputs and so attempts, and fails, the same operations."""
    return max(1, round(seconds * w.per_second / w.unit_trials))


WORKLOADS = (
    Workload("verify_all",
             "verify --suite all at the default box: the headline command users run; "
             "monge, build_config and tangent_cevians dominate",
             "all", None, 10, 45),
    Workload("cycles_power",
             "suites without a triangle config: homothetic_centers is ~77%, so cevian "
             "and root-finder changes must not move it and the homothety split must",
             "inscribed_angle,trapezoid,lexell,radical_axis,monge", None, 20, 55),
    Workload("contact_chain",
             "feuerbach, tangent_cevians, feuerbach_point in a 0.25 box where excircles "
             "exist: Nelder-Mead dominates and scipy lands in set-up and memory",
             "feuerbach,tangent_cevians,feuerbach_point", "contact_chain.json", 10, 65),
    Workload("construct_render",
             "one construct and one render call per seeded triangle: per-request "
             "use, the only svg_render path; batch-only gains must not show here",
             None, None, 5, 35),
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


END_TO_END = (
    # warm throughput through hypfeuer.cli.main, scaled to reference
    # machine speed (see reference.py)
    EndToEnd("instances_per_s", "1/s", "higher", 0.25),
    # fresh interpreter from spawn until every suite ran unskipped once
    EndToEnd("setup_s", "s", "lower", 0.25),
    # the two bounds below are about three times the largest spread over
    # ten seeds (0.009 and 0.012), tight enough that a few MiB of growth,
    # or one of verify_all's 11 suites failing in half its instances
    # (pass_share -5%), is caught
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.03),
    # checks that passed over checks attempted (construct_render: calls
    # whose output passed every check); falls when fails or skips rise
    EndToEnd("pass_share", "ratio", "higher", 0.04),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload it should move


def _timed(name: str, moves: str) -> tuple[PerLayer, PerLayer]:
    return (PerLayer(f"{name}.ms", "ms", "lower", moves),
            PerLayer(f"{name}.ms_p90", "ms", "lower", moves))


_CEVIANS = ("instances_per_s on construct_render most, verify_all next; "
            "not cycles_power")
_POWER = ("instances_per_s on cycles_power and verify_all; barely contact_chain; "
          "not construct_render")
_THEOREMS = ("instances_per_s, setup_s and peak_rss_mb on contact_chain; "
             "not cycles_power")
_KERNEL = "instances_per_s on every workload, most on verify_all and contact_chain"
_CHECKS = ("inscribed_angle", "trapezoid", "lexell", "six_point", "euler_line",
           "euler_ratios", "feuerbach", "radical_axis", "monge", "tangent_cevians",
           "feuerbach_point")

PER_LAYER = (
    *_timed("cevians.build_config", _CEVIANS),
    *_timed("cevians.bisector_foot", _CEVIANS),
    *_timed("cevians.pseudoaltitude_foot", _CEVIANS),
    PerLayer("cevians.foot_evals", "count", "lower", _CEVIANS),
    PerLayer("cevians.self_share", "ratio", "lower", _CEVIANS),
    PerLayer("power.homothetic_centers.calls", "count", "lower", _POWER),
    *_timed("power.homothetic_centers", _POWER),
    *_timed("power.monge_line", _POWER),
    PerLayer("power.crossing_angle.calls", "count", "lower", _POWER),
    PerLayer("power.self_share", "ratio", "lower", _POWER),
    *(m for check in _CHECKS for m in _timed(
        f"theorems.check_{check}",
        _THEOREMS if check in ("tangent_cevians", "feuerbach_point")
        else f"instances_per_s on the workloads that run {check}")),
    PerLayer("theorems.tangent_shoot_evals", "count", "lower", _THEOREMS),
    PerLayer("theorems.minimize.calls", "count", "lower", _THEOREMS),
    PerLayer("theorems.minimize.nfev", "count", "lower", _THEOREMS),
    PerLayer("theorems.self_share", "ratio", "lower", _THEOREMS),
    PerLayer("fail_share", "ratio", "lower",
             "pass_share on the verify workloads (radical_axis defect shows here)"),
    PerLayer("skip_share", "ratio", "lower",
             "pass_share on the verify workloads; keeps faster-by-skipping visible"),
    PerLayer("max_residual_ratio", "ratio", "lower",
             "none by itself: guards that residuals stay where they were"),
    *(PerLayer(f"geom_core.{fn}.calls", "count", "lower", _KERNEL)
      for fn in ("as_complex", "signed_angle", "sigma", "triangle_area",
                 "mobius_to_origin")),
    *(PerLayer(f"cycles.{fn}.calls", "count", "lower", _KERNEL)
      for fn in ("geodesic_through", "intersect", "transform",
                 "point_geodesic_distance", "tangency_ratio")),
    *_timed("instances.random_triangle", "instances_per_s on every triangle workload"),
    PerLayer("instances.resamples", "count", "lower",
             "instances_per_s on triangle workloads; skip_share when draws change"),
    *_timed("instances.trapezoid_quad", "instances_per_s on cycles_power"),
    *_timed("instances.monge_triple", "instances_per_s on cycles_power and verify_all"),
    PerLayer("instances.self_share", "ratio", "lower", "instances_per_s on cycles_power"),
    *_timed("cli.report_json", "instances_per_s on verify_all"),
    PerLayer("cli.report_bytes", "B", "lower", "instances_per_s on verify_all"),
    *_timed("cli.build_parser", "instances_per_s on construct_render"),
    *_timed("cli.config_json", "instances_per_s on construct_render"),
    PerLayer("cli.self_share", "ratio", "lower", "instances_per_s on construct_render"),
    *_timed("svg_render.render_svg", "instances_per_s on construct_render"),
    PerLayer("svg_render.self_share", "ratio", "lower",
             "instances_per_s on construct_render"),
    # traced / untraced instances_per_s measured in the same process
    PerLayer("trace_overhead", "ratio", "higher",
             "none: how far the traced run's times are inflated"),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
