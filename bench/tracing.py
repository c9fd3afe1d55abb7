"""Outside-in tracing of hypfeuer: spans at stage functions, counters on
kernel primitives.

Modules bind each other's functions by name (`from .geom_core import
sigma`), so patching only the defining module would miss every call made
through another module's binding.  `Tracer.install` therefore replaces
the function object in every `hypfeuer` namespace that holds it, and
`uninstall` puts the originals back.

Kernel primitives cost about a microsecond per call, so they get plain
counters (keyed by the innermost open span, which is how "sigma calls
inside pseudoaltitude_foot" is measured) instead of spans; spanning them
slowed runs 2-3x.
"""

from __future__ import annotations

import collections
import functools
import statistics
import sys
import time

SPANS = {
    "cli": ("main", "build_parser", "report_json", "config_json"),
    "cevians": ("build_config", "bisector_foot", "pseudoaltitude_foot"),
    "power": ("homothetic_centers", "monge_line", "radical_axis"),
    "theorems": ("check_inscribed_angle", "check_trapezoid", "check_lexell",
                 "check_six_point", "check_euler_line", "check_euler_ratios",
                 "check_feuerbach", "check_radical_axis", "check_monge",
                 "check_tangent_cevians", "check_feuerbach_point"),
    "instances": ("random_triangle", "random_cycle_pair", "monge_triple",
                  "trapezoid_quad", "arc_instance", "lexell_instance"),
    "svg_render": ("render_svg",),
}

COUNTERS = {
    "geom_core": ("as_complex", "signed_angle", "sigma", "triangle_area",
                  "mobius_to_origin"),
    "cycles": ("geodesic_through", "intersect", "transform",
               "point_geodesic_distance", "tangency_ratio"),
    "power": ("crossing_angle",),
}

# scipy's minimizer, called lazily inside theorems; its span carries nfev
MINIMIZE = "theorems.minimize"


def _note(name: str, result):
    """Extra datum kept on a span: a check's status, a minimizer's nfev."""
    if name.startswith("theorems.check_"):
        return result.status
    if name == MINIMIZE:
        return int(result.nfev)
    return None


class Tracer:
    """Spans are [name, parent index, start, end, note, own index], kept
    in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        # counter name -> innermost open span name (None outside any) -> calls
        self.counts: dict[str, dict[str | None, int]] = {}
        # open spans, innermost last, above a sentinel whose index -1 makes
        # the parent of a root span
        self._open: list[list] = [[None, None, 0.0, 0.0, None, -1]]
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            rec = [name, open_[-1][5], 0.0, 0.0, None, len(spans)]
            spans.append(rec)
            open_.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
                rec[4] = _note(name, result)
                return result
            finally:
                rec[3] = clock()
                open_.pop()

        return spanned

    def _counter(self, name: str, fn):
        per_span = self.counts.setdefault(name, collections.defaultdict(int))
        open_ = self._open

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            per_span[open_[-1][0]] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------- install/remove

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hypfeuer" or n.startswith("hypfeuer.")]
        for kind, table in ((self._span, SPANS), (self._counter, COUNTERS)):
            for mod_name, fns in table.items():
                home = sys.modules[f"hypfeuer.{mod_name}"]
                for fn_name in fns:
                    original = getattr(home, fn_name)
                    wrapper = kind(f"{mod_name}.{fn_name}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, attr, wrapper)
        optimize = sys.modules.get("scipy.optimize")
        if optimize is not None:
            self._patch(optimize, "minimize", self._span(MINIMIZE, optimize.minimize))

    def _patch(self, mod, attr: str, wrapper):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # ----------------------------------------------------------- summaries

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def count(self, fn: str, inside: str | None = "*") -> int:
        """Counter total for fn, or only the calls made inside one span."""
        per_span = self.counts.get(fn, {})
        return sum(per_span.values()) if inside == "*" else per_span.get(inside, 0)

    def durations_ms(self, name: str, statuses=None) -> list[float]:
        return [(s[3] - s[2]) * 1e3 for s in self.spans
                if s[0] == name and (statuses is None or s[4] in statuses)]

    def self_shares(self) -> dict[str, float]:
        """Each layer's self time over the time spent in root spans."""
        child = [0.0] * len(self.spans)
        total = 0.0
        for s in self.spans:
            dur = s[3] - s[2]
            if s[1] < 0:
                total += dur
            else:
                child[s[1]] += dur
        layers: dict[str, float] = {}
        for s, covered in zip(self.spans, child):
            layer = s[0].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (s[3] - s[2]) - covered
        return {layer: t / total for layer, t in layers.items()} if total else {}

    def dump(self) -> dict:
        """Spans as plain lists: name, parent index, start and end in seconds."""
        return {"fields": ["name", "parent", "start_s", "end_s", "note"],
                "spans": [s[:5] for s in self.spans]}


def p50_p90(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]
