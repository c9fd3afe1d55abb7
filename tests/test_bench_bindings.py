"""The names the benchmark harness in bench/ binds in hypfeuer exist.

The harness looks hypfeuer's functions up by name at run time, so a
renamed or deleted function would otherwise pass these tests and break
only a benchmark run.  The harness files are read, never changed.
"""

import ast
import importlib
import importlib.util
import os

import pytest

from hypfeuer import cevians, cli
from hypfeuer.geom_core import Triangle

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load("tracing")


@pytest.mark.parametrize("mod, fn", [
    (mod, fn) for table in (TRACING.SPANS, TRACING.COUNTERS)
    for mod, fns in table.items() for fn in fns])
def test_traced_function_exists(mod, fn):
    assert callable(getattr(importlib.import_module(f"hypfeuer.{mod}"), fn))


@pytest.mark.parametrize("script", ["worker", "probe"])
def test_harness_names_exist(script):
    with open(os.path.join(BENCH, f"{script}.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    used = []
    for node in ast.walk(tree):
        # cli.<name> and self.cli.<name>
        if isinstance(node, ast.Attribute):
            base = node.value
            if (isinstance(base, ast.Name) and base.id == "cli") or (
                    isinstance(base, ast.Attribute) and base.attr == "cli"):
                used.append(("cli", node.attr))
        # from hypfeuer.<module> import <name>
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hypfeuer."):
            used += [(node.module[len("hypfeuer."):], a.name) for a in node.names]
    assert used
    for mod, name in used:
        assert hasattr(importlib.import_module(f"hypfeuer.{mod}"), name), (mod, name)


def test_tracer_sees_every_check_through_verify(tmp_path):
    # the suite registry must call checks through module attributes, which
    # is what the tracer rebinds
    tracer = TRACING.Tracer()
    tracer.install()
    try:
        assert cli.main(["verify", "--suite", "all", "--trials", "1",
                         "--out", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()
    for name in TRACING.SPANS["theorems"]:
        assert tracer.calls(f"theorems.{name}") == 1, name


def test_tracer_spans_every_foot_of_one_configuration():
    # build_config must reach both foot constructions through the names
    # the tracer rebinds, once per vertex; a path around them would
    # silently zero the benchmark's foot metrics
    tri = Triangle.of(0.156 - 0.075j, -0.117 - 0.181j, -0.047 + 0.085j)
    tracer = TRACING.Tracer()
    tracer.install()
    try:
        cfg = cevians.build_config(tri)
    finally:
        tracer.uninstall()
    assert len(cfg.feet.bisector) == len(cfg.feet.pseudoaltitude) == 3
    assert tracer.calls("cevians.build_config") == 1
    assert tracer.calls("cevians.bisector_foot") == 3
    assert tracer.calls("cevians.pseudoaltitude_foot") == 3


def test_tracer_counts_the_sampled_checks_kernel_calls(tmp_path):
    # the sampled checks call sigma and triangle_area through the names
    # the tracer rebinds, once per sample; a path around them would zero
    # the benchmark's kernel counters for that work.  check_lexell takes
    # its areas from signed_area, which the tracer does not count.
    tracer = TRACING.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify", "--suite", "all", "--trials", "20", "--seed", "7",
                         "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.count("geom_core.sigma", inside="theorems.check_inscribed_angle") == 80
    assert tracer.count("geom_core.triangle_area", inside="theorems.check_trapezoid") == 40
    assert tracer.count("geom_core.triangle_area", inside="theorems.check_lexell") == 0
    # what verify never reaches; only the tracer's bindings keep it
    idle = {f"{mod}.{fn}" for mod, fns in TRACING.COUNTERS.items() for fn in fns
            if tracer.count(f"{mod}.{fn}") == 0}
    assert idle == {"cycles.intersect", "cycles.transform", "cycles.tangency_ratio",
                    "power.crossing_angle"}
