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

from hypfeuer import cli

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
