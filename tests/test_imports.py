"""Every name a hypfeuer module or a test file imports is used in that
file, every private module-level name the package defines is read
somewhere in it, every public one is read outside its own definition or
bound by the benchmark's tracer, only the instance generators import
`random`, no module imports `dataclasses`, which importing the CLI must
not load, importing a library module loads no part of the CLI, no
module but `cycles` names a sample frame's kind, no module but
`geom_core` names `as_complex`, none names `complex_angle`, and every
error class `errors` defines is raised somewhere in the package.

Stdlib `ast` only: a name counts as used when it is read anywhere in the
module, annotations included.
"""

import ast
import importlib.util
import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(TESTS), "src", "hypfeuer")

# package modules by file name, test files as tests/<name>
LINTED = {name: os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
          if name.endswith(".py")}
LINTED.update((f"tests/{name}", os.path.join(TESTS, name))
              for name in os.listdir(TESTS) if name.endswith(".py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_unused_imports_are_found():
    source = "import os\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("module", sorted(LINTED))
def test_module_has_no_unused_imports(module):
    with open(LINTED[module], encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def private_definitions(source: str) -> set[str]:
    """Module-level functions, classes and assigned names that start with
    one underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(source: str) -> set[str]:
    return {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_private_definitions_and_reads_are_found():
    source = ("_A = 1\n_B: int = 2\n_C, (_D, e) = 3, (4, 5)\n__all__ = []\n"
              "def _f():\n    _g = _A\nclass _K:\n    _h = 0\nprint(_f)\n")
    assert private_definitions(source) == {"_A", "_B", "_C", "_D", "_f", "_K"}
    assert read_names(source) == {"_A", "_f", "int", "print"}


def test_every_private_package_name_is_read():
    # a helper or constant that a refactor left behind is dead code
    defined, read = {}, set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                source = fh.read()
            defined.update(dict.fromkeys(private_definitions(source), name))
            read |= read_names(source)
    assert len(defined) >= 30
    assert sorted((m, n) for n, m in defined.items() if n not in read) == []


def public_definitions(source: str) -> set[str]:
    """Module-level functions and classes whose names do not start with
    an underscore."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def outside_references(source: str) -> set[str]:
    """Names read as a name or an attribute anywhere in a module, except
    a function's or class's own name inside its own definition."""
    names = set()
    for stmt in ast.parse(source).body:
        read = {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
        read.discard(getattr(stmt, "name", None))
        names |= read
    return names


def test_public_definitions_and_outside_references_are_found():
    source = ("def f(n):\n    return f(n - 1)\nclass K:\n    def m(self):\n"
              "        return K\ndef _p():\n    return g.h\ndef g():\n    pass\n")
    assert public_definitions(source) == {"f", "K", "g"}
    assert outside_references(source) == {"n", "g", "h"}


def traced_names() -> set[str]:
    """The function names bench/tracing.py's SPANS and COUNTERS bind,
    read as tests/test_bench_bindings.py reads them."""
    path = os.path.join(os.path.dirname(TESTS), "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {fn for table in (tracing.SPANS, tracing.COUNTERS)
            for fns in table.values() for fn in fns}


# public names kept with no caller in src, each with its reason
KEPT_UNREFERENCED = {
    # the paper's nine-point maps take the circumcircle to the Euler
    # circle; the Euler-map step of the checks will read them
    "homothety_cycle": "power.py",
    "inversion_cycle": "power.py",
}


def test_every_public_package_name_is_used_or_traced():
    # a public function or class that nothing in the package calls is
    # surface to keep working for no caller, unless the benchmark's
    # tracer binds it by name
    defined, referenced = {}, set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                source = fh.read()
            defined.update(dict.fromkeys(public_definitions(source), name))
            referenced |= outside_references(source)
    assert len(defined) >= 100
    traced = traced_names()
    unused = {n: m for n, m in defined.items() if n not in referenced and n not in traced}
    assert unused == KEPT_UNREFERENCED


def imported_modules(source: str) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return modules


def test_imported_modules_are_found():
    source = "import os.path\nfrom random import Random\nfrom .cycles import x\n"
    assert imported_modules(source) == {"os.path", "random"}


@pytest.mark.parametrize("module", sorted(
    name for name in os.listdir(PACKAGE)
    if name.endswith(".py") and name != "instances.py"))
def test_module_draws_no_random_numbers(module):
    # constructions and checks are functions of their inputs alone;
    # instances.py seeds every draw from (seed, index, purpose)
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert "random" not in imported_modules(fh.read())


@pytest.mark.parametrize("module", sorted(
    name for name in os.listdir(PACKAGE) if name.endswith(".py")))
def test_module_imports_no_dataclasses(module):
    # records are geom_core.Record classes: dataclasses (and the inspect,
    # ast, dis and tokenize it loads) would cost a fresh interpreter more
    # than the rest of the package's imports together
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert "dataclasses" not in imported_modules(fh.read())


def modules_added_by(module: str) -> list[str]:
    """What `import <module>` adds to a fresh isolated interpreter's
    modules: a deterministic stand-in for the import cost, not a timing."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"sys.path.insert(0, {os.path.dirname(PACKAGE)!r})\n"
            f"import {module}\n"
            "print(*sorted(set(sys.modules) - before), sep='\\n')\n")
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, check=True)
    return done.stdout.split()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # nor argparse and the gettext it loads: the CLI reads argv with its
    # own flag table, and they cost a fresh interpreter 3.5-5.7 ms
    added = modules_added_by("hypfeuer.cli")
    assert "hypfeuer.cli" in added
    unwanted = ("dataclasses", "inspect", "argparse", "gettext")
    assert [name for name in unwanted if name in added] == []


@pytest.mark.parametrize("module", ["hypfeuer.geom_core", "hypfeuer.cycles"])
def test_importing_a_library_module_loads_no_part_of_the_cli(module):
    # the package's __init__ imports nothing, so library use pays for
    # neither the argument parser nor the JSON writer
    added = modules_added_by(module)
    assert module in added
    assert [name for name in ("argparse", "json", "hypfeuer.cli") if name in added] == []


def sibling_modules(source: str) -> set[str]:
    """The package modules a module imports with `from .x import ...`."""
    return {node.module for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_sibling_modules_are_found():
    source = "import os\nfrom random import Random\nfrom .cycles import x\n"
    assert sibling_modules(source) == {"cycles"}


def test_generators_import_neither_the_checks_nor_the_cli():
    # instances draws what theorems verifies: constructions it needs live
    # in the layers that own their objects, never in the verifier
    with open(os.path.join(PACKAGE, "instances.py"), encoding="utf-8") as fh:
        assert sibling_modules(fh.read()).isdisjoint({"theorems", "cli"})


def test_theorems_defines_only_checks():
    # every construction lives in geom_core, cycles, cevians or power;
    # theorems keeps the checks and private helpers behind them
    with open(os.path.join(PACKAGE, "theorems.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    public = [node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert public
    assert [name for name in public if not name.startswith("check_")] == []


# what cevians.build_config writes into TriangleConfig.flags begins so
CONFIG_FLAG_PREFIXES = ("bracket_failure_", "no_", "divergent_", "excircle_absent_",
                        "excircle_center_at_absolute_", "incircle_center_at_absolute")


def string_constants(source: str) -> list[str]:
    """Every string constant in a module, f-string parts included."""
    return [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def test_string_constants_are_found():
    source = "x = 'no_a'\ny = f'no_{x}'\nz = 3\n"
    assert string_constants(source) == ["no_a", "no_"]


@pytest.mark.parametrize("module", ["theorems.py", "cli.py", "svg_render.py"])
def test_only_cevians_names_config_flags(module):
    # a check skips on the objects it reads, so no reader of a
    # TriangleConfig needs to know how its flags are spelled
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        source = fh.read()
    assert [s for s in string_constants(source) if s.startswith(CONFIG_FLAG_PREFIXES)] == []


def mentioned_names(source: str) -> set[str]:
    """Every name a module imports, defines or reads, as a name or an
    attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


@pytest.mark.parametrize("module", sorted(
    name for name in os.listdir(PACKAGE) if name.endswith(".py")))
def test_only_geom_core_coerces_a_point(module):
    # a point below the input boundary is a complex: check_disk alone
    # coerces point-like input, and signed_angle is the one angle kernel
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        names = mentioned_names(fh.read())
    assert ("as_complex" in names) == (module == "geom_core.py")
    assert "complex_angle" not in names


def raised_names(source: str) -> set[str]:
    """The names a module raises: `raise X` and `raise X(...)`, X a name
    or an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_raised_names_are_found():
    source = ("def f(x):\n    try:\n        raise A('a')\n    except A as exc:\n"
              "        raise errors.B from exc\n    raise\nclass C(A):\n    pass\n")
    assert raised_names(source) == {"A", "B"}


def test_every_error_class_has_a_raiser():
    # an error class nothing raises is a branch its callers keep for an
    # outcome that never comes
    with open(os.path.join(PACKAGE, "errors.py"), encoding="utf-8") as fh:
        classes = {node.name for node in ast.parse(fh.read()).body
                   if isinstance(node, ast.ClassDef)} - {"GeometryError"}
    raised = set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                raised |= raised_names(fh.read())
    assert len(classes) >= 10
    assert sorted(classes - raised) == []
