"""Every name a hypfeuer module or a test file imports is used in that
file, and only the instance generators import `random`.

The package's `__init__.py` imports names only to re-export them, so it
is exempt from the first rule.  Stdlib `ast` only: a name counts as used
when it is read anywhere in the module, annotations included.
"""

import ast
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(TESTS), "src", "hypfeuer")

# package modules by file name, test files as tests/<name>
LINTED = {name: os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
          if name.endswith(".py") and name != "__init__.py"}
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
