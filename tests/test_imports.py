"""Every name a hypfeuer module imports is used in that module, and only
the instance generators import `random`.

The package's `__init__.py` imports names only to re-export them, so it
is exempt from the first rule.  Stdlib `ast` only: a name counts as used
when it is read anywhere in the module, annotations included.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "hypfeuer")

MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


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


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
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
