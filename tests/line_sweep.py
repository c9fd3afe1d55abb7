"""List every statement of the package that no CLI input of three sets
runs.

Run from the repository root as ``PYTHONPATH=src python3
tests/line_sweep.py`` (about 45 s).  A ``sys.settrace`` line trace
follows ``hypfeuer.cli.main``, in process, over

* every output of ``tests/output_sweep.py`` (116 outputs, 9,600 verify
  instances);
* the fuzz corpus of ``tests/test_fuzz.py`` at seeds 1-4, 900 inputs
  each;
* ``verify --suite feuerbach,tangent_cevians,feuerbach_point --trials
  300`` with the scenario ``bench/contact_chain.json`` at seeds 0-2
  (the file is read, never written).

It then prints one ``path:line  function  source`` row for every
statement inside a function body of ``src/hypfeuer`` that no line
event reached, and their count.  The package is imported under the
trace; module and class bodies run at import and are not listed, and a
``try`` counts as run when its body does.  Stdlib only; pytest does not
collect it.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypfeuer"
CONTACT_CHAIN = ROOT / "bench" / "contact_chain.json"
CONTACT_SUITES = "feuerbach,tangent_cevians,feuerbach_point"
FUZZ_SEEDS = range(1, 5)
FUZZ_INPUTS = 900
CONTACT_SEEDS = range(3)
CONTACT_TRIALS = 300


def inputs(tmp: str, output_sweep, test_fuzz):
    """Every argv of the three sets, in turn."""
    scenario_path = os.path.join(tmp, "scenario.json")
    for argv, scenario in output_sweep.commands():
        if scenario is not None:
            with open(scenario_path, "w", encoding="utf-8") as fh:
                fh.write(scenario)
            argv = argv + [scenario_path]
        yield argv
    for seed in FUZZ_SEEDS:
        yield from test_fuzz.corpus(seed, FUZZ_INPUTS)
    for seed in CONTACT_SEEDS:
        yield ["verify", "--suite", CONTACT_SUITES, "--trials", str(CONTACT_TRIALS),
               "--seed", str(seed), "--scenario", str(CONTACT_CHAIN)]


def traced_lines() -> set[tuple[str, int]]:
    """(file, line) of every line event in the package over the inputs."""
    package = str(PACKAGE) + os.sep
    hits: set[tuple[str, int]] = set()
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        inside = ours.get(name)
        if inside is None:
            inside = ours[name] = os.path.abspath(name).startswith(package)
        return local if inside else None

    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(on_call)
        try:
            # imported under the trace, so what runs at import counts too
            import output_sweep
            import test_fuzz
            for argv in inputs(tmp, output_sweep, test_fuzz):
                output_sweep.run(argv)
        finally:
            sys.settrace(None)
    return {(os.path.abspath(f), line) for f, line in hits}


def _header_end(stmt: ast.stmt) -> int:
    """The last line of a statement's own code: for a compound statement
    the line before its first body statement."""
    body = getattr(stmt, "body", None)
    if body and isinstance(body[0], ast.stmt):
        return body[0].lineno - 1
    return stmt.end_lineno


def _blocks(stmt: ast.stmt):
    """The statement lists nested in a statement that is not a def or a
    class."""
    for field in ("body", "orelse", "finalbody"):
        yield getattr(stmt, field, [])
    for part in [*getattr(stmt, "handlers", []), *getattr(stmt, "cases", [])]:
        yield part.body


def _own_body(node) -> list[ast.stmt]:
    """A def's or a class's body without its docstring."""
    body = node.body
    first = body[0]
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)):
        return body[1:]
    return body


def function_statements(stmts: list[ast.stmt], scope: str = "", in_function: bool = False):
    """(statement, qualified name of its function) of every statement in
    a function body among stmts, nested ones included."""
    for stmt in stmts:
        if in_function:
            yield stmt, scope
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from function_statements(
                _own_body(stmt), f"{scope}.{stmt.name}" if scope else stmt.name,
                not isinstance(stmt, ast.ClassDef))
        else:
            for block in _blocks(stmt):
                yield from function_statements(block, scope, in_function)


def unreached(hits: set[tuple[str, int]]) -> list[tuple[str, int, str, str]]:
    """(path, line, function, source line) of every statement no line
    event reached."""
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = {line for f, line in hits if f == str(path.resolve())}
        for stmt, scope in function_statements(ast.parse(source).body):
            # a try emits no code of its own: it ran when its body did
            own = stmt.body[0] if isinstance(stmt, ast.Try) else stmt
            if ran.isdisjoint(range(own.lineno, _header_end(own) + 1)):
                rows.append((str(path.relative_to(ROOT)), stmt.lineno, scope,
                             lines[stmt.lineno - 1].strip()))
    return rows


def main() -> int:
    rows = unreached(traced_lines())
    for path, line, scope, text in rows:
        print(f"{path}:{line}  {scope}  {text}")
    print(f"{len(rows)} statements unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
