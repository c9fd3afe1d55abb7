"""Record semantics: hypfeuer's value types are plain slotted classes on
geom_core.Record.  Each compares equal by class and fields, hashes as
its field tuple, copies with replace(**changes), prints its fields and
takes its fields positionally in the order below.

Records do not check the types of their fields (only DiskIsometry
checks its point), so most samples here are labels, one distinct value
per field, which makes a swapped field show.  All record classes but
DiskIsometry take the `__init__` that Record compiles from their slots;
an AST guard keeps a written-out copy of it from coming back.
"""

import ast
import os
import sys

import pytest

from hypfeuer import cli
from hypfeuer.cevians import CevianFeet, CircleSpec, TriangleConfig
from hypfeuer.cli import Scenario
from hypfeuer.cycles import GeneralizedCycle
from hypfeuer.errors import BoundaryPoint
from hypfeuer.geom_core import DiskIsometry, Record, Triangle
from hypfeuer.power import HomotheticCenters
from hypfeuer.theorems import (
    TOLERANCES,
    InstanceReport,
    TheoremCheck,
    Tolerances,
    VerificationReport,
)

# each record class -> its fields in positional order
FIELDS = {
    Triangle: ("a", "b", "c", "swapped", "area"),
    DiskIsometry: ("a", "theta", "reflect"),
    GeneralizedCycle: ("a", "b", "c"),
    CircleSpec: ("center", "radius", "cycle"),
    CevianFeet: ("bisector", "pseudoaltitude"),
    TriangleConfig: (
        "triangle", "feet", "lifts", "side_normals", "circumcircle", "circumcenter",
        "circumradius", "euler_circle", "euler_center", "euler_radius", "incircle",
        "excircles", "flags"),
    HomotheticCenters: ("positive", "negative"),
    Tolerances: ("construct", "theorem", "chain"),
    TheoremCheck: ("name", "residual", "tolerance", "status", "flag", "witness"),
    InstanceReport: ("index", "instance", "flags", "checks"),
    VerificationReport: ("seed", "params", "instances", "wall_time"),
    Scenario: ("seed", "trials", "suite", "triangle", "max_vertex_radius",
               "min_angle", "out"),
}

RECORDS = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


def values(cls, tag: str = "value") -> tuple:
    """One distinct value per field of cls."""
    if cls is DiskIsometry:
        return {"value": (0.5j, 0.25, True), "changed": (-0.125, 1.5, False)}[tag]
    return tuple(f"{name}-{tag}" for name in FIELDS[cls])


def test_every_record_class_is_listed():
    package = [cls for cls in Record.__subclasses__()
               if cls.__module__.startswith("hypfeuer.")]
    assert set(package) == set(FIELDS)


@RECORDS
def test_fields_are_taken_in_positional_order(cls):
    assert cls.__slots__ == FIELDS[cls]
    record = cls(*values(cls))
    assert [getattr(record, name) for name in FIELDS[cls]] == list(values(cls))
    assert not hasattr(record, "__dict__")


@RECORDS
def test_fields_are_taken_by_keyword(cls):
    assert cls(**dict(zip(FIELDS[cls], values(cls)))) == cls(*values(cls))


@RECORDS
def test_a_wrong_argument_count_names_the_class(cls):
    too_many = values(cls) + ("extra",)
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) takes"):
        cls(*too_many)
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) got an"):
        cls(*values(cls), nonexistent=1)


# the record classes that write their own __init__
WRITTEN_INIT = {DiskIsometry}


def test_only_disk_isometry_writes_an_init():
    written = {cls for cls in FIELDS if cls.__init__.__code__.co_filename
               == sys.modules[cls.__module__].__file__}
    assert written == WRITTEN_INIT
    # the others' is compiled once, onto the class itself
    assert all("__init__" in vars(cls) for cls in FIELDS)


def plain_inits(source: str) -> list[str]:
    """The Record subclasses in source whose written __init__ only stores
    each parameter in the slot of the same name: what Record compiles."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef)
                and any(isinstance(b, ast.Name) and b.id == "Record" for b in node.bases)):
            continue
        for item in node.body:
            if not (isinstance(item, ast.FunctionDef) and item.name == "__init__"):
                continue
            params = [a.arg for a in item.args.args[1:]]
            stores = [(s.targets[0].attr, s.value.id) for s in item.body
                      if isinstance(s, ast.Assign) and len(s.targets) == 1
                      and isinstance(s.targets[0], ast.Attribute)
                      and isinstance(s.targets[0].value, ast.Name)
                      and s.targets[0].value.id == "self"
                      and isinstance(s.value, ast.Name)]
            if len(stores) == len(item.body) and sorted(stores) == sorted(
                    (p, p) for p in params):
                found.append(node.name)
    return found


def test_the_plain_init_guard_finds_a_written_out_copy():
    source = ("class Pair(Record):\n    __slots__ = ('x', 'y')\n"
              "    def __init__(self, x, y=0):\n        self.y = y\n        self.x = x\n"
              "class Fresh(Record):\n    __slots__ = ('d',)\n"
              "    def __init__(self, d=None):\n        self.d = {} if d is None else d\n"
              "class Other:\n    def __init__(self, x):\n        self.x = x\n")
    assert plain_inits(source) == ["Pair"]


def test_no_record_class_writes_out_the_compiled_init():
    package = os.path.dirname(sys.modules[Record.__module__].__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                found += plain_inits(fh.read())
    assert found == []


@RECORDS
def test_equality_is_by_class_and_fields(cls):
    record = cls(*values(cls))
    assert record == cls(*values(cls))
    assert hash(record) == hash(cls(*values(cls)))
    for i, changed in enumerate(values(cls, "changed")):
        other = list(values(cls))
        other[i] = changed
        assert record != cls(*other), FIELDS[cls][i]
    # a record of another class with the same fields and values is not equal
    twin_cls = type(cls.__name__, (Record,),
                    {"__slots__": cls.__slots__, "__init__": cls.__init__})
    twin = twin_cls(*values(cls))
    assert record.__eq__(twin) is NotImplemented
    assert record != twin and twin != record
    assert record != values(cls)


@RECORDS
def test_replace_changes_one_field(cls):
    record = cls(*values(cls))
    copy = record.replace()
    assert copy == record and copy is not record
    for name, changed in zip(FIELDS[cls], values(cls, "changed")):
        copy = record.replace(**{name: changed})
        assert type(copy) is cls
        assert getattr(copy, name) == changed
        assert copy != record
        assert copy.replace(**{name: getattr(record, name)}) == record
    assert record == cls(*values(cls))


@RECORDS
def test_replace_refuses_an_unknown_field(cls):
    record = cls(*values(cls))
    with pytest.raises(TypeError, match="nonexistent"):
        record.replace(nonexistent=1)
    with pytest.raises(TypeError, match="nonexistent"):
        record.replace(**{FIELDS[cls][0]: values(cls)[0], "nonexistent": 1})


@RECORDS
def test_repr_names_every_field(cls):
    inner = ", ".join(f"{name}={value!r}" for name, value in zip(FIELDS[cls], values(cls)))
    assert repr(cls(*values(cls))) == f"{cls.__name__}({inner})"


def test_defaults():
    assert DiskIsometry() == DiskIsometry(0j, 0.0, False)
    assert TOLERANCES == Tolerances(1e-10, 1e-9, 1e-8)
    assert Scenario() == Scenario(0, 10, cli.SUITE_ORDER, None, 0.7, 0.15, None)


def test_disk_isometry_checks_its_point_on_every_build():
    with pytest.raises(BoundaryPoint):
        DiskIsometry(1.0)
    with pytest.raises(BoundaryPoint):
        DiskIsometry(0.5j).replace(a=2.0)

