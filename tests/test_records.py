"""Record semantics: hypfeuer's value types are plain slotted classes on
geom_core.Record.  Each compares equal by class and fields, hashes as
its field tuple, copies with replace(**changes), prints its fields and
takes its fields positionally in the order below.

Records do not check the types of their fields (only DiskIsometry
checks its point), so most samples here are labels, one distinct value
per field, which makes a swapped field show.
"""

import pytest

from hypfeuer import cli
from hypfeuer.cevians import CevianFeet, CircleSpec, TriangleConfig
from hypfeuer.cli import Scenario
from hypfeuer.cycles import GeneralizedCycle
from hypfeuer.errors import BoundaryPoint
from hypfeuer.geom_core import DiskIsometry, Record, Triangle
from hypfeuer.power import HomotheticCenters
from hypfeuer.theorems import (
    DEFAULT_TOLERANCES,
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
    CircleSpec: ("center", "radius", "cycle", "tangency_gap"),
    CevianFeet: ("bisector", "pseudoaltitude"),
    TriangleConfig: (
        "triangle", "feet", "lifts", "side_normals", "bisector_normals",
        "pseudoaltitude_normals", "circumcircle", "circumcenter", "circumradius",
        "euler_circle", "euler_center", "euler_radius", "euler_membership",
        "bisector_point", "bisector_residual", "pseudo_orthocenter",
        "orthocenter_residual", "incircle", "excircles", "flags"),
    HomotheticCenters: ("positive", "negative"),
    Tolerances: ("construct", "theorem", "chain"),
    TheoremCheck: ("name", "residual", "tolerance", "status", "flag", "witness"),
    InstanceReport: ("index", "instance", "flags", "checks"),
    VerificationReport: ("seed", "params", "instances", "wall_time"),
    Scenario: ("seed", "trials", "suite", "tolerances", "triangle",
               "max_vertex_radius", "min_angle", "out"),
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
    assert Tolerances() == DEFAULT_TOLERANCES == Tolerances(1e-10, 1e-9, 1e-8)
    assert TheoremCheck("n", 0.0, 1e-9, "pass") == TheoremCheck("n", 0.0, 1e-9, "pass",
                                                                None, {})
    assert VerificationReport(0, {}, []).wall_time == 0.0
    assert Scenario() == Scenario(0, 10, cli.SUITE_ORDER, DEFAULT_TOLERANCES, None,
                                  0.7, 0.15, None)
    # each record gets a fresh dict, as a dataclass default_factory gives
    assert CevianFeet() == CevianFeet({}, {})
    assert CevianFeet().bisector is not CevianFeet().bisector
    first, second = (TheoremCheck("n", 0.0, 1e-9, "pass") for _ in range(2))
    assert first.witness is not second.witness


def test_disk_isometry_checks_its_point_on_every_build():
    with pytest.raises(BoundaryPoint):
        DiskIsometry(1.0)
    with pytest.raises(BoundaryPoint):
        DiskIsometry(0.5j).replace(a=2.0)

