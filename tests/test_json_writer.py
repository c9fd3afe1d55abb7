"""cli's JSON writer against the standard library's encoder.

Reports and configurations are written by cli's own writer; their bytes
must stay those of json.dumps(indent=2, sort_keys=True) with the hook
below, which is how cli wrote them before it had a writer of its own.
The writer takes only the kinds hypfeuer builds, records among them,
and refuses the rest, a scalar as the whole document among them.
"""

import dataclasses
import enum
import json
import math
import re

import pytest

from hypfeuer import cli
from hypfeuer.cevians import build_config
from hypfeuer.geom_core import Record
from hypfeuer.instances import instance_rng, random_triangle
from hypfeuer.theorems import InstanceReport, TheoremCheck


def _oracle_default(obj):
    if isinstance(obj, complex):
        return cli.format_complex(obj)
    if isinstance(obj, Record):
        return {name: getattr(obj, name) for name in obj.__slots__}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def oracle(doc) -> str:
    return json.dumps(doc, default=_oracle_default, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def written(monkeypatch):
    """Every document cli writes, checked against the oracle as it goes."""
    texts = []
    write = cli._to_json

    def checked(doc):
        text = write(doc)
        assert text == oracle(doc)
        texts.append(text)
        return text

    monkeypatch.setattr(cli, "_to_json", checked)
    return texts


@pytest.mark.parametrize("seed", range(4))
def test_verify_reports_match_the_oracle(written, seed):
    # the default box, and a 0.25 box, where most excircles exist and
    # most feuerbach_point checks write a point
    for box in (0.7, 0.25):
        for suite in cli.SUITE_ORDER:
            scn = cli.Scenario(seed=seed, trials=30, suite=(suite,),
                               max_vertex_radius=box)
            cli.report_json(cli.run_verify(scn))
    assert len(written) == 2 * len(cli.SUITE_ORDER)


def test_configs_match_the_oracle(written):
    # half in the default box, half in a small one where excircles exist
    configs = [build_config(random_triangle(instance_rng(seed, 0), box)[0])
               for seed in range(25) for box in (0.7, 0.25)]
    for cfg in configs:
        cli.config_json(cfg)
    assert len(written) == 50
    assert any(cfg.flags for cfg in configs)
    assert any(None in cfg.excircles.values() for cfg in configs)
    assert any(None not in cfg.excircles.values() for cfg in configs)


class Leaf(Record):
    __slots__ = ("z", "tag")

    def __init__(self, z: complex, tag: str = "leaf"):
        self.z = z
        self.tag = tag


class Node(Record):
    __slots__ = ("children", "leaf")

    def __init__(self, children: list, leaf: Leaf):
        self.children = children
        self.leaf = leaf


class Bare(Record):
    __slots__ = ()


EDGE = {
    "empty": {"dict": {}, "list": [], "nested": {"a": [{}, []]}},
    "strings": ["", "plain", "café ü", "€ 𝄞 日本", "\x00\x01\x1f\x7f",
                'quote " and \\ backslash', "tab\tnew\nline\r"],
    "floats": [0.0, -0.0, 5e-324, 1e16, 1e-7, 1e22, 0.1, -2.5, 1.7976931348623157e308,
               123456789.123456789],
    "ints": [0, -1, 2 ** 64, -(10 ** 30), 7],
    "atoms": [True, False, None],
    "complex": [0j, -0.0 - 0.0j, 1e-17 + 0.5j, -0.25 - 1e-13j, complex(3, -4)],
    "records": [Node([Leaf(0.1 + 0.2j), Bare()], Leaf(-1j, "inner")), Bare()],
    "nested": [1, [2, [3]], {"4": [4]}],
    "été \"key\"": "non-ASCII key",
}


def test_edge_document_matches_the_oracle():
    assert cli._to_json(EDGE) == oracle(EDGE)


@pytest.mark.parametrize("doc", [0.5, "x", None, True, 3, [], {}, 1j, Bare()])
def test_top_level_values_match_the_oracle(doc):
    # each value as the one item of a list and of a dict
    for wrapped in ([doc], {"value": doc}):
        assert cli._to_json(wrapped) == oracle(wrapped)


@pytest.mark.parametrize("doc, where", [
    ({"a": [1.0, {"b": math.nan}]}, "a[1].b"),
    ({"x": {"y": [0.0, -math.inf]}}, "x.y[1]"),
    ({"leaf": Leaf(complex(math.inf, 0.0))}, "leaf.z"),
    ([math.inf], "[0]"),
    ({"instances": [InstanceReport(0, {}, [], [
        TheoremCheck("lexell", 0.0, 1e-9, "pass", None, None),
        TheoremCheck("monge", math.nan, 1e-9, "fail", None, {"pattern": "+++"})])]},
     "instances[0].checks[1].residual"),
])
def test_non_finite_numbers_are_refused(doc, where):
    with pytest.raises(ValueError, match=rf"non-finite number .* at {re.escape(where)} "):
        cli._to_json(doc)


def test_unknown_types_are_refused():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        cli._to_json({"a": {1, 2}})
    with pytest.raises(TypeError, match="keys must be str"):
        cli._to_json({(1, 2): "tuple key"})


class Colour(enum.Enum):
    RED = "red"


class Text(str):
    pass


class Number(float):
    pass


@dataclasses.dataclass
class Point:
    z: complex


@pytest.mark.parametrize("doc, kind", [
    ([Colour.RED], "Colour"),
    ({"a": Text("text")}, "Text"),
    (Number(0.5), "Number"),
    ({"a": (1, 2)}, "tuple"),
    ({3: "three"}, "int"),
    ({"a": [Point(0.5j)]}, "Point"),
    ([Text("t")], "Text"),
    ([(1, 2)], "tuple"),
    ([Number(0.5)], "Number"),
    (0.5, "float"),
], ids=["enum", "str_subclass", "float_subclass", "tuple", "int_key", "dataclass",
        "str_subclass_in_array", "tuple_in_array", "float_subclass_in_array",
        "top_level_scalar"])
def test_unknown_kinds_are_refused(doc, kind):
    with pytest.raises(TypeError, match=rf"\b{kind}\b"):
        cli._to_json(doc)
