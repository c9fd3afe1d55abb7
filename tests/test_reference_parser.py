"""The table-driven argv parser against the argparse parser it replaced.

The reference below is the former code, kept as the oracle: the
`ArgumentParser` that `cli.build_parser` built and the rewrite of a
leading-minus `--triangle` value that ran before it.  On every argv of
PARITY both give the same eight fields, or both print the usage and
exit 2 (with the same stderr), or both print the same help and exit 0.
DIFFERENCES lists where they part, each on purpose and with its reason.
"""

import argparse

import pytest

from hypfeuer import cli

FIELDS = ("command", "seed", "trials", "suite", "triangle", "out", "format", "scenario")

TRIANGLE = "-0.1+0.2i,0.3,0.1i"


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypfeuer",
        description="Triangle constructions and theorem verification "
                    "in the hyperbolic disk.")
    parser.add_argument("command", choices=("construct", "verify", "render"),
                        help="construct: serialize the full configuration of "
                             "one triangle; verify: run theorem suites over "
                             "seeded random instances; render: draw a "
                             "configuration as an SVG figure")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--suite", type=str, default=None,
                        help="comma-separated check names, or 'all'")
    parser.add_argument("--triangle", type=str, default=None,
                        help='vertices as "a,b,c", e.g. "0.1+0.1i,0.5,0.3i"')
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", type=str, default=None, choices=("json", "svg"))
    parser.add_argument("--scenario", type=str, default=None,
                        help="JSON file with scenario fields; flags override")
    return parser


# what a vertex can start with after its minus sign
_VALUE_STARTS = frozenset("0123456789.i")


def attach_triangle_values(argv: list[str]) -> list[str]:
    """argv with each `--triangle V` whose V starts with a minus sign and
    a digit, point or i given as `--triangle=V`; unique abbreviations of
    the flag (from --trian) are taken too."""
    out = []
    pending = False
    for arg in argv:
        if pending and arg[:1] == "-" and arg[1:2] in _VALUE_STARTS:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
        pending = len(arg) >= 7 and "--triangle".startswith(arg)
    return out


def reference_parse(argv):
    return reference_parser().parse_args(attach_triangle_values(argv))


def outcome(parse, argv, capsys):
    """("fields", the eight values) or ("exit", code, stdout, stderr)."""
    try:
        args = parse(list(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return ("exit", exc.code, captured.out, captured.err)
    return ("fields", {name: getattr(args, name) for name in FIELDS})


PARITY = [
    # each flag in both value forms
    ["verify", "--seed", "5"], ["verify", "--seed=5"],
    ["verify", "--trials", "3"], ["verify", "--trials=3"],
    ["verify", "--suite", "monge,lexell"], ["verify", "--suite=monge,lexell"],
    ["verify", "--suite="],
    ["construct", "--triangle", "0.1,0.2i,0.3"], ["construct", "--triangle=0.1,0.2i,0.3"],
    ["render", "--out", "fig.svg"], ["render", "--out=fig.svg"], ["render", "--out", "-"],
    ["render", "--format", "json"], ["render", "--format=svg"],
    ["verify", "--scenario", "scn.json"], ["verify", "--scenario=scn.json"],
    ["verify", "--out", "a=b.json"],
    # unique abbreviations
    ["verify", "--se", "5"], ["verify", "--trial=3"], ["verify", "--su", "all"],
    ["render", "--form", "svg"], ["verify", "--sui=all"], ["verify", "--scen", "0"],
    ["render", "--fo", "json"], ["verify", "--sc", "scn.json"], ["verify", "--o", "r.json"],
    ["construct", "--trian", "0.1,0.2i,0.3"], ["construct", "--triangl=0.1,0.2i,0.3"],
    # the command anywhere; the last of a repeated flag wins
    ["--seed", "3", "verify"], ["--trials=2", "--suite", "lexell", "render", "--seed", "1"],
    ["verify", "--seed", "1", "--seed", "2"], ["verify", "--seed", "1", "--se=4"],
    # negative numbers are values; a negative seed is refused later, by
    # scenario_from_args
    ["verify", "--seed", "-3"], ["verify", "--seed=-3"], ["verify", "--trials", "-1"],
    ["verify", "--suite", "-1"], ["verify", "--suite", "-.5"], ["verify", "--trials", "-.5"],
    # a leading-minus first vertex, by the name and by --trian and longer
    ["construct", "--triangle", TRIANGLE], ["construct", "--triangle=" + TRIANGLE],
    ["construct", "--trian", TRIANGLE], ["render", "--triang", "-.25i,0.3,0.1i"],
    ["construct", "--triangle", "-i,0.3,0.1"], ["--triangle", TRIANGLE, "construct"],
    # --tri and --tria name --trials too
    ["construct", "--tri", "0.1,0.2i,0.3"], ["construct", "--tria=0.1,0.2i,0.3"],
    ["construct", "--tri", TRIANGLE],
    # usage errors
    [], ["--seed", "3"], ["bogus"], ["bogus", "--seed", "x"], ["-1"],
    ["verify", "--triangle"], ["construct", "--triangle", "--out", "x.json"],
    ["verify", "--seed", "x"], ["verify", "--seed", "1.5"], ["verify", "--seed="],
    ["verify", "--trials", "2e3"],
    ["verify", "--trials", "inf"], ["verify", "--seed=1e400"], ["verify", "--format="],
    # the tolerance flags are gone
    ["verify", "--tol-theorem", "2e-8"], ["verify", "--tol-chain=1e400"],
    ["render", "--format", "png"], ["render", "--format=SVG"],
    ["verify", "--bogus"], ["verify", "--bogus=1"], ["verify", "--seed5"], ["-x", "verify"],
    ["verify", "--t", "1"], ["verify", "--s=1"], ["verify", "--s", "1"],
    ["verify", "extra"], ["verify", "construct"], ["verify", "-1"],
    ["verify", "a", "--bogus", "b"], ["--bogus", "verify", "--seed", "x"],
    ["--help=x"], ["verify", "-h=1"],
    # help: wherever it stands, unless an error comes before it
    ["-h"], ["--help"], ["verify", "--he"], ["--seed", "3", "-h"], ["-h", "bogus"],
    ["verify", "--bogus", "-h"], ["bogus", "-h"], ["verify", "--seed", "x", "--help"],
]


@pytest.mark.parametrize("argv", PARITY, ids=" ".join)
def test_parser_matches_the_argparse_reference(argv, capsys, monkeypatch):
    # argparse wraps to the terminal's width less 2; the parser to 78
    monkeypatch.setenv("COLUMNS", "80")
    expected = outcome(reference_parse, argv, capsys)
    got = outcome(cli.build_parser().parse_args, argv, capsys)
    assert got == expected
    if got[0] == "exit" and got[1] == 2:
        assert got[3].startswith("usage: hypfeuer ")
        assert got[3].splitlines()[-1].startswith("hypfeuer: error: ")


# argv -> what the parser does where the reference did otherwise: the
# fields it reads (the reference exited 2), or its usage error
DIFFERENCES = {
    # a value that starts with "-" and a digit, "." or "i" is a value for
    # every flag, not just --triangle; parse_suite then refuses the
    # suite, so main still exits 2, with one line
    ("verify", "--suite", "-1e-10"): {"suite": "-1e-10"},
    # by the same rule "-1e3" and "-inf" are read, and are no int;
    # argparse took each for a flag and said --seed missed its value
    ("verify", "--seed", "-1e3"): "argument --seed: invalid int value: '-1e3'",
    ("verify", "--seed", "-inf"): "argument --seed: invalid int value: '-inf'",
    # argparse read a word with a space as a value; here a word that
    # starts with "-" and a letter is a flag, whatever follows
    ("verify", "--suite", "-x y"): "argument --suite: expected one argument",
    # "--" no longer ends the flags: no value needs it, since the values
    # hypfeuer takes never start with "-" and a letter
    ("--", "verify"): "unrecognized arguments: --",
}


@pytest.mark.parametrize("argv", sorted(DIFFERENCES), ids=" ".join)
def test_deliberate_differences_from_the_reference(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    expected = DIFFERENCES[argv]
    reference = outcome(reference_parse, argv, capsys)
    got = outcome(cli.build_parser().parse_args, argv, capsys)
    assert got != reference
    if isinstance(expected, str):
        assert got[:2] == ("exit", 2)
        assert got[3].startswith("usage: hypfeuer ")
        assert got[3].splitlines()[-1] == f"hypfeuer: error: {expected}"
        return
    assert reference[:2] == ("exit", 2)
    assert got[0] == "fields"
    assert {name: got[1][name] for name in expected} == expected
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("hypfeuer: unknown suite ")


@pytest.mark.parametrize("columns", ["80", "40", "200"])
def test_help_is_the_reference_help_at_80_columns(columns, capsys, monkeypatch):
    # the parser's help does not follow the terminal's width, so its
    # bytes are one text everywhere: argparse's at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    expected = outcome(reference_parse, ["--help"], capsys)
    monkeypatch.setenv("COLUMNS", columns)
    assert outcome(cli.build_parser().parse_args, ["--help"], capsys) == expected
