"""The bytes construct, render and verify write, pinned by SHA-256.

Each digest covers the standard output of one command over a fixed set
of inputs: `construct`, `render` and `render --format json` for 20
seeded triangles in each of the default 0.7 box and a 0.25 box, and
`verify --suite all --trials 20 --seed 7` in both boxes.  The digests
were recorded at commit 536326d, before the CLI front end, the JSON
writer and the SVG renderer were rewritten for speed, so they hold
those rewrites to byte identity.

The drawn suites, whose instances come from the generators rather than
from a triangle, get 200 instances per box (`verify --suite
inscribed_angle,trapezoid,lexell,radical_axis,monge --trials 200 --seed
0`, "verify-drawn"), recorded at commit 98198de, before the sampler,
the trapezoid search and the arc instance were made to compute only the
samples they read.

The sweep runs every suite over 200 instances for each seed 0-5 per
box (`verify --suite all --trials 200 --seed S`, "verify-sweep", one
digest over the six outputs), recorded at commit 0731db2, before the
triangle checks were made to skip on the objects they read rather than
on the configuration's flags.

All six verify digests were recorded again when the constant-area
locus came to be built from homogeneous rows (the inverse of a base end
taken as the row (1, x, y, |z|^2), not as the point z / |z|^2): that
moved the residual bytes of the lexell and trapezoid checks, and no
status or flag.  They were recorded once more when the sampler came to
write each point of a line or an arc from the cycle's point nearest the
origin and its arc length from there, not as center + radius e^{it}:
that moved the residual bytes of the inscribed_angle, trapezoid, lexell
and radical_axis checks, and no status or flag.  They were recorded once
more when feuerbach_point came to take each excircle contact from the
Euler circle's side and to add the three Euler-excircle tangency gaps
to its residual, while the root-finder of the odd instances' trapezoid
quads changed: that moved the residual bytes of the trapezoid and the
feuerbach_point checks, and no status or flag.  They were recorded once
more when a circle inside the disk came to be sampled by arc length
from its point nearest the origin, like a line or an arc, and no longer
by angle from the right of its center: that moved the two points of
each whole-circle inscribed_angle instance along their circle, so the
residual and the witness's sigma and center_angle_gap bytes of that
check, and no status or flag.  They were recorded once more when every
trapezoid instance came to be drawn on its constant-area locus, the odd
instances no longer solved for an angle balance: that moved the
trapezoid residual and witness bytes of the odd instances, and no
status or flag.

A change that alters these bytes on purpose records the digests again
(each is what `_digest` below returns) and lists the change and the
outputs it touches in CHANGES.md.
"""

import hashlib
import json

import pytest

from hypfeuer.cli import format_complex, main
from hypfeuer.instances import PURPOSE_TRIANGLE, instance_rng, random_triangle

BOXES = (0.7, 0.25)

COMMANDS = {
    "construct": ["construct"],
    "render": ["render"],
    "render-json": ["render", "--format", "json"],
}

DIGESTS = {
    ("construct", 0.7):
        "c9160811c666161a1b5bddce7494fbc46a2a8d6c3484a4dda3f3303207265c4b",
    ("construct", 0.25):
        "0c9a4bf280eb1dd6b587b87d089dc892a6d7f425059eabb68191e83da615c105",
    ("render", 0.7):
        "72161a7a53fb95b40caff95fc7febf4f7d9d9d0a8dc082b2ff6765cfe0072acd",
    ("render", 0.25):
        "9e7755dcb1f51ab3a4bf8ebba3065991a3ed4a6adb8cc3a5807e461ac5399840",
    ("render-json", 0.7):
        "c9160811c666161a1b5bddce7494fbc46a2a8d6c3484a4dda3f3303207265c4b",
    ("render-json", 0.25):
        "0c9a4bf280eb1dd6b587b87d089dc892a6d7f425059eabb68191e83da615c105",
    ("verify", 0.7):
        "fd29b65a2535ee4edb0595e9534b833ec69657e2e2450d33d43ba48861739f84",
    ("verify", 0.25):
        "2a09c1ff0ae7d6887a8f854cf02da16f1efe8f00e5161a7365aff77ff521bd3f",
    ("verify-drawn", 0.7):
        "73ad924401b785563cc331b66d071a7ad78dfdc0dd8253df72bff4a43a48bef0",
    ("verify-drawn", 0.25):
        "88a26907348998bc6454f8038f8410ea384caae25d74b9f9eca4440b9833a36c",
    ("verify-sweep", 0.7):
        "971902e6ce324df015dcf9713de28ca943097e463e6cb177033e39a889b04c41",
    ("verify-sweep", 0.25):
        "6fc9e50e5f7b62ed727dc94e205432621fdecd680faf0cec0a5b975ea2f23053",
}

# the verify arguments of each run a digest covers
VERIFY_RUNS = {
    "verify": [["--suite", "all", "--trials", "20", "--seed", "7"]],
    "verify-drawn": [["--suite", "inscribed_angle,trapezoid,lexell,radical_axis,monge",
                      "--trials", "200", "--seed", "0"]],
    "verify-sweep": [["--suite", "all", "--trials", "200", "--seed", str(seed)]
                     for seed in range(6)],
}


def seeded_triangles(box: float) -> list[str]:
    """20 triangles of the sampler, as --triangle values."""
    triangles = []
    for seed in range(20):
        tri, _ = random_triangle(instance_rng(seed, 0, PURPOSE_TRIANGLE), box)
        triangles.append(",".join(format_complex(z) for z in (tri.a, tri.b, tri.c)))
    return triangles


def _digest(command: str, box: float, tmp_path, capsys) -> str:
    sha = hashlib.sha256()
    if command in VERIFY_RUNS:
        scenario = tmp_path / "box.json"
        scenario.write_text(json.dumps({"max_vertex_radius": box}))
        runs = [["verify", *args, "--scenario", str(scenario)]
                for args in VERIFY_RUNS[command]]
    else:
        runs = [[*COMMANDS[command], f"--triangle={t}"] for t in seeded_triangles(box)]
    for argv in runs:
        assert main(argv) == 0, argv
        sha.update(capsys.readouterr().out.encode())
    return sha.hexdigest()


@pytest.mark.parametrize("command, box", sorted(DIGESTS))
def test_output_bytes_are_pinned(command, box, tmp_path, capsys):
    assert _digest(command, box, tmp_path, capsys) == DIGESTS[command, box]
