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
        "e9a77ea903d3975ded9a2c916ad4ee3a92b7f1a10ee6a2444b6abb09fab530c7",
    ("verify", 0.25):
        "7d74c123cf7a53627debad51332120447529d919fb94bf6c61241053d32adc60",
    ("verify-drawn", 0.7):
        "4f6311dc91e21a593ac09c93626b786df874fbd0056034cecda3da6986a3d03c",
    ("verify-drawn", 0.25):
        "64c5b36cf61bf5b9ed8cf7acc6e10fd5cefbfedc7a255e7c1fcf2c3d78b8dbc3",
    ("verify-sweep", 0.7):
        "28b58fb7fbd55fcc5f584d250645f79cb6c3d9ad08992a01a2ad8b1280309e77",
    ("verify-sweep", 0.25):
        "c550eecdbf0edb1398ad20a2c3337fb3d0c1967ce5438d105b627200da90fae5",
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
