"""Calls into hypfeuer's CLI for the benchmark, and the set-up probe.

Run as a script, this is the fresh interpreter whose start-up setup_s
times: it imports hypfeuer from the checkout, runs the workload's set-up
plan (the CLI calls that make every suite of the workload run unskipped
once, so lazy imports land here), prints one line and exits.  It imports
nothing else, so its start-up is the program's, not the harness's.

    python3 -I bench/probe.py <checkout root> '<plan as JSON list of argv lists>'
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def load_cli(root: str):
    """hypfeuer.cli imported from <root>/src, refusing any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hypfeuer.cli

    if not os.path.abspath(hypfeuer.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"hypfeuer was imported from {hypfeuer.cli.__file__}, "
                          f"not from {src}")
    return hypfeuer.cli


def call(cli, argv: list[str]) -> tuple[int, float, str, str]:
    """One `hypfeuer` invocation through cli.main: (exit code, seconds,
    stdout, stderr).

    Output goes to memory, not disk, so file-system speed stays out of
    the timing.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def main(argv: list[str]) -> int:
    root, plan = argv[0], json.loads(argv[1])
    cli = load_cli(root)
    codes = [call(cli, args)[0] for args in plan]
    print(json.dumps({"ready": True, "exit_codes": codes}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
