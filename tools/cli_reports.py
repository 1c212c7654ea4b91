#!/usr/bin/env python3
"""Write every CLI report on the shipped scenarios into one directory.

For each of ``toy3``, ``ieee39_default`` and ``ieee39_synthesized`` the tool
runs ``poles``, ``gridcode``, ``check --theorem 1``, ``check --theorem 2``,
``synthesize``, ``positivity`` and ``simulate --out`` through
``python -m dstab.cli`` of the checkout it lives in, and writes

* ``<scenario>.<command>.out`` -- the command's stdout,
* ``<scenario>.csv`` and ``<scenario>.metrics.json`` -- ``simulate --out``,
* ``exit_codes.txt`` -- one ``<scenario> <command> <exit code>`` line per run.

Child stderr (warnings, error objects) is passed through to this tool's
stderr and not written to the directory.  Two checkouts produce the same
reports iff ``diff -r`` of their output directories is empty:

    python3 tools/cli_reports.py OUTDIR
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "dstab" / "data"

SCENARIOS = ("toy3", "ieee39_default", "ieee39_synthesized")
COMMANDS = (
    ("poles", ["poles"]),
    ("gridcode", ["gridcode"]),
    ("check1", ["check", "--theorem", "1"]),
    ("check2", ["check", "--theorem", "2"]),
    ("synthesize", ["synthesize"]),
    ("positivity", ["positivity"]),
    ("simulate", ["simulate"]),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="directory for the reports (created if missing)")
    outdir = parser.parse_args(argv).outdir
    outdir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}

    codes = []
    for name in SCENARIOS:
        for label, args in COMMANDS:
            argv_cli = [sys.executable, "-m", "dstab.cli", *args, str(DATA / f"{name}.json")]
            if label == "simulate":
                argv_cli += ["--out", str(outdir / name)]
            proc = subprocess.run(argv_cli, env=env, capture_output=True)
            (outdir / f"{name}.{label}.out").write_bytes(proc.stdout)
            if proc.stderr:
                sys.stderr.write(f"[{name} {label}] " + proc.stderr.decode(errors="replace"))
            codes.append(f"{name} {label} {proc.returncode}\n")
    (outdir / "exit_codes.txt").write_text("".join(codes))
    sys.stdout.write("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
