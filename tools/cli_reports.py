#!/usr/bin/env python3
"""Write every CLI report on the shipped scenarios into one directory.

For each of ``toy3``, ``ieee39_default`` and ``ieee39_synthesized`` the tool
runs ``poles``, ``gridcode``, ``check --theorem 1``, ``check --theorem 2``,
``synthesize``, ``positivity`` and ``simulate --out`` through
``python -m dstab.cli`` of the checkout it lives in.  It then runs every
command but ``simulate`` on variants that reach paths the shipped scenarios
miss (see ``VARIANTS``): ``toy3`` with its synthesized ``y_s`` pinned, a
three-part ``--region``, a region that fails the network damping assumption,
``ieee39_default`` under a single sector, ``toy3`` under a tilted
half-plane, a region without a closed-form synthesis bound, and a tilted
half-plane that also fails the damping assumption, where the damping verdict
must name the binding condition.  Every shipped
scenario pins its equilibrium, so the tool also runs every command, ``simulate``
included, on the seed-1 meshes of 64, 200 and 640 nodes from
``bench/meshgen.py`` (see ``MESHES``), which resolve their operating point by
Newton power flow.  It writes

* ``<scenario>.<command>.out`` -- the command's stdout,
* ``<scenario>.csv`` and ``<scenario>.metrics.json`` -- ``simulate --out``,
  written over a longer file (see ``prefill``), so the reports show what an
  overwrite leaves,
* ``exit_codes.txt`` -- one ``<scenario> <command> <exit code>`` line per run,
* ``warnings.txt`` -- one ``<scenario> <command> <category>: <message>`` line
  per warning a run printed, without its file and line,

where ``<scenario>`` is a shipped name or a variant label.  Child stderr
(warnings, error objects) is also passed through to this tool's stderr.
Two checkouts produce the same reports iff ``diff -r`` of their output
directories is empty:

    python3 tools/cli_reports.py OUTDIR
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "dstab" / "data"
sys.path.insert(0, str(ROOT / "bench"))

import meshgen  # noqa: E402

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
# label -> (shipped scenario, extra arguments); the label "toy3-pinned-ys"
# runs on a copy of toy3 whose y_s is the table toy3's synthesize prints.
VARIANTS = {
    "toy3-pinned-ys": ("toy3", []),
    "toy3-three-parts": ("toy3", ["--region", json.dumps([
        {"kind": "lhp", "alpha": -2.0}, {"kind": "sector", "beta": 1.4}, {"kind": "hstrip", "gamma": 300.0},
    ])]),
    "toy3-failed-damping": ("toy3", ["--region", '{"kind":"lhp","alpha":-20000}']),
    "ieee39_default-sector": ("ieee39_default", ["--region", '{"kind":"sector","beta":1.308996938996}']),
    "toy3-halfplane": ("toy3", ["--region", '{"kind":"halfplane","theta0":0.3,"omega0":0,"sigma0":-1}']),
    "toy3-failed-damping-halfplane": ("toy3", ["--region", '{"kind":"halfplane","theta0":0.3,"omega0":0,"sigma0":-20000}']),
}
# label -> (nodes, seed) of a bench/meshgen.py mesh
MESHES = {"mesh-n64-s1": (64, 1), "mesh-n200-s1": (200, 1), "mesh-n640-s1": (640, 1)}
# The first line of a warning as Python prints it: "<file>:<line>: <category>: <message>".
WARNING_LINE = re.compile(r"^\S.*:\d+: (\w+): (.*)$", re.MULTILINE)
STALE_TAIL = b"stale tail of an earlier, longer report\n" * 64


def prefill(argv_cli: list[str], env: dict[str, str], base: Path) -> None:
    """Leave a file longer than the report at both ``simulate --out`` targets
    of ``base``: the report of a first run of ``argv_cli``, its output
    dropped, plus ``STALE_TAIL``."""
    subprocess.run(argv_cli, env=env, capture_output=True)
    for suffix in (".csv", ".metrics.json"):
        with base.with_suffix(suffix).open("ab") as stream:
            stream.write(STALE_TAIL)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="directory for the reports (created if missing)")
    outdir = parser.parse_args(argv).outdir
    outdir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    codes, caught = [], []

    def run(name: str, label: str, args: list[str], scenario: Path, extra: list[str]) -> None:
        argv_cli = [sys.executable, "-m", "dstab.cli", *args, str(scenario), *extra]
        if label == "simulate":
            prefill(argv_cli, env, outdir / name)
        proc = subprocess.run(argv_cli, env=env, capture_output=True)
        (outdir / f"{name}.{label}.out").write_bytes(proc.stdout)
        if proc.stderr:
            err = proc.stderr.decode(errors="replace")
            sys.stderr.write(f"[{name} {label}] " + err)
            caught.extend(f"{name} {label} {category}: {message}\n" for category, message in WARNING_LINE.findall(err))
        codes.append(f"{name} {label} {proc.returncode}\n")

    for name in SCENARIOS:
        for label, args in COMMANDS:
            extra = ["--out", str(outdir / name)] if label == "simulate" else []
            run(name, label, args, DATA / f"{name}.json", extra)

    with tempfile.TemporaryDirectory() as tmp:
        pinned = json.loads((DATA / "toy3.json").read_text())
        pinned["y_s"] = json.loads((outdir / "toy3.synthesize.out").read_bytes())["y_s"]
        pinned_path = Path(tmp) / "toy3-pinned-ys.json"
        pinned_path.write_text(json.dumps(pinned))
        for variant, (name, extra) in VARIANTS.items():
            scenario = pinned_path if variant == "toy3-pinned-ys" else DATA / f"{name}.json"
            for label, args in COMMANDS:
                if label != "simulate":
                    run(variant, label, args, scenario, extra)
        for variant, (n, seed) in MESHES.items():
            scenario = meshgen.write_scenario(meshgen.mesh_scenario(n, seed), Path(tmp) / f"{variant}.json")
            for label, args in COMMANDS:
                extra = ["--out", str(outdir / variant)] if label == "simulate" else []
                run(variant, label, args, scenario, extra)

    (outdir / "exit_codes.txt").write_text("".join(codes))
    (outdir / "warnings.txt").write_text("".join(caught))
    sys.stdout.write("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
