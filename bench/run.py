#!/usr/bin/env python3
"""The dstab benchmark.

    python3 bench/run.py --workload case39-certify --seed 1 --seconds 35 --trace 0

Runs one workload in this process as a single closed-loop client: each
operation is one ``dstab`` command called in-process through
``dstab.cli.main(argv)`` with ``--out`` in a scratch directory under
``bench/``, except ``cli_cold``, which starts one child
``python -m dstab.cli check`` at a time.  Passes over the workload's
operation list repeat while the next pass is expected to end within
``--seconds``; every pass is whole.
After the last pass every distinct output is checked (see ``checks.py``).
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md for the metrics.

The package is imported from ``src`` of this checkout; nothing is installed.
BLAS runs on one thread (set before numpy is imported).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "dstab" / "data"
BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

MESH_SIZES = (64, 200, 640)
SETUP_REPEATS = 15
COLD_CHILDREN = 6    # cli_cold children per pass, one at a time
PROBE_T_END = 0.1   # toy3 horizon cut to 0.1 s (5000 RK4 steps) for the probe scenario
# The probe's certifier commands take milliseconds; case39-simulate runs them
# thirty times a pass so that their per-pass times are not single samples.
PROBE_REPEATS = 30

COMMANDS = {
    "gridcode": ["gridcode"],
    "check_thm1": ["check", "--theorem", "1"],
    "check_thm2": ["check", "--theorem", "2"],
    "synthesize": ["synthesize"],
    "positivity": ["positivity"],
    "poles": ["poles"],
    "simulate": ["simulate"],
}
CERTIFY = ("gridcode", "check_thm1", "check_thm2", "synthesize", "positivity", "poles")

END_TO_END = {"setup_s": "s", "pass_s": "s", **{f"{c}_s": "s" for c in COMMANDS},
              "cli_cold_s": "s", "peak_rss_mb": "MB"}

# Program functions traced in a traced pass: span name -> (module, function).
TRACED = {
    "scenario.load_scenario": ("dstab.scenario", "load_scenario"),
    "scenario.resolve_equilibrium": ("dstab.scenario", "resolve_equilibrium"),
    "devices.equilibrium_solve": ("dstab.devices", "equilibrium_solve"),
    "devices.check_compliance": ("dstab.devices", "check_compliance"),
    "devices.map_subsystem": ("dstab.devices", "map_subsystem"),
    "network.grid_code": ("dstab.network", "grid_code"),
    "network.check_rotated_psd": ("dstab.network", "check_rotated_psd"),
    "positivity.check_positive_siso": ("dstab.positivity", "check_positive_siso"),
    "cpoly.roots": ("dstab.cpoly", "roots"),
    "dstability.certify_thm1": ("dstab.dstability", "certify_thm1"),
    "dstability.certify_thm2": ("dstab.dstability", "certify_thm2"),
    "dstability.closed_loop_poles": ("dstab.dstability", "closed_loop_poles"),
    "dstability.assemble_closed_loop": ("dstab.dstability", "assemble_closed_loop"),
    "sim.simulate": ("dstab.sim", "simulate"),
    "sim.metrics": ("dstab.sim", "metrics"),
}
SLOPE_FUNCTIONS = {
    "check_positive_siso": "positivity.check_positive_siso",
    "grid_code": "network.grid_code",
    "closed_loop_poles": "dstability.closed_loop_poles",
    "equilibrium_solve": "devices.equilibrium_solve",
}

WORKLOADS = ("case39-certify", "case39-simulate", "mesh-scale")
# (size, command) of the mesh-scale pass.  positivity skips the largest mesh:
# its layer's growth with n shows through check_thm1 and check_thm2.
MESH_OPS = [(n, c) for n in MESH_SIZES for c in COMMANDS if c != "positivity" or n != MESH_SIZES[-1]]
# gridcode takes a few tens of milliseconds per mesh; it runs three times on
# each mesh so that its per-pass time is not a single short sample.
GRIDCODE_REPEATS = 3


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {
        "scenario.load_scenario_s": "s", "scenario.resolve_equilibrium_calls": "count",
        "devices.equilibrium_solve_s": "s", "devices.equilibrium_solve_calls": "count",
        "devices.check_compliance_s": "s", "devices.check_compliance_calls": "count",
        "devices.compliance_retries": "count", "devices.map_subsystem_s": "s",
        "network.grid_code_s": "s", "network.grid_code_calls": "count",
        "network.check_rotated_psd_s": "s",
        "positivity.check_positive_siso_s": "s", "positivity.check_positive_siso_calls": "count",
        "cpoly.roots_s": "s", "cpoly.roots_calls": "count", "cpoly.roots_per_positivity_check": "1",
        "dstability.certify_thm1_self_s": "s", "dstability.certify_thm2_self_s": "s",
        "dstability.closed_loop_poles_s": "s", "dstability.assemble_closed_loop_s": "s",
        "sim.simulate_s": "s", "sim.metrics_s": "s", "sim.rk4_steps": "count", "sim.rk4_steps_per_s": "1/s",
    }
    units.update({f"cli.{c}_self_s": "s" for c in COMMANDS})
    units["cli.output_mb"] = "MB"
    units["import_s"] = "s"
    units.update({f"mesh.n{n}.{c}_s": "s" for n, c in MESH_OPS})
    units.update({f"mesh.{f}_slope": "1" for f in SLOPE_FUNCTIONS})
    units["trace.overhead_s"] = "s"
    return units


class Op(NamedTuple):
    """One operation of a pass: a command on a scenario."""

    command: str
    scenario: str


def operations(workload: str) -> list[Op]:
    if workload == "case39-certify":
        ops = [Op(c, s) for s in ("ieee39_default", "ieee39_synthesized") for c in CERTIFY]
        ops.append(Op("simulate", "probe"))
    elif workload == "case39-simulate":
        ops = [Op("simulate", s) for s in ("ieee39_default", "ieee39_synthesized")]
        ops += [Op(c, "probe") for c in CERTIFY] * PROBE_REPEATS
    else:
        ops = [Op(c, f"n{n}") for n, c in MESH_OPS for _ in range(GRIDCODE_REPEATS if c == "gridcode" else 1)]
    ops += [Op("cli_cold", "toy3")] * COLD_CHILDREN
    return ops


def file_digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dstab benchmark (one workload per process)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dstab" / "cli.py").is_file() or not (ROOT / "tools" / "build_ieee39.py").is_file():
        sys.stderr.write(f"bench: no dstab sources under {SRC} (run from a checkout of the repository)\n")
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    scratch = BENCH / f".scratch-{os.getpid()}"
    scratch.mkdir()
    try:
        return Run(args, scratch).execute()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


class Run:
    def __init__(self, args, scratch: Path):
        self.args = args
        self.scratch = scratch
        self.keep = scratch / "keep"
        self.keep.mkdir()
        self.outputs: dict[tuple, list[Path]] = {}   # output key -> kept files
        self.records: list[dict] = []                # one per attempted operation

    # -- set-up ------------------------------------------------------------

    def execute(self) -> int:
        t0 = time.perf_counter()
        import dstab.cli  # noqa: F401  cold import, numpy included
        self.import_s = time.perf_counter() - t0

        import meshgen
        self.meshgen = meshgen
        self.drawn = {}
        if self.args.workload == "mesh-scale":
            self.drawn = {f"n{n}": meshgen.mesh_scenario(n, self.args.seed) for n in MESH_SIZES}
        setups = [self.setup() for _ in range(SETUP_REPEATS)]
        self.setup_s = statistics.median(setups)
        self.cli = importlib.import_module("dstab.cli")
        self.ops = operations(self.args.workload)

        passes = self.timed_passes()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        t0 = time.perf_counter()
        failed_keys = self.verify()
        sys.stderr.write(f"bench: {len(passes)} passes, {len(self.outputs)} distinct outputs "
                         f"checked in {time.perf_counter() - t0:.1f} s\n")
        failed = sum(1 for r in self.records if r["error"] or r["key"] in failed_keys)
        for r in self.records:
            if r["error"]:
                sys.stderr.write(f"FAILED {r['command']} {r['scenario']}: {r['error']}\n")
        if self.args.trace:
            metrics = self.per_layer(passes)
        else:
            metrics = self.end_to_end(passes)
        for name, m in metrics.items():
            print(f"{self.args.workload} {name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps({"correct": failed == 0, "attempted": len(self.records),
                          "failed": failed, "metrics": metrics}))
        return 0

    def setup(self) -> float:
        """Import dstab afresh and write and read the workload's scenarios."""
        for name in [n for n in sys.modules if n == "dstab" or n.startswith("dstab.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        scenario = importlib.import_module("dstab.scenario")
        importlib.import_module("dstab.cli")
        paths = {
            "ieee39_default": DATA / "ieee39_default.json",
            "ieee39_synthesized": DATA / "ieee39_synthesized.json",
            "toy3": DATA / "toy3.json",
        }
        probe = json.loads(paths["toy3"].read_text())
        probe["simulation"]["t_end_s"] = PROBE_T_END
        paths["probe"] = self.meshgen.write_scenario(probe, self.scratch / "probe.json")
        for key, raw in self.drawn.items():
            paths[key] = self.meshgen.write_scenario(raw, self.scratch / f"mesh_{key}.json")
        for path in paths.values():
            scenario.load_scenario(path)
        elapsed = time.perf_counter() - t0
        self.scenarios = paths
        return elapsed

    # -- passes ------------------------------------------------------------

    def timed_passes(self) -> list[dict]:
        """Whole passes while the next one is expected to end within the run
        length (the median pass so far predicts it); at least one pass, and
        with tracing at least two, alternating untraced and traced."""
        from spans import Tracer

        self.tracer = Tracer()
        passes, walls = [], []
        start = time.perf_counter()
        while True:
            traced = bool(self.args.trace) and len(passes) % 2 == 1
            if traced:
                self.tracer.install("dstab", self.trace_targets())
            t0 = time.perf_counter()
            try:
                passes.append(self.one_pass(len(passes), traced))
            finally:
                self.tracer.uninstall()
            walls.append(time.perf_counter() - t0)
            if self.args.trace and len(passes) < 2:
                continue
            if time.perf_counter() - start + statistics.median(walls) > self.args.seconds:
                return passes

    def trace_targets(self) -> dict:
        targets = {}
        for name, (module, func) in TRACED.items():
            label_of = (lambda tr: len(tr.t) - 1) if name == "sim.simulate" else None
            targets[name] = (getattr(sys.modules[module], func), label_of)
        return targets

    def one_pass(self, index: int, traced: bool) -> dict:
        times: dict[str, float] = {}
        by_scenario: dict[str, dict[str, float]] = {}
        cold: list[float] = []
        out_bytes = 0
        for op in self.ops:
            out = self.scratch / f"{op.command}-{op.scenario}"
            if op.command == "cli_cold":
                elapsed, rc, files, error = self.cold_child(out)
            elif traced:
                with self.tracer.span(f"cli.{op.command}", op.scenario):
                    elapsed, rc, files, error = self.in_process(op, out)
            else:
                elapsed, rc, files, error = self.in_process(op, out)
            times[op.command] = times.get(op.command, 0.0) + elapsed
            per_command = by_scenario.setdefault(op.scenario, {})
            per_command[op.command] = per_command.get(op.command, 0.0) + elapsed
            if op.command == "cli_cold":
                cold.append(elapsed)
            key = None
            if error is None:
                out_bytes += sum(f.stat().st_size for f in files)
                key = (op.command, op.scenario, rc, file_digest(files))
                if key not in self.outputs:
                    kept = []
                    for f in files:
                        target = self.keep / f"{len(self.outputs)}-{f.name}"
                        f.rename(target)
                        kept.append(target)
                    self.outputs[key] = kept
            self.records.append({"pass": index, "command": op.command, "scenario": op.scenario,
                                 "key": key, "error": error})
        return {"traced": traced, "pass_s": sum(times.values()), "times": times, "cold": cold,
                "by_scenario": by_scenario, "output_mb": out_bytes / 1e6}

    def in_process(self, op: Op, out: Path):
        argv = COMMANDS[op.command] + [str(self.scenarios[op.scenario]), "--out", str(out)]
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:
            return time.perf_counter() - t0, None, [], traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        if rc not in (0, 1):
            return elapsed, rc, [], f"exit code {rc}"
        files = [out.with_suffix(".csv"), out.with_suffix(".metrics.json")] if op.command == "simulate" else [out]
        return elapsed, rc, files, None

    def cold_child(self, out: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        argv = [sys.executable, "-m", "dstab.cli", "check", str(self.scenarios["toy3"])]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=env, cwd=self.scratch, capture_output=True, timeout=120)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None, [], "no exit within 120 s"
        elapsed = time.perf_counter() - t0
        if proc.returncode not in (0, 1):
            return elapsed, proc.returncode, [], f"exit code {proc.returncode}: {proc.stderr.decode()[-500:]}"
        out.write_bytes(proc.stdout)
        return elapsed, proc.returncode, [out], None

    # -- checks ------------------------------------------------------------

    def verify(self) -> set:
        """Check every distinct output once, then the cross-command claims of
        every pass.  Returns the keys of outputs that failed."""
        from verify import Verifier

        verifier = Verifier(self.scenarios, self.outputs)
        failed = set()
        for key in self.outputs:
            if not verifier.check_output(key):
                failed.add(key)
        n_passes = 1 + max(r["pass"] for r in self.records)
        for index in range(n_passes):
            keys = {(r["command"], r["scenario"]): r["key"] for r in self.records if r["pass"] == index}
            failed |= verifier.check_pass(keys)
        for message in verifier.messages:
            sys.stderr.write(f"CHECK FAILED {message}\n")
        return failed

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, passes: list[dict]) -> dict:
        values = {"setup_s": self.setup_s,
                  "pass_s": statistics.median(p["pass_s"] for p in passes)}
        for command in COMMANDS:
            values[f"{command}_s"] = statistics.median(p["times"][command] for p in passes)
        values["cli_cold_s"] = statistics.median(t for p in passes for t in p["cold"])
        values["peak_rss_mb"] = self.peak_rss_mb
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    def per_layer(self, passes: list[dict]) -> dict:
        from spans import SpanSummary

        traced = [p for p in passes if p["traced"]]
        plain = [p for p in passes if not p["traced"]]
        k = len(traced)
        s = SpanSummary(self.tracer.spans)
        v: dict[str, float] = {}

        def total(name):
            return s.total(name) / k

        def calls(name):
            return s.calls(name) / k

        v["scenario.load_scenario_s"] = total("scenario.load_scenario")
        v["scenario.resolve_equilibrium_calls"] = calls("scenario.resolve_equilibrium")
        v["devices.equilibrium_solve_s"] = total("devices.equilibrium_solve")
        v["devices.equilibrium_solve_calls"] = calls("devices.equilibrium_solve")
        v["devices.check_compliance_s"] = total("devices.check_compliance")
        v["devices.check_compliance_calls"] = calls("devices.check_compliance")
        retries = s.child_calls("devices.check_compliance", "positivity.check_positive_siso")
        v["devices.compliance_retries"] = sum(1 for c in retries if c >= 2) / k
        v["devices.map_subsystem_s"] = total("devices.map_subsystem")
        v["network.grid_code_s"] = total("network.grid_code")
        v["network.grid_code_calls"] = calls("network.grid_code")
        v["network.check_rotated_psd_s"] = total("network.check_rotated_psd")
        v["positivity.check_positive_siso_s"] = total("positivity.check_positive_siso")
        v["positivity.check_positive_siso_calls"] = calls("positivity.check_positive_siso")
        v["cpoly.roots_s"] = total("cpoly.roots")
        v["cpoly.roots_calls"] = calls("cpoly.roots")
        checks = s.calls("positivity.check_positive_siso")
        inside = s.descendant_calls("cpoly.roots", "positivity.check_positive_siso")
        v["cpoly.roots_per_positivity_check"] = inside / checks if checks else 0.0
        v["dstability.certify_thm1_self_s"] = s.self_total("dstability.certify_thm1") / k
        v["dstability.certify_thm2_self_s"] = s.self_total("dstability.certify_thm2") / k
        v["dstability.closed_loop_poles_s"] = total("dstability.closed_loop_poles")
        v["dstability.assemble_closed_loop_s"] = total("dstability.assemble_closed_loop")
        v["sim.simulate_s"] = total("sim.simulate")
        v["sim.metrics_s"] = total("sim.metrics")
        steps = sum(s.labels("sim.simulate"))
        v["sim.rk4_steps"] = steps / k
        sim_time = s.total("sim.simulate")
        v["sim.rk4_steps_per_s"] = steps / sim_time if sim_time else 0.0
        for command in COMMANDS:
            v[f"cli.{command}_self_s"] = s.self_total(f"cli.{command}") / k
        v["cli.output_mb"] = statistics.median(p["output_mb"] for p in passes)
        v["import_s"] = self.import_s
        meshes = self.args.workload == "mesh-scale"
        for n, command in MESH_OPS:
            v[f"mesh.n{n}.{command}_s"] = (
                statistics.median(p["by_scenario"][f"n{n}"][command] for p in plain) if meshes else 0.0)
        lo, hi = MESH_SIZES[0], MESH_SIZES[-1]
        for short, name in SLOPE_FUNCTIONS.items():
            t_lo, t_hi = s.total(name, f"n{lo}"), s.total(name, f"n{hi}")
            v[f"mesh.{short}_slope"] = (
                math.log(t_hi / t_lo) / math.log(hi / lo) if meshes and t_lo > 0 and t_hi > 0 else 0.0)
        v["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                                 - statistics.median(p["pass_s"] for p in plain))
        RESULTS.mkdir(exist_ok=True)
        self.tracer.write(RESULTS / f"trace-{self.args.workload}-s{self.args.seed}.json")
        return {name: {"value": v[name], "unit": unit} for name, unit in per_layer_units().items()}


if __name__ == "__main__":
    sys.exit(main())
