"""Command surface: scenario ingestion, reports, exit codes, determinism."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstab.cli import dumps, main

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC / "dstab" / "data"
TOY = str(DATA / "toy3.json")
THREE_PARTS = '[{"kind":"lhp","alpha":-2},{"kind":"sector","beta":1.4},{"kind":"hstrip","gamma":300}]'
GENERIC_HALFPLANE = '{"kind":"halfplane","theta0":0.3,"omega0":0,"sigma0":-1}'


def run(capsys, *argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``.  Any warning but the
    RK4 step warning would reach a user's stderr and fails the test."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    leaked = [str(w.message) for w in caught if "unstable for RK4" not in str(w.message)]
    assert not leaked, leaked
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def toy_copy(tmp_path) -> Path:
    target = tmp_path / "toy.json"
    target.write_text(Path(TOY).read_text())
    return target


def toy_variant(tmp_path, mutate) -> Path:
    raw = json.loads(Path(TOY).read_text())
    mutate(raw)
    target = tmp_path / "variant.json"
    target.write_text(json.dumps(raw))
    return target


def count_positivity_rows(patch) -> list[int]:
    """Record the row count of every batched positivity decision: those of
    check_compliance (dstab.devices) and of part_positivity
    (dstab.dstability)."""
    import dstab.devices as dev
    import dstab.dstability as dstability

    rows = []
    check = dev.check_positive_rows
    for module in (dev, dstability):
        patch.setattr(module, "check_positive_rows", lambda num, den: rows.append(len(num)) or check(num, den))
    return rows


class TestPoles:
    def test_toy_has_five_poles(self, capsys):
        code, out, _ = run(capsys, "poles", TOY)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re,im,margin"
        assert len(lines) == 1 + 5  # two second-order sources + one load state

    def test_all_margins_positive_for_certified_toy(self, capsys):
        _, out, _ = run(capsys, "poles", TOY)
        margins = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert min(margins) >= 0.0

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "poles", str(bad))
        assert code == 2
        assert '"error":"input"' in err

    def test_region_override(self, capsys):
        code, out, _ = run(capsys, "poles", TOY, "--region", '{"kind": "lhp", "alpha": -1000000.0}')
        assert code == 0
        margins = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert max(margins) < 0.0

    def test_bad_region_override_exits_2(self, capsys):
        code, _, err = run(capsys, "poles", TOY, "--region", "{oops")
        assert code == 2
        code, _, _ = run(capsys, "poles", TOY, "--region", '{"kind": "disk"}')
        assert code == 2


class TestGridcode:
    def test_toy_bound(self, capsys):
        code, out, _ = run(capsys, "gridcode", TOY)
        assert code == 0
        payload = json.loads(out)
        entry = payload["grid_codes"][0]
        assert entry["ll_assumption_ok"] is True
        assert entry["y_s_lower_bound"] > 0.0
        assert len(entry["y_virtual"]) == 1

    def test_overload_intervention_note(self, capsys, tmp_path):
        def overload(raw):
            for block in raw["devices"]:
                if block["type"] == "cpl":
                    block["P_watt"] = 150000.0
            raw["equilibrium"] = None

        path = toy_variant(tmp_path, overload)
        code, out, _ = run(capsys, "gridcode", str(path))
        # deep overload either breaks the power flow (numerical, exit 3) or
        # reports the damping violation with the operator note (exit 1)
        if code == 1:
            payload = json.loads(capsys and out)
            entry = payload["grid_codes"][0]
            assert entry["ll_assumption_ok"] is False
            assert "shed" in entry["note"]
        else:
            assert code == 3

    def test_demanding_region_intervention_note(self, capsys):
        # a decay requirement so deep that the load virtual admittance
        # exceeds the network's damping capacity
        code, out, _ = run(capsys, "gridcode", TOY, "--region", '{"kind": "lhp", "alpha": -15000.0}')
        assert code == 1
        entry = json.loads(out)["grid_codes"][0]
        assert entry["ll_assumption_ok"] is False
        assert "relax" in entry["note"]


class TestCheck:
    def test_theorem2_certifies_toy(self, capsys):
        code, out, _ = run(capsys, "check", TOY, "--theorem", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is True and payload["theorem"] == "thm2"

    def test_theorem1_certifies_toy(self, capsys):
        code, out, _ = run(capsys, "check", TOY, "--theorem", "1")
        assert code == 0
        assert json.loads(out)["theorem"] == "thm1"

    def test_uncertifiable_region_exits_1(self, capsys):
        code, out, _ = run(capsys, "check", TOY, "--region", '{"kind": "lhp", "alpha": -30.0}')
        assert code == 1
        assert json.loads(out)["certified"] is False

    def test_schema_violation_exits_2(self, capsys, tmp_path):
        path = toy_variant(tmp_path, lambda raw: raw["devices"].pop())
        code, _, err = run(capsys, "check", str(path))
        assert code == 2

    @pytest.mark.parametrize("theorem", ["1", "2"])
    def test_failed_damping_assumption_exits_1(self, capsys, theorem):
        # the load virtual admittance exceeds the network damping capacity:
        # not certified, not a numerical failure
        code, out, _ = run(capsys, "check", TOY, "--theorem", theorem,
                           "--region", '{"kind": "lhp", "alpha": -20000}')
        assert code == 1
        assert json.loads(out)["certified"] is False

    @pytest.mark.parametrize("theorem", ["1", "2"])
    def test_one_equilibrium_solve_per_check(self, capsys, tmp_path, monkeypatch, theorem):
        import dstab.devices as dev

        calls = []
        solve = dev.equilibrium_solve
        monkeypatch.setattr(dev, "equilibrium_solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
        path = toy_variant(tmp_path, lambda raw: raw.update(equilibrium=None))
        code, _, _ = run(capsys, "check", str(path), "--theorem", theorem)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("theorem", ["1", "2"])
    def test_one_grid_code_per_part(self, capsys, monkeypatch, theorem):
        import dstab.scenario as scenario

        calls = []
        build = scenario.grid_code
        monkeypatch.setattr(scenario, "grid_code", lambda *a, **k: calls.append(1) or build(*a, **k))
        region = '[{"kind": "lhp", "alpha": -2.0}, {"kind": "sector", "beta": 1.4}]'
        code, _, _ = run(capsys, "check", TOY, "--theorem", theorem, "--region", region)
        assert code in (0, 1)
        assert len(calls) == 2  # toy3 pins no y_s, so check synthesizes it

    @pytest.mark.parametrize("theorem", ["1", "2"])
    @pytest.mark.parametrize("name, expected", [("toy3", 3), ("ieee39_default", 117), ("ieee39_synthesized", 117)])
    def test_one_positivity_check_per_node_and_part(self, capsys, monkeypatch, theorem, name, expected):
        # Without pinned y_s, check synthesizes the indices; the certifier
        # reuses each compliant source's check, so every node and part is
        # decided once (39 nodes x 3 parts on the ieee39 grids).  Rows are
        # decided in batches; count the rows, not the calls.
        rows = count_positivity_rows(monkeypatch)
        code, _, _ = run(capsys, "check", str(DATA / f"{name}.json"), "--theorem", theorem)
        assert code in (0, 1)
        assert sum(rows) == expected

    @pytest.mark.parametrize("name, source", [("toy3", 0), ("toy3", 1), ("ieee39_synthesized", 0)])
    def test_source_results_need_no_other_source_model(self, capsys, tmp_path, name, source):
        # The grid code is broadcast: with the operating point pinned, a
        # source's synthesis entry and certificate report depend on its own
        # model only, whatever the other sources' gains and capacitances.
        raw = json.loads((DATA / f"{name}.json").read_text())
        assert raw["equilibrium"] is not None
        node = raw["topology"]["sources"][source]

        def results(path):
            _, syn, _ = run(capsys, "synthesize", str(path))
            _, cert, _ = run(capsys, "check", str(path), "--theorem", "2")
            return ([dumps(part[source]) for part in json.loads(syn)["parts"]],
                    [dumps(part["devices"][node - 1]) for part in json.loads(cert)["parts"]])

        for block in raw["devices"]:
            if block["node"] in raw["topology"]["sources"] and block["node"] != node:
                block["C_farad"] *= 1.5
                block["kP_u"] = 1.3 * block["kP_u"] + 0.05
                block["kI_u"] *= 0.7
        perturbed = tmp_path / "perturbed.json"
        perturbed.write_text(json.dumps(raw))
        assert results(perturbed) == results(DATA / f"{name}.json")

    def test_failing_part_names_its_binding_source(self, capsys):
        # The note gives the source with the lowest index (lowest node on a
        # tie), its index, its cap from synthesis and the part's floor.
        path = str(DATA / "ieee39_default.json")
        code, out, _ = run(capsys, "check", path, "--theorem", "2")
        _, syn, _ = run(capsys, "synthesize", path)
        assert code == 1
        synthesis = json.loads(syn)
        failing = 0
        for part, grid, entries, y_s in zip(json.loads(out)["parts"], synthesis["grid_codes"],
                                            synthesis["parts"], synthesis["y_s"]):
            floor = grid["y_s_lower_bound"]
            below = [(y, e["node"], e["y_s_cap"]) for y, e in zip(y_s, entries) if y < floor - 1e-9]
            if not below:
                assert part["network_ok"] and part["notes"] == []
                continue
            failing += 1
            y, node, cap = min(below)
            assert not part["network_ok"]
            note = f"source index {y:.6g} at node {node} (cap {cap:.6g}) below the network floor {floor:.6g}"
            assert part["notes"] == [note]
        assert failing == 2

    def test_pinned_equilibrium_validated(self, capsys, tmp_path):
        def corrupt(raw):
            raw["equilibrium"]["u_star_volt"][0] += 5.0

        path = toy_variant(tmp_path, corrupt)
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "equilibrium" in err


# Topology inputs that load_scenario rejects, each naming the file's 1-based
# node ids, with the exact error message.
TOPOLOGY_ERRORS = {
    "source-also-load": (lambda raw: raw["topology"].update(loads=[3, 2]),
                         "nodes [2] appear in both the sources and the loads"),
    "repeated-source": (lambda raw: raw["topology"].update(sources=[1, 2, 1]),
                        "the sources list nodes [1] more than once"),
    "repeated-load": (lambda raw: raw["topology"].update(loads=[3, 3]),
                      "the loads list nodes [3] more than once"),
    "uncovered-node": (lambda raw: raw["topology"].update(sources=[1]),
                       "nodes [2] are neither sources nor loads"),
    "self-loop": (lambda raw: raw["topology"]["edges"].__setitem__(0, [3, 3, 0.1]),
                  "edge (3, 3) joins node 3 to itself"),
    "negative-resistance": (lambda raw: raw["topology"]["edges"][0].__setitem__(2, -0.1),
                            "edge (1, 3) needs a positive finite resistance, got -0.1"),
    "conductance-overflow": (lambda raw: raw["topology"]["edges"][0].__setitem__(2, 1e-310),
                             "edge (1, 3) has resistance 1e-310, whose conductance 1/R overflows"),
    "disconnected": (lambda raw: raw["topology"].update(edges=[[1, 3, 0.1]]),
                     "network graph is disconnected: nodes [2] cannot be reached from node 1"),
    "conductance-sum-overflow": (lambda raw: raw["topology"].update(edges=[[1, 3, 1e-308], [2, 3, 1e-308]]),
                                 "the conductances of the lines at node 3 sum past the largest double"),
}


# Simulation blocks that load_scenario rejects, each a change to toy3 with one defect.
BAD_SIMULATION_BLOCKS = {
    "dt-negative": lambda raw: raw["simulation"].update(dt_s=-1e-4),
    "dt-zero": lambda raw: raw["simulation"].update(dt_s=0),
    "dt-nan": lambda raw: raw["simulation"].update(dt_s=math.nan),
    "t-end-inf": lambda raw: raw["simulation"].update(t_end_s=math.inf),
    # before the end of the pulse (0.05 s + 0.02 s)
    "t-end-in-pulse": lambda raw: raw["simulation"].update(t_end_s=0.06),
    # one step, its midpoint 0.025 s before the pulse
    "no-midpoint-in-pulse": lambda raw: raw["simulation"].update(t_end_s=0.074, dt_s=0.05),
    "zero-steps": lambda raw: raw["simulation"].update(t_end_s=0.08, dt_s=0.2),  # round(0.4) = 0 steps
    # t_end_s / dt_s overflows
    "step-count-inf": lambda raw: raw["simulation"].update(t_end_s=1e308, dt_s=1e-308),
    "band-string": lambda raw: raw["simulation"].update(band="x"),
    "band-zero": lambda raw: raw["simulation"].update(band=0.0),
    "band-one": lambda raw: raw["simulation"].update(band=1.0),
    "band-nan": lambda raw: raw["simulation"].update(band=math.nan),
    "not-an-object": lambda raw: raw.update(simulation=[0.6, 2e-5]),
}

# Pinned y_s tables with one defect each, with the exact error message.
Y_S_ERRORS = {
    "y_s-short-row": (lambda raw: raw.update(y_s=[[0.2143]]), "each y_s row must list 2 source indices"),
    "y_s-extra-row": (lambda raw: raw.update(y_s=[[0.2143, 0.2679], [99, 99]]),
                      "y_s needs 1 row or one row per region part (1), got 2"),
}


class TestInputContract:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda raw: raw["topology"].update(edges=5),
            lambda raw: raw.update(y_s=[[0.2143, "0.2679"]]),
            lambda raw: raw["equilibrium"].update(u_star_volt=[str(u) for u in raw["equilibrium"]["u_star_volt"]]),
            lambda raw: raw["topology"]["edges"][0].__setitem__(2, math.nan),
            lambda raw: raw.update(region={"kind": "lhp", "alpha": math.nan}),
            lambda raw: raw["devices"][0].update(C_farad=math.nan),
        ],
        ids=["edges-not-a-list", "y_s-string", "u_star-string", "resistance-nan", "alpha-nan", "C-nan"],
    )
    @pytest.mark.parametrize("command", [["check", "--theorem", "1"], ["check", "--theorem", "2"],
                                         ["poles"], ["simulate"]], ids=["check1", "check2", "poles", "simulate"])
    def test_malformed_number_exits_2(self, capsys, tmp_path, mutate, command):
        path = toy_variant(tmp_path, mutate)
        code, _, err = run(capsys, *command, str(path))
        assert code == 2
        assert '"error":"input"' in err and "Traceback" not in err

    @pytest.mark.parametrize("region", [[], ["--region", THREE_PARTS]], ids=["one-part", "three-parts"])
    def test_y_s_needs_one_row_or_one_per_part(self, capsys, tmp_path, region):
        path = toy_variant(tmp_path, lambda raw: raw.update(y_s=[[0.2143, 0.2679], [99, 99]]))
        code, _, err = run(capsys, "check", str(path), *region)
        assert code == 2
        assert "y_s" in err

    @pytest.mark.parametrize("mutate, message", Y_S_ERRORS.values(), ids=Y_S_ERRORS.keys())
    def test_y_s_error_is_the_model_error(self, capsys, tmp_path, mutate, message):
        from dstab.scenario import build_model, load_scenario

        path = toy_variant(tmp_path, mutate)
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "input", "message": message}
        model = build_model(load_scenario(TOY))
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(model, y_s=tuple(map(tuple, json.loads(path.read_text())["y_s"])))
        assert str(exc.value) == message

    def test_one_y_s_row_serves_every_part(self, capsys, tmp_path):
        path = toy_variant(tmp_path, lambda raw: raw.update(y_s=[[0.2143, 0.2679]]))
        code, out, _ = run(capsys, "check", str(path), "--theorem", "1", "--region", THREE_PARTS)
        assert code in (0, 1)
        assert len(json.loads(out)["parts"]) == 3

    @pytest.mark.parametrize("command", ["check", "poles", "simulate"])
    def test_nan_equilibrium_residual_exits_2(self, capsys, tmp_path, command):
        # With P = 0 and u* = 0 the load residual would be 0/0; the loader rejects u* = 0 first.
        def zero_load(raw):
            raw["devices"][2]["P_watt"] = 0.0
            raw["equilibrium"] = {"u_star_volt": [0.0, 0.0, 0.0], "i_star_amp": [0.0, 0.0, 0.0]}

        path = toy_variant(tmp_path, zero_load)
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "input" and "equilibrium" in err

    @pytest.mark.parametrize("voltages", [[0.0, 0.0, 0.0], [105.0, 105.0, -100.0]], ids=["zero", "negative"])
    @pytest.mark.parametrize("command", ["check", "poles", "simulate"])
    def test_nonpositive_pinned_voltage_prints_one_error_object(self, tmp_path, voltages, command):
        # In a fresh interpreter, so that a numpy warning would reach stderr.
        def pin(raw):
            raw["devices"][2]["P_watt"] = 0.0
            raw["equilibrium"] = {"u_star_volt": voltages, "i_star_amp": [0.0, 0.0, 0.0]}

        path = toy_variant(tmp_path, pin)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-m", "dstab.cli", command, str(path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "input"
        assert f"node {voltages.index(min(voltages)) + 1}" in error["message"]

    @pytest.mark.parametrize("command", ["check", "poles", "simulate"])
    def test_huge_pinned_voltage_prints_one_error_object(self, tmp_path, command):
        # The residual overflows to inf; no numpy warning may precede the error object.
        path = toy_variant(tmp_path, lambda raw: raw["equilibrium"].update(u_star_volt=[1e308] * 3))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-m", "dstab.cli", command, str(path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "input"

    @pytest.mark.parametrize("command", [["check", "--theorem", "1"], ["check", "--theorem", "2"], ["poles"],
                                         ["gridcode"], ["synthesize"], ["positivity"], ["simulate"]],
                             ids=["check1", "check2", "poles", "gridcode", "synthesize", "positivity", "simulate"])
    def test_invalid_source_model_names_its_node(self, capsys, tmp_path, command):
        # A huge capacitance underflows c1 to 0, which no source model admits.
        # The grid code reads no source model and is still broadcast.
        path = toy_variant(tmp_path, lambda raw: raw["devices"][0].update(C_farad=1e308))
        code, out, err = run(capsys, *command, str(path))
        if command == ["gridcode"]:
            assert code == 0 and err == ""
            return
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "input" and "node 1" in error["message"]

    @pytest.mark.parametrize("node, block, message", [
        (1, {"type": "cpl", "C_l_farad": 2e-3, "P_watt": 500.0}, "source node 1 carries a load device"),
        (3, {"type": "ess_boost", "C_farad": 2e-3, "E_volt": 50.0, "U_r_volt": 105.0, "R_d_ohm": 0.6,
             "kP_u": 0.35, "kI_u": 26.5}, "load node 3 must carry a CPL device"),
        (3, {"type": "pv", "C_farad": 2e-3, "kP_u": 0.1, "kI_u": 0.5, "U_r_pv_volt": 36.12,
             "i_pv_star_amp": 38.76}, "load node 3 must carry a CPL device"),
    ], ids=["cpl-on-source", "boost-on-load", "pv-on-load"])
    @pytest.mark.parametrize("command", [["check", "--theorem", "1"], ["check", "--theorem", "2"], ["poles"],
                                         ["gridcode"], ["synthesize"], ["positivity"], ["simulate"]],
                             ids=["check1", "check2", "poles", "gridcode", "synthesize", "positivity", "simulate"])
    def test_device_of_the_other_role_names_its_node(self, capsys, tmp_path, node, block, message, command):
        path = toy_variant(tmp_path, lambda raw: raw["devices"].__setitem__(node - 1, {"node": node, **block}))
        extra = ["--out", str(tmp_path / "sim")] if command == ["simulate"] else []
        code, out, err = run(capsys, *command, str(path), *extra)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "input", "message": message}

    @pytest.mark.parametrize("mutate, message", TOPOLOGY_ERRORS.values(), ids=TOPOLOGY_ERRORS.keys())
    def test_topology_error_names_file_nodes(self, capsys, tmp_path, mutate, message):
        code, out, err = run(capsys, "check", str(toy_variant(tmp_path, mutate)))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "input", "message": message}

    @pytest.mark.parametrize("case", ["resistance-nan", *TOPOLOGY_ERRORS])
    def test_topology_errors_print_one_error_object_under_warnings_as_errors(self, tmp_path, case):
        # In a fresh interpreter in which a numpy RuntimeWarning is an exception (exit 3, internal).
        mutate = {
            "resistance-nan": lambda raw: raw["topology"]["edges"][0].__setitem__(2, math.nan),
        }.get(case) or TOPOLOGY_ERRORS[case][0]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "dstab.cli", "check",
                               str(toy_variant(tmp_path, mutate))], env=env, capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "input"

    @pytest.mark.parametrize("nominal, code", [(-100.0, 2), (-1e6, 2), (0.0, 2), (1e-300, 3), (1e300, 3)])
    @pytest.mark.parametrize("command", ["check", "poles", "simulate"])
    def test_nominal_voltage_without_equilibrium(self, capsys, tmp_path, nominal, code, command):
        # A nonpositive value would disable the low-voltage guard; an extreme positive one diverges the
        # Newton solve, which exits 3 without a numpy warning.
        path = toy_variant(tmp_path, lambda raw: raw.update(nominal_voltage_volt=nominal, equilibrium=None))
        got, out, err = run(capsys, command, str(path))
        assert got == code and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == ("input" if code == 2 else "numerical")

    @pytest.mark.parametrize("command, region", [
        pytest.param(command, region, id=f"{name}-{kind}")
        for kind, region in (("lhp", '{"kind":"lhp","alpha":-1e160}'), ("hstrip", '{"kind":"hstrip","gamma":1e160}'))
        for name, command in (("check1", ["check", "--theorem", "1"]), ("check2", ["check", "--theorem", "2"]),
                              ("positivity", ["positivity"]), ("synthesize", ["synthesize"]))
        if name != "synthesize" or kind == "hstrip"  # no shifted LHP this far out is feasible to synthesize
    ])
    def test_overflowing_loop_transform_exits_3(self, capsys, command, region):
        # The mapped coefficients overflow: a numerical failure, not a degenerate input loop.
        code, out, err = run(capsys, *command, TOY, "--region", region)
        assert code == 3 and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "numerical"

    @pytest.mark.parametrize("alpha", [-1e10, -1e15, -1e50])
    def test_region_offset_beyond_double_precision_exits_3(self, capsys, tmp_path, alpha):
        # Past |alpha| ~ 1e7 the trim rule would drop the mapped denominator's leading 1 and past ~2e14
        # its 2 alpha term too, leaving sources without poles that pass positivity in a region the
        # pole oracle refutes.
        def sources_only(raw):
            raw["devices"][2] = {**raw["devices"][1], "node": 3}
            raw["topology"].update(sources=[1, 2, 3], loads=[])
            raw.update(equilibrium=None, disturbance=None, y_s=[[0, 0, 0]])

        path = str(toy_variant(tmp_path, sources_only))
        region = json.dumps({"kind": "lhp", "alpha": alpha})
        code, out, err = run(capsys, "check", path, "--theorem", "1", "--region", region)
        assert code == 3 and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "numerical"
        code, out, _ = run(capsys, "poles", path, "--region", region)
        assert code == 0 and max(float(line.split(",")[2]) for line in out.splitlines()[1:]) < 0.9 * alpha

    @pytest.mark.parametrize("command", [["check", "--theorem", "1"], ["check", "--theorem", "2"], ["positivity"]],
                             ids=["check1", "check2", "positivity"])
    def test_source_index_beyond_double_precision_exits_3(self, capsys, tmp_path, command):
        # Each source closes to s^2 + (d1 - y c1) s + (d0 - y c0), with a root near +y c1.  Past
        # y ~ 1e11 the trim rule would drop the leading 1 and report both sources positive.
        path = toy_variant(tmp_path, lambda raw: raw.update(y_s=[[1e13, 1e13]]))
        code, out, err = run(capsys, *command, str(path))
        assert code == 3 and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "numerical"
        path = toy_variant(tmp_path, lambda raw: raw.update(y_s=[[1e8, 1e8]]))
        code, out, _ = run(capsys, *command, str(path))
        assert code == 1
        reports = json.loads(out)
        devices = reports["parts"][0]["devices"] if "parts" in reports else reports["devices"]
        assert [d["is_positive"] for d in devices[:2]] == [False, False]
        assert max(d["margin"] for d in devices[:2]) < -1e10

    def test_disturbance_shape_other_than_pulse_exits_2(self, capsys, tmp_path):
        path = toy_variant(tmp_path, lambda raw: raw["disturbance"].update(shape="step"))
        code, _, err = run(capsys, "simulate", str(path))
        assert code == 2
        assert json.loads(err) == {"error": "input", "message": "bad disturbance: unsupported disturbance shape 'step'"}

    def test_unexpected_error_exits_3(self, capsys, monkeypatch):
        import dstab.cli as cli

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "build_model", broken)
        code, out, err = run(capsys, "poles", TOY)
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "internal", "message": "RuntimeError: boom"}

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    @pytest.mark.parametrize("command", [["poles"], ["gridcode"], ["check"], ["synthesize"], ["simulate"],
                                         ["positivity"]], ids=lambda c: c[0])
    def test_name_utf8_cannot_encode_exits_2(self, capsys, tmp_path, command, existing):
        # json.loads accepts a lone surrogate, which no report can write as UTF-8.
        path = toy_variant(tmp_path, lambda raw: raw.update(name="toy\ud800"))
        base = tmp_path / "report"
        targets = [base.with_suffix(".csv"), base.with_suffix(".metrics.json")] if command == ["simulate"] else [base]
        if existing:
            for target in targets:
                target.write_bytes(b"old report\n")
        for extra in ([], ["--out", str(base)]):
            code, out, err = run(capsys, *command, str(path), *extra)
            assert code == 2 and out == ""
            error = json.loads(err)
            assert error["error"] == "input" and error["message"].startswith("name 'toy\\ud800' cannot be encoded")
        assert [t.read_bytes() for t in targets if t.exists()] == ([b"old report\n"] * len(targets) if existing else [])


def _numeric_leaves(tree, path=()):
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _numeric_leaves(value, (*path, key))
    elif isinstance(tree, list):
        for index, value in enumerate(tree):
            yield from _numeric_leaves(value, (*path, index))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield path


TOY_RAW = json.loads(Path(TOY).read_text())
TOY_LEAVES = list(_numeric_leaves(TOY_RAW))
# The operating point, droop resistances and capacitances divide the device
# laws; the fuzz draws each of them six times as often as another leaf.
DIVISOR_LEAVES = [path for path in TOY_LEAVES if path[0] == "equilibrium" or path[-1] in ("R_d_ohm", "C_farad")]
FUZZ_LEAVES = DIVISOR_LEAVES * 5 + TOY_LEAVES
EXTREMES = [0, 1e-300, -1e-300, 1e308, -1e308, 1e12, -1e12, -1, 0.5, math.nan, math.inf, -math.inf]
FUZZ_COMMANDS = [["check", "--theorem", "1"], ["check", "--theorem", "2"], ["poles"], ["gridcode"],
                 ["synthesize"], ["positivity"]]


# Every positive device constant of toy3 as (1-based node, field), and the
# extremes that make a node's device invalid rather than merely extreme: a
# boost source needs E < U_r; C = 1e308 underflows its c1 to 0; kP_u or kI_u
# at 1e308 overflows a coefficient; C = 1e-300 (C_l = 1e-300) makes a
# leading coefficient that double precision drops next to the others.
DEVICE_CONSTANTS = [(device["node"], key) for device in TOY_RAW["devices"]
                    for key in device if key not in ("node", "type")]
INVALID_DEVICE = {(1, "C_farad", 1e308), (1, "E_volt", 1e308), (1, "U_r_volt", 1e-300),
                  (1, "kP_u", 1e308), (2, "kP_u", 1e308), (1, "kI_u", 1e308), (2, "kI_u", 1e308),
                  (1, "C_farad", 1e-300), (2, "C_farad", 1e-300), (3, "C_l_farad", 1e-300)}


class TestExtremeDeviceConstants:
    @pytest.mark.parametrize("value", [1e308, 1e-300])
    @pytest.mark.parametrize("node, key", DEVICE_CONSTANTS, ids=[f"node{k}-{key}" for k, key in DEVICE_CONSTANTS])
    @pytest.mark.parametrize("command", [c for c in FUZZ_COMMANDS if c != ["gridcode"]] + [["simulate"]],
                             ids=["check1", "check2", "poles", "synthesize", "positivity", "simulate"])
    def test_ends_in_its_exit_code(self, capsys, tmp_path, command, node, key, value):
        path = toy_variant(tmp_path, lambda raw: raw["devices"][node - 1].update({key: value}))
        extra = ["--out", str(tmp_path / "sim")] if command == ["simulate"] else []
        code, _, err = run(capsys, *command, str(path), *extra)
        lines = err.splitlines()
        if (node, key, value) in INVALID_DEVICE:
            assert code == 2 and len(lines) == 1
            error = json.loads(lines[0])
            assert error["error"] == "input" and f"node {node}" in error["message"]
            return
        assert code in (0, 1, 2, 3)
        if code >= 2:
            assert len(lines) == 1 and json.loads(lines[0])["error"] != "internal"

    @pytest.mark.parametrize("kind", [[], {}], ids=["array", "object"])
    @pytest.mark.parametrize("command", [*FUZZ_COMMANDS, ["simulate"]],
                             ids=["check1", "check2", "poles", "gridcode", "synthesize", "positivity", "simulate"])
    def test_device_type_that_is_not_a_string_exits_2(self, capsys, tmp_path, kind, command):
        path = toy_variant(tmp_path, lambda raw: raw["devices"][0].update(type=kind))
        extra = ["--out", str(tmp_path / "sim")] if command == ["simulate"] else []
        code, out, err = run(capsys, *command, str(path), *extra)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "input", "message": f"unknown device type {kind!r} (node 1)"}


class TestFuzzedInput:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(FUZZ_LEAVES), st.sampled_from(EXTREMES)), min_size=1, max_size=3),
           command=st.sampled_from(FUZZ_COMMANDS))
    def test_every_input_ends_in_its_exit_code(self, edits, command):
        raw = json.loads(json.dumps(TOY_RAW))
        for path, value in edits:
            node = raw
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        text = json.dumps(raw)  # non-finite numbers become NaN, Infinity, -Infinity
        finite = "NaN" not in text and "Infinity" not in text
        with tempfile.TemporaryDirectory() as tmp:
            scenario = Path(tmp) / "fuzzed.json"
            scenario.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([*command, str(scenario)])
        assert code in (0, 1, 2, 3)
        lines = err.getvalue().splitlines()
        assert len(lines) <= 1
        if lines:
            assert json.loads(lines[0])["error"] != "internal"
        assert not caught, [str(w.message) for w in caught]
        assert finite or code in (2, 3)


class TestSynthesize:
    def test_toy_compliant(self, capsys):
        code, out, _ = run(capsys, "synthesize", TOY)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_compliant"] is True
        assert len(payload["y_s"][0]) == 2

    def test_matches_device_bounds(self, capsys):
        import dstab.devices as dev
        from dstab.scenario import load_scenario, resolve_equilibrium, source_coefficients, grid_codes

        sc = load_scenario(TOY)
        eq = resolve_equilibrium(sc)
        coeffs = source_coefficients(sc, eq)
        code = grid_codes(sc, eq)[0]
        _, out, _ = run(capsys, "synthesize", TOY)
        payload = json.loads(out)
        for pos, entry in enumerate(payload["parts"][0]):
            rep = dev.check_compliance([coeffs[pos]], code)[0]
            assert entry["compliant"] == rep.compliant
            assert entry["y_s"] == pytest.approx(rep.y_s)

    def test_names_a_region_without_closed_form_bound(self, capsys):
        code, synth, _ = run(capsys, "synthesize", TOY, "--region", GENERIC_HALFPLANE)
        assert code == 1
        payload = json.loads(synth)
        assert payload["y_s"] == [[0.0, 0.0]]
        assert {e["binding"] for e in payload["parts"][0]} == {"region_family"}


class TestSimulateCmd:
    def test_writes_csv_and_metrics(self, capsys, tmp_path):
        out_base = tmp_path / "run"
        code, _, _ = run(capsys, "simulate", TOY, "--out", str(out_base))
        assert code == 0
        csv_text = out_base.with_suffix(".csv").read_text()
        header = csv_text.splitlines()[0]
        assert header == "t,du_1,du_2,du_3"
        stats = json.loads(out_base.with_suffix(".metrics.json").read_text())
        assert stats["peak_dev"] > 0

    def test_missing_disturbance_exits_2(self, capsys, tmp_path):
        path = toy_variant(tmp_path, lambda raw: raw.update(disturbance=None))
        code, _, _ = run(capsys, "simulate", str(path))
        assert code == 2

    @pytest.mark.parametrize("mutate", BAD_SIMULATION_BLOCKS.values(), ids=BAD_SIMULATION_BLOCKS.keys())
    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_bad_simulation_block_exits_2(self, capsys, tmp_path, mutate, command):
        path = toy_variant(tmp_path, mutate)
        code, _, err = run(capsys, command, str(path))
        assert code == 2
        assert '"error":"input"' in err and "simulation" in err

    @pytest.mark.parametrize("t_end", [2.0**61, 2.0**63, 1e19], ids=["too-big", "linspace-2**63", "max-size"])
    def test_trajectory_beyond_numpy_sizes_exits_2(self, capsys, tmp_path, t_end):
        # every time grid here exceeds 2**63 bytes, which numpy refuses before asking for memory
        def mutate(raw):
            raw["disturbance"].update(start_s=0.0, duration_s=1.0)
            raw["simulation"].update(t_end_s=t_end, dt_s=1.0)

        code, out, err = run(capsys, "simulate", str(toy_variant(tmp_path, mutate)))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "input"
        assert f"of {round(t_end)} RK4 steps" in err

    def test_diverging_trajectory_exits_3(self, tmp_path):
        # RK4 at dt = 1 ms is unstable for toy3 and overflows within 20 s
        path = toy_variant(tmp_path, lambda raw: raw.update(simulation={"t_end_s": 20, "dt_s": 1e-3, "band": 0.02}))
        for extra in ([], ["--out", str(tmp_path / "run")]):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(["simulate", str(path), *extra])
            assert code == 3 and out.getvalue() == ""
            assert [str(w.message).startswith("step dt = 0.001 s is unstable for RK4") for w in caught] == [True]
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and json.loads(lines[0])["error"] == "numerical"
            assert "not finite" in lines[0]
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_csv_is_per_value_format(self, capsys, tmp_path, monkeypatch, to_file):
        import numpy as np

        import dstab.cli as cli
        from dstab.sim import Trajectory

        # more rows than one chunk, with values that test the formatting:
        # negative zero, subnormals, three-digit exponents, mixed signs
        rng = np.random.default_rng(7)
        n_rows = 40_001
        du = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-320, 308, (n_rows, 3))
        du[:6, 0] = [-0.0, 5e-324, -2.5e-310, 1e-100, -1.0e300, 0.0]

        def ulps(x, steps):
            for _ in range(abs(steps)):
                x = np.nextafter(x, math.copysign(math.inf, steps))
            return x

        # values the kernel must round or route with care: exact ties at the
        # 14th significant digit (odd and even 13th digit) from 1e-6 to 1e13,
        # x.5 ties, 9.9999999999995e+k and its neighbours (the round-up to
        # the next power of ten), powers of ten +-1 ulp (where log10 misses
        # the exponent), infinities, nan, the largest finite value, random
        # bits.  A tie is m * 2**-j = m * 5**j / 10**j with m odd and
        # m * 5**j of 14 digits.
        j = rng.integers(1, 20, 600)
        m = rng.integers(-(-(10**13) // 5**j), 10**14 // 5**j) // 2 * 2 + 1
        power_ten = np.array([float(f"1e{k}") for k in range(-307, 309)])
        round_up = 9.9999999999995 * 10.0 ** np.arange(-300, 300, 3)
        edge = np.concatenate([
            np.ldexp(m.astype(float), -j),
            rng.integers(0, 10**13, 600) + 0.5,
            *(ulps(round_up, k) for k in range(-2, 3)),
            *(ulps(power_ten, k) for k in (-1, 0, 1)),
            [math.inf, -math.inf, math.nan, np.finfo(float).max, -np.finfo(float).max],
            rng.integers(0, 2**64, 3000, dtype=np.uint64).view(float),
        ])
        flip = rng.random(edge.size) < 0.5
        edge[flip] = -edge[flip]
        du.ravel()[6 : 6 + edge.size] = edge
        t = np.linspace(0.0, 1.0, n_rows)
        monkeypatch.setattr(cli, "simulate", lambda *a, **k: Trajectory(t, du))
        expected = "t,du_1,du_2,du_3\n" + "".join(
            ",".join(f"{v:.12e}" for v in (t[i], *du[i])) + "\n" for i in range(n_rows)
        )
        assert "-0.000000000000e+00" in expected and "e-310" in expected and "e+300" in expected
        assert "1.000000000000e+23" in expected and "-inf" in expected and "nan" in expected
        if to_file:
            code, _, _ = run(capsys, "simulate", TOY, "--out", str(tmp_path / "run"))
            text = (tmp_path / "run.csv").read_text()
        else:
            code, text, _ = run(capsys, "simulate", TOY)
        assert code == 0
        assert text == expected

    def test_csv_kernel_at_its_error_bound(self):
        """The kernel's one-product scaling against '%.12e' % v where rounding is
        closest to a tie or to an exponent change: decimal ties of 14 significant
        digits (as the nearest double) +-64 ulps over the fast range, exact binary
        ties, 10**k and 9.9999999999995 * 10**k +-40 ulps, random magnitudes and
        random bits."""
        import dstab.cli as cli

        rng = np.random.default_rng(18)
        digits, exps = rng.integers(10**12, 10**13, 3000).tolist(), rng.integers(-279, 280, 3000).tolist()
        ties = np.array([float(f"{d}5e{x - 13}") for d, x in zip(digits, exps)])
        j = rng.integers(1, 20, 2000)
        exact_ties = np.ldexp((rng.integers(-(-(10**13) // 5**j), 10**14 // 5**j) // 2 * 2 + 1).astype(float), -j)
        k = range(-300, 301)
        edges = np.array([float(f"1e{i}") for i in k] + [float(f"9.9999999999995e{i}") for i in k])
        values = np.concatenate([
            (ties[:, None] + np.arange(-64, 65) * np.spacing(ties)[:, None]).ravel(),
            exact_ties,
            (edges[:, None] + np.arange(-40, 41) * np.spacing(edges)[:, None]).ravel(),
            rng.standard_normal(20_000) * 10.0 ** rng.uniform(-300, 300, 20_000),
            rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(float),
        ])
        flip = rng.random(values.size) < 0.5
        values[flip] = -values[flip]
        got = cli._format_rows(values[:, None]).splitlines()
        bad = [(g, "%.12e" % v) for g, v in zip(got, values.tolist()) if g != "%.12e" % v]
        assert len(got) == values.size and not bad, bad[:5]


class TestPositivityCmd:
    def test_reports_all_nodes(self, capsys):
        code, out, _ = run(capsys, "positivity", TOY)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["parts"][0]["devices"]) == 3
        assert all(d["is_positive"] for d in payload["parts"][0]["devices"])

    @pytest.mark.parametrize("name", ["toy3", "ieee39_default", "ieee39_synthesized", "toy3-pinned"])
    def test_reports_the_indices_check_certifies(self, capsys, monkeypatch, tmp_path, name):
        # Without a pinned y_s both commands build each source at its
        # synthesized index, and positivity reuses each compliant source's
        # check, so every node and part is decided once (rows counted over
        # the batched calls); with a pinned y_s, both use the pinned index.
        if name == "toy3-pinned":
            path = str(toy_variant(tmp_path, lambda raw: raw.update(y_s=[[0.1, 0.2]])))
        else:
            path = str(DATA / f"{name}.json")
        with monkeypatch.context() as patch:
            rows = count_positivity_rows(patch)
            code_pos, pos, _ = run(capsys, "positivity", path)
        _, cert, _ = run(capsys, "check", path, "--theorem", "1")
        cert_parts = json.loads(cert)["parts"]
        pos_parts = json.loads(pos)["parts"]
        assert len(pos_parts) == len(cert_parts)
        all_positive = True
        for p, c in zip(pos_parts, cert_parts):
            assert p["region"] == c["region"]
            reports = [{k: v for k, v in d.items() if k not in ("node", "transfer_function")} for d in p["devices"]]
            assert reports == c["devices"]
            all_positive = all_positive and all(d["is_positive"] for d in reports)
        assert code_pos == (0 if all_positive else 1)
        assert sum(rows) == sum(len(p["devices"]) for p in pos_parts)

    @pytest.mark.parametrize("name", ["toy3", "ieee39_default", "ieee39_synthesized", "toy3-pinned"])
    def test_transfer_function_is_the_one_row_loop_transform(self, capsys, tmp_path, name):
        # Every node's function, lent by a compliant source or decided in the batch, is the one-row
        # loop transform of its subsystem at the node's gain rho, printed coefficient for coefficient.
        from dstab.devices import loop_transform
        from dstab.regions import parts
        from dstab.scenario import indexed_model, load_scenario, resolve_equilibrium

        if name == "toy3-pinned":
            path = str(toy_variant(tmp_path, lambda raw: raw.update(y_s=[[0.1, 0.2]])))
        else:
            path = str(DATA / f"{name}.json")
        sc = load_scenario(path)
        model, _ = indexed_model(sc, resolve_equilibrium(sc))
        code, out, _ = run(capsys, "positivity", path)
        assert code in (0, 1)
        payload = json.loads(out)["parts"]
        assert len(payload) == len(parts(model.region))
        for index, (part, printed) in enumerate(zip(parts(model.region), payload)):
            expected = []
            for g, rho in zip(model.subsystems, model.part_rho(part, index)):
                f = loop_transform(g, part, rho)
                expected.append({"num": [[c.real, c.imag] for c in f.num.coeffs],
                                 "den": [[c.real, c.imag] for c in f.den.coeffs]})
            assert [d["transfer_function"] for d in printed["devices"]] == json.loads(dumps(expected))

    @pytest.mark.parametrize("command", [["positivity"], ["check", "--theorem", "1"], ["check", "--theorem", "2"]])
    def test_region_without_closed_form_bound_gives_a_verdict(self, capsys, command):
        # A generic half-plane has no synthesis bound: its sources carry
        # index 0, as synthesize reports, instead of failing the command.
        code, out, err = run(capsys, command[0], TOY, *command[1:], "--region", GENERIC_HALFPLANE)
        assert code in (0, 1) and err == ""
        assert json.loads(out)["parts"]


def relabelled(raw: dict, perm: list[int]) -> dict:
    """The scenario with node k (1-based) renamed perm[k - 1], and its edge,
    device, source and load lists reversed."""
    assert raw.get("y_s") is None

    def new(k: int) -> int:
        return perm[k - 1]

    def by_new_id(values: list) -> list:
        out = [None] * len(values)
        for k, v in enumerate(values, start=1):
            out[new(k) - 1] = v
        return out

    topo = raw["topology"]
    out = json.loads(json.dumps(raw))
    out["topology"] = {
        "nodes": topo["nodes"],
        "edges": [[new(i), new(j), r] for i, j, r in reversed(topo["edges"])],
        "sources": [new(k) for k in reversed(topo["sources"])],
        "loads": [new(k) for k in reversed(topo["loads"])],
    }
    out["devices"] = [{**block, "node": new(block["node"])} for block in reversed(raw["devices"])]
    out["equilibrium"] = {key: by_new_id(values) for key, values in raw["equilibrium"].items()}
    out["disturbance"] = {**raw["disturbance"], "node": new(raw["disturbance"]["node"])}
    return out


def pinned_mesh(n: int, seed: int, path: Path) -> dict:
    """The seed's ``bench/meshgen.py`` mesh with its operating point pinned,
    written to ``path``: a relabelled copy then shares the operating point
    instead of solving its own power flow in another node order."""
    from dstab.scenario import load_scenario, resolve_equilibrium

    sys.path.insert(0, str(SRC.parent / "bench"))
    import meshgen

    raw = meshgen.mesh_scenario(n, seed)
    eq = resolve_equilibrium(load_scenario(meshgen.write_scenario(raw, path)))
    raw["equilibrium"] = {"u_star_volt": list(eq.u_star), "i_star_amp": list(eq.i_star)}
    path.write_text(json.dumps(raw))
    return raw


class TestRelabelling:
    @pytest.mark.parametrize("theorem", ["1", "2"])
    @pytest.mark.parametrize("name, perm", [
        ("toy3", [3, 1, 2]),
        ("toy3", [2, 1, 3]),
        ("ieee39_synthesized", [int(k) + 1 for k in np.random.default_rng(0).permutation(39)]),
        ("mesh-n64-s1", [int(k) + 1 for k in np.random.default_rng(0).permutation(64)]),
    ], ids=["toy3-load-first", "toy3-sources-swapped", "ieee39_synthesized-random", "mesh-n64-s1-random"])
    def test_check_is_invariant_under_node_relabelling(self, capsys, tmp_path, theorem, name, perm):
        # Batched decisions group nodes by shape, so node order must not
        # matter to any node's report.
        if name.startswith("mesh"):
            original = tmp_path / "mesh.json"
            raw = pinned_mesh(64, 1, original)
        else:
            original = DATA / f"{name}.json"
            raw = json.loads(original.read_text())
        n = raw["topology"]["nodes"]
        path = tmp_path / "relabelled.json"
        path.write_text(json.dumps(relabelled(raw, perm)))

        code, out, _ = run(capsys, "check", str(original), "--theorem", theorem)
        code_r, out_r, _ = run(capsys, "check", str(path), "--theorem", theorem)
        assert code_r == code
        report, report_r = json.loads(out), json.loads(out_r)
        assert report_r["certified"] == report["certified"]
        assert len(report_r["parts"]) == len(report["parts"])
        for part, part_r in zip(report["parts"], report_r["parts"]):
            assert (part_r["certified"], part_r["network_ok"]) == (part["certified"], part["network_ok"])
            lam, lam_r = part["network_lambda_min"], part_r["network_lambda_min"]
            assert lam_r == pytest.approx(lam, rel=1e-9, abs=1e-9)
            for k in range(1, n + 1):
                assert part_r["devices"][perm[k - 1] - 1] == part["devices"][k - 1]


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        _, out1, _ = run(capsys, "check", TOY)
        _, out2, _ = run(capsys, "check", TOY)
        assert out1 == out2

    def test_byte_identical_simulate(self, capsys, tmp_path):
        code1, out1, err1 = run(capsys, "simulate", TOY)
        code2, out2, err2 = run(capsys, "simulate", TOY)
        assert code1 == code2 == 0
        assert out1 == out2 and err1 == err2
        for path in (tmp_path / "run.csv", tmp_path / "run.metrics.json"):
            path.write_text("x" * (len(out1) + 4096))  # an --out file is written over in place
        run(capsys, "simulate", TOY, "--out", str(tmp_path / "run"))
        assert (tmp_path / "run.csv").read_text() == out1
        assert (tmp_path / "run.metrics.json").read_text() + "\n" == err1

    def test_control_characters_stay_valid_json(self, capsys, tmp_path):
        name = 'toy\t"3"\r\x01\\\n\u00e9'
        path = toy_variant(tmp_path, lambda raw: raw.update(name=name))
        for command in (["gridcode"], ["check", "--theorem", "1"], ["check"], ["synthesize"], ["positivity"]):
            code, out, _ = run(capsys, *command, str(path))
            assert code == 0 and json.loads(out)["scenario"] == name, command
        code, _, err = run(capsys, "simulate", str(path), "--out", str(tmp_path / "run"))
        assert code == 0 and err == ""
        assert json.loads((tmp_path / "run.metrics.json").read_text())["scenario"] == name

    def test_float_format(self):
        assert dumps({"x": 1.5}) == '{"x":1.500000000000e+00}'
        assert dumps({"x": float("nan"), "y": [True, None]}) == '{"x":"nan","y":[true,null]}'
        assert dumps({"z": -0.0}) == '{"z":0.000000000000e+00}'


JSON_COMMANDS = [["gridcode"], ["check", "--theorem", "1"], ["check", "--theorem", "2"], ["synthesize"], ["positivity"]]


class TestOutWriter:
    """--out overwrites a report in place: no O_TRUNC on open, the file cut
    to what was written, its inode, links and mode kept."""

    @pytest.mark.parametrize("name", ["toy3", "ieee39_default", "ieee39_synthesized"])
    def test_report_over_a_longer_file_is_stdout(self, capsys, tmp_path, name):
        scenario = str(DATA / f"{name}.json")
        target = tmp_path / "report"
        for command in [["poles"], *JSON_COMMANDS]:
            code, out, _ = run(capsys, *command, scenario)
            target.write_text("x" * (len(out) + 4096))
            assert run(capsys, *command, scenario, "--out", str(target)) == (code, "", "")
            # stdout ends every report with a newline; a JSON file holds none
            assert target.read_text() == (out if command == ["poles"] else out[:-1]), command

    def test_never_opens_with_o_trunc(self, capsys, tmp_path, monkeypatch):
        opened = []
        os_open = os.open

        def recording(path, flags, *args):
            opened.append((str(path), flags))
            return os_open(path, flags, *args)

        monkeypatch.setattr(os, "open", recording)
        for k, command in enumerate([["poles"], *JSON_COMMANDS]):
            run(capsys, *command, TOY, "--out", str(tmp_path / f"r{k}"))
            run(capsys, *command, TOY, "--out", str(tmp_path / f"r{k}"))  # over the first report
        run(capsys, "simulate", TOY, "--out", str(tmp_path / "run"))
        assert sorted(path for path, _ in opened) == sorted(
            [str(tmp_path / f"r{k}") for k in range(6)] * 2 + [str(tmp_path / "run.csv"), str(tmp_path / "run.metrics.json")])
        assert not [flags for _, flags in opened if flags & os.O_TRUNC]

    @pytest.mark.parametrize("command", [["poles"], *JSON_COMMANDS], ids=lambda c: "".join(c))
    def test_out_dev_null(self, capsys, command):
        code, out, err = run(capsys, *command, TOY, "--out", os.devnull)
        assert code == 0 and out == err == ""

    def test_existing_report_keeps_inode_links_and_mode(self, capsys, tmp_path):
        base = tmp_path / "run"
        targets = [tmp_path / "check.json", base.with_suffix(".csv"), base.with_suffix(".metrics.json")]
        for target in targets:
            target.write_text("old report\n")
            target.chmod(0o640)
            os.link(target, target.with_name("link-" + target.name))
        before = [os.stat(target) for target in targets]
        assert run(capsys, "check", TOY, "--out", str(targets[0]))[0] == 0
        assert run(capsys, "simulate", TOY, "--out", str(base))[0] == 0
        for target, old in zip(targets, before):
            new = os.stat(target)
            assert (new.st_ino, new.st_mode, new.st_nlink) == (old.st_ino, old.st_mode, 2)
            assert new.st_size > len("old report\n")
            assert target.with_name("link-" + target.name).read_bytes() == target.read_bytes()

    def test_failed_csv_keeps_what_was_written(self, capsys, tmp_path, monkeypatch):
        import dstab.cli as cli

        chunks = cli._csv_chunks
        written = []

        def failing(*args):
            stream = chunks(*args)
            written.extend([next(stream), next(stream)])  # header and first chunk
            yield from written
            raise RuntimeError("disk gone")

        base = tmp_path / "run"
        base.with_suffix(".csv").write_text("x" * 10**6)
        monkeypatch.setattr(cli, "_csv_chunks", failing)
        code, out, err = run(capsys, "simulate", TOY, "--out", str(base))
        assert code == 3 and out == "" and "disk gone" in err
        assert written[0] == "t,du_1,du_2,du_3\n" and len(written[1]) > 10**4
        assert base.with_suffix(".csv").read_text() == "".join(written)


class TestParser:
    def test_built_once_across_calls(self, capsys, monkeypatch):
        import dstab.cli as cli

        builds = []
        build = cli.build_parser

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        run(capsys, "check", TOY, "--theorem", "1")
        run(capsys, "poles", TOY)
        assert len(builds) == 1

    def test_calls_share_no_arguments(self, capsys):
        _, plain, _ = run(capsys, "check", TOY)
        assert json.loads(plain)["theorem"] == "thm2"
        _, thm1, _ = run(capsys, "check", TOY, "--theorem", "1")
        assert json.loads(thm1)["theorem"] == "thm1"
        code, again, _ = run(capsys, "check", TOY)
        assert code == 0 and again == plain
        code, _, _ = run(capsys, "check", TOY, "--region", '{"kind":"lhp","alpha":-20000}')
        assert code == 1
        code, again, _ = run(capsys, "check", TOY)
        assert code == 0 and again == plain


class TestModelBuild:
    @pytest.mark.parametrize("command, builds", [
        (["poles"], 1), (["gridcode"], 0), (["check", "--theorem", "1"], 1), (["check", "--theorem", "2"], 1),
        (["synthesize"], 0), (["positivity"], 1), (["simulate"], 1),
    ], ids=["poles", "gridcode", "check1", "check2", "synthesize", "positivity", "simulate"])
    def test_each_command_builds_its_model_once(self, capsys, tmp_path, monkeypatch, command, builds):
        # toy3 pins no y_s, so check and positivity synthesize the indices before the build.
        from dstab.dstability import SystemModel

        calls = []
        post_init = SystemModel.__post_init__
        monkeypatch.setattr(SystemModel, "__post_init__", lambda model: calls.append(1) or post_init(model))
        extra = ["--out", str(tmp_path / "sim")] if command == ["simulate"] else []
        code, _, _ = run(capsys, *command, TOY, *extra)
        assert code == 0 and len(calls) == builds


class TestNumericalFailure:
    def test_power_flow_collapse_exits_3(self, capsys, tmp_path):
        def collapse(raw):
            for block in raw["devices"]:
                if block["type"] == "cpl":
                    block["P_watt"] = 500000.0
            raw["equilibrium"] = None

        path = toy_variant(tmp_path, collapse)
        code, _, err = run(capsys, "check", str(path))
        assert code == 3
        assert '"error":"numerical"' in err

    def test_eigensolver_failure_exits_3(self, capsys, monkeypatch):
        import dstab.cpoly as cpoly

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cpoly.np.linalg, "eigvals", broken)
        code, out, err = run(capsys, "check", TOY)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "numerical" and "Eigenvalues did not converge" in err
