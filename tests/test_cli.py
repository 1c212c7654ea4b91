"""Command surface: scenario ingestion, reports, exit codes, determinism."""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import pytest

from dstab.cli import dumps, main

DATA = Path(__file__).resolve().parent.parent / "src" / "dstab" / "data"
TOY = str(DATA / "toy3.json")


def run(capsys, *argv) -> tuple[int, str, str]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(list(argv))
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

    def test_pinned_equilibrium_validated(self, capsys, tmp_path):
        def corrupt(raw):
            raw["equilibrium"]["u_star_volt"][0] += 5.0

        path = toy_variant(tmp_path, corrupt)
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "equilibrium" in err


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
            rep = dev.check_compliance(coeffs[pos], code)
            assert entry["compliant"] == rep.compliant
            assert entry["y_s"] == pytest.approx(rep.y_s)


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

    @pytest.mark.parametrize(
        "simulation",
        [
            {"dt_s": -1e-4},
            {"dt_s": 0},
            {"dt_s": math.nan},
            {"t_end_s": math.inf},
            {"t_end_s": 0.06},  # before the end of the pulse (0.05 s + 0.02 s)
            {"band": "x"},
            {"band": 0.0},
            {"band": 1.0},
            {"band": math.nan},
            [0.6, 2e-5],
        ],
        ids=["dt-negative", "dt-zero", "dt-nan", "t-end-inf", "t-end-in-pulse",
             "band-string", "band-zero", "band-one", "band-nan", "not-an-object"],
    )
    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_bad_simulation_block_exits_2(self, capsys, tmp_path, simulation, command):
        def mutate(raw):
            if isinstance(simulation, dict):
                raw["simulation"].update(simulation)
            else:
                raw["simulation"] = simulation

        path = toy_variant(tmp_path, mutate)
        code, _, err = run(capsys, command, str(path))
        assert code == 2
        assert '"error":"input"' in err and "simulation" in err

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
        t = np.linspace(0.0, 1.0, n_rows)
        monkeypatch.setattr(cli, "simulate", lambda *a, **k: Trajectory(t, du))
        expected = "t,du_1,du_2,du_3\n" + "".join(
            ",".join(f"{v:.12e}" for v in (t[i], *du[i])) + "\n" for i in range(n_rows)
        )
        assert "-0.000000000000e+00" in expected and "e-310" in expected and "e+300" in expected
        if to_file:
            code, _, _ = run(capsys, "simulate", TOY, "--out", str(tmp_path / "run"))
            text = (tmp_path / "run.csv").read_text()
        else:
            code, text, _ = run(capsys, "simulate", TOY)
        assert code == 0
        assert text == expected


class TestPositivityCmd:
    def test_reports_all_nodes(self, capsys):
        code, out, _ = run(capsys, "positivity", TOY)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["parts"][0]["devices"]) == 3
        assert all(d["is_positive"] for d in payload["parts"][0]["devices"])


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
        run(capsys, "simulate", TOY, "--out", str(tmp_path / "run"))
        assert (tmp_path / "run.csv").read_text() == out1
        assert (tmp_path / "run.metrics.json").read_text() + "\n" == err1

    def test_float_format(self):
        assert dumps({"x": 1.5}) == '{"x":1.500000000000e+00}'
        assert dumps({"x": float("nan"), "y": [True, None]}) == '{"x":"nan","y":[true,null]}'
        assert dumps({"z": -0.0}) == '{"z":0.000000000000e+00}'


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
