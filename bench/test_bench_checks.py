"""Each benchmark checker accepts the program's real output and rejects a
corrupted copy of it, so no check can pass vacuously.

    python3 -m pytest bench/test_bench_checks.py -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from dstab import cli  # noqa: E402
from dstab.scenario import build_model, load_scenario  # noqa: E402

DATA = SRC / "dstab" / "data"
TUNED = DATA / "ieee39_synthesized.json"


def run(tmp: Path, argv: list[str], name: str) -> tuple[int, Path]:
    out = tmp / name
    rc = cli.main(argv + ["--out", str(out)])
    return rc, out


@pytest.fixture(scope="module")
def tuned(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tuned")
    grid = checks.Grid.from_file(TUNED)
    outputs = {}
    for name, argv in {"check": ["check", "--theorem", "2"], "poles": ["poles"],
                       "gridcode": ["gridcode"], "synthesize": ["synthesize"],
                       "positivity": ["positivity"]}.items():
        rc, out = run(tmp, argv[:1] + [str(TUNED)] + argv[1:], name)
        outputs[name] = (rc, out.read_text())
    return grid, outputs


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """toy3 with a 0.1 s horizon, simulated."""
    tmp = tmp_path_factory.mktemp("probe")
    raw = json.loads((DATA / "toy3.json").read_text())
    raw["simulation"]["t_end_s"] = 0.1
    path = tmp / "probe.json"
    path.write_text(json.dumps(raw))
    rc, out = run(tmp, ["simulate", str(path)], "sim")
    assert rc == 0
    grid = checks.Grid(raw)
    model = build_model(load_scenario(path))
    tfs = [([c.real for c in g.num.coeffs], [c.real for c in g.den.coeffs]) for g in model.subsystems]
    node = raw["disturbance"]["node"] - 1
    amps = raw["disturbance"]["magnitude"] * raw["devices"][node]["P_watt"] / model.equilibrium_u[node]
    csv = out.with_suffix(".csv").read_text()
    metrics = json.loads(out.with_suffix(".metrics.json").read_text())
    return grid, csv, metrics, tfs, (node, amps)


def steps_of(grid):
    sim = grid.raw["simulation"]
    return round(sim["t_end_s"] / sim["dt_s"])


# -- check --theorem ---------------------------------------------------------


def test_certificate_accepts_real_report(tuned):
    grid, out = tuned
    rc, text = out["check"]
    assert checks.check_certificate(json.loads(text), rc, 2, grid) is True


def test_certificate_rejects_flipped_verdict(tuned):
    grid, out = tuned
    rc, text = out["check"]
    report = json.loads(text)
    report["certified"] = False
    with pytest.raises(CheckFailed):
        checks.check_certificate(report, rc, 2, grid)
    with pytest.raises(CheckFailed):
        checks.check_certificate(json.loads(text), 1 - rc, 2, grid)


def test_certificate_rejects_failure_without_witness(tuned):
    grid, out = tuned
    rc, text = out["check"]
    report = json.loads(text)
    report["parts"][0]["devices"][0].update(is_positive=False, failed_condition="real_part", witnesses=[])
    with pytest.raises(CheckFailed):
        checks.check_certificate(report, rc, 2, grid)


# -- poles and soundness -----------------------------------------------------


def move_pole(text: str, recompute_margin: bool, grid) -> str:
    """Move the first complex pair to Re = +1 (both members)."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    target = next(r for r in rows if float(r[1]) != 0.0)
    re, im = target[0], abs(float(target[1]))
    for r in rows:
        if abs(abs(float(r[1])) - im) <= 1e-12 * im and r[0] == re:
            r[0] = "1.0"
            if recompute_margin:
                r[2] = repr(grid.margin(complex(1.0, float(r[1]))))
    return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


def test_poles_accept_real_output(tuned):
    grid, out = tuned
    poles = checks.check_poles(out["poles"][1], 0, grid)
    checks.check_soundness(True, poles, grid)


def test_poles_reject_pole_moved_with_stale_margin(tuned):
    grid, out = tuned
    with pytest.raises(CheckFailed):
        checks.check_poles(move_pole(out["poles"][1], False, grid), 0, grid)


def test_soundness_rejects_certificate_refuted_by_moved_pole(tuned):
    grid, out = tuned
    poles = checks.check_poles(move_pole(out["poles"][1], True, grid), 0, grid)
    with pytest.raises(CheckFailed):
        checks.check_soundness(True, poles, grid)
    checks.check_soundness(False, poles, grid)


def test_poles_reject_dropped_pole(tuned):
    grid, out = tuned
    lines = out["poles"][1].splitlines()
    with pytest.raises(CheckFailed):
        checks.check_poles("\n".join(lines[:-1]) + "\n", 0, grid)


# -- gridcode ----------------------------------------------------------------


def shifted_floor(report: dict, part: int, delta: float) -> dict:
    bad = copy.deepcopy(report)
    code = bad["grid_codes"][part]
    code["y_s_lower_bound"] += delta
    code["lambda_min_xi"] -= delta
    return bad


def test_gridcode_accepts_real_output(tuned):
    grid, out = tuned
    rc, text = out["gridcode"]
    checks.check_gridcode(json.loads(text), rc, grid, grid.raw["equilibrium"]["u_star_volt"])


@pytest.mark.parametrize("part", [0, 1, 2])
@pytest.mark.parametrize("delta", [1e-3, -1e-3])
def test_gridcode_rejects_floor_off_by_1e_3(tuned, part, delta):
    grid, out = tuned
    rc, text = out["gridcode"]
    bad = shifted_floor(json.loads(text), part, delta)
    with pytest.raises(CheckFailed):
        checks.check_gridcode(bad, rc, grid, grid.raw["equilibrium"]["u_star_volt"])


def test_gridcode_rejects_virtual_admittance_off_the_load_law(tuned):
    grid, out = tuned
    rc, text = out["gridcode"]
    bad = json.loads(text)
    bad["grid_codes"][0]["y_virtual"][3] *= 1.001
    with pytest.raises(CheckFailed):
        checks.check_gridcode(bad, rc, grid, grid.raw["equilibrium"]["u_star_volt"])


# -- synthesize --------------------------------------------------------------


def test_synthesize_accepts_real_output(tuned):
    grid, out = tuned
    rc, text = out["synthesize"]
    assert checks.check_synthesize(json.loads(text), rc, grid) is True


def test_synthesize_rejects_index_below_floor(tuned):
    grid, out = tuned
    rc, text = out["synthesize"]
    bad = json.loads(text)
    low = bad["parts"][0][0]["y_s_floor"] - 1e-3
    bad["parts"][0][0]["y_s"] = low
    bad["y_s"][0][0] = low
    with pytest.raises(CheckFailed):
        checks.check_synthesize(bad, rc, grid)


# -- positivity --------------------------------------------------------------


def test_positivity_accepts_real_output(tuned):
    grid, out = tuned
    rc, text = out["positivity"]
    checks.check_positivity(json.loads(text), rc, grid)


def test_positivity_rejects_flipped_source_numerator(tuned):
    grid, out = tuned
    rc, text = out["positivity"]
    bad = json.loads(text)
    dev = next(d for d in bad["parts"][0]["devices"] if d["is_positive"] and len(d["transfer_function"]["den"]) == 3)
    dev["transfer_function"]["num"] = [[-re, -im] for re, im in dev["transfer_function"]["num"]]
    with pytest.raises(CheckFailed):
        checks.check_positivity(bad, rc, grid)


def test_positivity_rejects_real_part_witness_where_real_part_is_positive(tuned):
    grid, out = tuned
    rc, text = out["positivity"]
    bad = json.loads(text)
    dev = next(d for d in bad["parts"][0]["devices"] if d["is_positive"] and len(d["transfer_function"]["den"]) == 3)
    dev.update(is_positive=False, failed_condition="real_part",
               witnesses=[{"at": [0.0, 0.0], "value": [-1.0, 0.0]}])
    with pytest.raises(CheckFailed):
        checks.check_positivity(bad, 1, grid)


# -- simulate ----------------------------------------------------------------


def test_trajectory_accepts_real_output(probe):
    grid, csv, metrics, tfs, law = probe
    traj = checks.parse_csv(csv, grid.n, steps_of(grid))
    assert checks.check_trajectory(traj, grid, tfs, law) < checks.TRAJ_REL_TOL
    checks.check_sim_metrics(metrics, traj, grid)


def test_trajectory_rejects_perturbed_sample(probe):
    grid, csv, _, tfs, law = probe
    traj = checks.parse_csv(csv, grid.n, steps_of(grid))
    start = round(grid.raw["disturbance"]["start_s"] / grid.raw["simulation"]["dt_s"])
    peak = float(np.max(np.abs(traj[:, 1:])))
    traj[start + 1000, 2] += 1e-4 * peak
    with pytest.raises(CheckFailed):
        checks.check_trajectory(traj, grid, tfs, law)


def test_csv_rejects_dropped_row(probe):
    grid, csv, *_ = probe
    lines = csv.splitlines(keepends=True)
    with pytest.raises(CheckFailed):
        checks.parse_csv("".join(lines[:100] + lines[101:]), grid.n, steps_of(grid))


def test_sim_metrics_reject_wrong_settling_time(probe):
    grid, csv, metrics, *_ = probe
    traj = checks.parse_csv(csv, grid.n, steps_of(grid))
    with pytest.raises(CheckFailed):
        checks.check_sim_metrics({**metrics, "settling_time": metrics["settling_time"] + 1e-3}, traj, grid)


# -- power flow --------------------------------------------------------------


def test_power_flow_residual_separates_operating_points():
    grid = checks.Grid.from_file(TUNED)
    u = np.array(grid.raw["equilibrium"]["u_star_volt"])
    assert grid.power_flow_residual(u) < 1e-6
    u[5] += 1e-3
    assert grid.power_flow_residual(u) > 1e-4
