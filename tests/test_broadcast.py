"""Theorem 2 as a broadcast protocol.

The operator side prints one grid code per region part (``dstab gridcode``);
the device side (``devices.check_compliance``) decides compliance from one
source's own model and that broadcast alone.  These tests run the device
side on the broadcast as printed and check that no source's verdict depends
on another source's model.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

from dstab import devices as dev
from dstab.cli import dumps, main
from dstab.network import GridCode
from dstab.regions import region_from_spec
from dstab.scenario import (
    Scenario, compliance, grid_codes, load_scenario, resolve_equilibrium, source_coefficients,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "dstab" / "data"
sys.path.insert(0, str(ROOT / "bench"))

import meshgen  # noqa: E402

THREE_PARTS = '[{"kind":"lhp","alpha":-2},{"kind":"sector","beta":1.4},{"kind":"hstrip","gamma":300}]'
CASES = {
    "toy3": ("toy3", None),
    "ieee39_default": ("ieee39_default", None),
    "ieee39_synthesized": ("ieee39_synthesized", None),
    "toy3-three-parts": ("toy3", THREE_PARTS),
    "toy3-failed-damping": ("toy3", '{"kind":"lhp","alpha":-20000}'),
    "toy3-halfplane": ("toy3", '{"kind":"halfplane","theta0":0.3,"omega0":0,"sigma0":-1}'),
    "ieee39_default-sector": ("ieee39_default", '{"kind":"sector","beta":1.308996938996}'),
    **{f"mesh-n{n}-s{seed}": ((n, seed), None) for n in (64, 200) for seed in (1, 2, 3)},
}


def parse_broadcast(entry: dict) -> GridCode:
    """A grid code as a device reads it from one part of ``dstab gridcode``."""
    lam = entry["lambda_min_xi"]
    return GridCode(region_from_spec(entry["region"]), math.nan if lam is None else lam,
                    tuple(entry["y_virtual"]), entry["ll_assumption_ok"])


@pytest.mark.parametrize("case", list(CASES))
def test_printed_broadcast_gives_the_in_memory_verdicts(capsys, tmp_path, case):
    source, region = CASES[case]
    if isinstance(source, tuple):
        path = meshgen.write_scenario(meshgen.mesh_scenario(*source), tmp_path / f"{case}.json")
    else:
        path = DATA / f"{source}.json"
    argv = ["gridcode", str(path), *(["--region", region] if region else [])]
    assert main(argv) in (0, 1)
    printed = json.loads(capsys.readouterr().out)["grid_codes"]

    sc = load_scenario(path, region_from_spec(json.loads(region)) if region else None)
    eq = resolve_equilibrium(sc)
    in_memory = compliance(sc, eq, grid_codes(sc, eq))
    assert len(printed) == len(in_memory)
    for entry, row in zip(printed, in_memory):
        broadcast = parse_broadcast(entry)
        for k, expected in zip(sc.network.partition.source_ids, row):
            rep = dev.check_compliance([dev.source_coeffs(sc.devices[k], eq.u_star[k])], broadcast)[0]
            assert (rep.compliant, rep.binding) == (expected.compliant, expected.binding), f"node {k + 1}"
            if expected.y_s is None:
                assert rep.y_s is None
            else:
                assert abs(rep.y_s - expected.y_s) <= 1e-12 * max(1.0, abs(expected.y_s)), f"node {k + 1}"


@pytest.fixture(scope="module")
def synthesized():
    """``ieee39_synthesized`` with its pinned operating point.  The pin is
    used as it is, so that source parameters can change without a new power
    flow."""
    sc = load_scenario(DATA / "ieee39_synthesized.json")
    return sc, sc.pinned_equilibrium


def perturbed(device: dev.SourceParams) -> dev.SourceParams:
    return dataclasses.replace(device, C=device.C * 1.3, kP_u=device.kP_u * 1.2 + 0.01, kI_u=device.kI_u * 0.8)


def with_perturbed_sources(sc: Scenario, nodes: set[int]) -> Scenario:
    return dataclasses.replace(sc, devices=[perturbed(d) if k in nodes else d for k, d in enumerate(sc.devices)])


def test_broadcast_reads_no_source_model(synthesized):
    sc, eq = synthesized
    sources = set(sc.network.partition.source_ids)
    changed = with_perturbed_sources(sc, sources)
    assert all(a != b for a, b in zip(source_coefficients(sc, eq), source_coefficients(changed, eq)))
    assert dumps([c.as_dict() for c in grid_codes(changed, eq)]) == dumps([c.as_dict() for c in grid_codes(sc, eq)])


def margin(report: dev.ComplianceReport) -> float | None:
    return report.positivity.margin if report.positivity else None


def test_device_verdict_reads_no_other_device(synthesized):
    sc, eq = synthesized
    codes = grid_codes(sc, eq)
    alone = compliance(sc, eq, codes)
    others_moved = False
    for pos, k in enumerate(sc.network.partition.source_ids):
        others = set(sc.network.partition.source_ids) - {k}
        rows = compliance(with_perturbed_sources(sc, others), eq, codes)
        for row, base in zip(rows, alone):
            assert dumps(row[pos].as_dict()) == dumps(base[pos].as_dict()), f"node {k + 1}"
            assert margin(row[pos]) == margin(base[pos]), f"node {k + 1}"
            others_moved = others_moved or any(
                dumps(r.as_dict()) != dumps(b.as_dict()) for j, (r, b) in enumerate(zip(row, base)) if j != pos
            )
    assert others_moved, "the perturbation changed no other source's report"
