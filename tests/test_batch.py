"""Batched decisions are row by row.

Loop transforms, positivity checks and compliance run over whole fleets in
one numpy pass per shape.  The decentralization claim needs every row's
result to depend on that row alone: these tests check that every batched
report is the one-row report, byte for byte, on the shipped scenarios, a
64-node mesh and random fleets.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_crational, random_mild_subsystem, random_positive_rational, random_region, \
    random_source_coeffs
from dstab import devices as dev
from dstab.cli import dumps
from dstab.dstability import part_positivity
from dstab.network import GridCode
from dstab.positivity import check_positive_rows, check_positive_siso
from dstab.regions import parts
from dstab.scenario import grid_codes, indexed_model, load_scenario, resolve_equilibrium, source_coefficients

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "dstab" / "data"
sys.path.insert(0, str(ROOT / "bench"))

import meshgen  # noqa: E402

CASES = {"toy3": "toy3", "ieee39_default": "ieee39_default", "ieee39_synthesized": "ieee39_synthesized",
         "mesh-n64-s1": (64, 1)}


def rational_text(r) -> str:
    return dumps({"num": [[c.real, c.imag] for c in r.num.coeffs], "den": [[c.real, c.imag] for c in r.den.coeffs]})


def row_text(num: np.ndarray, den: np.ndarray) -> str:
    """:func:`rational_text` of one pair of coefficient rows, only their
    exactly-zero padding dropped."""
    def unpadded(row):
        return np.trim_zeros(row, "b") if row.any() else row[:1]

    return dumps({"num": [[c.real, c.imag] for c in unpadded(num)], "den": [[c.real, c.imag] for c in unpadded(den)]})


def compliance_text(rep: dev.ComplianceReport) -> str:
    return dumps([rep.as_dict(), rep.positivity.as_dict() if rep.positivity else None])


@pytest.mark.parametrize("case", list(CASES))
def test_batched_reports_are_the_one_row_reports(tmp_path, case):
    source = CASES[case]
    if isinstance(source, tuple):
        path = meshgen.write_scenario(meshgen.mesh_scenario(*source), tmp_path / f"{case}.json")
    else:
        path = DATA / f"{source}.json"
    sc = load_scenario(path)
    eq = resolve_equilibrium(sc)
    codes = grid_codes(sc, eq)
    fleet = source_coefficients(sc, eq)
    model, _ = indexed_model(sc, eq, codes)
    for index, (part, code) in enumerate(zip(parts(sc.region), codes)):
        batched = [compliance_text(rep) for rep in dev.check_compliance(fleet, code)]
        assert batched == [compliance_text(dev.check_compliance([g], code)[0]) for g in fleet]

        num, den, reports = part_positivity(model, part, index, None)
        one_row = []
        for g, rho in zip(model.subsystems, model.part_rho(part, index)):
            g_tilde = dev.loop_transform(g, part, rho)
            one_row.append((rational_text(g_tilde), dumps(check_positive_siso(g_tilde).as_dict())))
        assert [(row_text(n, d), dumps(r.as_dict())) for n, d, r in zip(num, den, reports)] == one_row


def test_random_fleets_comply_row_by_row(rng):
    for _ in range(20):
        fleet = [random_source_coeffs(rng) for _ in range(int(rng.integers(2, 40)))]
        code = GridCode(random_region(rng), -float(rng.uniform(0.0, 0.3)), (), True)
        batched = [compliance_text(rep) for rep in dev.check_compliance(fleet, code)]
        assert batched == [compliance_text(dev.check_compliance([g], code)[0]) for g in fleet]


def test_random_rows_are_decided_row_by_row(rng):
    # Mixed degrees, complex coefficients, imaginary-axis poles and positive
    # functions in one stack: the rows are grouped by shape and decided once.
    functions = [random_crational(rng) for _ in range(60)] + [random_positive_rational(rng) for _ in range(30)]
    order = rng.permutation(len(functions))
    functions = [functions[i] for i in order]
    width = max(max(len(h.num.coeffs), len(h.den.coeffs)) for h in functions)
    num = np.array([h.num.coeffs + (0j,) * (width - len(h.num.coeffs)) for h in functions])
    den = np.array([h.den.coeffs + (0j,) * (width - len(h.den.coeffs)) for h in functions])
    batched = [dumps(r.as_dict()) for r in check_positive_rows(num, den)]
    assert batched == [dumps(check_positive_siso(h).as_dict()) for h in functions]
    assert len({r for r in batched}) > 1


def test_loop_transform_rows_row_by_row(rng):
    subsystems = [random_mild_subsystem(rng) for _ in range(25)]
    num = np.array([g.num.coeffs for g in subsystems])
    den = np.array([g.den.coeffs for g in subsystems])
    for _ in range(10):
        region = random_region(rng)
        rho = rng.uniform(-1.0, 1.0, len(subsystems))
        t_num, t_den = dev.loop_transform_rows(num, den, region, rho)
        for i, g in enumerate(subsystems):
            single = dev.loop_transform(g, region, float(rho[i]))
            assert rational_text(single) == row_text(t_num[i], t_den[i])
