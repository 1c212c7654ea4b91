"""Sanity of the shipped scenario files."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from dstab.devices import check_compliance, source_coeffs
from dstab.scenario import grid_codes, load_scenario, resolve_equilibrium, synthesize

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "dstab" / "data"
TOOLS = ROOT / "tools"

# Proportional-gain ladder the boost units are synthesized on.
KP_LADDER = (0.35, 0.36, 0.37, 0.38, 0.39, 0.40)


@pytest.fixture(scope="module")
def default():
    return load_scenario(DATA / "ieee39_default.json")


@pytest.fixture(scope="module")
def tuned():
    return load_scenario(DATA / "ieee39_synthesized.json")


class TestIeee39Files:
    def test_topology_shape(self, default):
        assert default.network.n_nodes == 39
        assert len(default.network.lines) == 46
        assert all(r == pytest.approx(0.1) for _, _, r in default.network.lines)
        assert len(default.network.partition.source_ids) == 24
        assert len(default.network.partition.load_ids) == 15

    def test_both_files_share_topology(self, default, tuned):
        assert default.network == tuned.network

    def test_pinned_equilibria_validate(self, default, tuned):
        for sc in (default, tuned):
            eq = resolve_equilibrium(sc)
            assert min(eq.u_star) > 0.9 * sc.nominal_voltage

    def test_retuning_preserves_operating_point(self, default, tuned):
        eq_default = resolve_equilibrium(default)
        eq_tuned = resolve_equilibrium(tuned)
        drift = max(abs(a - b) for a, b in zip(eq_default.u_star, eq_tuned.u_star))
        assert drift < 1e-8

    def test_synthesized_gains(self, tuned):
        # Every boost unit carries the tuned template and the smallest
        # proportional gain on the ladder that complies with every part's
        # broadcast grid code; the rung below fails on some part.
        raw = json.loads((DATA / "ieee39_synthesized.json").read_text())
        eq = resolve_equilibrium(tuned)
        codes = grid_codes(tuned, eq)
        boost = [b for b in raw["devices"] if b["type"] == "ess_boost"]
        assert boost
        for b in boost:
            assert b["kI_u"] == 26.5
            assert b["R_d_ohm"] == pytest.approx(0.6 * 1.18)
            assert b["kP_u"] in KP_LADDER
            rung = KP_LADDER.index(b["kP_u"])
            device = tuned.devices[b["node"] - 1]
            u_star = eq.u_star[b["node"] - 1]
            assert all(check_compliance([source_coeffs(device, u_star)], code)[0].compliant for code in codes)
            if rung > 0:
                lower = dataclasses.replace(device, kP_u=KP_LADDER[rung - 1])
                assert not all(check_compliance([source_coeffs(lower, u_star)], code)[0].compliant for code in codes)
        assert synthesize(tuned)["all_compliant"]
        buck = [b for b in raw["devices"] if b["type"] == "ess_buck"]
        assert all(b["kP_u"] == 0.38 and b["kI_u"] == 21.0 for b in buck)
        pv = [b for b in raw["devices"] if b["type"] == "pv"]
        assert all(b["kI_u"] == 1.0 for b in pv)

    def test_generator_reproduces_shipped_files(self, tmp_path):
        # The shipped files are the generator's output, byte for byte.
        spec = importlib.util.spec_from_file_location("build_ieee39", TOOLS / "build_ieee39.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main(tmp_path)
        for name in ("ieee39_default.json", "ieee39_synthesized.json"):
            assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name

    def test_region_is_three_part_intersection(self, default):
        from dstab.regions import CompositeRegion

        assert isinstance(default.region, CompositeRegion)
        assert len(default.region.parts) == 3


class TestToyFile:
    def test_generator_reproduces_shipped_file(self, tmp_path):
        spec = importlib.util.spec_from_file_location("build_toy3", TOOLS / "build_toy3.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main(tmp_path)
        assert (tmp_path / "toy3.json").read_bytes() == (DATA / "toy3.json").read_bytes()

    def test_loads_and_validates(self):
        sc = load_scenario(DATA / "toy3.json")
        assert sc.network.n_nodes == 3
        assert sc.disturbance is not None
        eq = resolve_equilibrium(sc)
        assert len(eq.u_star) == 3
