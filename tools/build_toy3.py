#!/usr/bin/env python3
"""Regenerate the shipped 3-node demonstration scenario.

Two storage units feed one constant-power load over a star of 0.1-ohm
lines; gains are chosen so the grid-code certificate passes for a shifted
left-half-plane target.

Run from the repository root:  python3 tools/build_toy3.py [out_dir]
(out_dir defaults to src/dstab/data).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dstab import devices as dev
from dstab.cli import dumps
from dstab.network import AdmittanceMatrix, NodePartition
from dstab.scenario import parse_device

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "dstab" / "data"
NOMINAL = 105.0

BLOCKS = [
    {"node": 1, "type": "ess_boost", "C_farad": 2e-3, "E_volt": 50.0, "U_r_volt": 105.0,
     "R_d_ohm": 0.6, "kP_u": 0.35, "kI_u": 26.5},
    {"node": 2, "type": "ess_buck", "C_farad": 3e-3, "E_volt": 200.0, "U_r_volt": 105.0,
     "R_d_ohm": 0.7, "kP_u": 0.38, "kI_u": 21.0},
    {"node": 3, "type": "cpl", "C_l_farad": 2e-3, "P_watt": 1500.0},
]


def main(out_dir: Path = DATA_DIR) -> None:
    part = NodePartition((0, 1), (2,))
    Y = AdmittanceMatrix([(0, 2, 0.1), (1, 2, 0.1)], 3, part)
    eq = dev.equilibrium_solve(Y, [parse_device(block, 3)[1] for block in BLOCKS], NOMINAL)
    print("toy equilibrium:", [f"{u:.4f}" for u in eq.u_star])
    scenario = {
        "name": "toy3",
        "nominal_voltage_volt": NOMINAL,
        "topology": {
            "nodes": 3,
            "edges": [[1, 3, 0.1], [2, 3, 0.1]],
            "sources": [1, 2],
            "loads": [3],
        },
        "devices": BLOCKS,
        "region": {"kind": "lhp", "alpha": -2.0},
        "equilibrium": {"u_star_volt": list(eq.u_star), "i_star_amp": list(eq.i_star)},
        "disturbance": {"node": 3, "magnitude": 0.01, "start_s": 0.05, "duration_s": 0.02, "shape": "pulse"},
        "simulation": {"t_end_s": 0.6, "dt_s": 2e-5, "band": 0.02},
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "toy3.json"
    out.write_text(dumps(scenario) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the shipped 3-node scenario file.")
    parser.add_argument("out_dir", nargs="?", type=Path, default=DATA_DIR,
                        help="directory to write the scenario file to (default: src/dstab/data)")
    main(parser.parse_args().out_dir)
