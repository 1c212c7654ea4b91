"""Scenario files: schema, validation, and model construction.

Scenarios are JSON with explicit units in field names (``R_ohm``,
``C_farad``, ``P_watt``); unit mistakes are the dominant failure mode in
grid tooling.  Node ids in the file are 1-based, matching the usual
benchmark numbering; everything internal is 0-based.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import devices as dev
from .errors import ScenarioError
from .network import AdmittanceMatrix, GridCode, NodePartition, build_admittance, grid_code
from .regions import Region, parts, region_from_spec
from .sim import DisturbanceSpec
from .dstability import SystemModel

def data_path(name: str) -> Path:
    """Path of a shipped scenario (``toy3``, ``ieee39_default``,
    ``ieee39_synthesized``)."""
    from importlib.resources import files

    return Path(str(files("dstab") / "data" / f"{name}.json"))


_DEVICE_FIELDS = {
    "ess_boost": ("C_farad", "E_volt", "U_r_volt", "R_d_ohm", "kP_u", "kI_u"),
    "ess_buck": ("C_farad", "E_volt", "U_r_volt", "R_d_ohm", "kP_u", "kI_u"),
    "pv": ("C_farad", "kP_u", "kI_u", "U_r_pv_volt", "i_pv_star_amp"),
    "cpl": ("C_l_farad", "P_watt"),
}


@dataclass
class Scenario:
    """Validated scenario contents (indices already 0-based)."""

    name: str
    nominal_voltage: float
    n_nodes: int
    edges: list[tuple[int, int, float]]
    partition: NodePartition
    devices: list[dev.DeviceParams]
    region: Region
    pinned_equilibrium: dev.Equilibrium | None
    y_s: list[list[float]] | None
    disturbance: DisturbanceSpec | None
    t_end: float = 0.5
    dt: float = 1e-4
    band: float = 0.02
    path: Path | None = None
    _network: AdmittanceMatrix | None = field(default=None, repr=False)

    @property
    def network(self) -> AdmittanceMatrix:
        if self._network is None:
            self._network = build_admittance(self.edges, self.n_nodes, self.partition)
        return self._network


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioError(f"missing field {key!r} in {where}")
    return obj[key]


def _num(obj: dict, key: str, where: str) -> float:
    value = _need(obj, key, where)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"field {key!r} in {where} must be a number, got {value!r}")
    return float(value)


def _node_index(raw, n_nodes: int, where: str) -> int:
    if not isinstance(raw, int) or isinstance(raw, bool) or not (1 <= raw <= n_nodes):
        raise ScenarioError(f"node id {raw!r} in {where} must be an integer in 1..{n_nodes}")
    return raw - 1


def _parse_device(block: dict, n_nodes: int) -> tuple[int, dev.DeviceParams]:
    where = f"device block {block!r}"
    node = _node_index(_need(block, "node", where), n_nodes, where)
    kind = _need(block, "type", where)
    if kind not in _DEVICE_FIELDS:
        raise ScenarioError(f"unknown device type {kind!r} (node {node + 1})")
    where = f"device at node {node + 1} ({kind})"
    vals = {name: _num(block, name, where) for name in _DEVICE_FIELDS[kind]}
    try:
        if kind == "ess_boost":
            params: dev.DeviceParams = dev.EssBoostParams(
                C=vals["C_farad"], E=vals["E_volt"], U_r=vals["U_r_volt"],
                R_d=vals["R_d_ohm"], kP_u=vals["kP_u"], kI_u=vals["kI_u"],
            )
        elif kind == "ess_buck":
            params = dev.EssBuckParams(
                C=vals["C_farad"], E=vals["E_volt"], U_r=vals["U_r_volt"],
                R_d=vals["R_d_ohm"], kP_u=vals["kP_u"], kI_u=vals["kI_u"],
            )
        elif kind == "pv":
            params = dev.PvParams(
                C=vals["C_farad"], kP_u=vals["kP_u"], kI_u=vals["kI_u"],
                U_r_pv=vals["U_r_pv_volt"], i_pv_star=vals["i_pv_star_amp"],
                g_pv_star=float(block.get("g_pv_star_siemens", -0.5)),
            )
        else:
            params = dev.CplParams(C_l=vals["C_l_farad"], P=vals["P_watt"])
    except ValueError as exc:
        raise ScenarioError(f"invalid parameters for {where}: {exc}") from exc
    return node, params


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must contain a JSON object")

    topo = _need(raw, "topology", "scenario")
    n_nodes = _need(topo, "nodes", "topology")
    if not isinstance(n_nodes, int) or n_nodes < 1:
        raise ScenarioError(f"topology.nodes must be a positive integer, got {n_nodes!r}")

    edges = []
    for e in _need(topo, "edges", "topology"):
        if not isinstance(e, (list, tuple)) or len(e) != 3:
            raise ScenarioError(f"edge {e!r} must be [i, j, R_ohm]")
        i = _node_index(e[0], n_nodes, "edges")
        j = _node_index(e[1], n_nodes, "edges")
        r = e[2]
        if not isinstance(r, (int, float)) or r <= 0:
            raise ScenarioError(f"edge ({e[0]}, {e[1]}) needs a positive resistance, got {r!r}")
        edges.append((i, j, float(r)))

    sources = tuple(_node_index(k, n_nodes, "topology.sources") for k in _need(topo, "sources", "topology"))
    loads = tuple(_node_index(k, n_nodes, "topology.loads") for k in _need(topo, "loads", "topology"))
    partition = NodePartition(sources, loads)
    if not partition.covers(n_nodes):
        raise ScenarioError("topology.sources and topology.loads must cover every node exactly once")

    blocks = _need(raw, "devices", "scenario")
    if not isinstance(blocks, list) or len(blocks) != n_nodes:
        raise ScenarioError(f"need exactly {n_nodes} device blocks, got {len(blocks) if isinstance(blocks, list) else blocks!r}")
    device_list: list[dev.DeviceParams | None] = [None] * n_nodes
    for block in blocks:
        node, params = _parse_device(block, n_nodes)
        if device_list[node] is not None:
            raise ScenarioError(f"duplicate device for node {node + 1}")
        device_list[node] = params
    for k in sources:
        if isinstance(device_list[k], dev.CplParams):
            raise ScenarioError(f"source node {k + 1} carries a load device")
    for k in loads:
        if not isinstance(device_list[k], dev.CplParams):
            raise ScenarioError(f"load node {k + 1} must carry a CPL device")

    try:
        region = region_from_spec(_need(raw, "region", "scenario"))
    except Exception as exc:
        raise ScenarioError(f"bad region spec: {exc}") from exc

    pinned = None
    if "equilibrium" in raw and raw["equilibrium"] is not None:
        eq = raw["equilibrium"]
        u = eq.get("u_star_volt")
        i = eq.get("i_star_amp")
        if not isinstance(u, list) or not isinstance(i, list) or len(u) != n_nodes or len(i) != n_nodes:
            raise ScenarioError("equilibrium needs u_star_volt and i_star_amp lists of length topology.nodes")
        pinned = dev.Equilibrium(tuple(float(x) for x in u), tuple(float(x) for x in i))

    y_s = None
    if "y_s" in raw and raw["y_s"] is not None:
        table = raw["y_s"]
        if not isinstance(table, list) or not table:
            raise ScenarioError("y_s must be a nonempty list")
        rows = table if isinstance(table[0], list) else [table]
        for row in rows:
            if len(row) != len(sources):
                raise ScenarioError(f"each y_s row must list {len(sources)} source indices")
        y_s = [[float(v) for v in row] for row in rows]

    disturbance = None
    if "disturbance" in raw and raw["disturbance"] is not None:
        d = raw["disturbance"]
        node = _node_index(_need(d, "node", "disturbance"), n_nodes, "disturbance")
        if node not in loads:
            raise ScenarioError(f"disturbance node {d['node']} is not a load node")
        try:
            disturbance = DisturbanceSpec(
                node=node,
                magnitude=_num(d, "magnitude", "disturbance"),
                start=_num(d, "start_s", "disturbance"),
                duration=_num(d, "duration_s", "disturbance"),
                shape=str(d.get("shape", "pulse")),
            )
        except ValueError as exc:
            raise ScenarioError(f"bad disturbance: {exc}") from exc

    sim_block = raw.get("simulation") or {}
    if not isinstance(sim_block, dict):
        raise ScenarioError(f"simulation must be an object, got {sim_block!r}")
    t_end, dt, band = (
        _num(sim_block, key, "simulation") if key in sim_block else default
        for key, default in (("t_end_s", 0.5), ("dt_s", 1e-4), ("band", 0.02))
    )
    for key, value in (("t_end_s", t_end), ("dt_s", dt)):
        if not (math.isfinite(value) and value > 0):
            raise ScenarioError(f"simulation.{key} must be a finite positive number, got {value!r}")
    if not 0.0 < band < 1.0:
        raise ScenarioError(f"simulation.band must lie in (0, 1), got {band!r}")
    if disturbance is not None and t_end <= disturbance.start + disturbance.duration:
        raise ScenarioError(
            f"simulation.t_end_s ({t_end!r}) must exceed the end of the disturbance pulse "
            f"({disturbance.start + disturbance.duration!r})"
        )
    scenario = Scenario(
        name=str(raw.get("name", path.stem)),
        nominal_voltage=_num(raw, "nominal_voltage_volt", "scenario"),
        n_nodes=n_nodes,
        edges=edges,
        partition=partition,
        devices=device_list,  # type: ignore[arg-type]
        region=region,
        pinned_equilibrium=pinned,
        y_s=y_s,
        disturbance=disturbance,
        t_end=t_end,
        dt=dt,
        band=band,
        path=path,
    )
    scenario.network  # force topology validation (connectivity, Laplacian)
    return scenario


def resolve_equilibrium(sc: Scenario) -> dev.Equilibrium:
    """Pinned equilibrium (validated against the power-flow equations) or a
    fresh Newton solve."""
    if sc.pinned_equilibrium is not None:
        eq = sc.pinned_equilibrium
        u = np.array(eq.u_star)
        residual = dev.power_flow_residual(sc.network, sc.devices, u)
        if float(np.max(np.abs(residual))) > 1e-6:
            raise ScenarioError(
                f"pinned equilibrium violates the power-flow equations "
                f"(residual {float(np.max(np.abs(residual))):.3e})"
            )
        i = sc.network.Y @ u
        if float(np.max(np.abs(i - np.array(eq.i_star)))) > 1e-6 * max(1.0, float(np.max(np.abs(i)))):
            raise ScenarioError("pinned i_star is inconsistent with Y u_star")
        return eq
    return dev.equilibrium_solve(sc.network, sc.devices, sc.nominal_voltage)


def load_pairs(sc: Scenario, eq: dev.Equilibrium) -> tuple[tuple[float, float], ...]:
    """(capacitance, conductance) per load node, in partition order."""
    out = []
    for k in sc.partition.load_ids:
        cpl = sc.devices[k]
        assert isinstance(cpl, dev.CplParams)
        out.append((cpl.C_l, dev.cpl_conductance(cpl, eq.u_star[k])))
    return tuple(out)


def source_coefficients(sc: Scenario, eq: dev.Equilibrium) -> tuple[dev.GenericSecondOrder, ...]:
    return tuple(
        dev.source_coeffs(sc.devices[k], eq.u_star[k]) for k in sc.partition.source_ids
    )


def build_model(sc: Scenario, eq: dev.Equilibrium | None = None) -> SystemModel:
    """System model with subsystem transfer functions at the operating point
    (``eq``, resolved here when not given)."""
    eq = eq or resolve_equilibrium(sc)
    subsystems: list = [None] * sc.n_nodes
    for k in sc.partition.source_ids:
        subsystems[k] = dev.source_coeffs(sc.devices[k], eq.u_star[k]).tf
    for k in sc.partition.load_ids:
        subsystems[k] = dev.cpl_tf(sc.devices[k], eq.u_star[k])
    return SystemModel(
        subsystems=tuple(subsystems),
        network=sc.network,
        region=sc.region,
        load_cy=load_pairs(sc, eq),
        y_s=tuple(tuple(row) for row in sc.y_s) if sc.y_s is not None else None,
        equilibrium_u=eq.u_star,
    )


def grid_codes(sc: Scenario, eq: dev.Equilibrium | None = None) -> list[GridCode]:
    eq = eq or resolve_equilibrium(sc)
    pairs = list(load_pairs(sc, eq))
    return [grid_code(sc.network, part, pairs) for part in parts(sc.region)]


def synthesize(sc: Scenario, eq: dev.Equilibrium | None = None) -> dict:
    """Per-part, per-source synthesis: grid codes, bounds, compliance and the
    chosen maximal indices.  Used by the synthesize command and as the y_s
    default for grid-code certification."""
    eq = eq or resolve_equilibrium(sc)
    codes = grid_codes(sc, eq)
    coeffs = source_coefficients(sc, eq)
    part_entries = []
    y_s_rows: list[list[float]] = []
    for code in codes:
        entries = []
        row = []
        for pos, k in enumerate(sc.partition.source_ids):
            # Non-compliant devices report index 0; certification then fails
            # on the network or device condition instead of propagating NaN.
            if not code.ll_assumption_ok:
                entries.append({"node": k + 1, "compliant": False, "binding": "ll_assumption"})
                row.append(0.0)
                continue
            report = dev.check_compliance(coeffs[pos], code)
            entry = {"node": k + 1}
            entry.update(report.as_dict())
            entry.pop("positivity", None)
            entries.append(entry)
            row.append(report.y_s if report.y_s is not None else 0.0)
        part_entries.append(entries)
        y_s_rows.append(row)
    return {
        "grid_codes": [c.as_dict() for c in codes],
        "parts": part_entries,
        "y_s": y_s_rows,
        "all_compliant": all(e.get("compliant", False) for part in part_entries for e in part),
    }
