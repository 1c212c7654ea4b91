"""Scenario files: schema, validation, and model construction.

Scenarios are JSON with explicit units in field names (``R_ohm``,
``C_farad``, ``P_watt``); unit mistakes are the dominant failure mode in
grid tooling.  Node ids in the file are 1-based, matching the usual
benchmark numbering; everything internal is 0-based.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import devices as dev
from .cpoly import TRIM_TOL
from .errors import ScenarioError
from .network import AdmittanceMatrix, GridCode, NodePartition, grid_code
from .regions import Region, parts, region_from_spec
from .sim import DisturbanceSpec
from .dstability import SystemModel

def data_path(name: str) -> Path:
    """Path of a shipped scenario (``toy3``, ``ieee39_default``,
    ``ieee39_synthesized``)."""
    from importlib.resources import files

    return Path(str(files("dstab") / "data" / f"{name}.json"))


# Device type -> its parameter class and the file's field names, in the class's field order.
_DEVICE_TYPES = {
    "ess_boost": (dev.EssBoostParams, ("C_farad", "E_volt", "U_r_volt", "R_d_ohm", "kP_u", "kI_u")),
    "ess_buck": (dev.EssBuckParams, ("C_farad", "E_volt", "U_r_volt", "R_d_ohm", "kP_u", "kI_u")),
    "pv": (dev.PvParams, ("C_farad", "kP_u", "kI_u", "U_r_pv_volt", "i_pv_star_amp", "g_pv_star_siemens")),
    "cpl": (dev.CplParams, ("C_l_farad", "P_watt")),
}


@dataclass
class Scenario:
    """Validated scenario contents (indices already 0-based)."""

    name: str
    nominal_voltage: float
    devices: list[dev.DeviceParams]
    region: Region
    pinned_equilibrium: dev.Equilibrium | None
    y_s: list[list[float]] | None
    disturbance: DisturbanceSpec | None
    t_end: float
    dt: float
    band: float
    network: AdmittanceMatrix


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object, got {obj!r}")
    if key not in obj:
        raise ScenarioError(f"missing field {key!r} in {where}")
    return obj[key]


def _finite(value, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ScenarioError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _num(obj: dict, key: str, where: str) -> float:
    return _finite(_need(obj, key, where), f"field {key!r} in {where}")


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{what} must be a list, got {value!r}")
    return value


def _node_index(raw, n_nodes: int, where: str) -> int:
    if not isinstance(raw, int) or isinstance(raw, bool) or not (1 <= raw <= n_nodes):
        raise ScenarioError(f"node id {raw!r} in {where} must be an integer in 1..{n_nodes}")
    return raw - 1


def parse_device(block: dict, n_nodes: int) -> tuple[int, dev.DeviceParams]:
    where = f"device block {block!r}"
    node = _node_index(_need(block, "node", where), n_nodes, where)
    kind = _need(block, "type", where)
    if not isinstance(kind, str) or kind not in _DEVICE_TYPES:
        raise ScenarioError(f"unknown device type {kind!r} (node {node + 1})")
    where = f"device at node {node + 1} ({kind})"
    cls, names = _DEVICE_TYPES[kind]
    # The one optional field, last in its row, keeps PvParams.g_pv_star when left out.
    vals = [_num(block, name, where) for name in names if name in block or name != "g_pv_star_siemens"]
    try:
        return node, cls(*vals)
    except ValueError as exc:
        raise ScenarioError(f"invalid parameters for {where}: {exc}") from exc


def load_scenario(path: str | Path, region: Region | None = None) -> Scenario:
    """Read and validate a scenario file; ``region`` replaces the file's
    region (which is still validated)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    name = str(raw.get("name", path.stem))
    try:
        name.encode()  # every report is UTF-8 text
    except UnicodeEncodeError as exc:
        raise ScenarioError(f"name {name!r} cannot be encoded as UTF-8: {exc.reason} at position {exc.start}") from exc

    topo = _need(raw, "topology", "scenario")
    n_nodes = _need(topo, "nodes", "topology")
    if not isinstance(n_nodes, int) or isinstance(n_nodes, bool) or n_nodes < 1:
        raise ScenarioError(f"topology.nodes must be a positive integer, got {n_nodes!r}")

    edges = []
    for e in _list(_need(topo, "edges", "topology"), "topology.edges"):
        if not isinstance(e, list) or len(e) != 3:
            raise ScenarioError(f"edge {e!r} must be [i, j, R_ohm]")
        i = _node_index(e[0], n_nodes, "edges")
        j = _node_index(e[1], n_nodes, "edges")
        if i == j:
            raise ScenarioError(f"edge ({e[0]}, {e[1]}) joins node {e[0]} to itself")
        r = _finite(e[2], f"resistance of edge ({e[0]}, {e[1]})")
        if r <= 0:
            raise ScenarioError(f"edge ({e[0]}, {e[1]}) needs a positive resistance, got {r!r}")
        if 1.0 / r == math.inf:
            raise ScenarioError(f"edge ({e[0]}, {e[1]}) has resistance {r!r}, whose conductance 1/R overflows")
        edges.append((i, j, r))

    sources, loads = (
        tuple(_node_index(k, n_nodes, f"topology.{key}") for k in _list(_need(topo, key, "topology"), f"topology.{key}"))
        for key in ("sources", "loads")
    )
    both = sorted(set(sources) & set(loads))
    if both:
        raise ScenarioError(f"nodes {[k + 1 for k in both]} appear in both topology.sources and topology.loads")
    for key, ids in (("sources", sources), ("loads", loads)):
        if len(set(ids)) != len(ids):
            twice = sorted({k + 1 for k in ids if ids.count(k) > 1})
            raise ScenarioError(f"topology.{key} lists nodes {twice} more than once")
    if len(sources) + len(loads) != n_nodes:
        raise ScenarioError("topology.sources and topology.loads must cover every node exactly once")
    partition = NodePartition(sources, loads)

    blocks = _need(raw, "devices", "scenario")
    if not isinstance(blocks, list) or len(blocks) != n_nodes:
        raise ScenarioError(f"need exactly {n_nodes} device blocks, got {len(blocks) if isinstance(blocks, list) else blocks!r}")
    device_list: list[dev.DeviceParams | None] = [None] * n_nodes
    for block in blocks:
        node, params = parse_device(block, n_nodes)
        if device_list[node] is not None:
            raise ScenarioError(f"duplicate device for node {node + 1}")
        device_list[node] = params
    dev.check_roles(device_list, partition)  # type: ignore[arg-type]

    try:
        file_region = region_from_spec(_need(raw, "region", "scenario"))
    except Exception as exc:
        raise ScenarioError(f"bad region spec: {exc}") from exc
    region = region if region is not None else file_region

    pinned = None
    if "equilibrium" in raw and raw["equilibrium"] is not None:
        eq = raw["equilibrium"]
        u, i = (_list(_need(eq, key, "equilibrium"), f"equilibrium.{key}") for key in ("u_star_volt", "i_star_amp"))
        if len(u) != n_nodes or len(i) != n_nodes:
            raise ScenarioError("equilibrium needs u_star_volt and i_star_amp lists of length topology.nodes")
        pinned = dev.Equilibrium(
            tuple(_finite(x, "equilibrium.u_star_volt entry") for x in u),
            tuple(_finite(x, "equilibrium.i_star_amp entry") for x in i),
        )
        # Every device law divides by u*.
        for k, u_k in enumerate(pinned.u_star):
            if u_k <= 0:
                raise ScenarioError(f"equilibrium.u_star_volt at node {k + 1} must be positive, got {u_k!r}")

    y_s = None
    if "y_s" in raw and raw["y_s"] is not None:
        table = raw["y_s"]
        if not isinstance(table, list) or not table:
            raise ScenarioError("y_s must be a nonempty list")
        rows = table if isinstance(table[0], list) else [table]
        for row in rows:
            if not isinstance(row, list) or len(row) != len(sources):
                raise ScenarioError(f"each y_s row must list {len(sources)} source indices")
        n_parts = len(parts(region))
        if len(rows) not in (1, n_parts):
            raise ScenarioError(f"y_s needs 1 row or one row per region part ({n_parts}), got {len(rows)}")
        y_s = [[_finite(v, "y_s entry") for v in row] for row in rows]

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
            )
        except ValueError as exc:
            raise ScenarioError(f"bad disturbance: {exc}") from exc
        shape = str(d.get("shape", "pulse"))
        if shape != "pulse":
            raise ScenarioError(f"bad disturbance: unsupported disturbance shape {shape!r}")

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
    if disturbance is not None:
        # sim.simulate samples the pulse at i * spacing + dt/2, i < n_steps, on its np.linspace grid.
        start, end, ratio = disturbance.start, disturbance.start + disturbance.duration, t_end / dt
        n_steps = round(ratio) if math.isfinite(ratio) else 0
        spacing = n_steps * dt / max(n_steps, 1)
        near = math.ceil(min(max(start / dt - 0.5, 0.0), n_steps))
        if not any(start <= i * spacing + dt / 2 < end for i in range(max(near - 2, 0), min(near + 3, n_steps))):
            raise ScenarioError(
                f"simulation.t_end_s / dt_s ({t_end!r} / {dt!r}) must give a finite step count with a step "
                f"midpoint in the disturbance pulse [{start!r}, {end!r})"
            )
    nominal = _num(raw, "nominal_voltage_volt", "scenario")
    if nominal <= 0:
        raise ScenarioError(f"nominal_voltage_volt must be a finite positive number, got {nominal!r}")
    return Scenario(
        name=name,
        nominal_voltage=nominal,
        devices=device_list,  # type: ignore[arg-type]
        region=region,
        pinned_equilibrium=pinned,
        y_s=y_s,
        disturbance=disturbance,
        t_end=t_end,
        dt=dt,
        band=band,
        network=AdmittanceMatrix(edges, n_nodes, partition),  # validates connectivity
    )


def resolve_equilibrium(sc: Scenario) -> dev.Equilibrium:
    """Pinned equilibrium (validated against the power-flow equations) or a
    fresh Newton solve."""
    if sc.pinned_equilibrium is not None:
        eq = sc.pinned_equilibrium
        u = np.array(eq.u_star)
        with np.errstate(all="ignore"):  # an overflow to inf fails the test below
            worst = float(np.max(np.abs(dev.power_flow_residual(sc.network, sc.devices, u))))
        if not worst <= 1e-6:  # a NaN residual fails too
            raise ScenarioError(f"pinned equilibrium violates the power-flow equations (residual {worst:.3e})")
        i = sc.network.Y @ u
        if float(np.max(np.abs(i - np.array(eq.i_star)))) > 1e-6 * max(1.0, float(np.max(np.abs(i)))):
            raise ScenarioError("pinned i_star is inconsistent with Y u_star")
        return eq
    return dev.equilibrium_solve(sc.network, sc.devices, sc.nominal_voltage)


def load_pairs(sc: Scenario, eq: dev.Equilibrium) -> tuple[tuple[float, float], ...]:
    """(capacitance, conductance) per load node, in partition order."""
    out = []
    for k in sc.network.partition.load_ids:
        cpl = sc.devices[k]
        y_l = dev.cpl_conductance(cpl, eq.u_star[k])
        if cpl.C_l <= TRIM_TOL * y_l:  # the trim rule would drop C_l
            raise ScenarioError(f"invalid load model at node {k + 1}: C_l = {cpl.C_l} is lost next to "
                                f"y_l = {y_l} in double precision")
        out.append((cpl.C_l, y_l))
    return tuple(out)


def source_coefficients(sc: Scenario, eq: dev.Equilibrium) -> tuple[dev.GenericSecondOrder, ...]:
    """Each source's model at its operating voltage, in partition order: the
    one place a source's parameters become its generic second-order form."""
    out = []
    for k in sc.network.partition.source_ids:
        try:
            out.append(dev.source_coeffs(sc.devices[k], eq.u_star[k]))
        except ValueError as exc:
            raise ScenarioError(f"invalid source model at node {k + 1}: {exc}") from exc
    return tuple(out)


def build_model(sc: Scenario, eq: dev.Equilibrium | None = None) -> SystemModel:
    """System model with subsystem transfer functions at the operating point
    (``eq``, resolved here when not given)."""
    eq = eq or resolve_equilibrium(sc)
    subsystems: list = [None] * sc.network.n_nodes
    for k, g in zip(sc.network.partition.source_ids, source_coefficients(sc, eq)):
        subsystems[k] = g.tf
    for k in sc.network.partition.load_ids:
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


def compliance(
    sc: Scenario, eq: dev.Equilibrium, codes: list[GridCode],
) -> list[list[dev.ComplianceReport]]:
    """The device side run by every source on every part's broadcast: each
    source's own model at its own operating voltage and the grid code,
    nothing else; one batched :func:`devices.check_compliance` per part."""
    coeffs = source_coefficients(sc, eq)
    return [dev.check_compliance(coeffs, code) for code in codes]


def chosen_indices(reports: list[list[dev.ComplianceReport]]) -> tuple[tuple[float, ...], ...]:
    """The y_s table of a :func:`compliance` result: the chosen index per part
    and source.  Non-compliant devices report index 0; certification then
    fails on the network or device condition instead of propagating NaN."""
    return tuple(tuple(r.y_s if r.compliant else 0.0 for r in row) for row in reports)


def indexed_model(
    sc: Scenario, eq: dev.Equilibrium, codes: list[GridCode] | None = None,
) -> tuple[SystemModel, list[list[dev.ComplianceReport]] | None]:
    """The model at ``eq`` with the source indices that ``check`` certifies:
    the pinned y_s table, else each source's synthesized index against the
    grid codes ``codes`` (built here when not given).  Returns the
    :func:`compliance` reports that chose the indices, or None when pinned."""
    if sc.y_s is not None:
        return build_model(sc, eq), None
    reports = compliance(sc, eq, codes if codes is not None else grid_codes(sc, eq))
    return build_model(replace(sc, y_s=chosen_indices(reports)), eq), reports


def synthesize(sc: Scenario) -> dict:
    """Per-part, per-source synthesis: grid codes, bounds, compliance and the
    chosen maximal indices, as the synthesize command reports them."""
    eq = resolve_equilibrium(sc)
    codes = grid_codes(sc, eq)
    reports = compliance(sc, eq, codes)
    part_entries = [
        [{"node": k + 1, **report.as_dict()} for k, report in zip(sc.network.partition.source_ids, row)]
        for row in reports
    ]
    return {
        "grid_codes": [c.as_dict() for c in codes],
        "parts": part_entries,
        "y_s": chosen_indices(reports),
        "all_compliant": all(e["compliant"] for part in part_entries for e in part),
    }
