"""Command-line interface.

Commands operate on a scenario JSON file and emit deterministic,
machine-readable reports: identical inputs produce byte-identical output
(fixed field order, floats rendered as %.12e).

Exit codes: 0 success/certified, 1 not certified, 2 input error,
3 numerical failure (and any unexpected error, reported as "internal").
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dstability import certify_thm1, certify_thm2, part_positivity, pole_margins
from .errors import ConvergenceError, DstabError, RootFindingError, ScenarioError
from .regions import region_from_spec, region_to_spec, parts
from .scenario import build_model, grid_codes, indexed_model, load_scenario, resolve_equilibrium, synthesize
from .sim import Trajectory, metrics, simulate


# Values formatted per CSV chunk: large enough to amortize the formatting call,
# small enough that a chunk of a 640-node table boxes a few megabytes of floats.
_CSV_CHUNK_VALUES = 1 << 16


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return '"nan"'
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        if value == 0.0:
            value = 0.0  # collapse negative zero for stable output
        return f"{value:.12e}"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(value, dict):
        inner = ",".join(f'{_fmt(str(k))}:{_fmt(v)}' for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)}")


def dumps(obj) -> str:
    """Deterministic JSON: insertion-ordered fields, %.12e floats."""
    return _fmt(obj)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load(args) -> object:
    region = None
    if args.region:
        import json as _json

        try:
            region = region_from_spec(_json.loads(args.region))
        except (_json.JSONDecodeError, ValueError) as exc:
            raise ScenarioError(f"bad --region override: {exc}") from exc
    return load_scenario(args.scenario, region)


def cmd_poles(args) -> int:
    sc = _load(args)
    model = build_model(sc)
    lines = ["re,im,margin"]
    for pole, margin in pole_margins(model):
        lines.append(f"{pole.real:.12e},{pole.imag:.12e},{margin:.12e}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gridcode(args) -> int:
    sc = _load(args)
    codes = grid_codes(sc)
    payload = {"scenario": sc.name, "grid_codes": []}
    ok = True
    for code in codes:
        entry = code.as_dict()
        if not code.ll_assumption_ok:
            ok = False
            entry["note"] = (
                "load virtual admittance exceeds the network damping capacity; "
                "operator intervention required: relax the target region or shed "
                "non-critical constant-power loads"
            )
        payload["grid_codes"].append(entry)
    _emit(dumps(payload), args.out)
    return 0 if ok else 1


def cmd_check(args) -> int:
    sc = _load(args)
    eq = resolve_equilibrium(sc)
    codes = grid_codes(sc, eq) if args.theorem == 2 else None
    # The certifier reuses the positivity each compliant source decided.
    model, reports = indexed_model(sc, eq, codes)
    report = certify_thm1(model, reports) if args.theorem == 1 else certify_thm2(model, codes, reports)
    payload = {"scenario": sc.name, **report.as_dict()}
    _emit(dumps(payload), args.out)
    return 0 if report.certified else 1


def cmd_synthesize(args) -> int:
    sc = _load(args)
    result = synthesize(sc)
    payload = {"scenario": sc.name, **result}
    _emit(dumps(payload), args.out)
    return 0 if result["all_compliant"] else 1


def _write_csv(tr: Trajectory, stream) -> None:
    """Write the trajectory as CSV (t, du_1..du_n; values as %.12e) in chunks
    of about _CSV_CHUNK_VALUES values, so the table is never held as text."""
    n_cols = tr.du.shape[1] + 1
    stream.write("t," + ",".join(f"du_{k + 1}" for k in range(n_cols - 1)) + "\n")
    row_fmt = ",".join(["%.12e"] * n_cols) + "\n"
    rows = max(1, _CSV_CHUNK_VALUES // n_cols)
    for start in range(0, tr.t.shape[0], rows):
        chunk = np.column_stack((tr.t[start : start + rows], tr.du[start : start + rows]))
        stream.write((row_fmt * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def cmd_simulate(args) -> int:
    sc = _load(args)
    if sc.disturbance is None:
        raise ScenarioError("scenario has no disturbance block")
    model = build_model(sc)
    tr = simulate(model, sc.disturbance, t_end=sc.t_end, dt=sc.dt)
    stats = metrics(tr, band=sc.band)
    if args.out:
        base = Path(args.out)
        with base.with_suffix(".csv").open("w") as stream:
            _write_csv(tr, stream)
        base.with_suffix(".metrics.json").write_text(dumps({"scenario": sc.name, **stats}))
    else:
        _write_csv(tr, sys.stdout)
        sys.stderr.write(dumps({"scenario": sc.name, **stats}) + "\n")
    return 0


def _rational_as_json(r) -> dict:
    """Coefficient arrays [re, im] in ascending degree order."""
    return {
        "num": [[c.real, c.imag] for c in r.num.coeffs],
        "den": [[c.real, c.imag] for c in r.den.coeffs],
    }


def cmd_positivity(args) -> int:
    sc = _load(args)
    model, reports = indexed_model(sc, resolve_equilibrium(sc))
    payload = {"scenario": sc.name, "parts": []}
    all_ok = True
    for idx, part in enumerate(parts(model.region)):
        nodes = []
        for k, (g_tilde, report) in enumerate(part_positivity(model, part, idx, reports[idx] if reports else None)):
            all_ok = all_ok and report.is_positive
            nodes.append({
                "node": k + 1,
                **report.as_dict(),
                "transfer_function": _rational_as_json(g_tilde),
            })
        payload["parts"].append({"region": region_to_spec(part), "devices": nodes})
    _emit(dumps(payload), args.out)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstab",
        description="Regional pole placement certification and synthesis for networked systems",
    )
    parser.add_argument("--version", action="version", version=f"dstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to the scenario JSON file")
        p.add_argument("--region", help="override the scenario region (JSON spec)")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.set_defaults(func=func)
        return p

    add("poles", cmd_poles, "closed-loop poles with region margins (CSV)")
    add("gridcode", cmd_gridcode, "broadcastable grid code per region part (JSON)")
    check = add("check", cmd_check, "certify the scenario (JSON report)")
    check.add_argument("--theorem", type=int, choices=(1, 2), default=2,
                       help="1: rotated-network certificate, 2: grid-code certificate")
    add("synthesize", cmd_synthesize, "per-device synthesis bounds and compliance (JSON)")
    add("simulate", cmd_simulate, "disturbance response (CSV trajectory + metrics JSON)")
    add("positivity", cmd_positivity, "positivity report per device and region part (JSON)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        sys.stderr.write(dumps({"error": "input", "message": str(exc)}) + "\n")
        return 2
    except (ConvergenceError, RootFindingError) as exc:
        sys.stderr.write(dumps({"error": "numerical", "message": str(exc)}) + "\n")
        return 3
    except DstabError as exc:
        sys.stderr.write(dumps({"error": "input", "message": str(exc)}) + "\n")
        return 2
    except Exception as exc:
        sys.stderr.write(dumps({"error": "internal", "message": f"{type(exc).__name__}: {exc}"}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
