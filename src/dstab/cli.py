"""Command-line interface.

Commands operate on a scenario JSON file and emit deterministic,
machine-readable reports: identical inputs produce byte-identical output
(fixed field order, floats rendered as %.12e).

Exit codes: 0 success/certified, 1 not certified, 2 input error,
3 numerical failure (and any unexpected error, reported as "internal").
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from . import __version__
from .dstability import certify_thm1, certify_thm2, part_positivity, pole_margins
from .errors import ConvergenceError, DivergenceError, DstabError, PrecisionError, RootFindingError, ScenarioError
from .regions import region_from_spec, region_to_spec, parts
from .scenario import build_model, grid_codes, indexed_model, load_scenario, resolve_equilibrium, synthesize
from .sim import metrics, simulate


# Values formatted per CSV chunk: about 8 k values keep the kernel's working
# set (a 24-byte slot and a few 8-byte temporaries per value) under 2 MB.
_CSV_CHUNK_VALUES = 1 << 13
# The kernel formats |v| in [_FAST_MIN, _FAST_MAX] and zeros; every other
# value, and a value whose scaled fraction lies within _TIE_BAND of one half
# (a possible tie), goes to Python's %.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# The scaled value p = |v| * 10**k < 1e13 rounds twice, in the tabled 10**k
# and in the product, each by u = 2**-53 relative at most: p lies within
# (2u + u**2) * 1e13 ~ 2.22e-3 of the exact value, and floor(p) is exact.  So
# outside a band wider than 2.3e-3 p rounds as the exact value does.
_TIE_BAND = 5e-3
# Powers of ten 10**k tabled for k = 12 - exponent, one either side of the fast range.
_POW_MIN, _POW_MAX = -270, 294


@functools.cache
def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tables of the %.12e kernel, built on first use.

    * 10**k, correctly rounded, for k in [_POW_MIN, _POW_MAX];
    * "0000".."9999" as little-endian uint32 words;
    * the exponent field "e+05" / "e-100" as words 4 and 5 of a slot,
      indexed by exponent + 300.
    """
    pows = np.array([float(f"1e{k}") for k in range(_POW_MIN, _POW_MAX + 1)])

    i = np.arange(10_000)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + ord("0")
    words = np.ascontiguousarray(digits, dtype=np.uint8).view("<u4").ravel()

    e = np.arange(-300, 301)
    mag = np.abs(e)
    field = np.zeros((e.size, 8), dtype=np.uint8)  # bytes 16..23 of a slot
    field[:, 0] = ord("e")
    field[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    field[:, 2] = np.where(mag >= 100, ord("0") + mag // 100, 0)
    field[:, 3] = ord("0") + mag // 10 % 10
    field[:, 4] = ord("0") + mag % 10
    return pows, words, field.view("<u4")[:, 0].copy(), field.view("<u4")[:, 1].copy()


def _format_rows(block: np.ndarray) -> str:
    """The rows of a 2-D float array as CSV lines, each value as '%.12e' % v.

    Each value fills a 24-byte slot of six uint32 words: sign, lead digit and
    point; three 4-digit groups; the exponent field and the separator.  Unused
    bytes stay zero and are dropped in one pass at the end."""
    pows, words, exp_lo, exp_hi = _format_tables()
    v = block.ravel()
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    zero = a == 0.0
    a_fast = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a_fast)).astype(np.int64)
    p = a_fast * pows[12 - e - _POW_MIN]
    # log10 can miss the exponent by one next to a power of ten.
    low, high = p < 1e12, p >= 1e13
    off = np.flatnonzero(low | high)
    if off.size:
        e[off] += high[off].astype(np.int64) - low[off]
        p[off] = a_fast[off] * pows[12 - e[off] - _POW_MIN]
    whole = np.floor(p)
    frac = p - whole
    n = whole.astype(np.int64) + (frac > 0.5)
    # 9.9999999999995e+k and up round to 1.000000000000e+(k+1).
    carry = n == 10**13
    n[carry] = 10**12
    e += carry
    n[zero] = e[zero] = 0

    lead = n // 10**12
    rest = n - lead * 10**12
    slots = np.empty((v.size, 6), dtype="<u4")
    slots[:, 0] = np.where(np.signbit(v), ord("-"), 0) | (ord("0") + lead) << 8 | ord(".") << 16
    slots[:, 1] = words[rest // 10**8]
    slots[:, 2] = words[rest // 10**4 % 10**4]
    slots[:, 3] = words[rest % 10**4]
    slots[:, 4] = exp_lo[e + 300]
    sep = np.full(v.size, ord(","), dtype="<u4")
    sep[block.shape[1] - 1 :: block.shape[1]] = ord("\n")
    slots[:, 5] = exp_hi[e + 300] | sep << 8
    raw = slots.view(np.uint8).reshape(v.size, 24)
    # "-1.234567890123e-300" is the longest text; byte 21, the separator, stays.
    slow = ~(fast | zero) | (np.abs(frac - 0.5) < _TIE_BAND)
    raw[slow, :21] = np.array([b"%.12e" % x for x in v[slow].tolist()], dtype="S21").view(np.uint8).reshape(-1, 21)
    return raw.tobytes().translate(None, b"\0").decode("ascii")


def _csv_chunks(names: list[str], *columns: np.ndarray):
    """Header and lines of a CSV table whose columns are the given 1-D and
    2-D arrays side by side, in chunks of about _CSV_CHUNK_VALUES values, so
    the table is never held as text."""
    yield ",".join(names) + "\n"
    rows = max(1, _CSV_CHUNK_VALUES // len(names))
    for start in range(0, columns[0].shape[0], rows):
        yield _format_rows(np.column_stack([c[start : start + rows] for c in columns]))


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
        return encode_basestring(value)  # json.dumps(value, ensure_ascii=False), minus its set-up
    if isinstance(value, dict):
        inner = ",".join(f'{_fmt(str(k))}:{_fmt(v)}' for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)}")


def dumps(obj) -> str:
    """Deterministic JSON: insertion-ordered fields, %.12e floats."""
    return _fmt(obj)


def _write(path: str | Path, chunks) -> None:
    """Write text chunks to ``path`` in place: the file is opened without
    O_TRUNC and cut at the end of what was written, even when a chunk fails.
    Truncating on open, or renaming a new file over the old one, makes ext4
    flush the file on close, and a rewrite then waits tens of milliseconds;
    in place the file keeps its inode, links and mode.  Only a regular file
    is cut, so /dev/null, /dev/stdout and FIFOs work too."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as stream:
        try:
            stream.writelines(chunks)
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                stream.truncate()


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(out, [text])
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load(args) -> object:
    region = None
    if args.region:
        try:
            region = region_from_spec(json.loads(args.region))
        except ValueError as exc:  # JSONDecodeError included
            raise ScenarioError(f"bad --region override: {exc}") from exc
    return load_scenario(args.scenario, region)


def cmd_poles(args) -> int:
    sc = _load(args)
    model = build_model(sc)
    rows = np.array([(pole.real, pole.imag, margin) for pole, margin in pole_margins(model)]).reshape(-1, 3)
    _emit("".join(_csv_chunks(["re", "im", "margin"], rows)), args.out)
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


def cmd_simulate(args) -> int:
    sc = _load(args)
    if sc.disturbance is None:
        raise ScenarioError("scenario has no disturbance block")
    model = build_model(sc)
    tr = simulate(model, sc.disturbance, t_end=sc.t_end, dt=sc.dt)
    stats = metrics(tr, band=sc.band)
    names = ["t"] + [f"du_{k + 1}" for k in range(tr.du.shape[1])]
    if args.out:
        base = Path(args.out)
        _write(base.with_suffix(".csv"), _csv_chunks(names, tr.t, tr.du))
        _write(base.with_suffix(".metrics.json"), [dumps({"scenario": sc.name, **stats})])
    else:
        sys.stdout.writelines(_csv_chunks(names, tr.t, tr.du))
        sys.stderr.write(dumps({"scenario": sc.name, **stats}) + "\n")
    return 0


def _coeffs_as_json(row: list[complex]) -> list[list[float]]:
    """A coefficient row as [re, im] pairs, ascending, zero padding dropped."""
    while len(row) > 1 and row[-1] == 0:
        row.pop()
    return [[c.real, c.imag] for c in row]


def cmd_positivity(args) -> int:
    sc = _load(args)
    model, reports = indexed_model(sc, resolve_equilibrium(sc))
    payload = {"scenario": sc.name, "parts": []}
    all_ok = True
    for idx, part in enumerate(parts(model.region)):
        nodes = []
        num, den, positivity = part_positivity(model, part, idx, reports[idx] if reports else None)
        for k, (n, d, report) in enumerate(zip(num.tolist(), den.tolist(), positivity)):
            all_ok = all_ok and report.is_positive
            nodes.append({
                "node": k + 1,
                **report.as_dict(),
                "transfer_function": {"num": _coeffs_as_json(n), "den": _coeffs_as_json(d)},
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command parser, built once per process; parse_args keeps no state
    between calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConvergenceError, DivergenceError, PrecisionError, RootFindingError) as exc:
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
