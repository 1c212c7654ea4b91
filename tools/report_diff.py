#!/usr/bin/env python3
"""Compare two ``tools/cli_reports.py`` output directories field by field.

    python3 tools/report_diff.py PARENT_DIR CHANGE_DIR

JSON reports are walked in parallel and CSV tables column by column.  Each
float field that moved is printed once per file, as a JSON path with list
indices written ``[]`` or as a CSV column, with the number of values that
moved and the largest relative change |a - b| / max(|a|, |b|), shown at the
value where it occurs.  Every other difference (a string, a boolean, an
integer, a missing key, a list length, a CSV header, a file present on one
side only, text such as ``exit_codes.txt``) is printed as it is.  The exit
code is 1 if there is any such non-float difference and 0 otherwise.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path


class Diff:
    """Moved floats per (file, field) and the non-float differences."""

    def __init__(self) -> None:
        self.moved: dict[tuple[str, str], list] = {}
        self.other: list[str] = []

    def floats(self, file: str, field: str, where: str, a: float, b: float) -> None:
        if a == b:
            return
        rel = abs(a - b) / max(abs(a), abs(b))
        entry = self.moved.setdefault((file, field), [0, -1.0, ""])
        entry[0] += 1
        if rel > entry[1]:
            entry[1:] = [rel, f"{where}: {a:.12e} -> {b:.12e}"]


def _is_float(value) -> bool:
    return isinstance(value, float)


def _walk(diff: Diff, file: str, path: str, a, b) -> None:
    if _is_float(a) and _is_float(b):
        diff.floats(file, re.sub(r"\[\d+\]", "[]", path), path, a, b)
    elif isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            diff.other.append(f"{file} {path or '.'}: keys {list(a)} -> {list(b)}")
        for key in a:
            if key in b:
                _walk(diff, file, f"{path}.{key}" if path else key, a[key], b[key])
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diff.other.append(f"{file} {path}: length {len(a)} -> {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(diff, file, f"{path}[{i}]", x, y)
    elif type(a) is not type(b) or a != b:
        diff.other.append(f"{file} {path}: {json.dumps(a)} -> {json.dumps(b)}")


def _csv(text: str) -> tuple[list[str], list[list[float]]] | None:
    """Header and float rows of a CSV table, or None if it is not one."""
    lines = text.splitlines()
    if not lines or "," not in lines[0]:
        return None
    try:
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    except ValueError:
        return None
    return lines[0].split(","), rows


def _compare(diff: Diff, file: str, a: str, b: str) -> None:
    if a == b:
        return
    try:
        _walk(diff, file, "", json.loads(a), json.loads(b))
        return
    except json.JSONDecodeError:
        pass
    table_a, table_b = _csv(a), _csv(b)
    if table_a is None or table_b is None:
        diff.other.append(f"{file}: text differs")
        lines_a, lines_b = a.splitlines(), b.splitlines()
        for i, (x, y) in enumerate(zip(lines_a, lines_b)):
            if x != y:
                diff.other.append(f"{file} line {i + 1}: {x!r} -> {y!r}")
        if len(lines_a) != len(lines_b):
            diff.other.append(f"{file}: {len(lines_a)} lines -> {len(lines_b)}")
        return
    (head_a, rows_a), (head_b, rows_b) = table_a, table_b
    if head_a != head_b:
        diff.other.append(f"{file}: header {head_a} -> {head_b}")
        return
    if len(rows_a) != len(rows_b):
        diff.other.append(f"{file}: {len(rows_a)} rows -> {len(rows_b)}")
    for r, (x, y) in enumerate(zip(rows_a, rows_b)):
        if len(x) != len(y):
            diff.other.append(f"{file} row {r + 1}: {len(x)} cells -> {len(y)}")
        for column, u, v in zip(head_a, x, y):
            diff.floats(file, column, f"row {r + 1} {column}", u, v)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: report_diff.py PARENT_DIR CHANGE_DIR\n")
        return 2
    parent, change = (Path(d) for d in argv)
    diff = Diff()
    names_a = {p.name for p in parent.iterdir() if p.is_file()}
    names_b = {p.name for p in change.iterdir() if p.is_file()}
    for name in sorted(names_a ^ names_b):
        diff.other.append(f"{name}: only in {parent if name in names_a else change}")
    for name in sorted(names_a & names_b):
        _compare(diff, name, (parent / name).read_text(), (change / name).read_text())
    for (file, field), (count, rel, where) in diff.moved.items():
        print(f"moved  {file}  {field}  {count} values, largest relative change {rel:.3e} ({where})")
    for line in diff.other:
        print(f"differs  {line}")
    return 1 if diff.other else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
