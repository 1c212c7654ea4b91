"""The tooling: ``tools/report_diff.py`` separates moved floats from every
other difference between two ``tools/cli_reports.py`` directories,
``tools/cli_reports.py`` records a child's warnings without their location
and writes ``simulate`` reports over longer files,
the functions the benchmark traces exist, no module imports a name it
never reads, every public name in ``src/dstab`` has a caller outside the
tests, and only ``dstab.devices`` tells one device class from another."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REPORT_DIFF = ROOT / "tools" / "report_diff.py"
REPORT = '{"certified":true,"parts":[{"margin":%s,"failed_condition":"%s"}]}\n'


def report_diff(tmp_path: Path, change: dict[str, str]) -> tuple[int, str]:
    """Exit code and stdout of report_diff on a one-report parent directory
    and a change directory holding ``change``'s files."""
    parent, changed = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    changed.mkdir()
    (parent / "toy3.check1.out").write_text(REPORT % ("1.000000000000e-01", "none"))
    (parent / "exit_codes.txt").write_text("toy3 check1 0\n")
    for name, text in {"toy3.check1.out": REPORT % ("1.000000000000e-01", "none"),
                       "exit_codes.txt": "toy3 check1 0\n", **change}.items():
        (changed / name).write_text(text)
    proc = subprocess.run([sys.executable, str(REPORT_DIFF), str(parent), str(changed)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_identical_directories_exit_0(tmp_path):
    assert report_diff(tmp_path, {}) == (0, "")


def test_moved_float_is_listed_and_exits_0(tmp_path):
    code, out = report_diff(tmp_path, {"toy3.check1.out": REPORT % ("1.000000000001e-01", "none")})
    assert code == 0
    assert out.startswith("moved  toy3.check1.out  parts[].margin  1 values")
    assert "differs" not in out


@pytest.mark.parametrize("change", [
    {"toy3.check1.out": REPORT % ("1.000000000000e-01", "real_part")},
    {"exit_codes.txt": "toy3 check1 1\n"},
], ids=["verdict-string", "exit-code"])
def test_changed_verdict_or_exit_code_exits_1(tmp_path, change):
    code, out = report_diff(tmp_path, change)
    assert code == 1
    assert "differs" in out


def load_cli_reports():
    spec = importlib.util.spec_from_file_location("cli_reports", ROOT / "tools" / "cli_reports.py")
    cli_reports = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_reports)
    return cli_reports


def test_report_tool_keeps_category_and_message_of_a_warning(tmp_path):
    cli_reports = load_cli_reports()
    raw = json.loads((ROOT / "src" / "dstab" / "data" / "toy3.json").read_text())
    raw["simulation"].update(dt_s=1e-3, t_end_s=0.1)  # a step RK4 amplifies a decaying mode at
    scenario = tmp_path / "coarse.json"
    scenario.write_text(json.dumps(raw))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "dstab.cli", "simulate", str(scenario), "--out", str(tmp_path / "sim")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    [(category, message)] = cli_reports.WARNING_LINE.findall(proc.stderr)
    assert category == "RuntimeWarning"
    assert message.startswith("step dt = 0.001 s is unstable for RK4: a decaying mode has |R(dt*eig)| = ")


def test_report_tool_writes_simulate_over_a_longer_file(tmp_path):
    cli_reports = load_cli_reports()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    scenario = str(ROOT / "src" / "dstab" / "data" / "toy3.json")
    fresh = subprocess.run([sys.executable, "-m", "dstab.cli", "simulate", scenario], env=env, capture_output=True)
    assert fresh.returncode == 0
    base = tmp_path / "toy3"
    argv_cli = [sys.executable, "-m", "dstab.cli", "simulate", scenario, "--out", str(base)]
    cli_reports.prefill(argv_cli, env, base)
    files = [(base.with_suffix(".csv"), fresh.stdout), (base.with_suffix(".metrics.json"), fresh.stderr[:-1])]
    for path, report in files:
        assert path.read_bytes() == report + cli_reports.STALE_TAIL
    assert subprocess.run(argv_cli, env=env, capture_output=True).returncode == 0
    for path, report in files:
        assert path.read_bytes() == report


def test_benchmark_trace_targets_resolve():
    # bench/run.py --trace 1 looks each traced function up by name.
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    for name, (module, function) in bench_run.TRACED.items():
        assert callable(getattr(importlib.import_module(module), function, None)), name


def unused_imports(path: Path) -> list[str]:
    """The names a module imports at any depth but never loads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_reads():
    # dstab/__init__.py imports to re-export; every other module reads what it imports.
    modules = [p for d in ("src/dstab", "tests", "tools") for p in sorted((ROOT / d).glob("*.py"))
               if p != ROOT / "src" / "dstab" / "__init__.py"]
    assert len(modules) > 20
    assert {str(p.relative_to(ROOT)): names for p in modules if (names := unused_imports(p))} == {}


def test_unused_import_scan_sees_every_import_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
                      "from math import pi, tau as t\n\ndef f():\n    import sys\n    return np.pi + pi\n")
    assert unused_imports(module) == ["os", "sys", "t"]


def public_definitions(path: Path) -> set[str]:
    """The module-level functions and classes of a module, and the methods of
    its classes, whose names start with no underscore."""
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body if isinstance(item, ast.FunctionDef))
    return {name for name in names if not name.startswith("_")}


def named(path: Path) -> set[str]:
    """Every name a module loads, stores or imports, every attribute it reads
    or writes, and every string constant it holds."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_name_in_src_has_a_caller_outside_the_tests():
    # A function the tests alone call is test code; the pole oracle and the
    # locator of the shipped scenarios are the library's own entry points.
    package = [p for p in sorted((ROOT / "src" / "dstab").glob("*.py")) if p.name != "__init__.py"]
    callers = package + [p for d in ("bench", "tools") for p in sorted((ROOT / d).glob("*.py"))
                         if not p.name.startswith("test_")]
    seen = set().union(*map(named, callers)) | {"verify_region", "data_path"}
    assert {str(p.relative_to(ROOT)): names for p in package if (names := sorted(public_definitions(p) - seen))} == {}


def test_polynomial_containers_define_no_arithmetic():
    from dstab.cpoly import CPoly, CRational

    for cls in (CPoly, CRational):
        assert not {"__add__", "__sub__", "__mul__", "__call__"} & set(vars(cls)), cls.__name__


def test_public_name_scan_sees_strings_attributes_and_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import a.b\nfrom c import d as e\nTRACED = {'k': ('m', 'f')}\n\n"
                      "class K:\n    def g(self):\n        return self.h\n\n    def _p(self):\n        pass\n"
                      "\n\ndef _q():\n    pass\n")
    assert public_definitions(module) == {"K", "g"}
    assert {"a", "b", "d", "TRACED", "k", "m", "f", "self", "h"} <= named(module)
    assert not {"K", "g", "_p", "_q"} & named(module)


DEVICE_CLASSES = {"EssBoostParams", "EssBuckParams", "PvParams", "CplParams"}


def device_class_checks(path: Path) -> list[int]:
    """The lines of a module's ``isinstance`` calls that name a device
    parameter class, bare or as an attribute, alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            named_classes = {getattr(n, "id", None) or getattr(n, "attr", None) for arg in node.args[1:]
                             for n in ast.walk(arg)}
            if named_classes & DEVICE_CLASSES:
                lines.append(node.lineno)
    return sorted(lines)


def test_only_the_device_module_decides_a_device_role():
    # A node's device role and power-flow law are decided in dstab.devices alone.
    package = [p for p in sorted((ROOT / "src" / "dstab").glob("*.py")) if p.name != "devices.py"]
    assert len(package) > 5
    assert {str(p.relative_to(ROOT)): lines for p in package if (lines := device_class_checks(p))} == {}


def test_device_class_scan_sees_every_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import dstab.devices as dev\nfrom dstab.devices import PvParams\n\n\ndef f(d):\n"
                      "    return (isinstance(d, dev.CplParams) or isinstance(d, (int, PvParams))\n"
                      "            or isinstance(d, int) or isinstance(d.CplParams, float))\n")
    assert device_class_checks(module) == [6, 6]
