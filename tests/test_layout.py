"""Source layout rules: every import of the package sits at module level,
no module loads hashlib, numpy.random, argparse or fractions, the projection
module imports no fit or verdict module, every name a
module exports exists, every name the benchmark tracer summarizes exists in
the package, README's table of config keys lists exactly the keys a config
may set, README names every constant a module exports and every name `bpu`
exports."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

from bpu_lab import bpu, experiments

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bpu_lab"
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"


def function_imports(path: Path) -> set[str]:
    """Locations `file:line` of import statements inside function bodies."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {f"{path.name}:{node.lineno}"
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}


def test_no_imports_inside_functions():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = sorted(set().union(*(function_imports(p) for p in modules)))
    assert not found, f"imports inside function bodies: {', '.join(found)}"


# Modules a CLI process must not load, with the peak RSS each one costs it.
_HEAVY_MODULES = {
    "hashlib": "its _hashlib loads OpenSSL's libcrypto, +3.6 MB",
    "numpy.random": "+6.6 MB, and it imports hashlib through secrets",
    "argparse": "+0.5 MB, with the gettext and locale it loads",
    "fractions": "+0.35 MB, with decimal and _decimal",
}


def heavy_uses(path: Path) -> set[str]:
    """Locations `file:line module` of imports of, or `np.random` references
    to, the modules in _HEAVY_MODULES."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            names = ["numpy.random"]
        else:
            continue
        found |= {f"{path.name}:{node.lineno} {name}" for name in names
                  if name in _HEAVY_MODULES}
    return found


def test_no_heavy_stdlib_or_numpy_modules():
    found = sorted(set().union(*(heavy_uses(p) for p in sorted(SRC.glob("*.py")))))
    costs = "; ".join(f"{name}: {cost}" for name, cost in _HEAVY_MODULES.items())
    assert not found, (f"modules that load what a CLI process does not need ({costs}): "
                       f"{', '.join(found)}")


def package_imports(path: Path) -> set[str]:
    """The package modules a module imports by `from` statements, relative or absolute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").split(".")[0] == "bpu_lab"):
            module = (node.module or "").removeprefix("bpu_lab").strip(".")
            found |= {module} if module else {alias.name for alias in node.names}
    return found


def test_projection_module_imports_no_fit_or_verdict_module():
    # bpu projects and evaluates; asymptotics fits, calibration and
    # experiments judge, so they build on bpu and never the other way round.
    imported = package_imports(SRC / "bpu.py")
    assert {"hardy", "leaf", "geometry"} <= imported
    assert not imported & {"asymptotics", "calibration", "experiments"}, sorted(imported)


def test_every_exported_name_resolves():
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "bpu_lab" if path.stem == "__init__" else f"bpu_lab.{path.stem}"
        mod = importlib.import_module(name)
        missing += [f"{name}.{item}" for item in getattr(mod, "__all__", ())
                    if not hasattr(mod, item)]
    assert not missing, f"names in __all__ that the module lacks: {', '.join(missing)}"


def traced_names(path: Path) -> set[tuple[str, str]]:
    """The (layer, name) string pairs in the tracer source whose layer is one
    of its LAYERS; read with ast, never imported."""
    tree = ast.parse(path.read_text(), filename=str(path))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    pairs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) == 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
            layer, name = (e.value for e in node.elts)
            if layer in layers:
                pairs.add((layer, name))
    return pairs


def test_benchmark_traced_names_exist():
    pairs = traced_names(TRACER)
    assert len(pairs) >= 17
    missing = []
    for layer, name in sorted(pairs):
        obj = importlib.import_module(f"bpu_lab.{layer}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{layer}.{name}")
    assert not missing, f"names the tracer summarizes but the package lacks: {', '.join(missing)}"


_KEY_TABLE_HEADER = "| key | default | read by |"


def readme_config_keys(text: str) -> list[str]:
    """The keys in the first cell of each row of README's config-key table."""
    lines = text.splitlines()
    start = lines.index(_KEY_TABLE_HEADER) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(re.fullmatch(r"\| `(\w+)` \|.*", line).group(1))
    return rows


def test_readme_key_table_lists_exactly_the_config_keys():
    text = README.read_text()
    keys = readme_config_keys(text)
    assert len(keys) == len(set(keys)) == 10
    assert set(keys) == experiments._CONFIG_KEYS
    # The check sees a row dropped from the table.
    dropped = "\n".join(line for line in text.splitlines() if not line.startswith("| `seed` |"))
    assert set(readme_config_keys(dropped)) == experiments._CONFIG_KEYS - {"seed"}


def test_readme_names_every_exported_bpu_constant():
    text = README.read_text()
    constants = [f"{path.stem}.{name}" for path in sorted(SRC.glob("[!_]*.py"))
                 for name in getattr(importlib.import_module(f"bpu_lab.{path.stem}"),
                                     "__all__", ()) if name.isupper()]
    assert len(constants) >= 16 and "bpu.BAND_EPS" in constants
    missing = [name for name in constants
               if not re.search(rf"\b{name.split('.')[1]}\b", text)]
    assert not missing, f"exported constants README.md does not name: {', '.join(missing)}"


def test_readme_names_every_bpu_export():
    text = README.read_text()
    assert "fs_pullback" in bpu.__all__ and "BpuState" in bpu.__all__
    missing = [name for name in bpu.__all__ if not re.search(rf"\b{name}\b", text)]
    assert not missing, f"bpu exports README.md does not name: {', '.join(missing)}"
