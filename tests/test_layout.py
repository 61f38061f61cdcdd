"""Source layout rules: every import of the package sits at module level,
no module loads hashlib, numpy.random, argparse or fractions, the projection
module imports no fit or verdict module, the transport module uses no
trigonometric interpolant and no foot Newton iteration, every name a
module exports exists, every name the benchmark tracer summarizes exists in
the package, README's table of config keys lists exactly the keys each kind
accepts, README names every constant a module exports and every name `bpu`
exports, and long-double dtypes appear only where a value is rounded once."""

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


def referenced_names(source: str) -> set[str]:
    """Names a module binds by `from` imports or reads as attributes."""
    tree = ast.parse(source)
    return ({alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_transport_module_uses_no_interpolant_or_foot_newton():
    # flow_state moves each node along its normal geodesic in closed form, and
    # Gamma reads the same rate; the RK4 reference on the Newton-projected
    # tube field lives in tests/oracles.py.
    banned = {"TrigInterpolator", "_foot_newton"}
    source = (SRC / "leaf.py").read_text()
    assert "from .fourier import" in source and "from .geometry import (" in source
    assert not referenced_names(source) & banned
    # The check sees either one re-added, imported or read off its module.
    for mutated in (source.replace("from .fourier import", "from .fourier import TrigInterpolator,", 1),
                    source.replace("from .geometry import (", "from .geometry import (_foot_newton,", 1),
                    source + "\nfield = fourier.TrigInterpolator\n"):
        assert referenced_names(mutated) & banned


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


_KEY_TABLE_HEADER = "| key | default | accepted by |"


def readme_key_rows(text: str) -> list[tuple[str, set[str]]]:
    """Each row of README's config-key table: the key in its first cell and
    the kinds its last cell names ("every kind" names them all)."""
    lines = text.splitlines()
    start = lines.index(_KEY_TABLE_HEADER) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, cell = re.fullmatch(r"\| `(\w+)` \|.*\| (.*) \|", line).groups()
        rows.append((key, set(experiments.EXPERIMENT_KINDS) if cell == "every kind" else
                     {kind for kind in experiments.EXPERIMENT_KINDS if re.search(rf"\b{kind}\b", cell)}))
    return rows


def test_readme_key_table_lists_exactly_the_config_keys():
    # The table is the rule: each key is accepted by exactly the kinds its row
    # names, and a config setting a key its kind does not read exits 2.
    accepted = {}
    for kind, keys in experiments._KIND_KEYS.items():
        for key in keys:
            accepted.setdefault(key, set()).add(kind)
    text = README.read_text()
    rows = readme_key_rows(text)
    assert len(rows) == len(dict(rows)) == 10
    assert dict(rows) == accepted
    # The check sees a row dropped from the table, and a row naming one kind fewer.
    dropped = "\n".join(line for line in text.splitlines() if not line.startswith("| `seed` |"))
    assert set(dict(readme_key_rows(dropped))) == set(accepted) - {"seed"}
    edited = text.replace("| derivative-crosscheck, profile, decay |", "| derivative-crosscheck, decay |")
    assert edited != text and dict(readme_key_rows(edited)) != accepted


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


_LONG_DOUBLES = {"longdouble", "clongdouble", "float128", "complex256"}


def _dtype_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def long_double_uses(source: str, module: str) -> set[str]:
    """`module.function targets` of each simple statement that names a long-double
    dtype: its innermost enclosing function and the names it assigns, then
    `rounded` where the statement's value is cast by `astype` to another dtype."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):  # breadth first, so a nested function overrides its parent
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(ast.walk(fn), fn.name))
    found = set()
    for stmt in ast.walk(tree):
        if (isinstance(stmt, ast.stmt) and not hasattr(stmt, "body")
                and any(_dtype_name(node) in _LONG_DOUBLES for node in ast.walk(stmt))):
            value = getattr(stmt, "value", None)
            rounded = (isinstance(value, ast.Call) and getattr(value.func, "attr", None) == "astype"
                       and _dtype_name(value.args[0]) not in _LONG_DOUBLES)
            targets = ",".join(t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name))
            found.add(f"{module}.{owner.get(stmt, '<module>')} {targets}" + " rounded" * rounded)
    return found


def test_long_doubles_only_round_values_once():
    # hardy's table of log j!, rounded once per level, and the kernel's ratio
    # rho = o/lead, rounded in the statement that divides; every other path,
    # the snap bound's moduli included, is double precision.
    rho = "bpu._ratio_table rho rounded"
    allowed = {"hardy._log_norms log_fact", "hardy._log_norms volume", rho}
    found = set().union(*(long_double_uses(p.read_text(), p.stem) for p in sorted(SRC.glob("*.py"))))
    assert rho in found
    assert found <= allowed, f"long-double dtypes outside their one rounding: {sorted(found - allowed)}"
    # The check sees a long-double ratio kept past its division, and a moduli product.
    kept = "def _ratio_table(o, lead):\n    rho = o.astype(np.clongdouble) / lead\n"
    assert long_double_uses(kept, "bpu") == {"bpu._ratio_table rho"}
    moduli = "def _ratio_table(rho):\n    mod = np.abs(rho.astype(np.clongdouble))\n"
    assert long_double_uses(moduli, "bpu") == {"bpu._ratio_table mod"}
