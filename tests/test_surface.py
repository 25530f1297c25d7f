"""The public surface and the helpers behind it: every name that
``tiltwall`` exports, every module-level function and class of the package,
and every public method and property defined on an exported class, is used
by the package's other code or by the benchmark, or is listed with the open
ROADMAP items that will call it, so no helper is left behind unused."""

import ast
import types
from pathlib import Path

import tiltwall

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tiltwall"

# exports, and methods as "Class.method", that only tests call today, with
# the ROADMAP items that will call them; an entry goes when its item lands,
# with the name or without it
AWAITING = {
    "cone_check": "8",
    "thm_region_check": "13, a verb",
    "simples_classes": "11",
    "passes_through": "5, 9",
    "dual_shifted": "12",
    "common_slope": "3",
}


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _referenced() -> set[str]:
    """Every Name and Attribute read in the package's other modules and in
    perfbench/."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "perfbench").rglob("*.py")
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _definitions() -> set[str]:
    """Every function and class defined at the top level of a module of the
    package."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for path in PACKAGE.glob("*.py")
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, kinds)}


def test_every_export_function_and_class_is_used_or_awaits_an_open_item():
    exports, definitions = _exports(), _definitions()
    assert exports <= set(vars(tiltwall))
    assert "_scan_inputs" in definitions and "Record" in definitions
    assert ((exports | definitions) - _referenced()
            == {n for n in AWAITING if "." not in n})


def _public_methods() -> set[str]:
    """"Class.name" for each method and property that an exported class
    defines itself under a name with no leading underscore."""
    kinds = (types.FunctionType, property, staticmethod, classmethod)
    return {f"{name}.{attr}" for name in _exports()
            if isinstance(cls := getattr(tiltwall, name), type)
            for attr, value in vars(cls).items()
            if not attr.startswith("_") and isinstance(value, kinds)}


def test_every_public_method_is_used_or_awaits_an_open_item():
    methods, referenced = _public_methods(), _referenced()
    assert "Surd.sqrt" in methods and "CollectionSpec.distinguished" in methods
    unused = {m for m in methods if m.split(".")[1] not in referenced}
    assert unused == {n for n in AWAITING if "." in n}
