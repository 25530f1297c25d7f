"""The public surface: every name that ``tiltwall`` exports, and every
public method and property defined on an exported class, is used by another
module of the package or by the benchmark, or is listed with the open
ROADMAP items that will call it."""

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


def test_every_export_is_used_or_awaits_an_open_item():
    exports = _exports()
    assert exports <= set(vars(tiltwall))
    assert exports - _referenced() == {n for n in AWAITING if "." not in n}


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
