"""Every public name has a caller: the package re-exports it, or the
library, the demos or the benchmark harness refer to it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import ttspectral

ROOT = Path(__file__).resolve().parents[1]
SCANNED = (ROOT / "src" / "ttspectral", ROOT / "demos", ROOT / "perfbench")

# README and acceptance criterion 2 cite it for the paper's gauge invariance
ALLOWED = {"tensortrain.gauge_transform"}


def referenced_names() -> set[str]:
    """Every ``ast.Name`` and ``ast.Attribute`` name in the scanned trees,
    and the string of every ``(module, "name")`` pair, the form in which
    ``perfbench/spans.py`` names the functions it wraps.  The files are
    read, never written."""
    names = set()
    for tree in SCANNED:
        for path in sorted(tree.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
                      and isinstance(node.elts[1], ast.Constant)
                      and isinstance(node.elts[1].value, str)):
                    names.add(node.elts[1].value)
    return names


def test_every_public_name_has_a_caller():
    referenced = referenced_names()
    uncalled = []
    for info in pkgutil.iter_modules(ttspectral.__path__):
        module = importlib.import_module(f"ttspectral.{info.name}")
        for name in getattr(module, "__all__", ()):
            if name in ttspectral.__all__ or name in referenced:
                continue
            if f"{info.name}.{name}" not in ALLOWED:
                uncalled.append(f"{info.name}.{name}")
    assert not uncalled, f"public names without a caller: {uncalled}"
