"""Source-layout guards for the kdia package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kdia"
MODULES = {path.stem for path in SRC.glob("*.py")}


def private_cross_module_uses(source: str) -> list[str]:
    """``module._name`` accesses and ``from .module import _name`` imports
    that reach into another kdia module's private helpers."""
    tree = ast.parse(source)
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("kdia")
        ):
            for alias in node.names:
                if alias.name in MODULES:
                    aliases.add(alias.asname or alias.name)
                elif alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append(f"line {node.lineno}: imports {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_guard_catches_private_access():
    assert private_cross_module_uses("from . import nn\nnn._helper(1)\n")
    assert private_cross_module_uses("from .nn import _helper\n")
    assert not private_cross_module_uses("from . import nn\nnn.forward(1)\n")


def test_no_module_uses_another_modules_private_helpers():
    offenders = {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if (uses := private_cross_module_uses(path.read_text(encoding="utf-8")))
    }
    assert not offenders, offenders
