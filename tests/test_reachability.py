"""Every public module-level function and class in the package is used.

A name that no module of the package refers to can be reached only from
tests or by callers outside the package, so it is code that no command runs.
``__init__.py`` only re-exports names and does not count as a use.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cloudchange"


def _modules() -> dict:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _public_definitions(tree: ast.Module) -> list:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_definition_is_used_inside_the_package():
    modules = _modules()
    assert modules, f"no modules found under {PACKAGE}"
    used = set().union(*(_used_names(tree) for tree in modules.values()))
    unused = sorted(
        f"{name}:{definition}"
        for name, tree in modules.items()
        for definition in _public_definitions(tree)
        if definition not in used
    )
    assert unused == [], f"defined but never used in the package: {unused}"
