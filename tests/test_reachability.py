"""Every public module-level function and class in the package is used, and
so is every public method and property of a public class.

A name that no module of the package refers to can be reached only from
tests or by callers outside the package, so it is code that no command runs.
``__init__.py`` only re-exports names and does not count as a use.  A method
counts as used when any module of the package names an attribute of that
name, so the check cannot tell two methods of the same name apart.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cloudchange"

# Test oracles the package itself does not need.  ``Sim3Transform.compose``
# is the reference composition in tests/test_geometry.py:
# TestSim3Transform::test_compose_matches_sequential_application and
# TestUmeyama::test_equivariance_under_source_pretransform.
ALLOWED_UNUSED = {"geometry.py:Sim3Transform.compose"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _modules() -> dict:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _public_definitions(tree: ast.Module) -> list:
    """Public functions and classes, and ``Class.method`` for the public
    methods and properties of public classes."""
    names = []
    for node in tree.body:
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)) or node.name.startswith("_"):
            continue
        names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, _FUNCTIONS) and not item.name.startswith("_")
            )
    return names


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _unused(modules: dict) -> list:
    used = set().union(*(_used_names(tree) for tree in modules.values()))
    return sorted(
        f"{name}:{definition}"
        for name, tree in modules.items()
        for definition in _public_definitions(tree)
        if definition.rpartition(".")[2] not in used
    )


def test_every_public_definition_is_used_inside_the_package():
    modules = _modules()
    assert modules, f"no modules found under {PACKAGE}"
    unused = [name for name in _unused(modules) if name not in ALLOWED_UNUSED]
    assert unused == [], f"defined but never used in the package: {unused}"


def test_allowlist_names_only_unused_definitions():
    assert set(_unused(_modules())) >= ALLOWED_UNUSED


def test_methods_and_properties_are_checked():
    tree = ast.parse(
        "class Shape:\n"
        "    def area(self): ...\n"
        "    @property\n"
        "    def size(self): ...\n"
        "    def _hidden(self): ...\n"
        "class _Private:\n"
        "    def method(self): ...\n"
        "print(Shape().area())\n"
    )
    assert _unused({"shapes.py": tree}) == ["shapes.py:Shape.size"]
