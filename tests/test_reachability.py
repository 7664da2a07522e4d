"""Every public module-level function and class in the package is used, and
so is every public method and property of a public class.  Every defaulted
parameter of a package function or method is passed by some call.

A name that no module of the package refers to can be reached only from
tests or by callers outside the package, so it is code that no command runs.
``__init__.py`` only re-exports names and does not count as a use.  A method
counts as used when any module of the package names an attribute of that
name, so the check cannot tell two methods of the same name apart.

Likewise a default that no call in the package or the benchmark harness
overrides is a constant in disguise.  Calls are matched by name alone (a
class name stands for its ``__init__``), so two callables of one name share
their calls.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cloudchange"
BENCHMARK = ROOT / "perfbench"

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


def _defaulted_parameters(tree: ast.Module) -> list:
    """(callable name, parameter name, positional index or None) for every
    parameter with a default of a module-level function or a method; the
    index counts after ``self``/``cls`` and is None for keyword-only ones."""
    found = []

    def collect(name: str, node, skip: int):
        args = node.args
        positional = [*args.posonlyargs, *args.args][skip:]
        first = len(positional) - len(args.defaults)
        found.extend((name, arg.arg, i) for i, arg in enumerate(positional) if i >= first)
        found.extend(
            (name, arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        )

    for node in tree.body:
        if isinstance(node, _FUNCTIONS):
            collect(node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    name = node.name if item.name == "__init__" else item.name
                    collect(name, item, 0 if static else 1)
    return found


def _calls(trees: list) -> dict:
    """Callee name -> list of (positional count, keyword names) per call;
    ``*args`` counts as every position and ``**kwargs`` as every keyword."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            n_positional = float("inf") if starred else len(node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((n_positional, keywords))
    return calls


def _never_passed(modules: dict, callers: list) -> list:
    calls = _calls(callers)
    return sorted(
        f"{module}:{name}({param})"
        for module, tree in modules.items()
        for name, param, index in _defaulted_parameters(tree)
        if not any(
            param in keywords or None in keywords or (index is not None and n > index)
            for n, keywords in calls.get(name, [])
        )
    )


def _callers() -> list:
    paths = [*PACKAGE.glob("*.py"), *BENCHMARK.glob("*.py")]
    return [
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(paths)
        if not path.name.startswith("test_")
    ]


def test_every_defaulted_parameter_is_passed_somewhere():
    never = _never_passed(_modules(), _callers())
    assert never == [], f"defaulted parameters no call passes (make them constants): {never}"


def test_defaulted_parameter_scan():
    tree = ast.parse(
        "def scale(x, factor=2.0, *, offset=0.0): ...\n"
        "class Box:\n"
        "    def __init__(self, size, depth=1): ...\n"
        "    def grow(self, by=1): ...\n"
        "    @staticmethod\n"
        "    def make(kind, fill=None): ...\n"
        "scale(1, 3.0)\n"
        "Box(1, depth=2).grow()\n"
        "Box.make('a', **{})\n"
    )
    assert _never_passed({"m.py": tree}, [tree]) == ["m.py:grow(by)", "m.py:scale(offset)"]
