"""Every public module-level function and class in the package is used, and
so is every public method and property of a public class.  Every defaulted
parameter of a package function or method is passed by some call, and every
name a module imports at its top level is named in that module.

A name that no module of the package refers to can be reached only from
tests or by callers outside the package, so it is code that no command runs.
``__init__.py`` only re-exports names and does not count as a use.  A method
counts as used when any module of the package names an attribute of that
name, so the check cannot tell two methods of the same name apart.

Likewise a default that no call in the package or the benchmark harness
overrides is a constant in disguise, and so is a parameter without a default
that every call passes the same literal or the same ALL_CAPS constant.  Calls
are matched by name alone (a class name stands for its ``__init__``), so two
callables of one name share their calls.  And a command-line option that
``cli.py`` never reads is parsed and then ignored.

Every field of a dataclass in the package is read, as an attribute, by the
package or the benchmark harness: a field that nothing reads is computed,
stored and, on a record that is written out, written for nothing.  A class
whose body calls ``fields(...)`` or ``asdict(...)`` serialises itself whole,
so each of its fields reaches its output, and is exempt.  Fields, too, are
matched by name alone.

Every ``--flag`` that ``cli.py`` names in its module docstring, in a
subcommand's entry there, or in a subcommand's help, description or option
help is an option of that subcommand (or, outside any entry, of some
subcommand): a flag that the text names and the parser lacks tells a reader
of a setting that no longer exists.
"""

from __future__ import annotations

import argparse
import ast
import re
from pathlib import Path

from cloudchange import cli

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


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by a module's top-level imports that its code never names."""
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.extend((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_import_is_used():
    # An import kept only for the benchmark harness to patch would need an
    # allow-list entry with its reason; none does today.
    unused = [
        f"{module}:{name}" for module, tree in _modules().items() for name in _unused_imports(tree)
    ]
    assert unused == [], f"imported but never used: {unused}"


def test_import_scan():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau as turn\n"
        "print(np.e, os.sep, turn)\n"
    )
    assert _unused_imports(tree) == ["pi"]


def _parameters(tree: ast.Module, defaulted: bool) -> list:
    """(callable name, parameter name, positional index or None) for every
    parameter of a module-level function or a method that has a default
    (``defaulted``) or has none; the index counts after ``self``/``cls`` and
    is None for keyword-only ones."""
    found = []

    def collect(name: str, node, skip: int):
        args = node.args
        positional = [*args.posonlyargs, *args.args][skip:]
        first = len(positional) - len(args.defaults)
        found.extend(
            (name, arg.arg, i) for i, arg in enumerate(positional) if (i >= first) == defaulted
        )
        found.extend(
            (name, arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if (default is not None) == defaulted
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


def _name(node):
    """The name of a bare name or the last part of a dotted one, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _calls(trees: list) -> dict:
    """Callee name -> the calls that name it."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_name(node.func), []).append(node)
    return calls


def _passed(call: ast.Call, param: str, index):
    """The expression ``call`` passes for a parameter, None when it passes
    none, or ``...`` when a ``*args`` or ``**kwargs`` may carry it."""
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    carried = any(keyword.arg is None for keyword in call.keywords)
    if index is not None:
        starred = [isinstance(arg, ast.Starred) for arg in call.args]
        if index < len(call.args):
            return ... if any(starred[: index + 1]) else call.args[index]
        carried = carried or any(starred)
    return ... if carried else None


def _never_passed(modules: dict, callers: list) -> list:
    calls = _calls(callers)
    return sorted(
        f"{module}:{name}({param})"
        for module, tree in modules.items()
        for name, param, index in _parameters(tree, defaulted=True)
        if all(_passed(call, param, index) is None for call in calls.get(name, []))
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


def _constant(node):
    """A key equal for equal literals and for one ALL_CAPS constant, bare or
    dotted; None for any other expression."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = _name(node)
        return name if name.isupper() else None
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def _constants_in_disguise(modules: dict, callers: list) -> list:
    """Parameters without a default that every call, of at least one,
    passes the same literal or the same ALL_CAPS constant."""
    calls = _calls(callers)
    found = []
    for module, tree in modules.items():
        for name, param, index in _parameters(tree, defaulted=False):
            passed = {
                _constant(arg) if isinstance(arg, ast.AST) else None
                for arg in (_passed(call, param, index) for call in calls.get(name, []))
            }
            if len(passed) == 1 and None not in passed:
                found.append(f"{module}:{name}({param})")
    return sorted(found)


def test_no_parameter_is_a_constant_in_disguise():
    found = _constants_in_disguise(_modules(), _callers())
    assert found == [], f"parameters every call passes one constant (make them constants): {found}"


def test_constant_in_disguise_scan():
    tree = ast.parse(
        "import cfg\n"
        "def grid(cloud, resolution): ...\n"
        "def pad(x, width, *, fill): ...\n"
        "class Box:\n"
        "    def __init__(self, size): ...\n"
        "    def grow(self, by): ...\n"
        "grid(a, cfg.RESOLUTION)\n"
        "grid(b, RESOLUTION)\n"
        "pad(1, 2, fill=0)\n"
        "pad(x, 3, fill=0)\n"
        "pad(*args, fill=0)\n"
        "Box(1).grow(-1)\n"
        "Box(n).grow(-1)\n"
        "Box.grow(box, **options)\n"
    )
    assert _constants_in_disguise({"m.py": tree}, [tree]) == [
        "m.py:grid(resolution)", "m.py:pad(fill)"
    ]


def _record_fields(tree: ast.Module) -> list:
    """(class, field) for every field of a module-level dataclass that does
    not serialise itself whole with ``fields(...)`` or ``asdict(...)``."""
    found = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or not any(
            _name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
            for d in node.decorator_list
        ):
            continue
        if any(
            isinstance(call, ast.Call) and _name(call.func) in {"fields", "asdict"}
            for call in ast.walk(node)
        ):
            continue
        found.extend(
            (node.name, item.target.id)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        )
    return found


def _unread_fields(modules: dict, readers: list) -> list:
    """Dataclass fields of ``modules`` that no tree of ``readers`` reads as
    an attribute."""
    read = {
        node.attr
        for tree in readers
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{module}:{cls}.{name}"
        for module, tree in modules.items()
        for cls, name in _record_fields(tree)
        if name not in read
    )


def test_every_record_field_is_read():
    unread = _unread_fields(_modules(), _callers())
    assert unread == [], f"fields stored but never read: {unread}"


def test_unread_field_scan():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import asdict, dataclass\n"
        "@dataclass\n"
        "class Fit:\n"
        "    scale: float\n"
        "    note: str = ''\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Pair:\n"
        "    left: int\n"
        "    right: int\n"
        "@dataclass\n"
        "class Report:\n"
        "    summary: str\n"
        "    def to_dict(self):\n"
        "        return asdict(self)\n"
        "class Plain:\n"
        "    size: int\n"
        "fit = Fit(1.0, note='x')\n"
        "fit.note = 'y'\n"
        "print(fit.scale, Pair(1, right=2).left)\n"
    )
    assert _unread_fields({"m.py": tree}, [tree]) == ["m.py:Fit.note", "m.py:Pair.right"]


def _option_dests(parser: argparse.ArgumentParser) -> set:
    """The dest of every option of ``parser`` and of its subcommands."""
    dests = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                dests |= _option_dests(subparser)
        if not isinstance(action, argparse._HelpAction):
            dests.add(action.dest)
    return dests


def _ignored_options(parser, tree: ast.Module) -> list:
    """Options of ``parser`` that ``tree`` never reads as ``args.<dest>``."""
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }
    return sorted(_option_dests(parser) - read)


def test_every_cli_option_is_read():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    ignored = _ignored_options(cli._build_parser(), tree)
    assert ignored == [], f"options parsed but never read: {ignored}"


def test_ignored_option_scan():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run")
    run.add_argument("--fast", action="store_true")
    run.add_argument("--depth-limit", type=int)
    run.add_argument("--level", type=int)
    tree = ast.parse("def main(args):\n    return args.command, args.fast\n")
    assert _ignored_options(parser, tree) == ["depth_limit", "level"]


_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """Each subcommand's name -> (its parser, its help)."""
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {choice.dest: choice.help for choice in action._choices_actions}
    return {name: (sub, helps.get(name)) for name, sub in action.choices.items()}


def _docstring_entries(doc: str, commands) -> dict:
    """The text of each subcommand's entry in ``doc``, a line indented four
    spaces that starts with its name and the lines indented deeper below it;
    the rest of ``doc`` under ``None``."""
    entries, current = {}, None
    for line in doc.splitlines():
        name = line[4:].split(" ", 1)[0]
        if line.startswith("    ") and name in commands:
            current = name
        elif not line.startswith("     "):
            current = None
        entries[current] = entries.get(current, "") + line + "\n"
    return entries


def _unknown_flags(parser: argparse.ArgumentParser, doc: str) -> list:
    """``command: --flag`` for every flag that ``doc`` or a subcommand's own
    text names where it is no option."""
    subcommands = _subcommands(parser)
    options = {
        name: {flag for action in sub._actions for flag in action.option_strings}
        for name, (sub, _) in subcommands.items()
    }
    texts = list(_docstring_entries(doc, subcommands).items())
    for name, (sub, help_text) in subcommands.items():
        own = [help_text, sub.description, *(action.help for action in sub._actions)]
        texts.append((name, " ".join(text for text in own if text)))
    unknown = set()
    for name, text in texts:
        allowed = options[name] if name else set().union(*options.values())
        unknown.update(f"{name or 'docstring'}: {flag}" for flag in _FLAG.findall(text)
                       if flag not in allowed)
    return sorted(unknown)


def test_every_named_flag_is_an_option():
    unknown = _unknown_flags(cli._build_parser(), cli.__doc__)
    assert unknown == [], f"flags named but not options: {unknown}"


def test_named_flag_scan():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="run it; --fast skips checks",
                         description="see --depth for the limit")
    run.add_argument("--fast", action="store_true", help="unlike --slow")
    run.add_argument("--depth-limit", type=int)
    show = sub.add_parser("show")
    show.add_argument("--plain", action="store_true")
    doc = (
        "Subcommands::\n\n"
        "    run    runs; --fast and --depth-limit,\n"
        "           --plain and --gone\n"
        "    show   shows; --plain\n\n"
        "Every command but show takes --depth-limit, and none takes --color.\n"
    )
    assert _unknown_flags(parser, doc) == [
        "docstring: --color", "run: --depth", "run: --gone", "run: --plain", "run: --slow"
    ]
