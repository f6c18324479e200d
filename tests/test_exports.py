"""The package root exports exactly what the scripts and the benchmark use.

Everything else is imported from its module, so a name that the scripts or
`perfbench/` stop using should leave `__all__`, and a name they start using
must be added to it. No other module hands on a name it imported.
"""

import ast
import importlib.util
from pathlib import Path

import proctrack

ROOT = Path(__file__).resolve().parent.parent


def _root_names(tree):
    """Names imported from, or looked up on, `proctrack` in a module tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "proctrack":
            yield from (alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "proctrack"):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Code handed to `python -c`, such as the benchmark's setup probe.
            try:
                yield from _root_names(ast.parse(node.value))
            except SyntaxError:
                pass


def _used_names():
    names = set()
    for path in [*ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")]:
        names.update(_root_names(ast.parse(path.read_text())))
    return names


def _is_module(name):
    return importlib.util.find_spec(f"proctrack.{name}") is not None


def test_every_root_name_the_scripts_use_exists():
    used = _used_names()
    assert "load_emissions" in used        # only named inside the probe's code string
    for name in sorted(used):
        assert hasattr(proctrack, name) or _is_module(name), name


def test_all_is_exactly_the_used_functions_and_classes():
    used = {name for name in _used_names()
            if not (_is_module(name) or name.startswith("__"))}
    assert sorted(proctrack.__all__) == sorted(used)
    for name in proctrack.__all__:
        assert hasattr(proctrack, name), name


def test_no_module_imports_a_sibling_name_it_does_not_use():
    # Each name has one home: a module imports a sibling's name only to use
    # it. The root resolves its names from a table and imports none.
    for path in sorted((ROOT / "src" / "proctrack").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    and (node.level or (node.module or "").startswith("proctrack"))):
                for alias in node.names:
                    assert (alias.asname or alias.name) in used, (path.name, alias.name)
