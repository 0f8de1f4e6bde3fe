"""The package exports no name that only tests use.

Every name ``isolab/__init__.py`` exports is used by the program, in code
outside its own definition; or called by the benchmark under
``perfbench/``, which runs ``check_protocol_bounds`` as a job since no
command reaches it; or is one of the acceptance names that
``tests/test_acceptance.py`` imports.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "isolab"
MODULES = {"isolab", "channels", "circuits", "cli", "linalg", "protocol", "reduction"}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _used_by_program():
    """Names loaded or read as attributes in the library modules, except
    inside the top-level definition of the same name."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in _parse(path).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name not in (None, own):
                    names.add(name)
    return names


def _used_by_benchmark():
    """Attributes the benchmark reads off an isolab module, as in
    ``protocol.check_protocol_bounds``."""
    return {
        node.attr
        for path in (ROOT / "perfbench").glob("*.py")
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES
    }


def _imported(tree, module, level):
    return {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == module and node.level == level
        for alias in node.names
    }


def test_every_export_has_a_user_beyond_tests():
    init = _parse(SRC / "__init__.py")
    exported = set().union(*(_imported(init, m, 1) for m in MODULES))
    acceptance = _imported(_parse(ROOT / "tests" / "test_acceptance.py"), "isolab", 0)
    assert len(exported) > 40
    assert sorted(exported - _used_by_program() - _used_by_benchmark() - acceptance) == []
