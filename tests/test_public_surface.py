"""The package exports no name, and its exported classes have no public
method or property, that only tests use.

Every name ``isolab/__init__.py`` exports is used by the program, in code
outside its own definition; or called by the benchmark under
``perfbench/``, which runs ``check_protocol_bounds`` as a job since no
command reaches it; or is one of the acceptance names that
``tests/test_acceptance.py`` imports. Every public method and property of
an exported class is read as an attribute by the program, outside its own
definition; or by the benchmark; or by ``tests/test_acceptance.py``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "isolab"
MODULES = {"isolab", "channels", "circuits", "cli", "linalg", "protocol", "reduction"}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _program():
    return [_parse(path) for path in SRC.glob("*.py") if path.name != "__init__.py"]


def _used_by_program(attributes_only=False):
    """Names loaded or read as attributes in the library modules (only the
    attributes, given *attributes_only*), except inside a definition of the
    same name: a function, class or method is not its own user."""
    names = set()

    def visit(node, own):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name) and not attributes_only:
            name = node.id
        else:
            name = None
        if name is not None and name not in own:
            names.add(name)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = own | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for tree in _program():
        visit(tree, frozenset())
    return names


def _benchmark():
    return [_parse(path) for path in (ROOT / "perfbench").glob("*.py")]


def _used_by_benchmark():
    """Attributes the benchmark reads off an isolab module, as in
    ``protocol.check_protocol_bounds``."""
    return {
        node.attr
        for tree in _benchmark()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES
    }


def _attributes(trees):
    return {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _imported(tree, module, level):
    return {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == module and node.level == level
        for alias in node.names
    }


def _exported():
    init = _parse(SRC / "__init__.py")
    return set().union(*(_imported(init, m, 1) for m in MODULES))


ACCEPTANCE = _parse(ROOT / "tests" / "test_acceptance.py")


def test_every_export_has_a_user_beyond_tests():
    exported = _exported()
    acceptance = _imported(ACCEPTANCE, "isolab", 0)
    assert len(exported) > 40
    assert sorted(exported - _used_by_program() - _used_by_benchmark() - acceptance) == []


def test_every_public_method_of_an_export_has_a_user_beyond_tests():
    exported = _exported()
    methods = {
        f"{cls.name}.{item.name}": item.name
        for tree in _program()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in exported
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }
    users = _used_by_program(attributes_only=True) | _attributes(_benchmark()) | _attributes([ACCEPTANCE])
    assert len(methods) > 10
    assert sorted(q for q, name in methods.items() if name not in users) == []
