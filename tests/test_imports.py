"""Every module-level import in ``src/eqalg`` is used by its module."""

import ast
import pathlib

import eqalg

PACKAGE = pathlib.Path(eqalg.__file__).parent


def unused_imports(source: str) -> set:
    """The names that the module-level imports of ``source`` bind and that
    no other part of it reads, ``__all__`` counting as a read of the names
    it lists."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return bound - read


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_an_unused_import_is_found():
    source = "import bisect\nfrom array import array\nfrom os import path as p\n\nx = p\n"
    assert unused_imports(source) == {"bisect", "array"}
