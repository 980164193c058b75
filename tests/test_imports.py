"""Every module-level import in ``src/eqalg`` is used by its module, and
every ``module.name`` reference in its docstrings and comments resolves."""

import ast
import importlib
import pathlib
import re

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


# a double-backquoted dotted name, such as ``evaluator.Plan.solve``
REFERENCE = re.compile(r"``([A-Za-z_]\w*)\.([A-Za-z_][\w.]*)``")


def module_references(source: str, modules: set) -> list:
    """``(module, dotted name)`` for each double-backquoted reference in
    ``source`` whose first part names one of ``modules``."""
    return [m.groups() for m in REFERENCE.finditer(source) if m.group(1) in modules]


def test_docstring_references_resolve():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    refs = [(p.name, *ref) for p in sorted(PACKAGE.glob("*.py"))
            for ref in module_references(p.read_text(), modules)]  # fmt: skip
    unresolved = []
    for where, module, dotted in refs:
        obj = importlib.import_module(f"eqalg.{module}")
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            unresolved.append(f"{where}: {module}.{dotted}")
    assert len(refs) >= 9 and unresolved == []


def test_a_stale_reference_is_found():
    source = "see ``evaluator._compile`` and ``ctx.live``, not ``evaluator.Plan``"
    assert module_references(source, {"evaluator"}) == [
        ("evaluator", "_compile"), ("evaluator", "Plan")
    ]
