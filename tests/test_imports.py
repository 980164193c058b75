"""Every module-level import in ``src/eqalg`` is used by its module, and
every ``module.name`` reference and bare private name in its docstrings and
comments resolves."""

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
# a double-backquoted bare private name, such as ``_compile``; not a dunder
PRIVATE = re.compile(r"``(_[A-Za-z]\w*)``")


def module_references(source: str, modules: set) -> list:
    """``(module, dotted name)`` for each double-backquoted reference in
    ``source`` whose first part names one of ``modules``."""
    return [m.groups() for m in REFERENCE.finditer(source) if m.group(1) in modules]


def private_names(source: str) -> list:
    """Each double-backquoted bare private name in ``source``."""
    return PRIVATE.findall(source)


def defines(module, name: str) -> bool:
    """Whether ``module`` defines ``name``, or a class of it lists ``name``
    in its ``__slots__``."""
    if hasattr(module, name):
        return True
    classes = [v for v in vars(module).values()
               if isinstance(v, type) and v.__module__ == module.__name__]  # fmt: skip
    return any(name in vars(c).get("__slots__", ()) for c in classes)


def test_docstring_references_resolve():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    unresolved = []
    dotted_count = private_count = 0
    for p in sorted(PACKAGE.glob("*.py")):
        source = p.read_text()
        for module, dotted in module_references(source, modules):
            dotted_count += 1
            obj = importlib.import_module(f"eqalg.{module}")
            for part in dotted.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                unresolved.append(f"{p.name}: {module}.{dotted}")
        own = importlib.import_module(f"eqalg.{p.stem}")
        for name in private_names(source):
            private_count += 1
            if not defines(own, name):
                unresolved.append(f"{p.name}: {name}")
    assert dotted_count >= 9 and private_count >= 20 and unresolved == []


def test_a_stale_reference_is_found():
    source = "see ``evaluator._compile`` and ``ctx.live``, not ``evaluator.Plan``"
    assert module_references(source, {"evaluator"}) == [
        ("evaluator", "_compile"), ("evaluator", "Plan")
    ]
    # a bare private name resolves in its own module, or in a class's slots
    source = "``_compile_solve``, ``_run_solve``, ``_solve_parts``, ``__slots__``, ``_key``"
    assert private_names(source) == ["_compile_solve", "_run_solve", "_solve_parts", "_key"]
    evaluator = importlib.import_module("eqalg.evaluator")
    model = importlib.import_module("eqalg.model")
    assert [defines(evaluator, n) for n in private_names(source)] == [True, True, False, False]
    assert defines(model, "_key") and defines(model, "_sorted") and not defines(model, "_nope")


def module_containers(name: str) -> list:
    """The module-level lists, dicts and sets of ``eqalg.<name>``."""
    module = importlib.import_module(f"eqalg.{name}")
    return [key for key, value in vars(module).items()
            if not key.startswith("__") and isinstance(value, (list, dict, set))]  # fmt: skip


def test_bitslice_keeps_no_module_level_container():
    # a module-level list, dict or set in ``bitslice`` would be a cache
    # shared by every evaluation in the process and rebuilt on each
    # re-import, such as one of a block's bit patterns
    assert module_containers("bitslice") == []


def test_evaluator_keeps_no_module_level_container():
    # nor in ``evaluator``, such as a table of compiled programs: a program
    # is kept on its root node, and freed with it
    assert module_containers("evaluator") == []
