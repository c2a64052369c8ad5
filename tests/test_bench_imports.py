"""The benchmark child imports the library by name: every name it takes.

``bench/child.py`` replays ``verify`` through library calls and wraps some
of them, so a function moved between modules would break the benchmark
without breaking any test here.  The file is read with ``ast`` and never
imported, so nothing is written next to it.
"""

import ast
import importlib
import types
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def library_imports(tree):
    """``(module, name, alias)`` for every name imported from ``gaugereduce``;
    ``name`` is None for a plain ``import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gaugereduce"):
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gaugereduce"):
                    yield alias.name, None, alias.asname or alias.name


def resolve(module, name):
    """The object ``from module import name`` binds."""
    mod = importlib.import_module(module)
    if name is None:
        return mod
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")  # a submodule


def test_every_imported_name_resolves():
    imports = list(library_imports(ast.parse(CHILD.read_text(encoding="utf-8"))))
    assert imports
    for module, name, _ in imports:
        resolve(module, name)


def attributes_read(tree):
    """``(module, attribute)`` for every attribute read off a library module
    inside a function that imports it and never rebinds its name."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        rebound = {
            n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        modules = {}
        for module, name, alias in library_imports(fn):
            obj = resolve(module, name)
            if isinstance(obj, types.ModuleType) and alias not in rebound:
                modules[alias] = obj
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                yield modules[node.value.id], node.attr


def test_every_attribute_read_off_a_library_module_resolves():
    read = set(attributes_read(ast.parse(CHILD.read_text(encoding="utf-8"))))
    # among them, the ones ``instrument`` wraps and ``run_replay`` calls
    names = {(mod.__name__.rpartition(".")[2], attr) for mod, attr in read}
    assert names >= {
        ("ideal", "gauss_generator_block"),
        ("reduction", "block_generators"),
        ("cli", "_truncation"),
        ("cli", "_verify_settings"),
        ("cli", "build_parser"),
    }
    for mod, attr in read:
        assert hasattr(mod, attr), f"{mod.__name__}.{attr}"
