"""Every module of the package uses what it imports, every private
module-level name is read somewhere in the package, no package attribute
hides a submodule of the same name, one function brackets queries,
one class checks node order, and no exported name takes or returns a
``grid.Layer``.

Package ``__init__.py`` files are exempt from the import scan (their imports
are the public re-exports), and so are ``from __future__`` imports.
"""

import ast
import importlib
import inspect
import re
import sys
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "invariant_burgers"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no module
    of ``sources`` (file name -> text) reads, by name, attribute or import.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = []
    for name, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                defined = [getattr(node.target, "id", "")]
            else:
                continue
            dead += [f"{name}:{node.lineno}: {d}" for d in defined
                     if d.startswith("_") and not d.startswith("__")
                     and d not in read]
    return dead


def calls_outside(source: str, callee: str, allowed: str) -> list[str]:
    """Calls of ``callee`` (as a name or an attribute) anywhere but inside
    the module-level definition ``allowed``, as "line N in <definition>"."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and where == "<module>":
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name == callee and where != allowed:
                found.append(f"line {node.lineno} in {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\n"
              "from dataclasses import dataclass, replace\n"
              "x = np.zeros(3)\n@dataclass\nclass A:\n    y: int\n")
    assert unused_imports(source) == ["line 2: os", "line 4: replace"]


def test_package_modules_use_their_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {k: v for k, v in unused.items() if v} == {}


def test_scan_finds_a_dead_private_name():
    sources = {
        "a.py": ("_LIMIT = 3\n_SPARE: int = 4\n"
                 "def _used():\n    return _LIMIT\n"
                 "def _dead():\n    return _used()\n"
                 "class _Gone:\n    pass\n"
                 "def _shared():\n    pass\n__all__ = []\n"),
        "b.py": "from a import _shared\n",
    }
    assert dead_private_names(sources) == [
        "a.py:2: _SPARE", "a.py:5: _dead", "a.py:7: _Gone"]


def test_package_private_names_are_read():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_private_names(sources) == []


def test_package_attributes_are_their_submodules():
    # a re-export named like its module (say, the function ``interpolate``)
    # makes ``import invariant_burgers.interpolate as m`` bind the function,
    # so patching ``m`` would silently patch nothing
    import invariant_burgers

    names = sorted(p.stem for p in PACKAGE.glob("*.py")
                   if p.name != "__init__.py")
    assert names
    for name in names:
        importlib.import_module(f"invariant_burgers.{name}")
    shadowed = [name for name in names if getattr(invariant_burgers, name)
                is not sys.modules[f"invariant_burgers.{name}"]]
    assert shadowed == []


def test_scan_finds_a_call_outside_its_function():
    source = ("import numpy as np\n"
              "def _evaluate(a, q):\n"
              "    def inner():\n        return a.searchsorted(q)\n"
              "    return np.searchsorted(a, q), inner()\n"
              "def other(a, q):\n    return np.searchsorted(a, q)\n"
              "class C:\n    def _evaluate(self, a, q):\n"
              "        return a.searchsorted(q)\n"
              "TOP = np.searchsorted([0.0], 1.0)\n")
    assert calls_outside(source, "searchsorted", "_evaluate") == [
        "line 7 in other", "line 10 in C", "line 11 in <module>"]


def test_only_evaluate_brackets_queries():
    # one bracket path: every search of sorted positions in the package is
    # the interpolants' own, in interpolate._evaluate
    found = {p.name: calls_outside(p.read_text(), "searchsorted",
                                   "_evaluate" if p.name == "interpolate.py"
                                   else None)
             for p in PACKAGE.glob("*.py")}
    assert {k: v for k, v in found.items() if v} == {}


def test_only_a_layer_checks_node_order():
    # one order check: every call of the gap verdict is a layer's placement
    found = {p.name: calls_outside(p.read_text(), "_require_positive",
                                   "Layer" if p.name == "grid.py" else None)
             for p in PACKAGE.glob("*.py")}
    assert {k: v for k, v in found.items() if v} == {}


def layer_signatures(module) -> list[str]:
    """Public names of ``module``, other than its submodules, with a
    parameter or return annotated with ``Layer`` (the annotations are the
    strings of ``from __future__ import annotations``); for a class, the
    functions it defines count."""
    found = []
    for name, value in sorted(vars(module).items()):
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        functions = ([value] if inspect.isfunction(value) else
                     [f for f in vars(value).values() if inspect.isfunction(f)]
                     if inspect.isclass(value) else [])
        if any(re.search(r"\bLayer\b", str(annotation))
               for f in functions
               for annotation in inspect.unwrap(f).__annotations__.values()):
            found.append(name)
    return found


def test_scan_finds_a_function_on_layers():
    module = types.ModuleType("m")
    exec("from __future__ import annotations\n"
         "import numpy as np\n"
         "def step(xl: Layer, dt: float) -> None: ...\n"
         "def place(x: np.ndarray) -> tuple[Layer, Layer]: ...\n"
         "def gaps(x: np.ndarray) -> np.ndarray: ...\n"
         "def _inner(xl: Layer) -> Layer: ...\n"
         "class Slice:\n    def layer(self) -> Layer: ...\n"
         "class Layers:\n    def gaps(self) -> np.ndarray: ...\n",
         vars(module))
    assert layer_signatures(module) == ["Slice", "place", "step"]


def test_no_exported_name_takes_a_layer():
    # the functions on layers are the inside of run(), which validates
    # once; the package exports only what checks its own arguments
    import invariant_burgers

    assert layer_signatures(invariant_burgers) == []
