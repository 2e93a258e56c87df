"""The package's exports agree with the ``__all__`` of the modules it
imports them from."""

import ast
import importlib
import inspect
from pathlib import Path

import eqcolor


def test_package_exports_are_the_union_of_module_all_lists():
    # a name a caller compares against (a quantity, a path choice, an
    # outcome) is public in its module and reachable from the package, and
    # the package exports nothing its module keeps private
    tree = ast.parse(Path(eqcolor.__file__).read_text())
    modules = {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level}
    assert modules
    declared = set().union(*(importlib.import_module(f"eqcolor.{m}").__all__ for m in modules))
    exported = {
        name
        for name, value in vars(eqcolor).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == declared, (sorted(exported - declared), sorted(declared - exported))
