"""The spin engine is a leaf module: spin.py imports only numpy, the
standard library, .ff and .errors, and no other module defines a spin
engine or calls _minpoly_by_solve.  q_spin stays one object in poly and
factor: perfbench's tracer wraps poly.q_spin in every module that holds
it, and its self-test, which Tier-1 does not run, checks factor's name."""

import ast
import glob
import os
import sys

from cyclofactor import factor, poly

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "cyclofactor")
ENGINE = {"spin_binomials", "_minpoly_by_solve", "_spun_minpolys",
          "minpolys"}


def tree(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def test_spin_imports_only_numpy_stdlib_ff_and_errors():
    imported = set()
    for node in ast.walk(tree(os.path.join(PACKAGE, "spin.py"))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else \
                [alias.name for alias in node.names]
            imported |= {"." + name for name in names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported & {".ff", ".errors"} == {".ff", ".errors"}
    for name in imported:
        top = name.split(".")[0]
        assert name in (".ff", ".errors") or top == "numpy" \
            or top in sys.stdlib_module_names, name


def test_only_spin_defines_the_engine_or_calls_the_solve():
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        if os.path.basename(path) == "spin.py":
            continue
        for node in ast.walk(tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in ENGINE, (path, node.name)
            elif isinstance(node, ast.Name):
                assert node.id != "_minpoly_by_solve", path
            elif isinstance(node, ast.Attribute):
                assert node.attr != "_minpoly_by_solve", path


def test_factor_holds_poly_q_spin():
    assert factor.q_spin is poly.q_spin
