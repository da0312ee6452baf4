"""Each ring reduces one way: FieldCtx.fold is the one reader of a field's
reduction rows _red, QuotientRing.reduce the one reader of a quotient
ring's _R, so no module but ff.py reads ._red, none but poly.py reads ._R,
and the oracle keeps no reduction of its own."""

import ast
import glob
import os

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "cyclofactor")
OWNER = {"_red": "ff.py", "_R": "poly.py"}


def tree(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def test_reduction_rows_are_read_by_their_module_only():
    paths = glob.glob(os.path.join(PACKAGE, "*.py"))
    assert {os.path.basename(path) for path in paths} >= set(OWNER.values())
    for path in paths:
        name = os.path.basename(path)
        for node in ast.walk(tree(path)):
            if isinstance(node, ast.Attribute) and node.attr in OWNER:
                assert OWNER[node.attr] == name, (name, node.attr, node.lineno)


def test_oracle_defines_no_reduce():
    names = {node.name for node in ast.walk(tree(os.path.join(PACKAGE, "oracle.py")))
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "_reduce" not in names
    assert "_berlekamp" in names
