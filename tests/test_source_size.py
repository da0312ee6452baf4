"""Every module of the package stays under TOKEN_LIMIT parser tokens.

CPython 3.11's parser starts with a token buffer of 8,192 entries and
doubles it when a module has more.  With PYTHONDONTWRITEBYTECODE set, every
process compiles the package from source, and one module past the limit
raises the compile peak, and with it the import-time max RSS, by about
0.5 MB.  A token here is what tokenize yields, without the COMMENT, NL and
ENCODING tokens the parser never sees; a docstring is one token whatever
its length."""

import glob
import os
import tokenize

import pytest

TOKEN_LIMIT = 8192
PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "cyclofactor")
MODULES = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def parser_tokens(path):
    with open(path, "rb") as fh:
        return sum(t.type not in SKIPPED for t in tokenize.tokenize(fh.readline))


def test_every_module_is_found():
    names = {os.path.basename(path) for path in MODULES}
    assert {"ff.py", "factor.py", "poly.py", "numth.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_is_under_the_token_limit(path):
    assert parser_tokens(path) < TOKEN_LIMIT
