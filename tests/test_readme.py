"""Every `$ cyclofactor ...` example in README.md, run through cli.main in
process on empty caches: its stdout must be exactly the lines that follow
the command in its block, up to the next command or the end of the block."""

import os
import shlex

import pytest

import cyclofactor as cf
from cyclofactor import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def examples(path=README):
    """(argv, expected stdout) per `$ cyclofactor` line of the fenced blocks."""
    out, block, current = [], False, None
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("```"):
                block, current = not block, None
            elif block and line.startswith("$ "):
                argv = shlex.split(line[2:])
                current = None
                if argv[0] == "cyclofactor":
                    current = (argv[1:], [])
                    out.append(current)
            elif current is not None:
                current[1].append(line)
    return [(argv, "".join(ln + "\n" for ln in lines)) for argv, lines in out]


def test_readme_has_examples():
    assert len(examples()) >= 5


@pytest.mark.parametrize("argv, want", [
    pytest.param(argv, want, id=" ".join(argv)) for argv, want in examples()])
def test_readme_example(argv, want, capsys, monkeypatch):
    monkeypatch.delenv("CYCLOFACTOR_SEED", raising=False)
    cf.clear_caches()
    cli.main(argv)
    assert capsys.readouterr().out == want
