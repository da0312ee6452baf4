"""The CLI checks in cli_pins.json and cli_checks.json, each argv run
through cli.main in process on empty caches, as in a fresh process.

A pin must exit 0 and print exactly the bytes of its sha256.  A check must
exit with its code, print exactly its expected text when it names one (a
key of the file's "texts", one line each), and return within its wall-clock
bound in seconds when it has one.  A new pin or check is one entry of its
file, with its argv and what it guards."""

import hashlib
import json
import os
import time

import pytest

import cyclofactor as cf
from cyclofactor import cli

HERE = os.path.dirname(__file__)
with open(os.path.join(HERE, "cli_pins.json")) as fh:
    PINS = json.load(fh)
with open(os.path.join(HERE, "cli_checks.json")) as fh:
    CHECKS = json.load(fh)


@pytest.mark.parametrize("pin", PINS, ids=lambda p: " ".join(p["argv"]))
def test_pinned_output(pin, capsys, monkeypatch):
    monkeypatch.delenv("CYCLOFACTOR_SEED", raising=False)
    cf.clear_caches()
    code = cli.main(pin["argv"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"], pin["why"]


@pytest.mark.parametrize("case", CHECKS["cases"],
                         ids=lambda c: " ".join(c["argv"]))
def test_expected_output(case, capsys, monkeypatch):
    monkeypatch.delenv("CYCLOFACTOR_SEED", raising=False)
    cf.clear_caches()
    start = time.perf_counter()
    code = cli.main(case["argv"])
    took = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == case["exit"], out
    if case["stdout"] is not None:
        want = "".join(line + "\n" for line in CHECKS["texts"][case["stdout"]])
        assert out == want, case["why"]
    if case["seconds"] is not None:
        assert took < case["seconds"], case["why"]
