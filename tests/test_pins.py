"""The sha256 pins of CLI output in cli_pins.json: each argv, run through
cli.main in process on empty caches, as in a fresh process, must exit 0 and
print exactly the pinned bytes.  A new pin is one entry of that file: its
argv, the sha256 of its stdout and what it guards."""

import hashlib
import json
import os

import pytest

import cyclofactor as cf
from cyclofactor import cli

with open(os.path.join(os.path.dirname(__file__), "cli_pins.json")) as fh:
    PINS = json.load(fh)


@pytest.mark.parametrize("pin", PINS, ids=lambda p: " ".join(p["argv"]))
def test_pinned_output(pin, capsys, monkeypatch):
    monkeypatch.delenv("CYCLOFACTOR_SEED", raising=False)
    cf.clear_caches()
    code = cli.main(pin["argv"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"], pin["why"]
