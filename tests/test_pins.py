"""Every stdout that ``tests/data/pins.json`` pins, run in-process.

The file maps a command line (after ``chordforest``) to the sha256 and byte
count of its stdout.  ``tests/check_pins.py`` runs every pin through the
installed entry point, as CI does; this test runs every pin that takes well
under a second in-process, so a changed PASS byte fails tier-1 too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from chordforest.cli import EXIT_OK, main

PINS = json.loads((Path(__file__).resolve().parent / "data" / "pins.json").read_text("utf-8"))
# About a second or more each in-process (the two scans at SCAN_CAP take
# 0.9-1.0 s on 2 shared cores); tests/check_pins.py runs them.
SLOW = {
    "verify --max-n-formula 200",
    "verify --max-n-formula 300",
    "verify --max-n-brute 12",
    "enumerate --n 12",
    "enumerate --n 8 --list",
}


@pytest.mark.parametrize("line", [line for line in PINS if line not in SLOW])
def test_pinned_stdout(capsys, line):
    code = main(line.split())
    data = capsys.readouterr().out.encode()
    assert code == EXIT_OK
    pin = PINS[line]
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (pin["sha256"], pin["bytes"])


def test_every_slow_pin_is_pinned():
    assert SLOW <= PINS.keys()
