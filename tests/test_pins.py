"""Every stdout that ``tests/data/pins.json`` pins, run in-process.

The file maps a command line (after ``chordforest``) to the sha256 and byte
count of its stdout.  ``tests/check_pins.py`` runs every pin through the
installed entry point, as CI does; this test runs every pin that takes well
under a second in-process, so a changed PASS byte fails tier-1 too, and runs
the script itself against a stand-in command.
"""

import hashlib
import json
import subprocess
import sys
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


CHECK_PINS = Path(__file__).resolve().parent / "check_pins.py"
# a stand-in for chordforest that starts fast and prints nothing, so every pin fails
STAND_IN = [sys.executable, "-S", "-c", "pass"]


def test_check_pins_reports_every_failed_pin():
    result = subprocess.run(
        [sys.executable, str(CHECK_PINS), *STAND_IN],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 1
    assert [line.split(":")[0] for line in result.stdout.splitlines()] == [
        f"FAIL {line}" for line in PINS
    ]


def test_check_pins_on_a_closed_stdout_exits_without_a_traceback():
    with subprocess.Popen(
        [sys.executable, str(CHECK_PINS), *STAND_IN],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as process:
        assert process.stdout.readline().startswith("FAIL ")
        process.stdout.close()  # as `| head -1` does
        stderr = process.stderr.read()
        assert process.wait(timeout=120) == 1
    assert "Traceback" not in stderr, stderr
