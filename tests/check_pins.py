"""Run every pinned command of ``tests/data/pins.json`` as a program and
compare its stdout's sha256 and byte count with the pin.

Usage::

    python tests/check_pins.py                      # the installed chordforest
    python tests/check_pins.py python -m chordforest

The arguments, if any, are the command to run in place of ``chordforest``.
One line per pin goes to stdout, ``ok`` or ``FAIL`` with what differed; the
exit status is 1 if any pin failed.  Stdlib only.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

PINS = Path(__file__).resolve().parent / "data" / "pins.json"


def main(command: list[str]) -> int:
    failed = 0
    for line, pin in json.loads(PINS.read_text(encoding="utf-8")).items():
        result = subprocess.run([*command, *line.split()], stdout=subprocess.PIPE)
        got = (result.returncode, hashlib.sha256(result.stdout).hexdigest(), len(result.stdout))
        if got == (0, pin["sha256"], pin["bytes"]):
            print(f"ok   {line}", flush=True)
        else:
            failed += 1
            code, sha256, size = got
            print(f"FAIL {line}: exit {code}, sha256 {sha256}, {size} bytes", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["chordforest"]))
