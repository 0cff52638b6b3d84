"""Run every pinned command of ``tests/data/pins.json`` as a program and
compare its stdout's sha256 and byte count with the pin.

Usage::

    python tests/check_pins.py                      # the installed chordforest
    python tests/check_pins.py python -m chordforest

The arguments, if any, are the command to run in place of ``chordforest``.
One line per pin goes to stdout, ``ok`` or ``FAIL`` with what differed; the
exit status is 1 if any pin failed, or if stdout's reader goes away before
the last line (as with ``| head``).  Stdlib only.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

PINS = Path(__file__).resolve().parent / "data" / "pins.json"


def main(command: list[str]) -> int:
    failed = 0
    try:
        for line, pin in json.loads(PINS.read_text(encoding="utf-8")).items():
            result = subprocess.run([*command, *line.split()], stdout=subprocess.PIPE)
            stdout = result.stdout
            got = (result.returncode, hashlib.sha256(stdout).hexdigest(), len(stdout))
            if got == (0, pin["sha256"], pin["bytes"]):
                print(f"ok   {line}", flush=True)
            else:
                failed += 1
                code, sha256, size = got
                print(f"FAIL {line}: exit {code}, sha256 {sha256}, {size} bytes", flush=True)
    except BrokenPipeError:
        # stdout's reader has gone; as chordforest's CLI does, point stdout at
        # devnull so that the interpreter's last flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["chordforest"]))
