"""Every name a module lists in ``__all__`` exists, and so does every name
the benchmark's tracer reads.

Tools that walk ``__all__`` (``from module import *``, tracing wrappers)
fail on a stale entry, so a deletion must take its entry with it.
``perfbench/spans.py`` also reads some names of ``cli`` and ``oracle`` by
attribute, so a traced run of a few small commands must still exit 0.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import chordforest

ROOT = Path(__file__).resolve().parent.parent
# one small command per CLI path that the tracer wraps
TRACED_COMMANDS = [
    ["verify", "--max-n-formula", "4", "--max-n-brute", "2"],
    ["enumerate", "--n", "3", "--list"],
    ["series", "--which", "R", "--order", "5"],
    ["table", "--kind", "r", "--max-n", "3"],
]


@pytest.mark.parametrize("module", ["formulas", "series", "diagrams", "oracle", "cli"])
def test_all_entries_are_attributes(module):
    loaded = importlib.import_module(f"chordforest.{module}")
    missing = [name for name in loaded.__all__ if not hasattr(loaded, name)]
    assert missing == []


def test_benchmark_traces_the_cli():
    src = Path(chordforest.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(src), "traced"],
        input=json.dumps(TRACED_COMMANDS),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    outputs = json.loads(result.stdout)["outputs"]
    assert [(output["argv"], output["code"]) for output in outputs] == [
        (argv, 0) for argv in TRACED_COMMANDS
    ], outputs
