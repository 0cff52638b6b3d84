"""Every name a module lists in ``__all__`` exists.

Tools that walk ``__all__`` (``from module import *``, tracing wrappers)
fail on a stale entry, so a deletion must take its entry with it.
"""

import importlib

import pytest


@pytest.mark.parametrize("module", ["formulas", "series", "diagrams", "oracle", "cli"])
def test_all_entries_are_attributes(module):
    loaded = importlib.import_module(f"chordforest.{module}")
    missing = [name for name in loaded.__all__ if not hasattr(loaded, name)]
    assert missing == []
