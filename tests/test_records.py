"""The library's records are named tuples, and the CLI loads no ``dataclasses``.

``CountTable`` and ``Classification`` are ``collections.namedtuple``
subclasses: read-only, copied with ``_replace``, and unpacked into their
fields in order.  ``dataclasses`` would bring ``inspect`` and ``ast`` into
every CLI call, so a fresh interpreter checks that it stays out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chordforest
from chordforest.diagrams import Classification, classify_chords, parse_diagram
from chordforest.oracle import CountTable, brute_force_counts

RECORDS = [
    pytest.param(
        brute_force_counts(3),
        CountTable(3, {1: 3, 2: 6, 3: 5}, {1: 9, 2: 12, 3: 5}, 15),
        id="CountTable",
    ),
    pytest.param(
        classify_chords(parse_diagram("1-3,2-5,4-6")),
        Classification(1, True, True, (3,)),
        id="Classification",
    ),
]


@pytest.mark.parametrize("record, expected", RECORDS)
def test_record_is_a_read_only_tuple_of_its_fields(record, expected):
    assert record == expected
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, 0)
    with pytest.raises(AttributeError):
        record.extra = 0  # __slots__ = (): no instance dict
    copy = record._replace(**{first: getattr(record, first)})
    assert copy == record and copy is not record
    assert type(copy) is type(record)
    one, two, three, four = record  # both records have four fields
    assert (one, two, three, four) == tuple(getattr(record, name) for name in record._fields)
    assert (one, two, three, four) == record


def test_cli_import_loads_no_dataclasses():
    # -S keeps site-packages' .pth hooks out, so only chordforest's imports count.
    src = Path(chordforest.__file__).resolve().parent.parent
    code = (
        "import sys, chordforest.cli; chordforest.cli.build_parser(); "
        "print('dataclasses' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert result.stdout == "False\n", result.stderr
