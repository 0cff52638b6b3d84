"""CLI surface: output formats, exit codes, and determinism.

Most tests drive main() in-process and inspect captured stdout; subprocess
tests cover the ``python -m chordforest`` entry point and a stdout closed by
its reader.
"""

import errno
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ElementTree
from types import SimpleNamespace

import pytest

import chordforest.cli
import chordforest.formulas
import chordforest.oracle
import chordforest.series
from chordforest.cli import (
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    diagram_to_svg,
    main,
)
from chordforest.diagrams import parse_diagram
from chordforest.errors import ConsistencyError
from chordforest.formulas import (
    catalan,
    double_factorial_pairings,
    forest_count,
    rooted_forest_count,
    tree_count,
)
from test_fault_matrix import _source_mutant, table_replaced
from test_pins import PINS

SVG_NS = "{http://www.w3.org/2000/svg}"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _entry_point_stdout(*argv):
    """The bytes ``python -m chordforest`` writes to a real pipe, and its exit code."""
    result = subprocess.run(
        [sys.executable, "-m", "chordforest", *argv], capture_output=True, timeout=120
    )
    return result.returncode, result.stdout


def _digest(data):
    return hashlib.sha256(data).hexdigest(), len(data)


def _pinned(line):
    pin = PINS[line]
    return pin["sha256"], pin["bytes"]


class TestCount:
    def test_forest(self, capsys):
        code, out, _ = _run(capsys, "count", "--kind", "f", "--n", "3", "--m", "2")
        assert code == EXIT_OK
        assert out == "6\n"

    def test_tree(self, capsys):
        code, out, _ = _run(capsys, "count", "--kind", "t", "--n", "1")
        assert code == EXIT_OK
        assert out == "1\n"

    def test_rooted(self, capsys):
        code, out, _ = _run(capsys, "count", "--kind", "r", "--n", "3", "--m", "1")
        assert code == EXIT_OK
        assert out == "9\n"

    def test_catalan(self, capsys):
        code, out, _ = _run(capsys, "count", "--kind", "catalan", "--n", "4")
        assert code == EXIT_OK
        assert out == "14\n"

    def test_large_value_is_exact_decimal(self, capsys):
        code, out, _ = _run(capsys, "count", "--kind", "f", "--n", "50", "--m", "10")
        assert code == EXIT_OK
        value = int(out.strip())
        assert str(value) == out.strip()
        assert value == chordforest.formulas.forest_count(50, 10)

    def test_missing_m_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "count", "--kind", "f", "--n", "3")
        assert code == EXIT_USAGE
        assert "--m" in err

    def test_domain_error_names_bound(self, capsys):
        code, _, err = _run(capsys, "count", "--kind", "f", "--n", "3", "--m", "5")
        assert code == EXIT_USAGE
        assert "1 <= m <= n" in err

    def test_unwanted_m_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "count", "--kind", "t", "--n", "3", "--m", "1")
        assert code == EXIT_USAGE

    def test_value_above_digit_limit_is_exact_decimal(self, capsys):
        # t(6000) has 4969 digits, above CPython's default limit of 4300.
        caller_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, _ = _run(capsys, "count", "--kind", "t", "--n", "6000")
            assert sys.get_int_max_str_digits() == 4300
            sys.set_int_max_str_digits(0)
            expected = math.comb(3 * 6000 - 3, 6000 - 1) // (2 * 6000 - 1)
            assert code == EXIT_OK
            assert out == f"{expected}\n"
        finally:
            sys.set_int_max_str_digits(caller_limit)

    def test_failed_self_check_exits_mismatch_without_traceback(
        self, capsys, monkeypatch
    ):
        def failing(n):
            raise ConsistencyError(f"forced failure at n={n}")

        monkeypatch.setattr(chordforest.formulas, "tree_count", failing)
        code, out, err = _run(capsys, "count", "--kind", "t", "--n", "4")
        assert code == EXIT_MISMATCH
        assert out == ""
        assert err == "error: forced failure at n=4\n"


class TestTable:
    def test_extra_rooted_row_exits_mismatch(self, capsys, monkeypatch):
        # the last-row check passes at n = max_n; the row after it must not
        mutant = _source_mutant(
            chordforest.formulas.rooted_forest_rows,
            "range(1, max_n + 1)",
            "range(1, max_n + 2)",
        )
        monkeypatch.setattr(chordforest.formulas, "rooted_forest_rows", mutant)
        code, _, err = _run(capsys, "table", "--kind", "r", "--max-n", "5")
        assert code == EXIT_MISMATCH
        assert err == "error: rooted_forest_rows(5) ended at row 6\n"

    def test_csv_small_forest_table(self, capsys):
        code, out, _ = _run(capsys, "table", "--kind", "f", "--max-n", "3")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "kind,n,m,value",
            "f,1,1,1",
            "f,2,1,1",
            "f,2,2,2",
            "f,3,1,3",
            "f,3,2,6",
            "f,3,3,5",
        ]

    def test_csv_tree_table(self, capsys):
        code, out, _ = _run(capsys, "table", "--kind", "t", "--max-n", "5")
        assert code == EXIT_OK
        assert out.splitlines()[1:] == [
            "t,1,,1",
            "t,2,,1",
            "t,3,,3",
            "t,4,,12",
            "t,5,,55",
        ]

    def test_csv_rooted_table(self, capsys):
        code, out, _ = _run(capsys, "table", "--kind", "r", "--max-n", "2")
        assert code == EXIT_OK
        assert out.splitlines()[1:] == ["r,1,1,1", "r,2,1,2", "r,2,2,2"]

    def test_json_records(self, capsys):
        code, out, _ = _run(
            capsys, "table", "--kind", "t", "--max-n", "3", "--format", "json"
        )
        assert code == EXIT_OK
        records = json.loads(out)
        assert records == [
            {"kind": "t", "n": 1, "value": "1", "source": "formula"},
            {"kind": "t", "n": 2, "value": "1", "source": "formula"},
            {"kind": "t", "n": 3, "value": "3", "source": "formula"},
        ]
        assert all("m" not in record for record in records)

    def test_csv_and_json_agree(self, capsys):
        code, csv_out, _ = _run(capsys, "table", "--kind", "f", "--max-n", "4")
        assert code == EXIT_OK
        code, json_out, _ = _run(
            capsys, "table", "--kind", "f", "--max-n", "4", "--format", "json"
        )
        assert code == EXIT_OK
        csv_rows = {
            (kind, int(n), int(m), value)
            for kind, n, m, value in (
                line.split(",") for line in csv_out.splitlines()[1:]
            )
        }
        json_rows = {
            (r["kind"], r["n"], r["m"], r["value"]) for r in json.loads(json_out)
        }
        assert csv_rows == json_rows

    def test_bad_format_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "--kind", "f", "--max-n", "3", "--format", "xml"])
        assert excinfo.value.code == EXIT_USAGE

    def test_bad_max_n(self, capsys):
        code, _, err = _run(capsys, "table", "--kind", "f", "--max-n", "0")
        assert code == EXIT_USAGE
        assert "--max-n" in err

    def test_streamed_output_equals_all_at_once_rendering(self, monkeypatch):
        cells = {
            "f": lambda n: [(m, forest_count(n, m)) for m in range(1, n + 1)],
            "r": lambda n: [(m, rooted_forest_count(n, m)) for m in range(1, n + 1)],
            "t": lambda n: [(None, tree_count(n))],
            "catalan": lambda n: [(None, catalan(n))],
        }
        for kind, row in cells.items():
            for max_n in range(1, 13):
                records = [(n, m, v) for n in range(1, max_n + 1) for m, v in row(n)]
                csv_lines = [f"{kind},{n},{'' if m is None else m},{v}\n" for n, m, v in records]
                payload = []
                for n, m, value in records:
                    record = {"kind": kind, "n": n}
                    if m is not None:
                        record["m"] = m
                    record.update(value=str(value), source="formula")
                    payload.append(record)
                expected = {
                    "csv": "kind,n,m,value\n" + "".join(csv_lines),
                    "json": json.dumps(payload, indent=2) + "\n",
                }
                for fmt, text in expected.items():
                    writes = []
                    stand_in = SimpleNamespace(write=writes.append, flush=lambda: None)
                    with monkeypatch.context() as patch:
                        patch.setattr(sys, "stdout", stand_in)
                        code = main(
                            ["table", "--kind", kind, "--max-n", str(max_n), "--format", fmt]
                        )
                    assert code == EXIT_OK
                    assert "".join(writes) == text, (kind, max_n, fmt)
                    # No write holds more than one record: one CSV line, one JSON object.
                    marker = "\n" if fmt == "csv" else '"kind"'
                    assert max(w.count(marker) for w in writes) == 1

    def test_failed_row_leaves_earlier_rows_and_exits_mismatch(self, capsys, monkeypatch):
        genuine = chordforest.formulas.forest_row

        def failing(n):
            if n == 3:
                raise ConsistencyError("forest_row(3): a binomial chain missed its end value")
            return genuine(n)

        monkeypatch.setattr(chordforest.formulas, "forest_row", failing)
        code, out, err = _run(capsys, "table", "--kind", "f", "--max-n", "4")
        assert code == EXIT_MISMATCH
        assert out == "kind,n,m,value\nf,1,1,1\nf,2,1,1\nf,2,2,2\n"
        assert err == "error: forest_row(3): a binomial chain missed its end value\n"

    def test_rooted_rows_off_the_cells_exit_mismatch(self, capsys, monkeypatch):
        genuine = chordforest.formulas.rooted_forest_count

        def corrupted(n, m):
            return genuine(n, m) + ((n, m) == (3, 2))

        monkeypatch.setattr(chordforest.formulas, "rooted_forest_count", corrupted)
        code, out, err = _run(capsys, "table", "--kind", "r", "--max-n", "3")
        assert code == EXIT_MISMATCH
        assert out == "kind,n,m,value\nr,1,1,1\nr,2,1,2\nr,2,2,2\n"
        assert err == "error: rooted_forest_rows(3) ends off the cell form r(3, m)\n"

    # The digest is the one in tests/data/pins.json; test_pins checks it
    # in-process, this checks the bytes the entry point writes to a pipe.
    @pytest.mark.parametrize(
        "argv, sha256, size",
        [("--kind f --max-n 300", *_pinned("table --kind f --max-n 300"))],
    )
    def test_large_table_stdout_is_pinned(self, argv, sha256, size):
        code, data = _entry_point_stdout("table", *argv.split())
        assert code == EXIT_OK
        assert _digest(data) == (sha256, size)


class TestSeries:
    def test_g_coefficients(self, capsys):
        code, out, _ = _run(capsys, "series", "--which", "G", "--order", "4")
        assert code == EXIT_OK
        assert out.splitlines() == ["0,1", "1,1", "2,3", "3,12", "4,55"]

    @pytest.mark.parametrize(("which", "order"), [("T", 0), ("T", 1), ("R", 0), ("R", 1)])
    def test_t_low_order(self, capsys, which, order):
        # T and R are built at order max(order, 1), then cut to order
        code, out, _ = _run(capsys, "series", "--which", which, "--order", str(order))
        assert code == EXIT_OK
        assert out.splitlines() == ["0,0", "1,1"][: order + 1]

    def test_r_coefficients(self, capsys):
        code, out, _ = _run(capsys, "series", "--which", "R", "--order", "3")
        assert code == EXIT_OK
        assert out.splitlines() == ["0,0", "1,1", "2,2", "3,9"]

    @pytest.mark.parametrize(
        "old, new",
        [("(0,) + solve_ternary_gf", "(1,) + solve_ternary_gf"), ("order - 1", "order - 2")],
    )
    def test_wrong_constant_term_or_length_exits_mismatch(self, capsys, monkeypatch, old, new):
        # verify reads T through the same check, so it fails too
        monkeypatch.setattr(
            chordforest.cli, "tree_gf", _source_mutant(chordforest.series.tree_gf, old, new)
        )
        code, out, err = _run(capsys, "series", "--which", "T", "--order", "5")
        assert code == EXIT_MISMATCH
        assert out == ""
        assert err == "error: series T to order 5 is not 6 coefficients from 0\n"
        code, _, _ = _run(capsys, "verify", "--max-n-formula", "8", "--max-n-brute", "3")
        assert code == EXIT_MISMATCH

    def test_unknown_series_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["series", "--which", "Q", "--order", "3"])
        assert excinfo.value.code == EXIT_USAGE

    def test_excessive_order(self, capsys):
        code, _, err = _run(capsys, "series", "--which", "G", "--order", "100000")
        assert code == EXIT_USAGE
        assert "--order" in err

    def test_order_cap_is_six_hundred(self, capsys):
        code, out, _ = _run(capsys, "series", "--which", "G", "--order", "600")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 601
        assert lines[600] == f"600,{math.comb(1800, 600) // 1201}"
        code, out, err = _run(capsys, "series", "--which", "G", "--order", "601")
        assert code == EXIT_USAGE
        assert out == ""
        assert "0..600" in err

    @pytest.mark.parametrize(
        "which, sha256",
        [("R", _pinned("series --which R --order 300")[0])],
    )
    def test_order_three_hundred_stdout_is_pinned(self, which, sha256):
        code, data = _entry_point_stdout("series", "--which", which, "--order", "300")
        assert code == EXIT_OK
        assert hashlib.sha256(data).hexdigest() == sha256


class TestEnumerate:
    def test_totals_for_two_chords(self, capsys):
        code, out, _ = _run(capsys, "enumerate", "--n", "2")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "n=2",
            "total-diagrams=3",
            "total-forests=3",
            "m=1 forests=1 rooted=2",
            "m=2 forests=2 rooted=2",
        ]

    def test_single_chord(self, capsys):
        code, out, _ = _run(capsys, "enumerate", "--n", "1")
        assert code == EXIT_OK
        assert "m=1 forests=1 rooted=1" in out.splitlines()

    def test_list_prints_every_forest(self, capsys):
        code, out, _ = _run(capsys, "enumerate", "--n", "3", "--list")
        assert code == EXIT_OK
        forest_lines = [line for line in out.splitlines() if "sizes=" in line]
        assert len(forest_lines) == 14
        assert "1-2,3-4,5-6 m=3 sizes=1,1,1" in forest_lines
        # the pairwise-crossing triple is the one non-forest
        assert not any(line.startswith("1-4,2-5,3-6 ") for line in forest_lines)

    def test_seven_chord_list_stdout_is_pinned(self):
        code, data = _entry_point_stdout("enumerate", "--n", "7", "--list")
        assert code == EXIT_OK
        assert _digest(data) == _pinned("enumerate --n 7 --list")

    def test_listing_is_written_in_bounded_chunks(self, monkeypatch):
        writes = []
        stand_in = SimpleNamespace(write=writes.append, flush=lambda: None)
        monkeypatch.setattr(sys, "stdout", stand_in)
        assert main(["enumerate", "--n", "7", "--list"]) == EXIT_OK
        listing = [text for text in writes if "sizes=" in text]
        assert len(listing) > 1
        assert max(text.count("\n") for text in listing) <= chordforest.cli.LIST_CHUNK_LINES
        data = "".join(writes).encode()
        assert _digest(data) == _pinned("enumerate --n 7 --list")

    def test_listing_short_of_the_scan_exits_mismatch(self, capsys, monkeypatch):
        sweep = chordforest.oracle.iter_forests

        def one_short(*args, **kwargs):
            return itertools.islice(sweep(*args, **kwargs), 1, None)

        monkeypatch.setattr(chordforest.oracle, "iter_forests", one_short)
        code, out, err = _run(capsys, "enumerate", "--n", "4", "--list")
        assert code == EXIT_MISMATCH
        assert "total-forests=82" in out.splitlines()
        assert sum("sizes=" in line for line in out.splitlines()) == 81
        assert err == "error: enumerate --list: f(n=4, m=4) formula=14 bruteforce=13\n"

    def test_listing_with_wrong_sizes_exits_mismatch(self, capsys, monkeypatch):
        # every line keeps its chords and its m; the tree that holds the last
        # chord is given n plus the others' sizes, so the rooted tally moves
        mutant = _source_mutant(
            chordforest.oracle.iter_forests, "n - sum(sizes)", "n + sum(sizes)"
        )
        monkeypatch.setattr(chordforest.oracle, "iter_forests", mutant)
        code, out, err = _run(capsys, "enumerate", "--n", "3", "--list")
        assert code == EXIT_MISMATCH
        assert sum("sizes=" in line for line in out.splitlines()) == 14
        assert err == "error: enumerate --list: r(n=3, m=2) formula=12 bruteforce=42\n"

    def test_scan_of_another_n_exits_mismatch(self, capsys, monkeypatch):
        genuine = chordforest.oracle.brute_force_counts
        monkeypatch.setattr(
            chordforest.oracle, "brute_force_counts", lambda n: genuine(n - 1)
        )
        code, out, err = _run(capsys, "enumerate", "--n", "6")
        assert code == EXIT_MISMATCH
        assert out == ""
        assert err == "error: enumerate --n 6: scan size (n=6) formula=6 bruteforce=5\n"

    @pytest.mark.parametrize(
        "field, message",
        [
            ("total_diagrams", "diagram total (n=4) formula=105 bruteforce=106"),
            ("forests_by_trees", "f(n=4, m=1) formula=12 bruteforce=13"),
            ("rooted_by_trees", "r(n=4, m=1) formula=48 bruteforce=49"),
        ],
        # the field, then what it tallies
        ids=[
            "total_diagrams-total-diagrams",
            "forests_by_trees-forests by m",
            "rooted_by_trees-rooted by m",
        ],
    )
    def test_scan_off_the_closed_forms_exits_mismatch(
        self, capsys, monkeypatch, field, message
    ):
        genuine = chordforest.oracle.brute_force_counts

        def corrupted(n):
            table = genuine(n)
            value = getattr(table, field)
            value = value + 1 if isinstance(value, int) else {**value, 1: value[1] + 1}
            return table._replace(**{field: value})

        monkeypatch.setattr(chordforest.oracle, "brute_force_counts", corrupted)
        code, out, err = _run(capsys, "enumerate", "--n", "4")
        assert code == EXIT_MISMATCH
        assert out == ""
        assert err == f"error: enumerate --n 4: {message}\n"

    @pytest.mark.parametrize(
        "tallies, counterexample",
        [
            # an extra m, even at count 0, is not one of the closed forms' m
            (lambda tally: {0: 0, **tally}, "f(n=4, m=0) formula=None bruteforce=0"),
            (
                lambda tally: {m: tally[m] for m in (1, 2, 3)},
                "f(n=4, m=4) formula=14 bruteforce=None",
            ),
        ],
        ids=["extra-m", "missing-m"],
    )
    def test_scan_with_an_extra_or_a_missing_m_fails_both_commands(
        self, capsys, monkeypatch, tallies, counterexample
    ):
        # one patch reaches enumerate too, through brute_force_counts
        genuine = chordforest.oracle.brute_force_tables
        monkeypatch.setattr(
            chordforest.oracle,
            "brute_force_tables",
            table_replaced(genuine, 4, forests_by_trees=tallies, rooted_by_trees=tallies),
        )
        code, out, err = _run(capsys, "enumerate", "--n", "4")
        assert code == EXIT_MISMATCH
        assert out == ""
        assert err == f"error: enumerate --n 4: {counterexample}\n"
        code, out, _ = _run(capsys, "verify", "--max-n-brute", "4")
        assert code == EXIT_MISMATCH
        lines = out.splitlines()
        index = lines.index("check formula-vs-bruteforce (n<=4): FAIL")
        assert lines[index + 1] == f"  first counterexample: {counterexample}"
        assert lines[-1] == "1 of 6 checks failed"

    # the listing visits every diagram and is capped at 8; the scan's tallies at 12
    ABOVE_CAP = ((("--n", "9", "--list"), 9, 8), (("--n", "13"), 13, 12))

    def test_above_cap_without_force(self, capsys):
        for argv, _, _ in self.ABOVE_CAP:
            code, _, err = _run(capsys, "enumerate", *argv)
            assert code == EXIT_USAGE
            assert "cap" in err

    def test_above_cap_error_names_force_before_any_sweep(self, capsys, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(chordforest.oracle, "brute_force_counts", sweep)
        monkeypatch.setattr(chordforest.oracle, "iter_forests", sweep)
        for argv, n, cap in self.ABOVE_CAP:
            code, out, err = _run(capsys, "enumerate", *argv)
            assert code == EXIT_USAGE
            assert out == ""
            assert err == (
                f"error: --n {n} exceeds the enumeration cap of {cap}; "
                "pass --force to override\n"
            )

    def test_force_passes_n_itself_to_the_sweeps(self, capsys, monkeypatch):
        # The caps are the CLI's alone: above them, --force hands the oracle
        # n and nothing else.  The stand-ins record their calls; the scan's
        # returns the closed forms' table and the listing yields nothing, so
        # no real sweep runs and the listing's tally check fails.
        calls = []

        def scan(*args, **kwargs):
            calls.append(("brute_force_counts", args, kwargs))
            (n,) = args
            f = {m: forest_count(n, m) for m in range(1, n + 1)}
            r = {m: rooted_forest_count(n, m) for m in range(1, n + 1)}
            return chordforest.oracle.CountTable(n, f, r, double_factorial_pairings(n))

        def listing(*args, **kwargs):
            calls.append(("iter_forests", args, kwargs))
            return iter(())

        monkeypatch.setattr(chordforest.oracle, "brute_force_counts", scan)
        monkeypatch.setattr(chordforest.oracle, "iter_forests", listing)
        code, out, _ = _run(capsys, "enumerate", "--n", "13", "--force")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "n=13"
        assert calls == [("brute_force_counts", (13,), {})]
        calls.clear()
        code, _, err = _run(capsys, "enumerate", "--n", "9", "--list", "--force")
        assert code == EXIT_MISMATCH
        assert err.startswith("error: enumerate --list: f(n=9, m=1) ")
        assert calls == [("brute_force_counts", (9,), {}), ("iter_forests", (9,), {})]

    def test_tallies_above_the_listing_cap(self, capsys):
        code, out, _ = _run(capsys, "enumerate", "--n", "10")
        assert code == EXIT_OK
        # the scan's tallies, which equal the closed forms at n = 10
        f = [forest_count(10, m) for m in range(1, 11)]
        r = [rooted_forest_count(10, m) for m in range(1, 11)]
        assert out.splitlines() == [
            "n=10",
            "total-diagrams=654729075",
            f"total-forests={sum(f)}",
            *(f"m={m} forests={f[m - 1]} rooted={r[m - 1]}" for m in range(1, 11)),
        ]

    def test_threads_is_no_longer_an_option(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["enumerate", "--n", "3", "--threads", "2"])
        assert excinfo.value.code == EXIT_USAGE
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_force_allows_small_n_anyway(self, capsys):
        code, _, _ = _run(capsys, "enumerate", "--n", "3", "--force")
        assert code == EXIT_OK


class TestVerify:
    def test_small_bounds_pass(self, capsys):
        code, out, _ = _run(
            capsys,
            "verify",
            "--max-n-formula",
            "12",
            "--max-n-brute",
            "3",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert sum(1 for line in lines if line.endswith(": PASS")) == 6
        assert lines[-1] == "all 6 checks passed"

    def test_exit_zero_iff_no_mismatch_printed(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "--max-n-formula", "8", "--max-n-brute", "2"
        )
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "counterexample" not in out

    def test_rooted_table_is_built_once_per_call(self, capsys, monkeypatch):
        rows_genuine = chordforest.formulas.rooted_forest_rows
        count_genuine = chordforest.formulas.rooted_forest_count
        row_calls, cell_calls = [], []

        def counted_rows(max_n):
            row_calls.append(max_n)
            return rows_genuine(max_n)

        def counted_cell(n, m):
            cell_calls.append((n, m))
            return count_genuine(n, m)

        monkeypatch.setattr(chordforest.formulas, "rooted_forest_rows", counted_rows)
        monkeypatch.setattr(chordforest.formulas, "rooted_forest_count", counted_cell)
        for expected in (1, 2):
            code, _, _ = _run(capsys, "verify", "--max-n-formula", "12", "--max-n-brute", "3")
            assert code == EXIT_OK
            # one table for both r checks; its last-row check reads the 12
            # cells of n = 12, the paper-sum check the 78 cells of n <= 12,
            # and brute force the 6 cells of n <= 3
            assert row_calls == [12] * expected
            assert len(cell_calls) == 96 * expected

    def test_failed_self_check_is_a_counterexample(self, capsys, monkeypatch):
        genuine = chordforest.series.mul

        def off_by_one(a, b):
            product = genuine(a, b)
            return (product[0] + 1,) + product[1:]

        # corrupts the self-check's product, not the bridge's powers in cli
        monkeypatch.setattr(chordforest.series, "mul", off_by_one)
        code, out, _ = _run(
            capsys, "verify", "--max-n-formula", "4", "--max-n-brute", "2"
        )
        # Both series checks report a self-check's message; the rest run on.
        # The bridge reads R, whose closed-form check is the only check inside
        # rooted_gf; series-identities solves and checks G through tree_gf.
        assert code == EXIT_MISMATCH
        assert out.splitlines() == [
            "check formula-vs-series (n<=4): FAIL",
            "  first counterexample: x T' disagrees with x (2x - T) / (x - 3 T^2)",
            "check rooted-paper-sum-vs-lagrange-burmann (n<=4): PASS",
            "check formula-vs-bruteforce (n<=2): PASS",
            "check kreweras-vs-enumeration (N<=9): PASS",
            "check type-sum-vs-closed-form (n<=12): PASS",
            "check series-identities (order 40): FAIL",
            "  first counterexample: G - 1 - x G^3 is nonzero at order 40",
            "2 of 6 checks failed",
        ]

    def test_threads_flag_accepted(self, capsys):
        code, _, _ = _run(
            capsys,
            "verify",
            "--max-n-formula",
            "6",
            "--max-n-brute",
            "3",
            "--threads",
            "2",
        )
        assert code == EXIT_OK

    def test_zero_threads_is_usage_error_before_any_check(self, capsys):
        code, out, err = _run(capsys, "verify", "--threads", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --threads must be >= 1, got 0\n"

    def test_brute_bound_above_cap_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "verify", "--max-n-brute", "13")
        assert code == EXIT_USAGE
        assert "cap" in err


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="without os.fork the sum runs inline")
class TestVerifyWorker:
    """verify's paper sum in its forked worker: the stdout of the inline
    sum, on every path a FAIL line and never a hang, and no worker left."""

    SMALL = ("verify", "--max-n-formula", "8", "--max-n-brute", "3")

    def test_inline_sum_prints_the_same_bytes(self, capsys, monkeypatch):
        genuine = chordforest.formulas.rooted_forest_paper_rows
        calls = []

        def recorded(max_n):
            calls.append(max_n)
            return genuine(max_n)

        monkeypatch.setattr(chordforest.formulas, "rooted_forest_paper_rows", recorded)
        forked = _run(capsys, *self.SMALL)
        assert calls == []  # made in the worker
        monkeypatch.delattr(os, "fork")
        assert _run(capsys, *self.SMALL) == forked
        assert calls == [8]
        code, out, _ = _run(capsys, "verify")
        assert code == EXIT_OK
        data = out.encode()
        pin = PINS["verify"]
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (pin["sha256"], pin["bytes"])

    def test_no_worker_outlives_a_pass(self, capsys):
        assert _run(capsys, *self.SMALL)[0] == EXIT_OK
        _no_child_left()

    def test_no_worker_outlives_a_fault_in_it(self, capsys, monkeypatch):
        def failing(max_n):
            raise ConsistencyError(f"planted at max_n={max_n}")

        monkeypatch.setattr(chordforest.formulas, "rooted_forest_paper_rows", failing)
        code, out, _ = _run(capsys, *self.SMALL)
        assert code == EXIT_MISMATCH
        assert out.splitlines()[1:3] == [
            "check rooted-paper-sum-vs-lagrange-burmann (n<=8): FAIL",
            "  first counterexample: planted at max_n=8",
        ]
        _no_child_left()

    def test_no_worker_outlives_a_closed_stdout(self, monkeypatch):
        # The first line, the bridge's, is written before the paper check
        # reads the worker, which would take a minute: it must be killed.
        # cmd_verify is called directly, since main would point the real
        # stdout at devnull.
        monkeypatch.setattr(
            chordforest.formulas, "rooted_forest_paper_rows", lambda max_n: time.sleep(60)
        )

        class ClosedStdout:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(sys, "stdout", ClosedStdout())
        args = chordforest.cli.build_parser().parse_args(self.SMALL)
        start = time.perf_counter()
        with pytest.raises(BrokenPipeError):
            chordforest.cli.cmd_verify(args)
        assert time.perf_counter() - start < 30
        _no_child_left()

    def test_worker_without_a_result_is_a_fail_line(self, capsys, monkeypatch):
        monkeypatch.setattr(
            chordforest.formulas, "rooted_forest_paper_rows", lambda max_n: os._exit(3)
        )
        code, out, _ = _run(capsys, *self.SMALL)
        assert code == EXIT_MISMATCH
        assert out.splitlines()[1:3] == [
            "check rooted-paper-sum-vs-lagrange-burmann (n<=8): FAIL",
            "  first counterexample: paper-sum worker exited with status 3 and no result",
        ]
        assert out.splitlines()[-1] == "1 of 6 checks failed"
        _no_child_left()


def _flags(**changes):
    """sys.flags as a namespace, with ``changes`` applied."""
    names = [name for name in dir(sys.flags) if not name.startswith(("_", "n_"))]
    flags = {name: getattr(sys.flags, name) for name in names}
    kept = {name: flag for name, flag in flags.items() if not callable(flag)}
    return SimpleNamespace(**{**kept, **changes})


class TestInternalError:
    @pytest.mark.parametrize("dev_mode", [False, True], ids=["plain", "dev-mode"])
    def test_uncaught_exception_exits_mismatch(self, capsys, monkeypatch, dev_mode):
        def failing(max_n):
            raise IndexError("list index out of range")

        monkeypatch.setattr(chordforest.formulas, "tree_counts", failing)
        # python -X dev adds the traceback; otherwise there is none
        monkeypatch.setattr(sys, "flags", _flags(dev_mode=dev_mode))
        code, out, err = _run(capsys, "table", "--kind", "t", "--max-n", "3")
        assert code == EXIT_MISMATCH
        assert out == "kind,n,m,value\n"
        assert err.endswith("error: internal error: IndexError: list index out of range\n")
        assert ("Traceback" in err) == dev_mode

    @pytest.mark.parametrize(
        "argv",
        [
            "count --kind f --n 3 --m 5",
            "table --kind f --max-n 0",
            "series --which G --order 601",
            "enumerate --n 13",
            "verify --max-n-formula 0",
        ],
    )
    def test_usage_errors_still_exit_usage(self, capsys, argv):
        code, out, err = _run(capsys, *argv.split())
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and "internal error" not in err


class TestRender:
    FIGURE = "1-8,2-9,3-5,7-10,4-6"

    def test_writes_parseable_svg_with_five_segments(self, tmp_path, capsys):
        out_path = tmp_path / "figure.svg"
        code, _, _ = _run(capsys, "render", "--diagram", self.FIGURE, "--out", str(out_path))
        assert code == EXIT_OK
        root = ElementTree.parse(out_path).getroot()
        assert root.tag == f"{SVG_NS}svg"
        assert len(root.findall(f"{SVG_NS}line")) == 5
        assert len(root.findall(f"{SVG_NS}text")) == 10
        labels = {element.text for element in root.findall(f"{SVG_NS}text")}
        assert labels == {str(i) for i in range(1, 11)}

    def test_single_chord(self, tmp_path, capsys):
        out_path = tmp_path / "one.svg"
        code, _, _ = _run(capsys, "render", "--diagram", "1-2", "--out", str(out_path))
        assert code == EXIT_OK
        root = ElementTree.parse(out_path).getroot()
        assert len(root.findall(f"{SVG_NS}line")) == 1

    def test_rendering_is_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        _run(capsys, "render", "--diagram", self.FIGURE, "--out", str(first))
        _run(capsys, "render", "--diagram", self.FIGURE, "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_parse_error(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "render", "--diagram", "1-2,2-3", "--out", str(tmp_path / "x.svg")
        )
        assert code == EXIT_USAGE
        assert "point 2" in err

    def test_unwritable_path(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "x.svg"
        code, _, err = _run(capsys, "render", "--diagram", "1-2", "--out", str(target))
        assert code == EXIT_IO
        assert "cannot write" in err

    def test_failed_write_keeps_existing_file(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "figure.svg"
        target.write_text("earlier figure")

        def open_on_full_disk(*args, **kwargs):
            handle = open(*args, **kwargs)

            def write(text):
                raise OSError(errno.ENOSPC, "No space left on device")

            handle.write = write
            return handle

        monkeypatch.setattr(chordforest.cli, "open", open_on_full_disk, raising=False)
        code, _, err = _run(capsys, "render", "--diagram", self.FIGURE, "--out", str(target))
        assert code == EXIT_IO
        assert "cannot write" in err
        assert target.read_text() == "earlier figure"
        assert [path.name for path in tmp_path.iterdir()] == ["figure.svg"]

    def test_replaces_existing_file(self, tmp_path, capsys):
        target = tmp_path / "figure.svg"
        target.write_text("earlier figure")
        code, _, _ = _run(capsys, "render", "--diagram", "1-2", "--out", str(target))
        assert code == EXIT_OK
        assert target.read_text() == diagram_to_svg(parse_diagram("1-2"))
        assert [path.name for path in tmp_path.iterdir()] == ["figure.svg"]

    def test_svg_matches_diagram_chord_count(self):
        for text in ("1-2", "1-4,2-3", "1-8,2-9,3-5,7-10,4-6"):
            diagram = parse_diagram(text)
            svg = diagram_to_svg(diagram)
            assert svg.count("<line ") == len(diagram)

    @pytest.mark.parametrize(
        "diagram, sha256, size",
        [
            (FIGURE, "c824f7dd8a2632e5d8f89b0c669180c9083f9a3ab983ce4fee3fe51316db2408", 2346),
            ("1-2", "d2bb20a096b1ef5111f40abc9c86aca89e9de1f6eed1f63d8ad6fa2e1e360faf", 653),
        ],
    )
    def test_svg_bytes_are_pinned(self, tmp_path, capsys, diagram, sha256, size):
        out_path = tmp_path / "figure.svg"
        code, _, _ = _run(capsys, "render", "--diagram", diagram, "--out", str(out_path))
        assert code == EXIT_OK
        data = out_path.read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, size)


def test_module_entry_point_runs_in_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "chordforest", "count", "--kind", "f", "--n", "3", "--m", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "6\n"


@pytest.mark.parametrize(
    "argv",
    [["table", "--kind", "t", "--max-n", "3000"], ["enumerate", "--n", "7", "--list"]],
)
def test_closed_stdout_exits_io_error_without_traceback(argv):
    with subprocess.Popen(
        [sys.executable, "-m", "chordforest", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as process:
        assert process.stdout.read(20)
        process.stdout.close()  # as `| head -c 20` does
        err = process.stderr.read().decode()
        code = process.wait()
    assert code == EXIT_IO
    assert err == f"error: cannot write to stdout: {os.strerror(errno.EPIPE)}\n"
    assert "Traceback" not in err and "Exception ignored" not in err
