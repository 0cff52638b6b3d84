"""Fault matrix: every fault the tests plant to fail ``verify``, one row each.

A fault planted in any series function that the CLI reaches, in any public
formulas function, or in any oracle function that ``verify`` calls, fails
``verify``; the guards below require a row for each such function.

Each row corrupts one cell of one function's result, drops its last one, or
plants a fault that raises, at the module attribute that its caller looks
up: ``cli``'s own name for the series functions ``cli`` calls, ``series``'
for those that only other series functions call, and ``formulas``' and
``oracle``'s for the functions of those modules, which ``cli`` and the
module itself both look up there.  The row then runs
``verify --max-n-brute 3`` and names every check that must fail, with its
first counterexample; every other check must pass.  A fault in
``rooted_forest_paper_rows``, or in a function that the Kreweras or type-sum
check calls, runs in ``verify``'s forked worker, which inherits the planted
attribute and sends back a mismatch as a message, like any failure.  Most
rows run at ``--max-n-formula 8``; a row that names a larger bound plants a
fault that only that bound reaches, such as one in the last row a check
reads.  This is mutation analysis (DeMillo, Lipton and Sayward, "Hints on
Test Data Selection", IEEE Computer 11(4), 1978) turned on the claim that
the three routes check each other.
"""

import inspect

import pytest

import chordforest.cli
import chordforest.formulas
import chordforest.oracle
import chordforest.series
from chordforest.cli import EXIT_MISMATCH, EXIT_OK, main

MAX_N_FORMULA = 8  # verify's --max-n-formula for a row that names none
R_CHECK = "x T' disagrees with x (2x - T) / (x - 3 T^2)"
G_CHECK = "G - 1 - x G^3 is nonzero at order 40"
BRIDGE = "formula-vs-series (n<={})"
IDENTITIES = "series-identities (order 40)"
PAPER_SUM = "rooted-paper-sum-vs-lagrange-burmann (n<={})"
BRUTE = "formula-vs-bruteforce (n<=3)"
KREWERAS = "kreweras-vs-enumeration (N<=9)"
TYPE_SUM = "type-sum-vs-closed-form (n<=12)"
# r(60, 30), in the last row of the default bound
R_60_30 = 98495518681564789533321823104337754875933767896154778170880


def _plus_one(genuine, cell, *at):
    """genuine with coefficient ``cell`` off by one: of every long enough
    result, or of its result at the arguments ``at`` only."""

    def corrupted(*args):
        coeffs = list(genuine(*args))
        if len(coeffs) > cell and (not at or args == at):
            coeffs[cell] += 1
        return tuple(coeffs)

    return corrupted


def _short(genuine):
    """genuine with its result less its last coefficient, row or table."""

    def corrupted(*args):
        return list(genuine(*args))[:-1]

    return corrupted


def _last_row_short(genuine):
    """A table of rows with its last row less its last cell."""

    def corrupted(max_n):
        rows = list(genuine(max_n))
        rows[-1] = rows[-1][:-1]
        return rows

    return corrupted


def _source_mutant(function, old, new):
    """``function`` recompiled in its module's namespace with the one
    occurrence of ``old`` in its source replaced by ``new``: a planted fault
    of the kind a mutation run makes; test_cli plants it too."""
    source = inspect.getsource(function)
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(function)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


def _value_plus_one(genuine, *cell):
    """genuine with its value at the arguments ``cell`` off by one."""

    def corrupted(*args):
        value = genuine(*args)
        return value + 1 if args == cell else value

    return corrupted


def _types_plus_one(genuine, types):
    """type_sum_forest_count with its value over ``types`` off by one."""

    def corrupted(given):
        given = list(given)
        return genuine(given) + (given == types)

    return corrupted


def _rows_plus_one(genuine, n, m):
    """A table of rows with entry r(n, m) off by one."""

    def corrupted(max_n):
        rows = [list(row) for row in genuine(max_n)]
        rows[n - 1][m - 1] += 1
        return rows

    return corrupted


def _chain_plus_one(genuine, m, k):
    """_extend_s with coefficient s_k of that m off by one, as later steps read it."""

    def corrupted(s, chain_m, steps):
        for _ in range(steps):
            genuine(s, chain_m, 1)
            if chain_m == m and len(s) == k + 1:
                s[k] += 1

    return corrupted


def _power_plus_one(genuine, m, n):
    """tree_powers or rooted_powers with [x^n] of the m-th power off by one."""

    def corrupted(series):
        powers = genuine(series)
        power = list(powers[m - 1])
        power[n] += 1
        powers[m - 1] = tuple(power)
        return powers

    return corrupted


def table_replaced(genuine, n, /, **changes):
    """brute_force_tables with each field of its table of n that ``changes``
    names replaced by ``change(value)``; test_cli plants it in ``enumerate``."""

    def corrupted(*args):
        tables = genuine(*args)
        table = tables[n - 1]
        tables[n - 1] = table._replace(
            **{field: change(getattr(table, field)) for field, change in changes.items()}
        )
        return tables

    return corrupted


def _tally_plus_one(genuine, ground, sizes):
    """noncrossing_partition_tallies with type ``sizes`` of [ground] off by one."""

    def corrupted(*args):
        tallies = genuine(*args)
        tallies[ground - 1][sizes] += 1
        return tallies

    return corrupted


def _types_without(genuine, dropped):
    """enumerate_types without the type ``dropped``."""

    def corrupted(n, m):
        return (sizes for sizes in genuine(n, m) if sizes != dropped)

    return corrupted


# (module, name, corruption of the genuine function, {failing check: first
# counterexample}[, --max-n-formula]); every other check must pass
ROWS = [
    (chordforest.cli, "rooted_powers", lambda f: _power_plus_one(f, 2, 5), {
        BRIDGE: "r(n=5, m=2) formula=660 series=665",
    }),
    # an inexact quotient is shown as a fraction
    (chordforest.cli, "rooted_powers", lambda f: _power_plus_one(f, 3, 4), {
        BRIDGE: "r(n=4, m=3) formula=56 series=196/3",
    }),
    (chordforest.series, "mul", lambda f: _plus_one(f, 5), {
        BRIDGE: R_CHECK,
        IDENTITIES: G_CHECK,
    }),
    (chordforest.series, "square", lambda f: _plus_one(f, 5), {
        BRIDGE: R_CHECK,
        IDENTITIES: G_CHECK,
    }),
    (chordforest.series, "x_derivative", lambda f: _plus_one(f, 5), {
        BRIDGE: R_CHECK,
        IDENTITIES: R_CHECK,
    }),
    (chordforest.cli, "tree_powers", lambda f: _power_plus_one(f, 2, 5), {
        BRIDGE: "f(n=5, m=2) formula=150 series=155",
    }),
    (chordforest.series, "solve_ternary_gf", lambda f: _plus_one(f, 5), {
        BRIDGE: "t(n=6) formula=273 series=274",
        IDENTITIES: "[x^6] R=1638 xT'=1644",
    }),
    (chordforest.cli, "tree_gf", lambda f: _plus_one(f, 5), {
        BRIDGE: "t(n=5) formula=55 series=56",
        IDENTITIES: "[x^5] R=275 xT'=280",
    }),
    # the length check that series prints T through; identities reads T to 41
    (chordforest.cli, "tree_gf", _short, {
        BRIDGE: "series T to order 8 is not 9 coefficients from 0",
        IDENTITIES: "series T to order 41 is not 42 coefficients from 0",
    }),
    (chordforest.cli, "rooted_gf", lambda f: _plus_one(f, 5), {
        BRIDGE: "R^3 has a non-integer coefficient at x^6",
        IDENTITIES: "[x^5] R=276 xT'=275",
    }),
    (chordforest.cli, "rooted_gf", lambda f: _plus_one(_plus_one(f, 2), 2), {
        BRIDGE: "R^3 has a non-integer coefficient at x^3",
        IDENTITIES: "[x^2] R=4 xT'=2",
    }),
    (chordforest.cli, "rooted_gf", _short, {
        BRIDGE: "series R to order 8 is not 9 coefficients from 0",
        IDENTITIES: "series R to order 40 is not 41 coefficients from 0",
    }),
    (chordforest.series, "_ternary_coefficients", lambda f: _plus_one(f, 5), {
        BRIDGE: R_CHECK,
        IDENTITIES: G_CHECK,
    }),
    (chordforest.formulas, "binomial", lambda f: _value_plus_one(f, 10, 2), {
        BRIDGE: "460 is not divisible by 3",
        PAPER_SUM: "92 is not divisible by 3",
        TYPE_SUM: "460 is not divisible by 3",
    }),
    (chordforest.formulas, "catalan", lambda f: _value_plus_one(f, 5), {
        BRIDGE: "f(n=5, m=5) formula=43 series=42",
        KREWERAS: "non-crossing partitions of [5] formula=43 bruteforce=42",
        TYPE_SUM: "f(n=5, m=5) formula=43 type-sum=42",
    }),
    (chordforest.formulas, "double_factorial_pairings", lambda f: _value_plus_one(f, 3), {
        BRUTE: "diagram total (n=3) formula=16 bruteforce=15",
    }),
    (chordforest.formulas, "forest_count", lambda f: _value_plus_one(f, 5, 3), {
        BRIDGE: "f(n=5, m=3) formula=181 series=180",
        TYPE_SUM: "f(n=5, m=3) formula=181 type-sum=180",
    }),
    (chordforest.formulas, "forest_count", lambda f: _value_plus_one(f, 3, 2), {
        BRIDGE: "f(n=3, m=2) formula=7 series=6",
        BRUTE: "f(n=3, m=2) formula=7 bruteforce=6",
        TYPE_SUM: "f(n=3, m=2) formula=7 type-sum=6",
    }),
    (chordforest.formulas, "forest_row", lambda f: _plus_one(f, 2), {
        BRIDGE: "f(n=3, m=3) formula=6 series=5",
    }),
    (chordforest.formulas, "forest_row", _short, {
        BRIDGE: "cells of f(n=1, m) formula=0 series=1",
    }),
    (chordforest.formulas, "kreweras_count", lambda f: _value_plus_one(f, (4, 2, 2)), {
        KREWERAS: "type (4, 2, 2) of [8] formula=29 bruteforce=28",
        TYPE_SUM: "f(n=4, m=3) formula=28 type-sum=29",
    }),
    (chordforest.formulas, "kreweras_count", lambda f: _value_plus_one(f, (2, 1)), {
        KREWERAS: "type (2, 1) of [3] formula=4 bruteforce=3",
    }),
    (chordforest.formulas, "lagrange_coeff", lambda f: _value_plus_one(f, 4, 4), {
        PAPER_SUM: "r(n=3, m=1) lagrange-burmann=9 paper-sum=27",
    }),
    (chordforest.formulas, "rooted_forest_count", lambda f: _value_plus_one(f, 5, 2), {
        PAPER_SUM: "r(n=5, m=2) lagrange-burmann=661 paper-sum=660",
    }),
    (chordforest.formulas, "rooted_forest_paper_rows", lambda f: _rows_plus_one(f, 5, 2), {
        PAPER_SUM: "r(n=5, m=2) lagrange-burmann=660 paper-sum=661",
    }),
    # The sum's rows cross a process boundary, so their shape is counted.
    (chordforest.formulas, "rooted_forest_paper_rows", _short, {
        PAPER_SUM: "rows of r(n, m) lagrange-burmann=8 paper-sum=7",
    }),
    (chordforest.formulas, "rooted_forest_paper_rows", _last_row_short, {
        PAPER_SUM: "cells of r(n=8, m) lagrange-burmann=8 paper-sum=7",
    }),
    # A check that raises is a FAIL line, here raised in the sum's worker:
    # the weight step C(m+j-1, j) 3^j divides by j - 1, which is 0 at j = 1.
    (
        chordforest.formulas,
        "rooted_forest_paper_rows",
        lambda f: _source_mutant(f, "(m + j - 1), j)", "(m + j - 1), j - 1)"),
        {PAPER_SUM: "ZeroDivisionError: integer division or modulo by zero"},
    ),
    (chordforest.formulas, "rooted_forest_rows", lambda f: _rows_plus_one(f, 5, 2), {
        BRIDGE: "r(n=5, m=2) formula=661 series=660",
        PAPER_SUM: "r(n=5, m=2) lagrange-burmann=661 paper-sum=660",
    }),
    # The bridge counts the table's rows where it first reads it; the
    # paper-sum check then meets the missing row as an IndexError.
    (chordforest.formulas, "rooted_forest_rows", _short, {
        BRIDGE: "rows of r(n, m) formula=7 series=8",
        PAPER_SUM: "IndexError: list index out of range",
    }),
    # The row kernel and the cell form share this chain, so the row kernel's
    # last-row check cannot see the fault; the next step's exact division
    # (4 s_4 = 2 s_3 + ...) does, on both r checks.
    (chordforest.formulas, "_extend_s", lambda f: _chain_plus_one(f, 2, 3), {
        BRIDGE: "166 is not divisible by 4",
        PAPER_SUM: "166 is not divisible by 4",
    }),
    (chordforest.formulas, "tree_count", lambda f: _value_plus_one(f, 5), {
        BRIDGE: "t(n=5) formula=56 series=55",
        TYPE_SUM: "f(n=5, m=1) formula=55 type-sum=56",
    }),
    (chordforest.formulas, "tree_counts", lambda f: _plus_one(f, 4), {
        BRIDGE: "t(n=5) formula=56 series=55",
    }),
    (chordforest.formulas, "tree_counts", _short, {
        BRIDGE: "cells of t(n) formula=7 series=8",
    }),
    (
        chordforest.formulas,
        "type_sum_forest_count",
        lambda f: _types_plus_one(f, [(4, 1), (3, 2)]),
        {TYPE_SUM: "f(n=5, m=2) formula=150 type-sum=151"},
    ),
    (
        chordforest.oracle,
        "brute_force_tables",
        lambda f: table_replaced(f, 3, forests_by_trees=lambda by_m: {**by_m, 2: 7}),
        {BRUTE: "f(n=3, m=2) formula=6 bruteforce=7"},
    ),
    # the table of n = 2 labelled 1: its tallies are right, only its n is not
    (chordforest.oracle, "brute_force_tables", lambda f: table_replaced(f, 2, n=lambda n: 1), {
        BRUTE: "scan size (n=2) formula=2 bruteforce=1",
    }),
    (
        chordforest.oracle,
        "brute_force_tables",
        lambda f: table_replaced(f, 2, total_diagrams=lambda total: total + 1),
        {BRUTE: "diagram total (n=2) formula=3 bruteforce=4"},
    ),
    (
        chordforest.oracle,
        "brute_force_tables",
        lambda f: table_replaced(f, 3, rooted_by_trees=lambda by_m: {**by_m, 2: 0}),
        {BRUTE: "r(n=3, m=2) formula=12 bruteforce=0"},
    ),
    # a scan that stops one table short
    (chordforest.oracle, "brute_force_tables", _short, {
        BRUTE: "scan tables (n<=3) formula=3 bruteforce=2",
    }),
    (
        chordforest.oracle,
        "noncrossing_partition_tallies",
        lambda f: _tally_plus_one(f, 5, (3, 1, 1)),
        {KREWERAS: "non-crossing partitions of [5] formula=42 bruteforce=43"},
    ),
    (chordforest.oracle, "enumerate_types", lambda f: _types_without(f, (3, 2)), {
        TYPE_SUM: "f(n=5, m=2) formula=150 type-sum=120",
    }),
    # Rows at a larger bound, for faults past n = 8.  Default verify once
    # passed a wrong t(20).
    (chordforest.formulas, "tree_count", lambda f: _value_plus_one(f, 20), {
        BRIDGE: "t(n=20) formula=16332922290301 series=16332922290300",
    }, 30),
    (chordforest.formulas, "tree_counts", lambda f: _plus_one(f, 19), {
        BRIDGE: "t(n=20) formula=16332922290301 series=16332922290300",
    }, 30),
    (chordforest.formulas, "forest_row", lambda f: _plus_one(f, 4, 20), {
        BRIDGE: "f(n=20, m=5) formula=4114066297404337 series=4114066297404336",
    }, 30),
    # the rooted table's last-row check, which both r checks share
    (chordforest.formulas, "rooted_forest_count", lambda f: _value_plus_one(f, 12, 5), {
        BRIDGE: "rooted_forest_rows(12) ends off the cell form r(12, m)",
        PAPER_SUM: "rooted_forest_rows(12) ends off the cell form r(12, m)",
    }, 12),
    # The paper-sum check reads the r cell form up to n = 20 only
    # (test_the_rooted_cell_band_ends_at_20), so this is the last row in
    # which a fault of rooted_forest_count is seen at the default bound.
    (chordforest.formulas, "rooted_forest_count", lambda f: _value_plus_one(f, 20, 5), {
        PAPER_SUM: (
            "r(n=20, m=5) lagrange-burmann=289790184665121505 paper-sum=289790184665121504"
        ),
    }, 60),
    # the last row of the default bound
    (chordforest.formulas, "tree_count", lambda f: _value_plus_one(f, 60), {
        BRIDGE: (
            "t(n=60) formula=4530954345822264258644101276351421147198184001 "
            "series=4530954345822264258644101276351421147198184000"
        ),
    }, 60),
    (chordforest.cli, "tree_gf", lambda f: _plus_one(f, 60), {
        BRIDGE: (
            "t(n=60) formula=4530954345822264258644101276351421147198184000 "
            "series=4530954345822264258644101276351421147198184001"
        ),
    }, 60),
    (chordforest.formulas, "forest_count", lambda f: _value_plus_one(f, 60, 30), {
        BRIDGE: (
            "f(n=60, m=30) formula=791579577312674820008336752194874248810749205224753345 "
            "series=791579577312674820008336752194874248810749205224753344"
        ),
    }, 60),
    (chordforest.formulas, "rooted_forest_rows", lambda f: _rows_plus_one(f, 60, 30), {
        BRIDGE: f"r(n=60, m=30) formula={R_60_30 + 1} series={R_60_30}",
        PAPER_SUM: f"r(n=60, m=30) lagrange-burmann={R_60_30 + 1} paper-sum={R_60_30}",
    }, 60),
    (chordforest.formulas, "rooted_forest_paper_rows", lambda f: _rows_plus_one(f, 60, 30), {
        PAPER_SUM: f"r(n=60, m=30) lagrange-burmann={R_60_30} paper-sum={R_60_30 + 1}",
    }, 60),
]
ROWS = [row if len(row) == 5 else (*row, MAX_N_FORMULA) for row in ROWS]
# module.name, then -n30 on a row at bound 30 and -2 on a key's second row
IDS = [
    f"{module.__name__}.{name}" + f"-n{bound}" * (bound != MAX_N_FORMULA)
    for module, name, _, _, bound in ROWS
]
IDS = [key + f"-{IDS[:i].count(key) + 1}" * (key in IDS[:i]) for i, key in enumerate(IDS)]


def _verify(max_n_formula=MAX_N_FORMULA):
    return main(["verify", "--max-n-formula", str(max_n_formula), "--max-n-brute", "3"])


@pytest.mark.parametrize("module, name, corrupt, failures, max_n_formula", ROWS, ids=IDS)
def test_planted_fault_fails_verify(
    capsys, monkeypatch, module, name, corrupt, failures, max_n_formula
):
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    code = _verify(max_n_formula)
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_MISMATCH
    failed = {
        line.removeprefix("check ").removesuffix(": FAIL"): lines[index + 1]
        for index, line in enumerate(lines)
        if line.endswith(": FAIL")
    }
    assert failed == {
        check.format(max_n_formula): f"  first counterexample: {counterexample}"
        for check, counterexample in failures.items()
    }
    assert lines[-1] == f"{len(failures)} of 6 checks failed"


def test_the_rooted_cell_band_ends_at_20():
    assert chordforest.cli.ROOTED_CELL_VERIFY_MAX == 20


def test_every_series_function_has_a_row():
    def series_functions(namespace):
        return {
            name
            for name, value in vars(namespace).items()
            if inspect.isfunction(value) and value.__module__ == chordforest.series.__name__
        }

    rows = {name for _, name, *_ in ROWS}
    assert series_functions(chordforest.cli) <= rows
    assert series_functions(chordforest.series) <= rows


def test_every_formulas_function_has_a_row():
    rows = {name for module, name, *_ in ROWS if module is chordforest.formulas}
    assert set(chordforest.formulas.__all__) <= rows


def test_every_oracle_function_verify_calls_has_a_row(capsys, monkeypatch):
    called = set()

    def recording(name, genuine):
        def record(*args, **kwargs):
            called.add(name)
            return genuine(*args, **kwargs)

        return record

    # the public functions, which cli calls; private helpers run inside them
    for name in chordforest.oracle.__all__:
        value = getattr(chordforest.oracle, name)
        if inspect.isfunction(value):
            monkeypatch.setattr(chordforest.oracle, name, recording(name, value))
    assert _verify() == EXIT_OK
    capsys.readouterr()
    rows = {name for module, name, *_ in ROWS if module is chordforest.oracle}
    assert called and called <= rows
