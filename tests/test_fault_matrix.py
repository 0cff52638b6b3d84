"""Fault matrix: a +1 planted in any series function that the CLI reaches,
or in any public formulas function, fails ``verify``.

Each row corrupts one cell of one function's result, at the module attribute
that its caller looks up: ``cli``'s own name for the series functions
``cli`` calls, ``series``' for those that only other series functions call,
and ``formulas``' for the formulas functions, which ``cli`` and ``formulas``
itself both look up there.  The row then runs ``verify`` at small bounds
and names every check that must fail, with its first counterexample.  This
is mutation analysis (DeMillo, Lipton and Sayward, "Hints on Test Data
Selection", IEEE Computer 11(4), 1978) turned on the claim that the three
routes check each other.
"""

import inspect

import pytest

import chordforest.cli
import chordforest.formulas
import chordforest.series
from chordforest.cli import EXIT_MISMATCH, main

VERIFY = ("verify", "--max-n-formula", "8", "--max-n-brute", "3")
R_CHECK = "x T' disagrees with x (2x - T) / (x - 3 T^2)"
G_CHECK = "G - 1 - x G^3 is nonzero at order 40"
BRIDGE = "formula-vs-series (n<=8)"
IDENTITIES = "series-identities (order 40)"
PAPER_SUM = "rooted-paper-sum-vs-lagrange-burmann (n<=8)"
BRUTE = "formula-vs-bruteforce (n<=3)"
KREWERAS = "kreweras-vs-enumeration (N<=9)"
TYPE_SUM = "type-sum-vs-closed-form (n<=12)"


def _plus_one(genuine, cell):
    """genuine with coefficient ``cell`` of every long enough result off by one."""

    def corrupted(*args):
        coeffs = list(genuine(*args))
        if len(coeffs) > cell:
            coeffs[cell] += 1
        return tuple(coeffs)

    return corrupted


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


# (module, name, corruption of the genuine function, {failing check: first
# counterexample}); every other check must pass
ROWS = [
    (chordforest.cli, "rooted_powers", lambda f: _power_plus_one(f, 2, 5), {
        BRIDGE: "r(n=5, m=2) formula=660 series=665",
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
        IDENTITIES: "[x^6] R=1638 xT'=1644",
    }),
    (chordforest.cli, "tree_gf", lambda f: _plus_one(f, 5), {
        IDENTITIES: "[x^5] R=275 xT'=280",
    }),
    (chordforest.cli, "rooted_gf", lambda f: _plus_one(f, 5), {
        BRIDGE: "[x^5] R = 276 is not divisible by n = 5",
        IDENTITIES: "[x^5] R=276 xT'=275",
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
    (chordforest.formulas, "forest_row", lambda f: _plus_one(f, 2), {
        BRIDGE: "f(n=3, m=3) formula=6 series=5",
    }),
    (chordforest.formulas, "kreweras_count", lambda f: _value_plus_one(f, (4, 2, 2)), {
        KREWERAS: "type (4, 2, 2) of [8] formula=29 bruteforce=28",
        TYPE_SUM: "f(n=4, m=3) formula=28 type-sum=29",
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
    (chordforest.formulas, "rooted_forest_rows", lambda f: _rows_plus_one(f, 5, 2), {
        BRIDGE: "r(n=5, m=2) formula=661 series=660",
        PAPER_SUM: "r(n=5, m=2) lagrange-burmann=661 paper-sum=660",
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
    (
        chordforest.formulas,
        "type_sum_forest_count",
        lambda f: _types_plus_one(f, [(4, 1), (3, 2)]),
        {TYPE_SUM: "f(n=5, m=2) formula=150 type-sum=151"},
    ),
]


@pytest.mark.parametrize(
    "module, name, corrupt, failures",
    ROWS,
    ids=[f"{module.__name__}.{name}" for module, name, _, _ in ROWS],
)
def test_planted_fault_fails_verify(capsys, monkeypatch, module, name, corrupt, failures):
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    code = main(list(VERIFY))
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_MISMATCH
    failed = {
        line.removeprefix("check ").removesuffix(": FAIL"): lines[index + 1]
        for index, line in enumerate(lines)
        if line.endswith(": FAIL")
    }
    assert failed == {
        check: f"  first counterexample: {counterexample}"
        for check, counterexample in failures.items()
    }
    assert lines[-1] == f"{len(failures)} of 6 checks failed"


def test_every_series_function_has_a_row():
    def series_functions(namespace):
        return {
            name
            for name, value in vars(namespace).items()
            if inspect.isfunction(value) and value.__module__ == chordforest.series.__name__
        }

    rows = {name for _, name, _, _ in ROWS}
    assert series_functions(chordforest.cli) <= rows
    assert series_functions(chordforest.series) <= rows


def test_every_formulas_function_has_a_row():
    rows = {name for module, name, _, _ in ROWS if module is chordforest.formulas}
    assert set(chordforest.formulas.__all__) <= rows
