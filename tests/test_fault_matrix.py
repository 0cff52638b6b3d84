"""Fault matrix: a +1 planted in any series function that the CLI reaches
fails ``verify``.

Each row corrupts one cell of one function's result, at the module attribute
that its caller looks up: ``cli``'s own name for the functions ``cli`` calls,
``series``' for those that only other series functions call.  The row then
runs ``verify`` at small bounds and names every check that must fail, with
its first counterexample.  This is mutation analysis (DeMillo, Lipton and
Sayward, "Hints on Test Data Selection", IEEE Computer 11(4), 1978) turned
on the claim that the three routes check each other.
"""

import inspect

import pytest

import chordforest.cli
import chordforest.series
from chordforest.cli import EXIT_MISMATCH, main

VERIFY = ("verify", "--max-n-formula", "8", "--max-n-brute", "3")
R_CHECK = "x T' disagrees with x (2x - T) / (x - 3 T^2)"
G_CHECK = "G - 1 - x G^3 is nonzero at order 40"
BRIDGE = "formula-vs-series (n<=8)"
IDENTITIES = "series-identities (order 40)"


def _plus_one(genuine, cell):
    """genuine with coefficient ``cell`` of every long enough result off by one."""

    def corrupted(*args):
        coeffs = list(genuine(*args))
        if len(coeffs) > cell:
            coeffs[cell] += 1
        return tuple(coeffs)

    return corrupted


def _power_plus_one(genuine, m, n):
    """tree_powers with [x^n] T^m off by one."""

    def corrupted(t):
        powers = genuine(t)
        power = list(powers[m - 1])
        power[n] += 1
        powers[m - 1] = tuple(power)
        return powers

    return corrupted


# (module, name, corruption of the genuine function, {failing check: first
# counterexample}); every other check must pass
ROWS = [
    (chordforest.cli, "mul", lambda f: _plus_one(f, 5), {
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
