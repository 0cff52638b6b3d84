"""End-to-end acceptance suite.

Every check is exact (tolerance zero).  One PASS/FAIL line is printed per
criterion; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import hashlib
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import pytest

from chordforest.cli import EXIT_OK, main
from chordforest.formulas import (
    binomial,
    catalan,
    double_factorial_pairings,
    forest_count,
    kreweras_count,
    rooted_forest_count,
    rooted_forest_paper_rows,
    tree_count,
    type_sum_forest_count,
)
from chordforest.oracle import (
    brute_force_tables,
    enumerate_types,
    noncrossing_partition_tallies,
)
from chordforest.series import mul, rooted_gf, solve_ternary_gf, tree_gf
from test_pins import PINS

DATA_DIR = Path(__file__).parent / "data"

BRUTE_MAX = 10
SERIES_MAX = 60
KREWERAS_MAX = 12
TYPE_SUM_MAX = 12
IDENTITY_ORDER = 40
FORMULA_MAX = 200


def _report(criterion, label, failures):
    status = "PASS" if not failures else f"FAIL ({failures[0]})"
    print(f"acceptance criterion {criterion} [{label}]: {status}")
    assert not failures, failures[0]


@pytest.fixture(scope="module")
def sweep_tables():
    """One shared exhaustive sweep for criteria 1-3: the table of each n."""
    return dict(enumerate(brute_force_tables(BRUTE_MAX), start=1))


def test_criterion_1_forest_counts_match_bruteforce(sweep_tables):
    failures = []
    for n in range(1, BRUTE_MAX + 1):
        seen_total = sweep_tables[n].total_diagrams
        expected_total = double_factorial_pairings(n)
        if seen_total != expected_total:
            failures.append(f"n={n}: visited {seen_total} of {expected_total} diagrams")
        for m in range(1, n + 1):
            expected = sweep_tables[n].forests_by_trees.get(m, 0)
            got = forest_count(n, m)
            if got != expected:
                failures.append(f"f({n},{m}): formula={got} bruteforce={expected}")
    _report(1, f"forest counts vs exhaustive sweep, n<={BRUTE_MAX}", failures)


def test_criterion_2_rooted_counts_match_bruteforce(sweep_tables):
    failures = []
    paper_rows = rooted_forest_paper_rows(BRUTE_MAX)
    for n in range(1, BRUTE_MAX + 1):
        for m in range(1, n + 1):
            expected = sweep_tables[n].rooted_by_trees.get(m, 0)
            for label, got in (
                ("lagrange-burmann", rooted_forest_count(n, m)),
                ("paper-sum", paper_rows[n - 1][m - 1]),
            ):
                if got != expected:
                    failures.append(f"r({n},{m}): {label}={got} bruteforce={expected}")
    _report(
        2,
        f"rooted forest counts, both forms, vs exhaustive sweep, n<={BRUTE_MAX}",
        failures,
    )


def test_criterion_3_desk_scale_spot_values(sweep_tables):
    failures = []
    if [tree_count(n) for n in range(1, 6)] != [1, 1, 3, 12, 55]:
        failures.append("tree counts t(1..5) differ from 1,1,3,12,55")
    if [forest_count(3, m) for m in (1, 2, 3)] != [3, 6, 5]:
        failures.append("f(3,*) differs from 3,6,5")
    if [rooted_forest_count(3, m) for m in (1, 2, 3)] != [9, 12, 5]:
        failures.append("r(3,*) differs from 9,12,5")
    table = sweep_tables[3]
    if table.total_forests != 14 or table.total_diagrams != 15:
        failures.append(
            f"size-3 sweep saw {table.total_forests} forests of "
            f"{table.total_diagrams} diagrams, expected 14 of 15"
        )
    _report(3, "desk-scale spot values", failures)


def test_criterion_4_series_equals_formula_up_to_sixty():
    failures = []
    routes = (
        ("f", tree_gf(SERIES_MAX), forest_count),
        ("r", rooted_gf(SERIES_MAX), rooted_forest_count),
    )
    for label, gf, closed_form in routes:
        power = (1,) + (0,) * SERIES_MAX
        for m in range(1, SERIES_MAX + 1):
            power = mul(power, gf)
            for n in range(m, SERIES_MAX + 1):
                numerator = binomial(2 * n, m - 1) * power[n]
                quotient, remainder = divmod(numerator, m)
                if remainder or quotient != closed_form(n, m):
                    failures.append(
                        f"{label}({n},{m}): series route "
                        f"{numerator}/{m} vs formula {closed_form(n, m)}"
                    )
    _report(4, "coefficient-extraction identities, n<=60", failures)


def test_criterion_5_generating_function_identities():
    failures = []
    order = IDENTITY_ORDER
    g = solve_ternary_gf(order)
    t = tree_gf(order)
    r = rooted_gf(order)
    if g != (1,) + mul(mul(g, g), g)[:order]:
        failures.append("G - 1 - x G^3 != 0")
    if (0, 0, 0) + t[2:order] != mul(mul(t, t), t):
        failures.append("x T - x^2 - T^3 != 0")
    # R (x - 3 T^2) = x (2x - T) by cross-multiplication, one order higher so
    # that the product reaches r_40; the zero that pads R to x^41 meets only
    # the zero constant term of x - 3 T^2
    t_up = tree_gf(order + 1)
    x = (0, 1) + (0,) * order
    x_minus_3t2 = tuple(a - 3 * b for a, b in zip(x, mul(t_up, t_up)))
    x_times_2x_minus_t = (0,) + tuple(2 * a - b for a, b in zip(x, t_up[: order + 1]))
    if mul(r + (0,), x_minus_3t2) != x_times_2x_minus_t:
        failures.append("x T' != x (2x - T) / (x - 3 T^2)")
    _report(5, "generating-function identities at order 40", failures)


def test_criterion_6_kreweras_matches_enumeration():
    failures = []
    # one sweep of [KREWERAS_MAX] tallies every ground set up to it
    for n, tallies in enumerate(noncrossing_partition_tallies(KREWERAS_MAX), start=1):
        total = sum(tallies.values())
        if total != catalan(n):
            failures.append(f"[{n}]: total {total} != catalan {catalan(n)}")
        for block_type, seen in tallies.items():
            expected = kreweras_count(block_type)
            if seen != expected:
                failures.append(
                    f"[{n}] type {block_type}: formula={expected} seen={seen}"
                )
    _report(6, f"block-type formula vs enumeration, N<={KREWERAS_MAX}", failures)


def test_criterion_7_type_sum_matches_closed_form():
    failures = []
    for n in range(1, TYPE_SUM_MAX + 1):
        for m in range(1, n + 1):
            via_types = type_sum_forest_count(enumerate_types(n, m))
            closed = forest_count(n, m)
            if via_types != closed:
                failures.append(f"f({n},{m}): type sum {via_types} != {closed}")
    _report(7, "type-sum route vs closed form, n<=12", failures)


def test_criterion_8_special_case_identities_to_two_hundred():
    failures = []
    for n in range(1, FORMULA_MAX + 1):
        if forest_count(n, 1) != tree_count(n):
            failures.append(f"f({n},1) != t({n})")
        if forest_count(n, n) != catalan(n):
            failures.append(f"f({n},{n}) != catalan({n})")
        if rooted_forest_count(n, 1) != n * tree_count(n):
            failures.append(f"r({n},1) != {n} t({n})")
        if rooted_forest_count(n, n) != catalan(n):
            failures.append(f"r({n},{n}) != catalan({n})")
    _report(8, "special cases and exact divisibility, n<=200", failures)


class TestCriterion9CliContract:
    def test_verify_default_caps_exits_zero(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        failures = [] if code == EXIT_OK else [f"exit={code}; output:\n{out}"]
        digest = hashlib.sha256(out.encode()).hexdigest()
        pinned = PINS["verify"]["sha256"]
        if digest != pinned:
            failures.append(f"stdout sha256 {digest}, pinned {pinned}")
        _report(9, "verify with default caps exits 0 and prints its pinned stdout", failures)

    def test_golden_forest_table(self, capsys):
        code = main(["table", "--kind", "f", "--max-n", "5", "--format", "csv"])
        out = capsys.readouterr().out
        golden = (DATA_DIR / "table_f_max5.csv").read_bytes()
        failures = []
        if code != EXIT_OK:
            failures.append(f"table exited {code}")
        elif out.encode() != golden:
            failures.append("CSV output differs from the checked-in fixture")
        _report(9, "golden CSV table is byte-identical", failures)

    def test_render_five_chord_figure(self, tmp_path, capsys):
        out_path = tmp_path / "figure.svg"
        code = main(
            ["render", "--diagram", "1-8,2-9,3-5,7-10,4-6", "--out", str(out_path)]
        )
        capsys.readouterr()
        failures = []
        if code != EXIT_OK:
            failures.append(f"render exited {code}")
        else:
            root = ElementTree.parse(out_path).getroot()
            segments = root.findall("{http://www.w3.org/2000/svg}line")
            if len(segments) != 5:
                failures.append(f"expected 5 chord segments, found {len(segments)}")
        _report(9, "render emits parseable SVG with 5 segments", failures)
