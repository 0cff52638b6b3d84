"""Closed-form counters, pinned against small independent oracles.

Expected values come from hand enumeration, a Pascal-triangle recurrence,
direct products, or the exhaustive sweeps in test_oracle.py; none were
produced by the functions under test.
"""

import itertools
import math
import operator
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chordforest import formulas
from chordforest.errors import ConsistencyError
from chordforest.formulas import (
    _exact_div,
    binomial,
    catalan,
    double_factorial_pairings,
    forest_count,
    forest_row,
    kreweras_count,
    lagrange_coeff,
    rooted_forest_count,
    rooted_forest_paper_rows,
    rooted_forest_rows,
    tree_count,
    tree_counts,
    type_sum_forest_count,
)
from chordforest.oracle import enumerate_types


def test_exact_division_guard():
    # every division in the formulas runs through this guard
    assert _exact_div(36, 3) == 12
    assert _exact_div(-6, 3) == -2
    with pytest.raises(ConsistencyError):
        _exact_div(7, 2)


def _pascal_table(rows):
    table = [[1]]
    for a in range(1, rows):
        previous = table[-1]
        table.append(
            [1] + [previous[b - 1] + previous[b] for b in range(1, a)] + [1]
        )
    return table


class TestBinomial:
    def test_matches_pascal_recurrence(self):
        table = _pascal_table(31)
        for a in range(31):
            for b in range(a + 1):
                assert binomial(a, b) == table[a][b]

    def test_out_of_range_is_zero(self):
        assert binomial(3, -1) == 0
        assert binomial(3, 4) == 0
        assert binomial(0, 1) == 0

    def test_spot_values(self):
        assert binomial(0, 0) == 1
        assert binomial(4, 2) == 6
        assert binomial(12, 4) == 495

    def test_rejects_negative_a(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(0, 120), st.integers(-10, 130))
    def test_symmetry(self, a, b):
        assert binomial(a, b) == binomial(a, a - b)

    @given(st.integers(0, 120), st.integers(-10, 130))
    def test_pascal_step(self, a, b):
        assert binomial(a + 1, b) == binomial(a, b) + binomial(a, b - 1)


class TestDoubleFactorial:
    def test_matches_direct_product(self):
        for n in range(1, 12):
            expected = math.prod(range(1, 2 * n, 2))
            assert double_factorial_pairings(n) == expected

    def test_spot_values(self):
        assert double_factorial_pairings(1) == 1
        assert double_factorial_pairings(3) == 15
        assert double_factorial_pairings(6) == 10395

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            double_factorial_pairings(0)


class TestCatalan:
    def test_known_prefix(self):
        assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_factorial_form(self):
        for n in range(40):
            expected = math.factorial(2 * n) // (
                math.factorial(n) * math.factorial(n + 1)
            )
            assert catalan(n) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestTreeCount:
    # 1, 1, 3, 12, 55, 273 are confirmed by the exhaustive sweep (n <= 6)
    # in test_oracle.py and by the series engine in test_series.py.
    def test_known_prefix(self):
        assert [tree_count(n) for n in range(1, 7)] == [1, 1, 3, 12, 55, 273]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tree_count(0)


class TestTreeCounts:
    def test_matches_tree_count_to_three_thousand(self):
        assert tree_counts(3000) == [tree_count(n) for n in range(1, 3001)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tree_counts(0)


class TestForestCount:
    def test_small_table(self):
        # confirmed by hand for n <= 2 and by the exhaustive sweeps for n <= 7
        expected = {
            (1, 1): 1,
            (2, 1): 1,
            (2, 2): 2,
            (3, 1): 3,
            (3, 2): 6,
            (3, 3): 5,
            (4, 1): 12,
            (4, 2): 28,
            (4, 3): 28,
            (4, 4): 14,
            (5, 2): 150,
        }
        for (n, m), value in expected.items():
            assert forest_count(n, m) == value

    def test_domain_errors(self):
        for n, m in ((3, 0), (3, 4), (0, 1), (5, -1)):
            with pytest.raises(ValueError):
                forest_count(n, m)

    def test_one_tree_is_tree_count(self):
        for n in range(1, 61):
            assert forest_count(n, 1) == tree_count(n)

    def test_all_singletons_is_catalan(self):
        for n in range(1, 61):
            assert forest_count(n, n) == catalan(n)


class TestForestRow:
    def test_matches_forest_count_to_three_hundred(self):
        for n in range(1, 301):
            assert forest_row(n) == [forest_count(n, m) for m in range(1, n + 1)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            forest_row(0)


def _run_dividing(monkeypatch, function, argument, corrupt=-1):
    """function(argument) with the corrupt-th ``_exact_div`` quotient one too
    large (none for -1); returns its result and the number of divisions made."""
    calls = itertools.count()
    genuine = formulas._exact_div

    def division(numerator, divisor):
        quotient = genuine(numerator, divisor)
        return quotient + 1 if next(calls) == corrupt else quotient

    with monkeypatch.context() as patch:
        patch.setattr(formulas, "_exact_div", division)
        return function(argument), next(calls)


class TestRowKernelSteps:
    """A wrong step in a row kernel raises; it never reaches later entries."""

    def test_every_corrupted_tree_step_raises(self, monkeypatch):
        _, divisions = _run_dividing(monkeypatch, tree_counts, 30)
        for index in range(divisions):
            with pytest.raises(ConsistencyError):
                _run_dividing(monkeypatch, tree_counts, 30, index)

    def test_every_corrupted_forest_step_raises(self, monkeypatch):
        for n in (1, 2, 3, 9, 25):
            _, divisions = _run_dividing(monkeypatch, forest_row, n)
            # t(n), the n-1 steps along m, and the catalan(n) end check
            assert divisions == n + 1
            for index in range(divisions):
                with pytest.raises(ConsistencyError):
                    _run_dividing(monkeypatch, forest_row, n, index)


def _literal_paper_sum(n, m):
    """The paper's double sum term by term, S2's k-sum included: the oracle
    for the factored evaluation in rooted_forest_paper_rows."""
    sum1 = 0
    sum2 = 0
    for k in range(m + 1):
        sign = -1 if k % 2 else 1
        common = sign * binomial(m, k) * 2 ** (m - k)
        for j in range(n - m):
            sum1 += (
                common
                * binomial(m + j - 1, j)
                * 3**j
                * lagrange_coeff(2 * j + k, n - m + j + k)
            )
        sum2 += common * binomial(n - 1, n - m) * 3 ** (n - m)
    return _exact_div(binomial(2 * n, m - 1) * (sum1 + sum2), m)


def _diagonal_paper_rows(max_n):
    """The paper's sum with every k-sum multiplied out along one diagonal of
    the coefficient table: the oracle for the Pascal steps in
    rooted_forest_paper_rows."""
    # diagonals[d][a] = [x^(a+d)] T^a; diagonals[0] is never read
    diagonals = [[]] + [
        [lagrange_coeff(a, a + d) for a in range(2 * (max_n - d))]
        for d in range(1, max_n)
    ]
    # signs[m][k] = (-1)^k C(m,k) 2^(m-k), S1's k-factor; signs[0] is never read
    signs = [
        [(-1) ** k * binomial(m, k) * 2 ** (m - k) for k in range(m + 1)]
        for m in range(max_n + 1)
    ]
    rows = []
    for n in range(1, max_n + 1):
        row = []
        for m in range(1, n + 1):
            sum1 = 0
            for j in range(n - m):
                diagonal = diagonals[n - m - j][2 * j : 2 * j + m + 1]
                inner = sum(map(operator.mul, signs[m], diagonal))
                sum1 += binomial(m + j - 1, j) * 3**j * inner
            sum2 = binomial(n - 1, n - m) * 3 ** (n - m)
            row.append(_exact_div(binomial(2 * n, m - 1) * (sum1 + sum2), m))
        rows.append(row)
    return rows


def _binomial_series(exponent, ratio, length):
    """The first ``length`` coefficients of (1 + ratio w)^exponent, exponent any integer."""
    if exponent >= 0:
        return [math.comb(exponent, j) * ratio**j for j in range(length)]
    # (1 + y)^(-e) = sum_j (-1)^j C(e+j-1, j) y^j
    return [(-ratio) ** j * math.comb(j - exponent - 1, j) for j in range(length)]


def _convolve(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


class TestRootedForestCount:
    def test_s_chain_equals_product_of_binomial_series(self):
        # s(w) = (1-w)^m (1+w)^(-2m) (1-2w)^(1-m), multiplied out, against
        # the recurrence, in one call as the cell form runs it and in single
        # steps as the row kernel runs it
        length = 31
        for m in range(1, 13):
            expected = _convolve(
                _convolve(_binomial_series(m, -1, length), _binomial_series(-2 * m, 1, length)),
                _binomial_series(1 - m, -2, length),
            )
            s = [1]
            formulas._extend_s(s, m, length - 1)
            assert s == expected
            stepped = [1]
            for _ in range(length - 1):
                formulas._extend_s(stepped, m, 1)
            assert stepped == expected

    def test_small_table(self):
        # confirmed by the exhaustive sweeps (test_oracle.py, n <= 7)
        expected = {
            (1, 1): 1,
            (2, 1): 2,
            (2, 2): 2,
            (3, 1): 9,
            (3, 2): 12,
            (3, 3): 5,
            (4, 1): 48,
            (4, 2): 88,
            (4, 3): 56,
            (4, 4): 14,
        }
        for (n, m), value in expected.items():
            assert rooted_forest_count(n, m) == value

    def test_domain_errors(self):
        for n, m in ((3, 0), (3, 4), (0, 1)):
            with pytest.raises(ValueError):
                rooted_forest_count(n, m)

    def test_one_tree_is_n_times_tree_count(self):
        for n in range(1, 61):
            assert rooted_forest_count(n, 1) == n * tree_count(n)

    def test_all_singletons_is_catalan(self):
        for n in range(1, 61):
            assert rooted_forest_count(n, n) == catalan(n)

    def test_lagrange_burmann_equals_paper_sum_to_one_hundred_fifty(self):
        rows = rooted_forest_paper_rows(150)
        assert [len(row) for row in rows] == list(range(1, 151))
        for n, row in enumerate(rows, start=1):
            assert row == [rooted_forest_count(n, m) for m in range(1, n + 1)]

    def test_rows_equal_cells_to_hundred(self):
        rows = list(rooted_forest_rows(100))
        assert [len(row) for row in rows] == list(range(1, 101))
        for n, row in enumerate(rows, start=1):
            assert row == [rooted_forest_count(n, m) for m in range(1, n + 1)]

    def test_rows_domain_errors(self):
        for max_n in (0, -1):
            with pytest.raises(ValueError):
                next(rooted_forest_rows(max_n))

    def test_paper_sum_equals_literal_double_sum(self):
        rows = rooted_forest_paper_rows(20)
        for n, row in enumerate(rows, start=1):
            assert row == [_literal_paper_sum(n, m) for m in range(1, n + 1)]

    def test_paper_sum_equals_diagonal_table_sums(self):
        for max_n in range(1, 41):
            assert rooted_forest_paper_rows(max_n) == _diagonal_paper_rows(max_n)

    def test_paper_sum_last_row_uses_the_whole_table(self):
        # For every m, the last row reads every diagonal the sum still steps
        # at its last entry, index 2(max_n-m-d): a coefficient table one entry
        # short fails there and nowhere else, and a step that drops one entry
        # too many fails there as well.
        for max_n in range(1, 13):
            last = rooted_forest_paper_rows(max_n)[-1]
            assert last == [_literal_paper_sum(max_n, m) for m in range(1, max_n + 1)]

    def test_paper_sum_domain_errors(self):
        for max_n in (0, -1):
            with pytest.raises(ValueError):
                rooted_forest_paper_rows(max_n)


class TestLagrangeCoeff:
    def test_diagonal_is_one(self):
        for a in range(0, 20):
            assert lagrange_coeff(a, a) == 1

    def test_spot_values(self):
        assert lagrange_coeff(2, 3) == 2  # 2 t_1 t_2
        assert lagrange_coeff(1, 4) == 12  # t_4
        assert lagrange_coeff(0, 3) == 0

    def test_above_diagonal_is_zero(self):
        for b in range(0, 10):
            assert lagrange_coeff(b + 1, b) == 0

    def test_first_row_is_tree_count(self):
        for b in range(1, 40):
            assert lagrange_coeff(1, b) == tree_count(b)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lagrange_coeff(-1, 3)


class TestKrewerasCount:
    def test_ground_set_four_by_hand(self):
        # all five types of [4]: counts enumerated by hand
        cases = {
            (4,): 1,
            (3, 1): 4,
            (2, 2): 2,
            (2, 1, 1): 6,
            (1, 1, 1, 1): 1,
        }
        for sizes, expected in cases.items():
            assert kreweras_count(sizes) == expected

    def test_single_block_and_all_singletons(self):
        for n in range(1, 10):
            assert kreweras_count((n,)) == 1
            assert kreweras_count((1,) * n) == 1

    def test_rejects_bad_parts(self):
        for sizes in ((), (0,), (2, -1)):
            with pytest.raises(ValueError):
                kreweras_count(sizes)
        # a type is a multiset: the order of the sizes does not matter
        assert kreweras_count((1, 3, 1)) == kreweras_count((3, 1, 1))


def _inline_type_sum(n, m):
    """f(n, m) over forest types with the Kreweras count written out inline:
    the oracle for type_sum_forest_count, which calls kreweras_count."""
    prefactor = math.prod(range(2 * n, 2 * n - m + 1, -1))  # 2n (2n-1) ... (2n-m+2)
    total = 0
    for forest_type in enumerate_types(n, m):
        numerator = prefactor
        denominator = 1
        for size, mult in Counter(forest_type).items():
            numerator *= tree_count(size) ** mult
            denominator *= math.factorial(mult)
        total += _exact_div(numerator, denominator)
    return total


class TestTypeSumForestCount:
    def test_spot_values(self):
        assert type_sum_forest_count(enumerate_types(3, 2)) == 6
        assert type_sum_forest_count(enumerate_types(4, 4)) == 14
        assert type_sum_forest_count(enumerate_types(4, 2)) == 28
        # one type alone: Kreweras (4, 2) = 6 partitions, t(2) = 1 tree in the big block
        assert type_sum_forest_count([(2, 1)]) == 6
        # (3,): one block holding any of t(3) = 3 trees; the order of a
        # type's sizes does not matter, and each listed type is counted
        assert type_sum_forest_count([(3,), (2, 1), (1, 2)]) == 3 + 6 + 6
        assert type_sum_forest_count([]) == 0

    def test_matches_closed_form(self):
        for n in range(1, 11):
            for m in range(1, n + 1):
                assert type_sum_forest_count(enumerate_types(n, m)) == forest_count(n, m)

    def test_equals_inline_kreweras_sum(self):
        for n in range(1, 13):
            for m in range(1, n + 1):
                via_types = type_sum_forest_count(enumerate_types(n, m))
                assert via_types == _inline_type_sum(n, m)

    def test_domain_errors(self):
        # a part below 1 is rejected by kreweras_count before any tree is counted
        for types in ([()], [(0,)], [(2, -1)], [(1,), (3, 0)]):
            with pytest.raises(ValueError):
                type_sum_forest_count(types)


def test_forest_totals_bounded_by_all_pairings():
    for n in range(1, 9):
        total = sum(forest_count(n, m) for m in range(1, n + 1))
        bound = double_factorial_pairings(n)
        if n <= 2:
            assert total == bound
        else:
            assert total < bound
