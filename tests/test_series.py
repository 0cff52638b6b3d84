"""Series engine: ring operations against a naive convolution oracle, and
the generating functions against closed forms they were not built from.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chordforest.series
from chordforest.errors import ConsistencyError
from chordforest.formulas import (
    binomial,
    forest_count,
    lagrange_coeff,
    rooted_forest_count,
    tree_count,
)
from chordforest.series import (
    TruncatedSeries,
    coeff_of_power,
    rooted_gf,
    solve_ternary_gf,
    tree_gf,
)


def _naive_product(a, b, order):
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= order:
                out[i + j] += ai * bj
    return tuple(out)


def _fixed_point_ternary_gf(order):
    """Oracle for solve_ternary_gf: fixed-point rounds G <- 1 + x G^3.

    After k rounds the first k+1 coefficients are exact, so the working
    order grows with the round; about O(order^3) products, small orders only.
    """
    g = TruncatedSeries.one(0)
    for k in range(1, order + 1):
        g = TruncatedSeries.one(k) + g.pow(3).shift_mul_x()
    return g


coeff_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=10)


class TestRingOperations:
    def test_product_of_conjugates(self):
        one_plus = TruncatedSeries.from_coeffs([1, 1], order=3)
        one_minus = TruncatedSeries.from_coeffs([1, -1], order=3)
        assert (one_plus * one_minus).coeffs == (1, 0, -1, 0)

    @given(coeff_lists, coeff_lists)
    def test_mul_matches_naive_convolution(self, a, b):
        order = min(len(a), len(b)) - 1
        product = TruncatedSeries(tuple(a)) * TruncatedSeries(tuple(b))
        assert product.coeffs == _naive_product(a, b, order)

    @given(coeff_lists, coeff_lists)
    def test_mul_commutes(self, a, b):
        left = TruncatedSeries(tuple(a)) * TruncatedSeries(tuple(b))
        right = TruncatedSeries(tuple(b)) * TruncatedSeries(tuple(a))
        assert left == right

    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_mul_associates_and_distributes(self, a, b, c):
        sa, sb, sc = (TruncatedSeries(tuple(v)) for v in (a, b, c))
        order = min(s.order for s in (sa, sb, sc))
        sa, sb, sc = (s.truncate(order) for s in (sa, sb, sc))
        assert (sa * sb) * sc == sa * (sb * sc)
        assert sa * (sb + sc) == sa * sb + sa * sc

    def test_pow_matches_repeated_mul(self):
        base = TruncatedSeries.from_coeffs([0, 1, 2, -1, 3], order=8)
        running = TruncatedSeries.one(8)
        for exponent in range(7):
            assert base.pow(exponent) == running
            running = running * base

    def test_pow_zero_and_negative(self):
        base = TruncatedSeries.from_coeffs([2, 1], order=4)
        assert base.pow(0) == TruncatedSeries.one(4)
        with pytest.raises(ValueError):
            base.pow(-1)

    def test_derivative(self):
        series = TruncatedSeries.from_coeffs([7, 1, 1, 3, 12], order=4)
        assert series.derivative().coeffs == (1, 2, 9, 48)
        assert TruncatedSeries.one(0).derivative().is_zero()

    def test_shift_mul_x(self):
        series = TruncatedSeries.from_coeffs([1, 2], order=1)
        assert series.shift_mul_x().coeffs == (0, 1, 2)
        assert series.shift_mul_x(3).coeffs == (0, 0, 0, 1, 2)

    def test_shift_div_x(self):
        series = TruncatedSeries.from_coeffs([0, 0, 0, 1], order=3)
        assert series.shift_div_x().coeffs == (0, 0, 1)
        assert series.shift_div_x(3).coeffs == (1,)

    def test_shift_div_x_rejects_nonzero_low_terms(self):
        series = TruncatedSeries.from_coeffs([0, 5, 1], order=2)
        with pytest.raises(ValueError, match="coefficient of x\\^1"):
            series.shift_div_x(2)

    def test_inverse_of_one_minus_x(self):
        series = TruncatedSeries.from_coeffs([1, -1], order=6)
        assert series.inverse().coeffs == (1,) * 7

    @given(coeff_lists, st.sampled_from([1, -1]))
    def test_inverse_is_two_sided(self, tail, unit):
        series = TruncatedSeries(tuple([unit] + tail))
        assert (series * series.inverse()) == TruncatedSeries.one(series.order)

    def test_inverse_needs_unit_constant_term(self):
        with pytest.raises(ValueError):
            TruncatedSeries.from_coeffs([2, 1], order=3).inverse()
        with pytest.raises(ValueError):
            TruncatedSeries.from_coeffs([0, 1], order=3).inverse()

    def test_coeff_bounds(self):
        series = TruncatedSeries.from_coeffs([1, 2, 3], order=2)
        assert series.coeff(2) == 3
        with pytest.raises(ValueError):
            series.coeff(3)

    def test_truncate(self):
        series = TruncatedSeries.from_coeffs([1, 2, 3], order=2)
        assert series.truncate(1).coeffs == (1, 2)
        with pytest.raises(ValueError):
            series.truncate(5)


class TestTernaryGF:
    def test_coefficients_match_shifted_tree_counts(self):
        g = solve_ternary_gf(8)
        assert g.coeffs[:5] == (1, 1, 3, 12, 55)
        for k in range(9):
            assert g.coeff(k) == tree_count(k + 1)

    def test_coefficients_match_direct_closed_form(self):
        # C(3k, k) / (2k + 1), computed straight from math.comb
        g = solve_ternary_gf(300)
        for k in range(301):
            quotient, remainder = divmod(math.comb(3 * k, k), 2 * k + 1)
            assert remainder == 0
            assert g.coeff(k) == quotient

    def test_residual_is_zero_at_fifty(self):
        g = solve_ternary_gf(50)
        residual = (
            g - TruncatedSeries.one(50) - g.pow(3).shift_mul_x().truncate(50)
        )
        assert residual.is_zero()

    def test_order_zero(self):
        assert solve_ternary_gf(0).coeffs == (1,)

    def test_recurrence_matches_fixed_point_oracle(self):
        for order in range(41):
            assert solve_ternary_gf(order) == _fixed_point_ternary_gf(order)

    def test_nonzero_residual_raises(self, monkeypatch):
        # The residual recomputes G^3 through TruncatedSeries.pow, a path
        # the recurrence does not use; corrupting it must be caught.
        genuine = TruncatedSeries.pow

        def off_by_one(series, exponent):
            return genuine(series, exponent) + TruncatedSeries.one(series.order)

        monkeypatch.setattr(TruncatedSeries, "pow", off_by_one)
        with pytest.raises(ConsistencyError, match="G - 1 - x G\\^3 is nonzero"):
            solve_ternary_gf(10)


class TestTreeGF:
    def test_coefficients(self):
        t = tree_gf(5)
        assert t.coeffs == (0, 1, 1, 3, 12, 55)

    def test_defining_identity_at_forty(self):
        t = tree_gf(40)
        residual = (
            t.shift_mul_x().truncate(40)
            - TruncatedSeries.monomial(2, 40)
            - t.pow(3)
        )
        assert residual.is_zero()

    def test_division_by_x_recovers_g(self):
        assert tree_gf(9).shift_div_x() == solve_ternary_gf(8)

    def test_corrupted_power_is_caught_without_a_check_of_its_own(self, monkeypatch):
        # T and R are built from G, whose self-check recomputes G^3 by pow.
        genuine = TruncatedSeries.pow

        def off_by_one(series, exponent):
            return genuine(series, exponent) + TruncatedSeries.one(series.order)

        monkeypatch.setattr(TruncatedSeries, "pow", off_by_one)
        for build in (tree_gf, rooted_gf):
            with pytest.raises(ConsistencyError):
                build(10)


class TestRootedGF:
    def test_coefficients_are_n_times_tree_counts(self):
        r = rooted_gf(12)
        assert r.coeffs[:6] == (0, 1, 2, 9, 48, 275)
        for n in range(1, 13):
            assert r.coeff(n) == n * tree_count(n)

    def test_closed_form_route_agrees_at_forty(self):
        t = tree_gf(40)
        r = rooted_gf(40)
        closed = (
            (TruncatedSeries.x(40) * 2 - t).shift_div_x()
            * (TruncatedSeries.x(40) - t.pow(2) * 3).shift_div_x().inverse()
        ).shift_mul_x()
        assert r == closed


    @pytest.mark.parametrize("index", range(1, 11))
    def test_wrong_tree_coefficient_is_caught(self, monkeypatch, index):
        # The closed form equals x T' only when T satisfies x T = x^2 + T^3.
        genuine = tree_gf

        def off_by_one(order):
            coeffs = list(genuine(order).coeffs)
            coeffs[index] += 1
            return TruncatedSeries(tuple(coeffs))

        monkeypatch.setattr(chordforest.series, "tree_gf", off_by_one)
        with pytest.raises(ConsistencyError, match="x T' disagrees with "):
            rooted_gf(10)


class TestCoeffOfPower:
    def test_spot_values(self):
        t = tree_gf(10)
        r = rooted_gf(10)
        assert coeff_of_power(t, 1, 4) == 12
        assert coeff_of_power(t, 3, 3) == 1  # only t_1^3 contributes
        assert coeff_of_power(t, 2, 3) == 2  # 2 t_1 t_2
        assert coeff_of_power(r, 2, 4) == 2 * 9 + 2 * 2  # 2 r_1 r_3 + r_2^2

    def test_valuation(self):
        t = tree_gf(8)
        for m in range(1, 9):
            for n in range(m):
                assert coeff_of_power(t, m, n) == 0

    def test_errors(self):
        t = tree_gf(4)
        with pytest.raises(ValueError):
            coeff_of_power(t, 0, 2)
        with pytest.raises(ValueError):
            coeff_of_power(t, 2, 5)


class TestBridgesToClosedForms:
    def test_forest_count_bridge(self):
        # C(2n, m-1) [x^n] T^m / m recounts the forests
        t = tree_gf(25)
        power = TruncatedSeries.one(25)
        for m in range(1, 26):
            power = power * t
            for n in range(m, 26):
                value = binomial(2 * n, m - 1) * power.coeff(n)
                assert value % m == 0
                assert value // m == forest_count(n, m)

    def test_rooted_forest_count_bridge(self):
        r = rooted_gf(25)
        power = TruncatedSeries.one(25)
        for m in range(1, 26):
            power = power * r
            for n in range(m, 26):
                value = binomial(2 * n, m - 1) * power.coeff(n)
                assert value % m == 0
                assert value // m == rooted_forest_count(n, m)

    def test_lagrange_coeff_matches_series(self):
        t = tree_gf(60)
        powers = {0: TruncatedSeries.one(60)}
        for a in range(1, 61):
            powers[a] = powers[a - 1] * t
        for b in range(61):
            for a in range(b + 1):
                assert lagrange_coeff(a, b) == powers[a].coeff(b)

    def test_binomial_collapse_from_forest_derivation(self):
        # sum_k C(m-1, k-1) C(3(n-m), n-m-k) telescopes to C(3n-2m-1, n-m-1)
        for n in range(2, 61):
            for m in range(1, n):
                total = sum(
                    binomial(m - 1, k - 1) * binomial(3 * (n - m), n - m - k)
                    for k in range(1, m + 1)
                )
                assert total == binomial(3 * n - 2 * m - 1, n - m - 1)

    def test_power_coefficients_via_alternating_sum(self):
        # [x^n] T^m = sum_k C(m,k) k C(3(n-m), n-m-k) / (n-m) for m < n
        t = tree_gf(30)
        for m in range(1, 30):
            power = t.pow(m)
            for n in range(m + 1, 31):
                total = 0
                for k in range(m + 1):
                    term = k * binomial(3 * (n - m), n - m - k)
                    assert term % (n - m) == 0
                    total += binomial(m, k) * (term // (n - m))
                assert total == power.coeff(n)
