"""Series engine: ring operations against a naive convolution oracle, and
the generating functions against closed forms they were not built from.
"""

import itertools
import math
import operator
import types

import pytest
from hypothesis import example, given
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
    mul,
    rooted_gf,
    rooted_powers,
    solve_ternary_gf,
    square,
    tree_gf,
    tree_powers,
    x_derivative,
)


def _naive_product(a, b, order):
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= order:
                out[i + j] += ai * bj
    return tuple(out)


def _power(series, exponent):
    """series^exponent by repeated mul, at the order of series."""
    result = (1,) + (0,) * (len(series) - 1)
    for _ in range(exponent):
        result = mul(result, series)
    return result


def _off_by_one(genuine):
    """A corrupted product: genuine(*factors) plus one."""

    def corrupted(*factors):
        product = genuine(*factors)
        return (product[0] + 1,) + product[1:]

    return corrupted


def _fixed_point_ternary_gf(order):
    """Oracle for solve_ternary_gf: fixed-point rounds G <- 1 + x G^3.

    After k rounds the first k+1 coefficients are exact, so the working
    order grows with the round; about O(order^3) products, small orders only.
    """
    g = (1,)
    for _ in range(order):
        g = (1,) + _power(g, 3)
    return g


def _two_list_ternary_gf(order):
    """Oracle for solve_ternary_gf: the online recurrence g_n = [x^(n-1)] G^3.

    Running coefficient lists of G^2 and G^3 each gain one entry, a full
    convolution, per new g_n; about order^2 products, with no division.
    """
    g, g2, g3 = [1], [1], [1]
    for n in range(1, order + 1):
        g.append(g3[n - 1])
        g2.append(sum(map(operator.mul, g, reversed(g))))
        g3.append(sum(map(operator.mul, g, reversed(g2))))
    return tuple(g)


coeff_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=10)


@pytest.mark.parametrize(
    "builder, order, lowest", [(solve_ternary_gf, -1, 0), (tree_gf, 0, 1), (rooted_gf, 0, 1)]
)
def test_an_order_below_the_domain_is_a_value_error(builder, order, lowest):
    with pytest.raises(ValueError) as raised:
        builder(order)
    assert str(raised.value) == f"order must be >= {lowest}, got {order}"


class TestRingOperations:
    def test_product_of_conjugates(self):
        assert mul((1, 1, 0, 0), (1, -1, 0, 0)) == (1, 0, -1, 0)

    @given(coeff_lists, coeff_lists)
    def test_mul_matches_naive_convolution(self, a, b):
        order = min(len(a), len(b)) - 1
        assert mul(tuple(a), tuple(b)) == _naive_product(a, b, order)

    @given(coeff_lists, coeff_lists)
    def test_mul_commutes(self, a, b):
        assert mul(tuple(a), tuple(b)) == mul(tuple(b), tuple(a))

    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_mul_associates_and_distributes(self, a, b, c):
        length = min(len(v) for v in (a, b, c))
        sa, sb, sc = (tuple(v[:length]) for v in (a, b, c))
        assert mul(mul(sa, sb), sc) == mul(sa, mul(sb, sc))
        # and distributes over the coefficientwise sum
        sum_bc = tuple(map(sum, zip(sb, sc)))
        assert mul(sa, sum_bc) == tuple(map(sum, zip(mul(sa, sb), mul(sa, sc))))

    @given(coeff_lists)
    @example([0])
    @example([-7])
    @example([0, 0, 0])
    def test_square_matches_mul(self, a):
        assert square(tuple(a)) == mul(tuple(a), tuple(a))

    def test_derivative(self):
        assert x_derivative((7, 1, 1, 3, 12)) == (0, 1, 2, 9, 48)
        assert x_derivative((1,)) == (0,)


class TestTernaryGF:
    def test_coefficients_match_shifted_tree_counts(self):
        g = solve_ternary_gf(8)
        assert g[:5] == (1, 1, 3, 12, 55)
        for k in range(9):
            assert g[k] == tree_count(k + 1)

    def test_coefficients_match_direct_closed_form(self):
        # C(3k, k) / (2k + 1), computed straight from math.comb
        g = solve_ternary_gf(300)
        for k in range(301):
            quotient, remainder = divmod(math.comb(3 * k, k), 2 * k + 1)
            assert remainder == 0
            assert g[k] == quotient

    def test_residual_is_zero_at_fifty(self):
        g = solve_ternary_gf(50)
        assert g == (1,) + _power(g, 3)[:50]

    def test_order_zero(self):
        assert solve_ternary_gf(0) == (1,)

    def test_recurrence_matches_fixed_point_oracle(self):
        for order in range(41):
            assert solve_ternary_gf(order) == _fixed_point_ternary_gf(order)

    def test_recurrence_matches_two_list_oracle_to_three_hundred(self):
        # the oracle's coefficients do not depend on its order, so one run
        # at 300 holds every shorter answer as a prefix
        oracle = _two_list_ternary_gf(300)
        for order in range(301):
            assert solve_ternary_gf(order) == oracle[: order + 1]

    def test_nonzero_residual_raises(self, monkeypatch):
        # The residual recomputes G^3 as mul(square(G), G), a path the
        # recurrence does not use; corrupting either step must be caught.
        for name, genuine in (("mul", mul), ("square", square)):
            with monkeypatch.context() as patch:
                patch.setattr(chordforest.series, name, _off_by_one(genuine))
                with pytest.raises(ConsistencyError, match="G - 1 - x G\\^3 is nonzero"):
                    solve_ternary_gf(10)

    def test_inexact_recurrence_step_raises(self, monkeypatch):
        # Each c_k is a quotient by k; a product off by one inside the
        # half-convolution leaves 5 * 43 over k = 3, which the check refuses.
        def off_by_one(a, b):
            return a * b + 1

        fake = types.SimpleNamespace(mul=off_by_one)
        monkeypatch.setattr(chordforest.series, "operator", fake)
        with pytest.raises(ConsistencyError, match="is not divisible by k = 3"):
            solve_ternary_gf(4)


class TestTreeGF:
    def test_coefficients(self):
        t = tree_gf(5)
        assert t == (0, 1, 1, 3, 12, 55)

    def test_defining_identity_at_forty(self):
        t = tree_gf(40)
        # x T - x^2 = T^3
        x_t_minus_x2 = (0, 0, 0) + t[2:40]
        assert x_t_minus_x2 == _power(t, 3)

    def test_division_by_x_recovers_g(self):
        assert tree_gf(9) == (0,) + solve_ternary_gf(8)

    def test_corrupted_power_is_caught_without_a_check_of_its_own(self, monkeypatch):
        # T is built from G, whose self-check recomputes G^3 as
        # mul(square(G), G); R's closed-form check uses both as well.
        for name, genuine in (("mul", mul), ("square", square)):
            with monkeypatch.context() as patch:
                patch.setattr(chordforest.series, name, _off_by_one(genuine))
                for build in (tree_gf, rooted_gf):
                    with pytest.raises(ConsistencyError):
                        build(10)


class TestTreePowers:
    def test_equals_repeated_mul_to_forty(self):
        for order in range(1, 41):
            t = tree_gf(order)
            assert tree_powers(t) == [_power(t, m) for m in range(1, order + 1)]

    def test_wrong_coefficient_reaches_every_power(self):
        # the recurrence steps the T it is given, not a T of its own
        t = tree_gf(12)
        wrong = t[:2] + (t[2] + 1,) + t[3:]
        for power, genuine in zip(tree_powers(wrong), tree_powers(t), strict=True):
            assert power != genuine


class TestRootedPowers:
    def test_equals_repeated_mul_to_forty(self):
        for order in range(1, 41):
            r = rooted_gf(order)
            repeated = itertools.accumulate(itertools.repeat(r, order - 1), mul, initial=r)
            assert rooted_powers(r) == list(repeated)

    def test_cubic_holds_at_sixty(self):
        # (4 - 27x) R^3 = x (1 - 6x) R + x^2 (8x - 1), by mul and square alone
        r = rooted_gf(60)
        zeros = (0,) * 60
        left = mul((4, -27) + zeros, mul(square(r), r))
        right = mul((0, 1, -6) + zeros, r)
        right = tuple(map(operator.add, right, (0, 0, -1, 8) + zeros))
        assert left == right

    @pytest.mark.parametrize("index", range(1, 11))
    def test_wrong_coefficient_raises_or_reaches_every_power(self, index):
        # the recurrence steps the R it is given, not an R of its own
        r = rooted_gf(12)
        wrong = r[:index] + (r[index] + 1,) + r[index + 1 :]
        try:
            powers = rooted_powers(wrong)
        except ConsistencyError:
            return
        for power, genuine in zip(powers, rooted_powers(r), strict=True):
            assert power != genuine

    def test_inexact_step_names_the_power_and_the_index(self):
        r = rooted_gf(12)
        wrong = r[:3] + (r[3] + 1,) + r[4:]
        with pytest.raises(ConsistencyError, match=r"^R\^3 has a non-integer coefficient at x\^4$"):
            rooted_powers(wrong)


class TestRootedGF:
    def test_coefficients_are_n_times_tree_counts(self):
        r = rooted_gf(12)
        assert r[:6] == (0, 1, 2, 9, 48, 275)
        for n in range(1, 13):
            assert r[n] == n * tree_count(n)

    def test_closed_form_route_agrees_at_forty(self):
        # R (x - 3 T^2) = x (2x - T), with T one order higher so that the
        # product reaches r_40; r_41 would meet the zero constant term of
        # x - 3 T^2, so a zero stands in for it
        t = tree_gf(41)
        r = rooted_gf(40)
        x = (0, 1) + (0,) * 40
        x_minus_3t2 = tuple(a - 3 * b for a, b in zip(x, _power(t, 2)))
        x_times_2x_minus_t = (0,) + tuple(2 * a - b for a, b in zip(x, t[:41]))
        assert mul(r + (0,), x_minus_3t2) == x_times_2x_minus_t

    @staticmethod
    def _wrong_ternary_coefficient(k):
        """_ternary_coefficients with g_k off by one."""
        genuine = chordforest.series._ternary_coefficients

        def off_by_one(order):
            coeffs = list(genuine(order))
            coeffs[k] += 1
            return tuple(coeffs)

        return off_by_one

    @pytest.mark.parametrize("index", range(1, 11))
    def test_wrong_tree_coefficient_is_caught(self, monkeypatch, index):
        # The closed form equals x T' only when T satisfies x T = x^2 + T^3.
        # rooted_gf reads T as x times G's bare recurrence, so t_index is
        # g_(index-1) there.
        monkeypatch.setattr(
            chordforest.series,
            "_ternary_coefficients",
            self._wrong_ternary_coefficient(index - 1),
        )
        with pytest.raises(ConsistencyError, match="x T' disagrees with "):
            rooted_gf(10)

    def test_every_coefficient_it_reads_is_checked_to_forty(self, monkeypatch):
        # R's check is the only check inside rooted_gf: it must catch a
        # wrong g_k for every k < order, each g_k that r_0..r_order reads
        for order in range(1, 41):
            for k in range(order):
                with monkeypatch.context() as patch:
                    patch.setattr(
                        chordforest.series,
                        "_ternary_coefficients",
                        self._wrong_ternary_coefficient(k),
                    )
                    with pytest.raises(ConsistencyError, match="x T' disagrees with "):
                        rooted_gf(order)

    def test_one_square_and_one_mul_per_call(self, monkeypatch):
        # G's own check, another square and mul, is not run inside rooted_gf
        calls = []

        def counted(name, genuine):
            def wrapper(*args):
                calls.append(name)
                return genuine(*args)

            return wrapper

        monkeypatch.setattr(chordforest.series, "mul", counted("mul", mul))
        monkeypatch.setattr(chordforest.series, "square", counted("square", square))
        for order in (1, 10, 40):
            calls.clear()
            rooted_gf(order)
            assert sorted(calls) == ["mul", "square"]

    @pytest.mark.parametrize("index", range(10))
    def test_wrong_derivative_coefficient_is_caught(self, monkeypatch, index):
        # Each case corrupts r_(index+1).  Case 9 corrupts r_10, the top
        # coefficient of rooted_gf(10); with T built at order 10 it would
        # go unchecked.
        def off_by_one(series):
            coeffs = list(x_derivative(series))
            coeffs[index + 1] += 1
            return tuple(coeffs)

        monkeypatch.setattr(chordforest.series, "x_derivative", off_by_one)
        with pytest.raises(ConsistencyError, match="x T' disagrees with "):
            rooted_gf(10)


class TestCoeffOfPower:
    def test_spot_values(self):
        t = tree_gf(10)
        r = rooted_gf(10)
        assert _power(t, 1)[4] == 12
        assert _power(t, 3)[3] == 1  # only t_1^3 contributes
        assert _power(t, 2)[3] == 2  # 2 t_1 t_2
        assert _power(r, 2)[4] == 2 * 9 + 2 * 2  # 2 r_1 r_3 + r_2^2

    def test_valuation(self):
        t = tree_gf(8)
        for m in range(1, 9):
            for n in range(m):
                assert _power(t, m)[n] == 0


class TestBridgesToClosedForms:
    def test_forest_count_bridge(self):
        # C(2n, m-1) [x^n] T^m / m recounts the forests
        t = tree_gf(25)
        power = _power(t, 0)
        for m in range(1, 26):
            power = mul(power, t)
            for n in range(m, 26):
                value = binomial(2 * n, m - 1) * power[n]
                assert value % m == 0
                assert value // m == forest_count(n, m)

    def test_rooted_forest_count_bridge(self):
        r = rooted_gf(25)
        power = _power(r, 0)
        for m in range(1, 26):
            power = mul(power, r)
            for n in range(m, 26):
                value = binomial(2 * n, m - 1) * power[n]
                assert value % m == 0
                assert value // m == rooted_forest_count(n, m)

    def test_lagrange_coeff_matches_series(self):
        t = tree_gf(60)
        powers = {0: _power(t, 0)}
        for a in range(1, 61):
            powers[a] = mul(powers[a - 1], t)
        for b in range(61):
            for a in range(b + 1):
                assert lagrange_coeff(a, b) == powers[a][b]

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
            power = _power(t, m)
            for n in range(m + 1, 31):
                total = 0
                for k in range(m + 1):
                    term = k * binomial(3 * (n - m), n - m - k)
                    assert term % (n - m) == 0
                    total += binomial(m, k) * (term // (n - m))
                assert total == power[n]
