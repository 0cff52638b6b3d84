"""Closed-form exact counts for tree and forest chord diagrams.

Everything here is plain arithmetic on Python's arbitrary-precision ints.
The counting formulas contain divisions that are exact because a counting
theorem says so; each one goes through :func:`_exact_div`, which raises
``ConsistencyError`` on a nonzero remainder instead of rounding.  A
``ConsistencyError`` therefore always signals a bug, never bad input;
bad input raises ``ValueError``.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence

from .errors import ConsistencyError

__all__ = [
    "binomial",
    "catalan",
    "double_factorial_pairings",
    "forest_count",
    "forest_row",
    "kreweras_count",
    "lagrange_coeff",
    "rooted_forest_count",
    "rooted_forest_paper_sum",
    "tree_count",
    "tree_counts",
    "type_sum_forest_count",
]


def _exact_div(numerator: int, divisor: int) -> int:
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise ConsistencyError(f"{numerator} is not divisible by {divisor}")
    return quotient


def binomial(a: int, b: int) -> int:
    """C(a, b) for a >= 0, with the convention C(a, b) = 0 outside 0 <= b <= a."""
    if a < 0:
        raise ValueError(f"binomial requires a >= 0, got a={a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def double_factorial_pairings(n: int) -> int:
    """(2n-1)!!, the number of perfect matchings of 2n labeled points."""
    if n < 1:
        raise ValueError(f"double_factorial_pairings requires n >= 1, got n={n}")
    product = 1
    for odd in range(1, 2 * n, 2):
        product *= odd
    return product


def catalan(n: int) -> int:
    """(2n)! / (n! (n+1)!): counts the non-crossing diagrams with n chords."""
    if n < 0:
        raise ValueError(f"catalan requires n >= 0, got n={n}")
    return _exact_div(binomial(2 * n, n), n + 1)


def tree_count(n: int) -> int:
    """Number of diagrams with n chords whose intersection graph is a tree.

    Equals C(3n-3, n-1) / (2n-1), the number of ternary plane trees with
    n-1 internal vertices.
    """
    if n < 1:
        raise ValueError(f"tree_count requires n >= 1, got n={n}")
    return _exact_div(binomial(3 * n - 3, n - 1), 2 * n - 1)


def tree_counts(max_n: int) -> list[int]:
    """[t(1), ..., t(max_n)], each entry from the one before by a small-integer ratio.

        t(n+1) = t(n) 3n (3n-1) (3n-2) / (n 2n (2n+1)),

    the quotient of consecutive C(3n-3, n-1) / (2n-1).  The last entry is
    checked against :func:`tree_count`, so a wrong step cannot pass unseen.
    """
    if max_n < 1:
        raise ValueError(f"tree_counts requires max_n >= 1, got max_n={max_n}")
    row = [1]
    for n in range(1, max_n):
        row.append(
            _exact_div(
                row[-1] * (3 * n * (3 * n - 1) * (3 * n - 2)), n * 2 * n * (2 * n + 1)
            )
        )
    if row[-1] != tree_count(max_n):
        raise ConsistencyError(f"tree_counts({max_n}) ends off the closed form t({max_n})")
    return row


def forest_count(n: int, m: int) -> int:
    """Number of diagrams with n chords whose intersection graph is a forest of m trees.

        f(n, m) = C(2n, m-1) C(3n-2m-1, n-m-1) / (n-m)   for m < n,
        f(n, n) = catalan(n)                             (n non-crossing chords).
    """
    if m < 1 or m > n:
        raise ValueError(f"forest_count requires 1 <= m <= n, got n={n}, m={m}")
    if m == n:
        return catalan(n)
    return _exact_div(
        binomial(2 * n, m - 1) * binomial(3 * n - 2 * m - 1, n - m - 1), n - m
    )


def forest_row(n: int) -> list[int]:
    """[f(n, 1), ..., f(n, n)]: the binomials of :func:`forest_count` stepped along m.

    With a = 3n-2m-1 and b = n-m-1, the step from m to m+1 is

        C(2n, m) = C(2n, m-1) (2n-m+1) / m,
        C(a-2, b-1) = C(a, b) b (a-b) / (a (a-1)),

    and f(n, n) = catalan(n).  The chains must reach C(n+1, 0) = 1 at
    m = n-1 and C(2n, n-1) = n catalan(n) at m = n, so a wrong step cannot
    pass unseen.
    """
    if n < 1:
        raise ValueError(f"forest_row requires n >= 1, got n={n}")
    first = 1  # C(2n, m-1)
    second = binomial(3 * n - 3, n - 2)  # C(a, b)
    row = []
    for m in range(1, n):
        row.append(_exact_div(first * second, n - m))
        a, b = 3 * n - 2 * m - 1, n - m - 1
        first = _exact_div(first * (2 * n - m + 1), m)
        if b:
            second = _exact_div(second * (b * (a - b)), a * (a - 1))
    row.append(catalan(n))
    if (n > 1 and second != 1) or first != n * row[-1]:
        raise ConsistencyError(f"forest_row({n}): a binomial chain missed its end value")
    return row


def lagrange_coeff(a: int, b: int) -> int:
    """Coefficient [x^b] T(x)^a, where T is the tree-diagram generating series.

    Lagrange inversion applied to T/x = 1 + x (T/x)^3 gives

        [x^b] T^a = a C(3b-2a-1, b-a-1) / (b-a)   for a < b,
        [x^b] T^b = 1,

    and 0 for a > b since T has valuation 1.
    """
    if a < 0 or b < 0:
        raise ValueError(f"lagrange_coeff requires a, b >= 0, got a={a}, b={b}")
    if a > b:
        return 0
    if a == b:
        return 1
    return _exact_div(a * binomial(3 * b - 2 * a - 1, b - a - 1), b - a)


def rooted_forest_count(n: int, m: int) -> int:
    """Number of forest diagrams with n chords and m trees, one root chosen per tree.

    Rooting weights an i-chord tree by a factor i, which turns the tree
    series T into R = x T', and r(n, m) = C(2n, m-1) [x^n] R^m / m.  Put
    w = G - 1, so that G = 1 + x G^3 reads w = x phi(w) with
    phi(w) = (1+w)^3.  Then

        x = w / (1+w)^3,    T = x G = w / (1+w)^2,
        R = x (dT/dw) / (dx/dw) = w (1-w) / ((1+w)^2 (1-2w)).

    The second Lagrange-Buermann form (Flajolet and Sedgewick, *Analytic
    Combinatorics*, Thm A.2), [x^n] H(w) = [w^n] H(w) phi^(n-1) (phi - w phi'),
    with phi - w phi' = (1+w)^2 (1-2w), gives

        [x^n] R^m = [w^(n-m)] u(w) (1+w)^(3n-1-2m),    u(w) = (1-w)^m (1-2w)^(1-m),

    so r(n, m) = C(2n, m-1)/m * sum_{k=0..n-m} u_k C(3n-1-2m, n-m-k), one
    convolution of length n-m+1.  From u'/u = -m/(1-w) + 2(m-1)/(1-2w),
    (1 - 3w + 2w^2) u' = (m - 2 + 2w) u, whose coefficient of w^k is

        (k+1) u_(k+1) = (3k+m-2) u_k - (2k-4) u_(k-1),    u_0 = 1, u_(-1) = 0.

    u has integer coefficients, so each step of this recurrence, and of
    C(a, j) = C(a, j-1) (a-j+1) / j, is an exact division.  The paper's
    double sum, :func:`rooted_forest_paper_sum`, is the independent check.
    """
    if m < 1 or m > n:
        raise ValueError(
            f"rooted_forest_count requires 1 <= m <= n, got n={n}, m={m}"
        )
    depth = n - m
    top = 3 * n - 1 - 2 * m
    u = [1]
    previous = 0
    for k in range(depth):
        u.append(_exact_div((3 * k + m - 2) * u[k] - (2 * k - 4) * previous, k + 1))
        previous = u[k]
    total = 0
    choose = 1  # C(top, j)
    for j, coefficient in enumerate(reversed(u)):
        if j:
            choose = _exact_div(choose * (top - j + 1), j)
        total += coefficient * choose
    value = _exact_div(binomial(2 * n, m - 1) * total, m)
    if value < 0:
        raise ConsistencyError(f"rooted_forest_count({n}, {m}) evaluated to {value} < 0")
    return value


def rooted_forest_paper_sum(n: int, m: int) -> int:
    """r(n, m) by the paper's double alternating sum; the check on :func:`rooted_forest_count`.

    Rooting weights an i-chord tree by a factor i, which turns the tree
    series T into R = x T' = x (2x - T) / (x - 3 T^2).  Expanding the closed
    form binomially and extracting coefficients yields

        r(n, m) = C(2n, m-1) (S1 + S2) / m

    with the alternating sums

        S1 = sum_{k=0..m} sum_{j=0..n-m-1}
                 (-1)^k C(m,k) C(m+j-1,j) 2^(m-k) 3^j [x^(n-m+j+k)] T^(2j+k),
        S2 = sum_{k=0..m} (-1)^k C(m,k) C(n-1,n-m) 2^(m-k) 3^(n-m),

    where S1 is empty for m = n.  S1 runs j on the outside, so its k-free
    factor C(m+j-1,j) 3^j is computed once per j.  S2 is summed by the
    binomial theorem: its k-sum is (2-1)^m = 1, so S2 = C(n-1,n-m) 3^(n-m).
    It makes O(m (n-m)) :func:`lagrange_coeff` calls per cell, so a table of
    it grows as N^4.
    """
    if m < 1 or m > n:
        raise ValueError(
            f"rooted_forest_paper_sum requires 1 <= m <= n, got n={n}, m={m}"
        )
    signed = [(-1) ** k * binomial(m, k) * 2 ** (m - k) for k in range(m + 1)]
    sum1 = 0
    for j in range(n - m):
        inner = sum(
            common * lagrange_coeff(2 * j + k, n - m + j + k)
            for k, common in enumerate(signed)
        )
        sum1 += binomial(m + j - 1, j) * 3**j * inner
    # sum_k (-1)^k C(m,k) 2^(m-k) = (2-1)^m = 1 by the binomial theorem
    sum2 = binomial(n - 1, n - m) * 3 ** (n - m)
    value = _exact_div(binomial(2 * n, m - 1) * (sum1 + sum2), m)
    if value < 0:
        raise ConsistencyError(f"rooted_forest_paper_sum({n}, {m}) evaluated to {value} < 0")
    return value


def kreweras_count(sizes: Sequence[int]) -> int:
    """Number of non-crossing partitions of [N] whose block sizes are ``sizes``.

    ``sizes`` is the multiset of block sizes, in any order; N is their sum.
    With k blocks, of which s_j have size j, the count is
    N (N-1) ... (N-k+2) / prod_j s_j!.
    """
    if not sizes or min(sizes) < 1:
        raise ValueError(f"kreweras_count needs block sizes >= 1, got {sizes!r}")
    denominator = 1
    for mult in Counter(sizes).values():
        denominator *= math.factorial(mult)
    return _exact_div(math.perm(sum(sizes), len(sizes) - 1), denominator)


def type_sum_forest_count(n: int, m: int) -> int:
    """Forest count recomputed as a sum over forest types.

    A forest whose type has s_i trees of i chords occupies a non-crossing
    partition of [2n] with s_i blocks of size 2i, and a block of size 2i can
    hold any of the tree_count(i) tree diagrams.  Summing the partition count
    times the tree choices over all types with sum s_i = m and sum i s_i = n
    recounts f(n, m); the closed form in :func:`forest_count` must agree.
    The partition count is :func:`kreweras_count` of the doubled type, the
    function that the kreweras-vs-enumeration check compares with the oracle.
    """
    if m < 1 or m > n:
        raise ValueError(
            f"type_sum_forest_count requires 1 <= m <= n, got n={n}, m={m}"
        )
    from .oracle import enumerate_types  # per call, so a rebinding (a tracer's) holds

    trees = tree_counts(n - m + 1)  # no tree of a type has more chords
    total = 0
    for sizes in enumerate_types(n, m):
        choices = math.prod(trees[size - 1] for size in sizes)
        total += kreweras_count(tuple(2 * size for size in sizes)) * choices
    return total
