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
import operator
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

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
    "rooted_forest_paper_rows",
    "rooted_forest_rows",
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
    """[f(n, 1), ..., f(n, n)], each entry from the one before by a small-integer ratio.

        f(n, m+1) = f(n, m) (2n-m+1) (2n-m) (n-m) / (m (3n-2m-1) (3n-2m-2)),

    the quotient of consecutive terms of :func:`forest_count`, from
    f(n, 1) = t(n).  At m = n-1 the ratio is (n+2) / (n (n-1)), which is
    catalan(n) / C(2n, n-2) = f(n, n) / f(n, n-1), so the same step reaches
    the non-crossing end.  The last entry is checked against catalan(n), so
    a wrong step cannot pass unseen.
    """
    if n < 1:
        raise ValueError(f"forest_row requires n >= 1, got n={n}")
    row = [tree_count(n)]
    for m in range(1, n):
        row.append(
            _exact_div(
                row[-1] * ((2 * n - m + 1) * (2 * n - m) * (n - m)),
                m * (3 * n - 2 * m - 1) * (3 * n - 2 * m - 2),
            )
        )
    if row[-1] != catalan(n):
        raise ConsistencyError(f"forest_row({n}) ends off catalan({n})")
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
    double sum, :func:`rooted_forest_paper_rows`, is the independent check.
    """
    if m < 1 or m > n:
        raise ValueError(
            f"rooted_forest_count requires 1 <= m <= n, got n={n}, m={m}"
        )
    u = [1]
    _extend_u(u, m, n - m)
    top = 3 * n - 1 - 2 * m
    total = 0
    choose = 1  # C(top, j)
    for j, coefficient in enumerate(reversed(u)):
        if j:
            choose = _exact_div(choose * (top - j + 1), j)
        total += coefficient * choose
    value = _exact_div(binomial(2 * n, m - 1) * total, m)
    if value < 0:
        raise ConsistencyError(f"r({n}, {m}) evaluated to {value} < 0")
    return value


def _extend_u(u: list[int], m: int, steps: int) -> None:
    """Append the next ``steps`` coefficients of u(w) = (1-w)^m (1-2w)^(1-m) to ``u``."""
    start = len(u) - 1
    previous = u[start - 1] if start else 0
    for k in range(start, start + steps):
        u.append(_exact_div((3 * k + m - 2) * u[k] - (2 * k - 4) * previous, k + 1))
        previous = u[k]


def rooted_forest_rows(max_n: int) -> Iterator[list[int]]:
    """[r(n, 1), ..., r(n, n)] for n = 1..max_n, one row at a time.

    The series u of :func:`rooted_forest_count` depends on m only, so one
    coefficient list per m is kept, and each row extends every list by one
    coefficient of the same recurrence.  The binomials C(3n-1-2m, j),
    j <= n-m, depend on n - m and the top 3n-1-2m, which grows by one from
    row to row at a fixed d = n - m.  So one list [C(n-1+2d, j) for j <= d]
    is kept per d, and each row advances every list by one step of Pascal's
    rule, C(a+1, j) = C(a, j) + C(a, j-1), and adds the list of d = n-1;
    at most n(n+1)/2 binomials are alive at once.  The last row is checked
    against :func:`rooted_forest_count`, whose binomials are a ratio chain,
    cell by cell, so a chain that misses or repeats a step cannot pass
    unseen.  ``table --kind r`` and both of ``verify``'s r checks read their
    cells from here.
    """
    if max_n < 1:
        raise ValueError(f"rooted_forest_rows requires max_n >= 1, got max_n={max_n}")
    chains: list[list[int]] = []  # chains[m-1] = [u_0, ..., u_(n-m)] of that m
    segments: list[list[int]] = []  # segments[d] = [C(n-1+2d, j) for j <= d]
    for n in range(1, max_n + 1):
        for m, u in enumerate(chains, start=1):
            _extend_u(u, m, 1)
        chains.append([1])
        segments = [[1, *map(operator.add, segment[1:], segment)] for segment in segments]
        segments.append([binomial(3 * n - 3, j) for j in range(n)])
        row = []
        for m, u in enumerate(chains, start=1):
            total = sum(map(operator.mul, u, reversed(segments[n - m])))
            value = _exact_div(binomial(2 * n, m - 1) * total, m)
            if value < 0:
                raise ConsistencyError(f"r({n}, {m}) evaluated to {value} < 0")
            row.append(value)
        if n == max_n and row != [rooted_forest_count(n, m) for m in range(1, n + 1)]:
            raise ConsistencyError(
                f"rooted_forest_rows({max_n}) ends off the cell form r({max_n}, m)"
            )
        yield row
    if n != max_n:
        raise ConsistencyError(f"rooted_forest_rows({max_n}) ended at row {n}")


def rooted_forest_paper_rows(max_n: int) -> list[list[int]]:
    """[r(n, 1), ..., r(n, n)] for n = 1..max_n by the paper's double alternating sum.

    This is the independent check on :func:`rooted_forest_count`.  Rooting
    weights an i-chord tree by a factor i, which turns the tree series T into
    R = x T' = x (2x - T) / (x - 3 T^2).  Expanding the closed form
    binomially and extracting coefficients yields

        r(n, m) = C(2n, m-1) S / m,
        S = sum_{k=0..m} sum_{j=0..n-m}
                (-1)^k C(m,k) C(m+j-1,j) 2^(m-k) 3^j [x^(n-m+j+k)] T^(2j+k).

    The paper writes S as S1 + S2, with S2 = C(n-1,n-m) 3^(n-m) the term
    j = n-m: there [x^(2j+k)] T^(2j+k) = 1, and the k-sum is (2-1)^m = 1.
    Here it is one more term of the same sum.  [x^(n-m+j+k)] T^(2j+k) is
    entry 2j+k of diagonal d = n-m-j of the table I_0[d][o] = [x^(o+d)] T^o,
    and the k-factor is the coefficient list of (2-y)^m.  So the k-sum is an
    m-th finite difference, which Pascal's rule builds one step per m:

        I_m[d][o] = 2 I_(m-1)[d][o] - I_(m-1)[d][o+1],
        S = sum_{j=0..n-m} C(m+j-1,j) 3^j I_m[n-m-j][2j].

    Diagonal 0 is all ones, [x^o] T^o = 1, and Pascal's rule keeps it so:
    2 - 1 = 1.  I_0[d] has 2(max_n-d) + 1 entries and each step drops two,
    so I_m[d] keeps 2(max_n-m-d) + 1, up to the index 2(n-m-d) <=
    2(max_n-m-d) that S reads; only the diagonals d <= max_n-m are stepped.
    The weights C(m+j-1,j) 3^j form one ratio chain per m, each step an
    exact division: w_j = w_(j-1) 3 (m+j-1) / j, about max_n^2/2 steps in all.
    The rows take about max_n^2 :func:`lagrange_coeff` calls, one per table
    entry, about max_n^3/3 big-int subtractions and max_n^3/6 weight products.
    """
    if max_n < 1:
        raise ValueError(
            f"rooted_forest_paper_rows requires max_n >= 1, got max_n={max_n}"
        )
    # diagonals[d] = I_m[d] from I_0[d][o] = [x^(o+d)] T^o
    diagonals = [
        [lagrange_coeff(a, a + d) for a in range(2 * (max_n - d) + 1)]
        for d in range(max_n)
    ]
    rows = [[0] * n for n in range(1, max_n + 1)]
    for m in range(1, max_n + 1):
        diagonals = [
            [2 * x - y for x, y in zip(diagonal, diagonal[1:-1])]
            for diagonal in diagonals[: max_n - m + 1]
        ]
        weights = [1]  # weights[j] = C(m+j-1, j) 3^j
        for j in range(1, max_n - m + 1):
            weights.append(_exact_div(weights[-1] * 3 * (m + j - 1), j))
        for n in range(m, max_n + 1):
            total = sum(weights[j] * diagonals[n - m - j][2 * j] for j in range(n - m + 1))
            value = _exact_div(binomial(2 * n, m - 1) * total, m)
            if value < 0:
                raise ConsistencyError(
                    f"rooted_forest_paper_rows({max_n}): r({n}, {m}) evaluated to {value} < 0"
                )
            rows[n - 1][m - 1] = value
    return rows


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


def type_sum_forest_count(types: Iterable[Sequence[int]]) -> int:
    """Number of forest diagrams whose type is one of ``types``.

    A type is the multiset of the forest's tree sizes.  A forest of type
    (l_1, ..., l_m) occupies a non-crossing partition of [2n] with blocks of
    sizes 2 l_1, ..., 2 l_m, and a block of size 2i can hold any of the
    tree_count(i) tree diagrams.  So each type contributes the partition
    count, :func:`kreweras_count` of the doubled type (the function that the
    kreweras-vs-enumeration check compares with the oracle), times
    prod tree_count(l_i).  Over every partition of n into m parts the sum
    recounts f(n, m), which the closed form in :func:`forest_count` must
    match.  An empty ``types`` gives 0.
    """
    return sum(
        kreweras_count(tuple(2 * size for size in sizes))
        * math.prod(map(tree_count, sizes))
        for sizes in types
    )
