"""Exact truncated power series and the tree-diagram generating functions.

A series known modulo x^(N+1) is the tuple of its integer coefficients
(c_0, ..., c_N).  Arithmetic is exact; truncation only ever discards
high-order terms.

The three series of interest are built from their functional equations, not
from the closed-form counts, so their coefficients are an independent route
to the same numbers:

    G = 1 + x G^3        (ternary trees),
    T = x G              (tree diagrams, T = sum t_n x^n),
    R = x T'             (rooted tree diagrams, R = sum n t_n x^n).

The engine's operations are the truncated product :func:`mul`, its half-cost
:func:`square` and :func:`x_derivative`.  G's recurrence runs half-convolutions
of its own, so the self-checks, built from :func:`mul` and :func:`square`,
share no code with it.  Each solve is checked once: :func:`solve_ternary_gf`
checks G's equation, and :func:`rooted_gf` checks only R's closed form,
which holds only if its T satisfies x T = x^2 + T^3.

T and R are both algebraic, so their powers need no products past the
square: :func:`tree_powers` steps T's by x T = x^2 + T^3, and
:func:`rooted_powers` steps R's by R's cubic
(4 - 27x) R^3 = x (1 - 6x) R + x^2 (8x - 1).
"""

from __future__ import annotations

import operator

from .errors import ConsistencyError

__all__ = [
    "mul",
    "rooted_gf",
    "rooted_powers",
    "solve_ternary_gf",
    "square",
    "tree_gf",
    "tree_powers",
    "x_derivative",
]


def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product a b, known to the smaller of the two orders."""
    n = min(len(a), len(b)) - 1
    out = [0] * (n + 1)
    for i in range(n + 1):
        ai = a[i]
        if ai:
            for j in range(n + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return tuple(out)


def square(a: tuple[int, ...]) -> tuple[int, ...]:
    """The product a a, known to the order of a.

    Each cross product a_i a_j with i < j is formed once and the sums are
    doubled, then the diagonal a_i^2 is added: about half the products of
    ``mul(a, a)``.
    """
    n = len(a) - 1
    cross = [0] * (n + 1)
    for i in range((n + 1) // 2):
        ai = a[i]
        if ai:
            for j in range(i + 1, n + 1 - i):
                aj = a[j]
                if aj:
                    cross[i + j] += ai * aj
    return tuple(
        2 * c + (a[k // 2] ** 2 if k % 2 == 0 else 0) for k, c in enumerate(cross)
    )


def x_derivative(a: tuple[int, ...]) -> tuple[int, ...]:
    """x a', known to the same order as a."""
    return tuple(map(operator.mul, range(len(a)), a))


def _ternary_coefficients(order: int) -> tuple[int, ...]:
    """G = 1 + x G^3 modulo x^(order+1), by its coefficient recurrence alone.

    Online coefficient recurrence on C = G^3, so that G = 1 + x C and
    g_n = c_(n-1) for n >= 1.  Differentiating C = (1 + x C)^3 gives

        C' (1 - 2 x C) = 3 C^2,   that is   k c_k = (k + 2) [x^(k-1)] C^2,

    since [x^(k-2)] C C' = (k - 1) [x^(k-1)] C^2 / 2.  The coefficient of C^2
    involves only c_0..c_(k-1) and is symmetric, so each new c_k costs one
    half-convolution: the products c_i c_(k-1-i) with i < k-1-i, doubled, plus
    the middle square, about order^2 / 4 products in all.  The division by k
    is exact, and a nonzero remainder raises :class:`ConsistencyError`.  This
    is J. C. P. Miller's power-series recurrence (Knuth, *TAOCP* Vol. 2,
    Sec. 4.7) in the schoolbook form of relaxed ("online") series evaluation,
    J. van der Hoeven, *Relax, but don't be too lazy*, J. Symbolic Comput. 34
    (2002).  Its callers check the result: :func:`solve_ternary_gf` against
    G's equation, :func:`rooted_gf` against R's closed form.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    c = [1]
    for k in range(1, order):
        # [x^(k-1)] C^2; map stops at the shorter of c[:half] and reversed(c)
        half, odd = divmod(k, 2)
        c2 = 2 * sum(map(operator.mul, c[:half], reversed(c)))
        if odd:
            c2 += c[half] ** 2
        ck, remainder = divmod((k + 2) * c2, k)
        if remainder:
            raise ConsistencyError(f"(k + 2) [x^(k-1)] C^2 is not divisible by k = {k}")
        c.append(ck)
    return (1, *c[:order])


def solve_ternary_gf(order: int) -> tuple[int, ...]:
    """The unique series G with G = 1 + x G^3, modulo x^(order+1).

    The coefficients come from :func:`_ternary_coefficients`, which uses
    nothing but the defining equation.  The equation is re-checked here at
    full order, with G^3 recomputed as ``mul(square(G), G)``, code the
    recurrence does not share.
    """
    g = _ternary_coefficients(order)
    if g != (1,) + mul(square(g), g)[:-1]:
        raise ConsistencyError(f"G - 1 - x G^3 is nonzero at order {order}")
    return g


def tree_gf(order: int) -> tuple[int, ...]:
    """Series T = sum t_n x^n counting tree diagrams, via T = x G(x).

    T has no check of its own, because one would find nothing new.  With
    T = x G the residual of x T = x^2 + T^3 is x^2 (G - 1 - x G^3), and
    :func:`solve_ternary_gf` has just checked G - 1 - x G^3 to one order
    higher than that needs.  :func:`rooted_gf` does not read T from here:
    it builds its own T from G's bare recurrence and checks it through R.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return (0,) + solve_ternary_gf(order - 1)


def tree_powers(t: tuple[int, ...]) -> list[tuple[int, ...]]:
    """[T, T^2, ..., T^N] modulo x^(N+1), for the series T known to order N.

    T^2 is one :func:`square`; every higher power comes from the equation
    x T = x^2 + T^3 times T^(k-1), that is T^(k+2) = x T^k - x^2 T^(k-1):
    one shift and one subtraction per power instead of a product.  Only ``t``
    enters, so a wrong coefficient of ``t`` carries into every power.
    """
    n = len(t) - 1
    powers = [(1,) + (0,) * n, t, square(t)]
    while len(powers) <= n:
        lower, power = powers[-3], powers[-2]
        powers.append((0, power[0], *map(operator.sub, power[1:n], lower[: n - 1])))
    return powers[1 : n + 1]


def rooted_powers(r: tuple[int, ...]) -> list[tuple[int, ...]]:
    """[R, R^2, ..., R^N] modulo x^(N+1), for the series R known to order N.

    R is algebraic, like T, and satisfies the cubic

        (4 - 27x) R^3 = x (1 - 6x) R + x^2 (8x - 1).

    It comes from eliminating T between x T = x^2 + T^3 and
    R (x - 3 T^2) = x (2x - T), the two identities :func:`rooted_gf`
    checks.  In the parametrisation x = w/(1+w)^3, where G = 1 + w and
    T = w/(1+w)^2, it reads R = w (1-w) / ((1+w)^2 (1-2w)), and both sides
    of the cubic are the same rational function of w.  The cubic times R^k
    gives, for P = R^(k+3), B = R^(k+1) and C = R^k, with p_i = 0 for
    i < k + 3,

        4 p_i = 27 p_(i-1) + b_(i-1) - 6 b_(i-2) + 8 c_(i-3) - c_(i-2),

    so each power after R^2 costs one pass of small-integer steps instead
    of a product.  Every division by 4 is checked, and a remainder raises
    :class:`ConsistencyError`.  Like :func:`tree_powers`, this reads only
    ``r`` and :func:`square`: no binomial, no Lagrange inversion and no
    closed-form count, so the powers stay on the series route, and a wrong
    coefficient of ``r`` carries into them.
    """
    n = len(r) - 1
    powers = [(1,) + (0,) * n, r, square(r)]
    for k in range(n - 2):
        c, b = powers[k], powers[k + 1]
        p = [0] * (k + 3)
        previous = 0
        for i in range(k + 3, n + 1):
            previous, remainder = divmod(
                27 * previous + b[i - 1] - 6 * b[i - 2] + 8 * c[i - 3] - c[i - 2], 4
            )
            if remainder:
                raise ConsistencyError(f"R^{k + 3} has a non-integer coefficient at x^{i}")
            p.append(previous)
        powers.append(tuple(p))
    return powers[1 : n + 1]


def rooted_gf(order: int) -> tuple[int, ...]:
    """Series R = sum n t_n x^n counting tree diagrams with a marked root chord.

    Computed as R = x T' and checked against the closed form
    R = x (2x - T) / (x - 3 T^2) by cross-multiplying:
    R (x - 3 T^2) = x (2x - T).  Since x - 3 T^2 has no constant term, the
    product's coefficient of x^(k+1) is the first to involve r_k, so T and R
    are built one order higher than asked for; otherwise the top coefficient
    of R would go unchecked.

    This is the only check here: T is x times G's bare recurrence
    (:func:`_ternary_coefficients`), without G's own check, which would
    prove nothing more.  With P = x T - T^3 - x^2 = x^2 (G - 1 - x G^3),

        R (x - 3 T^2) - x (2x - T) = x P'   when R = x T',

    so the check on coefficients 0..order+1 forces k p_k = 0 up to
    k = order + 1, that is G - 1 - x G^3 = 0 modulo x^order: every g_k with
    k < order, which is all that the returned R reads (r_n = n g_(n-1)).
    With T right, x T' is the check's only solution R, so it also covers
    :func:`x_derivative`.  The top coefficient g_order feeds only
    r_(order+1), which meets the zero constant term of x - 3 T^2 and is
    dropped.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    t = (0,) + _ternary_coefficients(order)
    r = x_derivative(t)
    denominator = tuple((k == 1) - 3 * c for k, c in enumerate(square(t)))
    numerator = (0,) + tuple(2 * (k == 1) - c for k, c in enumerate(t[:-1]))
    if mul(r, denominator) != numerator:
        raise ConsistencyError("x T' disagrees with x (2x - T) / (x - 3 T^2)")
    return r[: order + 1]
