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
"""

from __future__ import annotations

import operator

from .errors import ConsistencyError

__all__ = [
    "mul",
    "rooted_gf",
    "solve_ternary_gf",
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


def x_derivative(a: tuple[int, ...]) -> tuple[int, ...]:
    """x a', known to the same order as a."""
    return tuple(map(operator.mul, range(len(a)), a))


def solve_ternary_gf(order: int) -> tuple[int, ...]:
    """The unique series G with G = 1 + x G^3, modulo x^(order+1).

    Online coefficient recurrence: g_0 = 1 and g_n = [x^(n-1)] G^3 for
    n >= 1, which involves only g_0..g_(n-1).  Running coefficient lists of
    G^2 and G^3 each gain one entry per new g_n, a single convolution of
    length n + 1, so the whole solve costs O(order^2) coefficient products.
    This is the schoolbook form of relaxed ("online") series evaluation,
    J. van der Hoeven, *Relax, but don't be too lazy*, J. Symbolic Comput.
    34 (2002).  It uses nothing but the defining equation, which is
    re-checked at full order before returning, with G^3 recomputed by
    :func:`mul` rather than taken from the running lists.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    g, g2, g3 = [1], [1], [1]
    for n in range(1, order + 1):
        g.append(g3[n - 1])
        g2.append(sum(map(operator.mul, g, reversed(g))))
        g3.append(sum(map(operator.mul, g, reversed(g2))))
    g = tuple(g)
    if g != (1,) + mul(mul(g, g), g)[:-1]:
        raise ConsistencyError(f"G - 1 - x G^3 is nonzero at order {order}")
    return g


def tree_gf(order: int) -> tuple[int, ...]:
    """Series T = sum t_n x^n counting tree diagrams, via T = x G(x).

    T has no check of its own, because one would find nothing new.  With
    T = x G the residual of x T = x^2 + T^3 is x^2 (G - 1 - x G^3), and
    :func:`solve_ternary_gf` has just checked G - 1 - x G^3 to one order
    higher than that needs.  :func:`rooted_gf` checks T once more: its
    closed form equals x T' only if T satisfies x T = x^2 + T^3.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return (0,) + solve_ternary_gf(order - 1)


def tree_powers(t: tuple[int, ...]) -> list[tuple[int, ...]]:
    """[T, T^2, ..., T^N] modulo x^(N+1), for the series T known to order N.

    T^2 is one product; every higher power comes from the equation
    x T = x^2 + T^3 times T^(k-1), that is T^(k+2) = x T^k - x^2 T^(k-1):
    one shift and one subtraction per power instead of a product.  Only ``t``
    enters, so a wrong coefficient of ``t`` carries into every power.
    """
    n = len(t) - 1
    powers = [(1,) + (0,) * n, t, mul(t, t)]
    while len(powers) <= n:
        lower, power = powers[-3], powers[-2]
        powers.append((0, power[0], *map(operator.sub, power[1:n], lower[: n - 1])))
    return powers[1 : n + 1]


def rooted_gf(order: int) -> tuple[int, ...]:
    """Series R = sum n t_n x^n counting tree diagrams with a marked root chord.

    Computed as R = x T' and checked against the closed form
    R = x (2x - T) / (x - 3 T^2) by cross-multiplying:
    R (x - 3 T^2) = x (2x - T).  Since x - 3 T^2 has no constant term, the
    product's coefficient of x^(k+1) is the first to involve r_k, so T and R
    are built one order higher than asked for; otherwise the top coefficient
    of R would go unchecked.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    t = tree_gf(order + 1)
    r = x_derivative(t)
    denominator = tuple((k == 1) - 3 * c for k, c in enumerate(mul(t, t)))
    numerator = (0,) + tuple(2 * (k == 1) - c for k, c in enumerate(t[:-1]))
    if mul(r, denominator) != numerator:
        raise ConsistencyError("x T' disagrees with x (2x - T) / (x - 3 T^2)")
    return r[: order + 1]
