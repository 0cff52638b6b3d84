"""Exact truncated formal power series and the tree-diagram generating functions.

A :class:`TruncatedSeries` holds integer coefficients c_0..c_N of a series
known modulo x^(N+1).  Arithmetic is exact; truncation only ever discards
high-order terms.

The three series of interest are built from their functional equations, not
from the closed-form counts, so their coefficients are an independent route
to the same numbers:

    G = 1 + x G^3        (ternary trees),
    T = x G              (tree diagrams, T = sum t_n x^n),
    R = x T'             (rooted tree diagrams, R = sum n t_n x^n).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import ConsistencyError

__all__ = [
    "TruncatedSeries",
    "rooted_gf",
    "solve_ternary_gf",
    "tree_gf",
]


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer coefficients c_0..c_N of a series modulo x^(N+1)."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the constant term")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(0, order, 0)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(0, order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(1, order)

    @classmethod
    def monomial(
        cls, exponent: int, order: int, coefficient: int = 1
    ) -> "TruncatedSeries":
        """coefficient * x^exponent as an order-``order`` series (zero if truncated away)."""
        if exponent < 0 or order < 0:
            raise ValueError(
                f"monomial requires exponent, order >= 0, got {exponent}, {order}"
            )
        values = [0] * (order + 1)
        if exponent <= order:
            values[exponent] = coefficient
        return cls(tuple(values))

    # -- basics ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, index: int) -> int:
        if not 0 <= index <= self.order:
            raise ValueError(
                f"coefficient {index} is outside the kept range 0..{self.order}"
            )
        return self.coeffs[index]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order < 0 or order > self.order:
            raise ValueError(
                f"cannot truncate an order-{self.order} series to order {order}"
            )
        if order == self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- ring operations (results live at the smaller operand order) ------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[i] - other.coeffs[i] for i in range(n + 1))
        )

    def __mul__(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        if isinstance(other, int):
            return TruncatedSeries(tuple(value * other for value in self.coeffs))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        a, b = self.coeffs, other.coeffs
        for i in range(n + 1):
            ai = a[i]
            if ai:
                for j in range(n + 1 - i):
                    bj = b[j]
                    if bj:
                        out[i + j] += ai * bj
        return TruncatedSeries(tuple(out))

    def pow(self, exponent: int) -> "TruncatedSeries":
        """Nonnegative integer power, by repeated squaring at this order."""
        if exponent < 0:
            raise ValueError(f"pow requires exponent >= 0, got {exponent}")
        result = TruncatedSeries.one(self.order)
        base = self
        remaining = exponent
        while remaining:
            if remaining & 1:
                result = result * base
            remaining >>= 1
            if remaining:
                base = base * base
        return result

    def derivative(self) -> "TruncatedSeries":
        """Termwise d/dx; the result is known to one order less."""
        if self.order == 0:
            return TruncatedSeries.zero(0)
        return TruncatedSeries(
            tuple(i * self.coeffs[i] for i in range(1, self.order + 1))
        )

    def shift_mul_x(self, k: int = 1) -> "TruncatedSeries":
        """Multiply by x^k; the product is known to k more orders."""
        if k < 0:
            raise ValueError(f"shift_mul_x requires k >= 0, got {k}")
        return TruncatedSeries((0,) * k + self.coeffs)


def solve_ternary_gf(order: int) -> TruncatedSeries:
    """The unique series G with G = 1 + x G^3, modulo x^(order+1).

    Online coefficient recurrence: g_0 = 1 and g_n = [x^(n-1)] G^3 for
    n >= 1, which involves only g_0..g_(n-1).  Running coefficient lists of
    G^2 and G^3 each gain one entry per new g_n, a single convolution of
    length n + 1, so the whole solve costs O(order^2) coefficient products.
    This is the schoolbook form of relaxed ("online") series evaluation,
    J. van der Hoeven, *Relax, but don't be too lazy*, J. Symbolic Comput.
    34 (2002).  It uses nothing but the defining equation, which is
    re-checked at full order before returning, with G^3 recomputed by
    ``TruncatedSeries.pow`` rather than taken from the running lists.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    g, g2, g3 = [1], [1], [1]
    for n in range(1, order + 1):
        g.append(g3[n - 1])
        g2.append(sum(map(mul, g, reversed(g))))
        g3.append(sum(map(mul, g, reversed(g2))))
    series = TruncatedSeries(tuple(g))
    residual = (
        series
        - TruncatedSeries.one(order)
        - series.pow(3).shift_mul_x().truncate(order)
    )
    if not residual.is_zero():
        raise ConsistencyError(f"G - 1 - x G^3 is nonzero at order {order}")
    return series


def tree_gf(order: int) -> TruncatedSeries:
    """Series T = sum t_n x^n counting tree diagrams, via T = x G(x).

    T has no check of its own, because one would find nothing new.  With
    T = x G the residual of x T = x^2 + T^3 is x^2 (G - 1 - x G^3), and
    :func:`solve_ternary_gf` has just checked G - 1 - x G^3 to one order
    higher than that needs.  :func:`rooted_gf` checks T once more: its
    closed form equals x T' only if T satisfies x T = x^2 + T^3.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return solve_ternary_gf(order - 1).shift_mul_x()


def rooted_gf(order: int) -> TruncatedSeries:
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
    r = t.derivative().shift_mul_x()
    x = TruncatedSeries.x(order + 1)
    if r * (x - t.pow(2) * 3) != (x * 2 - t).shift_mul_x().truncate(order + 1):
        raise ConsistencyError("x T' disagrees with x (2x - T) / (x - 3 T^2)")
    return r.truncate(order)
