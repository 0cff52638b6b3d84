"""Chord diagrams on 2n circle points and their tree/forest classification.

Points are labeled 1..2n clockwise.  A chord joins the two points of a
pair; two chords cross iff their endpoints interleave around the circle.
A diagram is its canonical chord tuple: the pairs (a, b) with a < b,
ascending in a, so the first chord always starts at point 1.  The
intersection graph has one vertex per chord and an edge per crossing
pair, and a diagram is called a tree or forest diagram according to that
graph.  :func:`classify_chords` decides this by counting the crossings
and the components they join, without building the graph.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence

Chord = tuple[int, int]

__all__ = [
    "Chord",
    "Classification",
    "classify_chords",
    "format_chords",
    "from_pairs",
    "parse_diagram",
]


def from_pairs(pairs: Iterable[tuple[int, int]]) -> tuple[Chord, ...]:
    """Validate a list of point pairs and return the canonical chord tuple.

    With n pairs, every label must lie in 1..2n and occur exactly once; the
    error message names the first offending label.  The 2n distinct labels
    then cover every point.
    """
    pair_list = [(int(a), int(b)) for a, b in pairs]
    n = len(pair_list)
    if n < 1:
        raise ValueError("a chord diagram needs at least one chord")
    seen = [False] * (2 * n + 1)
    for a, b in pair_list:
        for point in (a, b):
            if not 1 <= point <= 2 * n:
                raise ValueError(f"point {point} is outside 1..{2 * n}")
            if seen[point]:
                raise ValueError(f"point {point} occurs more than once")
            seen[point] = True
    return tuple(sorted((a, b) if a < b else (b, a) for a, b in pair_list))


def _find(parent: list[int], i: int) -> int:
    """Root of i in the union-find forest ``parent``, halving the path to it."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


class Classification(
    namedtuple("Classification", "component_count is_forest is_tree tree_sizes")
):
    """Forest/tree verdict for one diagram.

    ``tree_sizes`` lists chords per component, ascending, and is None unless
    the diagram is a forest.
    """

    __slots__ = ()


def classify_chords(chords: Sequence[Chord]) -> Classification:
    """Classify a canonical chord list (ascending pairs, ascending starts).

    Acyclicity is decided by the edge count: the crossing graph is a forest
    iff it has exactly vertices - components edges.
    """
    n = len(chords)
    parent = list(range(n))
    crossings = 0
    for i in range(n):
        b = chords[i][1]
        for j in range(i + 1, n):
            c, d = chords[j]
            if c < b < d:  # chords[i] starts before chords[j], so this is a crossing
                crossings += 1
                ri, rj = _find(parent, i), _find(parent, j)
                if ri != rj:
                    parent[rj] = ri
    sizes = Counter(_find(parent, i) for i in range(n))
    component_count = len(sizes)
    is_forest = crossings == n - component_count
    return Classification(
        component_count,
        is_forest,
        is_forest and component_count == 1,
        tuple(sorted(sizes.values())) if is_forest else None,
    )


def parse_diagram(text: str) -> tuple[Chord, ...]:
    """Parse the text form ``a-b,c-d,...`` with 1-based labels."""
    pairs = []
    for token in text.split(","):
        left, sep, right = token.strip().partition("-")
        if not sep:
            raise ValueError(f"chord {token!r} is not of the form a-b")
        try:
            pairs.append((int(left), int(right)))
        except ValueError:
            raise ValueError(f"chord {token!r} has a non-integer endpoint") from None
    return from_pairs(pairs)


def format_chords(chords: Sequence[Chord]) -> str:
    """Text form ``a-b,c-d,...`` of a chord list, in the order given, as
    :func:`parse_diagram` reads it."""
    return ",".join(f"{a}-{b}" for a, b in chords)
