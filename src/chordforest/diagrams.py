"""Chord diagrams on 2n circle points and their intersection graphs.

Points are labeled 1..2n clockwise.  A chord joins the two points of a
pair; two chords cross iff their endpoints interleave around the circle.
A diagram is its canonical chord tuple: the pairs (a, b) with a < b,
ascending in a, so the first chord always starts at point 1.  The
intersection graph has one vertex per chord and an edge per crossing
pair, and a diagram is called a tree or forest diagram according to that
graph.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

Chord = tuple[int, int]

__all__ = [
    "Chord",
    "Classification",
    "IntersectionGraph",
    "classify_chords",
    "format_chords",
    "from_pairs",
    "intersection_graph",
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


@dataclass(frozen=True)
class IntersectionGraph:
    """Crossing graph of a diagram; vertex i is the i-th canonical chord.

    ``component_id`` labels components consecutively in order of first
    appearance; ``component_sizes`` is the size multiset, ascending.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]
    component_id: tuple[int, ...]
    component_sizes: tuple[int, ...]


def _find(parent: list[int], i: int) -> int:
    """Root of i in the union-find forest ``parent``, halving the path to it."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _components(chords: Sequence[Chord]) -> tuple[list[tuple[int, int]], list[int]]:
    """Crossing pairs (i, j), i < j, of a canonical chord list (ascending
    pairs, ascending starts), and a component label per chord: the index of
    its component's union-find root."""
    n = len(chords)
    parent = list(range(n))
    pairs = []
    for i in range(n):
        b = chords[i][1]
        for j in range(i + 1, n):
            c, d = chords[j]
            if c < b < d:  # chords[i] starts before chords[j], so this is a crossing
                pairs.append((i, j))
                ri, rj = _find(parent, i), _find(parent, j)
                if ri != rj:
                    parent[rj] = ri
    return pairs, [_find(parent, i) for i in range(n)]


def _sizes(roots: list[int]) -> dict[int, int]:
    """Chords per component, keyed by component label in order of first appearance."""
    sizes: dict[int, int] = {}
    for root in roots:
        sizes[root] = sizes.get(root, 0) + 1
    return sizes


def intersection_graph(chords: Sequence[Chord]) -> IntersectionGraph:
    edges, roots = _components(chords)
    sizes = _sizes(roots)
    consecutive = {root: label for label, root in enumerate(sizes)}
    return IntersectionGraph(
        len(chords),
        frozenset(edges),
        tuple(consecutive[root] for root in roots),
        tuple(sorted(sizes.values())),
    )


@dataclass(frozen=True)
class Classification:
    """Forest/tree verdict for one diagram.

    ``tree_sizes`` lists chords per component, ascending, and is None unless
    the diagram is a forest.
    """

    component_count: int
    is_forest: bool
    is_tree: bool
    tree_sizes: tuple[int, ...] | None


def classify_chords(chords: Sequence[Chord]) -> Classification:
    """Classify a canonical chord list (ascending pairs, ascending starts).

    Acyclicity is decided by the edge count: the crossing graph is a forest
    iff it has exactly vertices - components edges.
    """
    edges, roots = _components(chords)
    sizes = _sizes(roots)
    component_count = len(sizes)
    is_forest = len(edges) == len(chords) - component_count
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
