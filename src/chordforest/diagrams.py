"""Chord diagrams on 2n circle points and their intersection graphs.

Points are labeled 1..2n clockwise.  A chord joins the two points of a
pair; two chords cross iff their endpoints interleave around the circle.
The intersection graph has one vertex per chord and an edge per crossing
pair, and a diagram is called a tree or forest diagram according to that
graph.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import ConsistencyError

Chord = tuple[int, int]

__all__ = [
    "Chord",
    "ChordDiagram",
    "Classification",
    "IntersectionGraph",
    "SupportPartition",
    "blocks_cross",
    "classify",
    "classify_chords",
    "crosses",
    "format_chords",
    "format_diagram",
    "from_pairs",
    "intersection_graph",
    "parse_diagram",
    "support_partition",
]


@dataclass(frozen=True)
class ChordDiagram:
    """A perfect matching of {1..2n} in canonical form.

    ``chords`` holds the pairs (a, b) with a < b, ascending in a, so the
    first chord always starts at point 1.  ``partner`` is the same matching
    as an involution array (index 0 unused).  Instances are normally built
    through :func:`from_pairs` or :func:`parse_diagram`, which validate.
    """

    chords: tuple[Chord, ...]
    partner: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.chords)

    def __str__(self) -> str:
        return format_diagram(self)


def _partner_array(chords: tuple[Chord, ...]) -> tuple[int, ...]:
    partner = [0] * (2 * len(chords) + 1)
    for a, b in chords:
        partner[a] = b
        partner[b] = a
    return tuple(partner)


def _from_canonical(chords: tuple[Chord, ...]) -> ChordDiagram:
    """Wrap an already-canonical chord tuple without re-validating."""
    return ChordDiagram(chords, _partner_array(chords))


def from_pairs(pairs: Iterable[tuple[int, int]], n: int | None = None) -> ChordDiagram:
    """Validate a list of point pairs and return the canonical diagram.

    ``n`` defaults to the number of pairs; when given it must agree.  Every
    label must lie in 1..2n and occur exactly once; the error message names
    the first offending label.
    """
    pair_list = [(int(a), int(b)) for a, b in pairs]
    if n is None:
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
    if len(pair_list) < n:
        raise ValueError(f"point {seen.index(False, 1)} is unmatched")
    chords = tuple(sorted((a, b) if a < b else (b, a) for a, b in pair_list))
    return _from_canonical(chords)


def crosses(chord1: Chord, chord2: Chord) -> bool:
    """Whether two disjoint chords (a, b), (c, d), each ascending, cross."""
    a, b = chord1
    c, d = chord2
    return a < c < b < d or c < a < d < b


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


def intersection_graph(diagram: ChordDiagram) -> IntersectionGraph:
    edges, roots = _components(diagram.chords)
    sizes = _sizes(roots)
    consecutive = {root: label for label, root in enumerate(sizes)}
    return IntersectionGraph(
        diagram.n,
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


def classify(diagram: ChordDiagram) -> Classification:
    return classify_chords(diagram.chords)


def blocks_cross(block1: Sequence[int], block2: Sequence[int]) -> bool:
    """Whether two disjoint point sets cross.

    That is, whether one contains {a, c} and the other {b, d} with
    a < b < c < d.
    """
    for one, other in ((block1, block2), (block2, block1)):
        for a in one:
            for c in one:
                if (
                    a < c
                    and any(a < b < c for b in other)
                    and any(c < d for d in other)
                ):
                    return True
    return False


@dataclass(frozen=True)
class SupportPartition:
    """Endpoint sets of a diagram's components, as sorted blocks sorted by minimum."""

    blocks: tuple[tuple[int, ...], ...]


def support_partition(diagram: ChordDiagram) -> SupportPartition:
    """Partition {1..2n} into the endpoint sets of the diagram's components.

    The blocks of this partition never cross; that fact is re-checked here
    and a failure raises ConsistencyError.
    """
    graph = intersection_graph(diagram)
    grouped: dict[int, list[int]] = {}
    for index, label in enumerate(graph.component_id):
        grouped.setdefault(label, []).extend(diagram.chords[index])
    blocks = sorted(sorted(points) for points in grouped.values())
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if blocks_cross(blocks[i], blocks[j]):
                raise ConsistencyError(
                    f"component supports {blocks[i]} and {blocks[j]} cross"
                )
    return SupportPartition(tuple(tuple(block) for block in blocks))


def parse_diagram(text: str) -> ChordDiagram:
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


def format_diagram(diagram: ChordDiagram) -> str:
    """Canonical text form ``a-b,c-d,...``; inverse of :func:`parse_diagram`."""
    return format_chords(diagram.chords)


def format_chords(chords: Sequence[Chord]) -> str:
    """Text form ``a-b,c-d,...`` of a chord list, in the order given."""
    return ",".join(f"{a}-{b}" for a, b in chords)
