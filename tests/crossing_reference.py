"""Crossing tests built from the definition, kept as test references.

The library never builds a crossing graph: the partition stack sweep and
the chord scan build only non-crossing structures, and
``classify_chords`` counts crossings and components without keeping the
edges.  The literal partition sweep in ``test_oracle.py`` tests every pair
of blocks with :func:`blocks_cross`.  The checks in ``test_diagrams.py``
compare ``classify_chords`` with :func:`intersection_graph`, which shares
no code with it: each pair of chords is tested with :func:`blocks_cross`,
and each component is grown by a search over the edges.
"""

import itertools
from collections.abc import Sequence
from typing import NamedTuple


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


class IntersectionGraph(NamedTuple):
    """Crossing graph of a diagram; vertex i is the i-th chord.

    ``component_id`` labels components consecutively in order of first
    appearance; ``component_sizes`` is the size multiset, ascending.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]
    component_id: tuple[int, ...]
    component_sizes: tuple[int, ...]


def intersection_graph(chords: Sequence[tuple[int, int]]) -> IntersectionGraph:
    """The crossing graph of a chord list, from the definition.

    An edge (i, j), i < j, joins every two chords whose endpoints cross.
    Each vertex not yet labelled starts a new component, which a
    depth-first search over the edges grows to everything it reaches.
    """
    n = len(chords)
    edges = frozenset(
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if blocks_cross(chords[i], chords[j])
    )
    neighbors = [[] for _ in range(n)]
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    component_id = [None] * n
    sizes = []
    for start in range(n):
        if component_id[start] is not None:
            continue
        label = len(sizes)
        component_id[start] = label
        stack = [start]
        size = 0
        while stack:
            vertex = stack.pop()
            size += 1
            for other in neighbors[vertex]:
                if component_id[other] is None:
                    component_id[other] = label
                    stack.append(other)
        sizes.append(size)
    return IntersectionGraph(n, edges, tuple(component_id), tuple(sorted(sizes)))
