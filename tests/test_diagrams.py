"""Diagram model: validation, crossings, components, component supports.

The running example is the five-chord diagram 1-8,2-9,3-5,7-10,4-6, whose
crossing graph is a triangle on the chords (1,8), (2,9), (7,10) plus an
edge between (3,5) and (4,6).  The crossing graph comes from the test
reference ``crossing_reference.intersection_graph``, which shares no code
with ``classify_chords``; ``TestIntersectionGraph`` pins the reference itself.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chordforest.diagrams import (
    classify_chords,
    format_chords,
    from_pairs,
    parse_diagram,
)
from chordforest.oracle import enumerate_diagrams
from crossing_reference import blocks_cross, intersection_graph

FIVE_CHORD_PAIRS = [(1, 8), (2, 9), (3, 5), (7, 10), (4, 6)]


def _all_diagrams(n):
    collected = []
    enumerate_diagrams(n, collected.append)
    return collected


def _supports(diagram):
    """Endpoint sets of the diagram's components, as sorted blocks sorted by minimum."""
    grouped = {}
    for index, label in enumerate(intersection_graph(diagram).component_id):
        grouped.setdefault(label, []).extend(diagram[index])
    return tuple(sorted(tuple(sorted(points)) for points in grouped.values()))


def _crossing_supports(blocks):
    return [
        (one, other)
        for one, other in itertools.combinations(blocks, 2)
        if blocks_cross(one, other)
    ]


def _endpoints(diagram):
    return sorted(point for chord in diagram for point in chord)


class TestFromPairs:
    def test_five_chord_example(self):
        diagram = from_pairs(FIVE_CHORD_PAIRS)
        assert len(diagram) == 5
        assert diagram == ((1, 8), (2, 9), (3, 5), (4, 6), (7, 10))
        assert _endpoints(diagram) == list(range(1, 11))

    def test_single_chord(self):
        assert from_pairs([(1, 2)]) == ((1, 2),)

    def test_reversed_pairs_are_normalized(self):
        assert from_pairs([(4, 1), (2, 3)]) == ((1, 4), (2, 3))

    def test_duplicate_point(self):
        with pytest.raises(ValueError, match="point 2"):
            from_pairs([(1, 2), (2, 3)])

    def test_out_of_range_point(self):
        with pytest.raises(ValueError, match="point 5"):
            from_pairs([(1, 5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            from_pairs([])


class TestIntersectionGraph:
    def test_five_chord_example(self):
        graph = intersection_graph(from_pairs(FIVE_CHORD_PAIRS))
        # canonical chord order: (1,8) (2,9) (3,5) (4,6) (7,10)
        assert graph.vertex_count == 5
        assert graph.edges == frozenset({(0, 1), (0, 4), (1, 4), (2, 3)})
        assert graph.component_sizes == (2, 3)
        assert graph.component_id[0] == graph.component_id[1] == graph.component_id[4]
        assert graph.component_id[2] == graph.component_id[3]

    def test_single_chord(self):
        graph = intersection_graph(from_pairs([(1, 2)]))
        assert graph.vertex_count == 1
        assert graph.edges == frozenset()
        assert graph.component_sizes == (1,)

    def test_noncrossing_chords_are_isolated(self):
        n = 5
        pairs = [(2 * i + 1, 2 * i + 2) for i in range(n)]
        graph = intersection_graph(from_pairs(pairs))
        assert graph.edges == frozenset()
        assert graph.component_sizes == (1,) * n


def _is_acyclic(vertex_count, edges):
    """Independent check: BFS with parent tracking, no edge-count shortcut."""
    neighbors = {v: [] for v in range(vertex_count)}
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = set()
    for start in range(vertex_count):
        if start in seen:
            continue
        seen.add(start)
        queue = [(start, -1)]
        while queue:
            vertex, parent = queue.pop()
            for other in neighbors[vertex]:
                if other == parent:
                    parent = -2  # a second edge back to the parent is a cycle
                    continue
                if other in seen:
                    return False
                seen.add(other)
                queue.append((other, vertex))
    return True


class TestClassify:
    def test_five_chord_example_is_not_forest(self):
        shape = classify_chords(from_pairs(FIVE_CHORD_PAIRS))
        assert shape.component_count == 2
        assert not shape.is_forest
        assert not shape.is_tree
        assert shape.tree_sizes is None

    def test_two_crossing_chords_form_a_tree(self):
        shape = classify_chords(from_pairs([(1, 3), (2, 4)]))
        assert shape.component_count == 1
        assert shape.is_tree
        assert shape.tree_sizes == (2,)

    def test_unique_non_forest_among_size_three(self):
        non_forests = [
            d for d in _all_diagrams(3) if not classify_chords(d).is_forest
        ]
        # the one diagram whose three chords pairwise cross
        assert non_forests == [((1, 4), (2, 5), (3, 6))]

    def test_edge_count_rule_agrees_with_bfs_cycle_search(self):
        for n in range(1, 7):
            for diagram in _all_diagrams(n):
                shape = classify_chords(diagram)
                graph = intersection_graph(diagram)
                assert shape.is_forest == _is_acyclic(n, graph.edges)
                assert shape.component_count == len(graph.component_sizes)
                if shape.is_forest:
                    assert shape.tree_sizes == graph.component_sizes

    def test_trees_have_one_component(self):
        for diagram in _all_diagrams(4):
            shape = classify_chords(diagram)
            assert shape.is_tree == (shape.is_forest and shape.component_count == 1)


class TestBlocksCross:
    def test_simple_cases(self):
        assert blocks_cross([1, 3], [2, 4])
        assert not blocks_cross([1, 2], [3, 4])
        assert not blocks_cross([1, 4], [2, 3])  # nested
        assert not blocks_cross([1, 3], [2])  # needs two points on each side

    def _literal(self, block1, block2):
        for one, other in ((block1, block2), (block2, block1)):
            for a in one:
                for c in one:
                    for b in other:
                        for d in other:
                            if a < b < c < d:
                                return True
        return False

    def test_matches_four_point_definition_exhaustively(self):
        universe = range(1, 7)
        for size1 in (1, 2, 3):
            for block1 in itertools.combinations(universe, size1):
                remaining = [p for p in universe if p not in block1]
                for size2 in (1, 2, 3):
                    for block2 in itertools.combinations(remaining, size2):
                        assert blocks_cross(list(block1), list(block2)) == self._literal(
                            block1, block2
                        )


class TestSupportPartition:
    """The endpoint sets of a diagram's components never cross."""

    def test_five_chord_example(self):
        blocks = _supports(from_pairs(FIVE_CHORD_PAIRS))
        assert blocks == ((1, 2, 7, 8, 9, 10), (3, 4, 5, 6))
        assert _crossing_supports(blocks) == []

    def test_trivial_cases(self):
        assert _supports(from_pairs([(1, 2)])) == ((1, 2),)
        assert _supports(from_pairs([(1, 2), (3, 4)])) == ((1, 2), (3, 4))

    def test_sweep_never_crosses_and_blocks_double_tree_sizes(self):
        for n in range(1, 7):
            for diagram in _all_diagrams(n):
                blocks = _supports(diagram)
                assert _crossing_supports(blocks) == []
                graph = intersection_graph(diagram)
                block_sizes = tuple(sorted(len(block) for block in blocks))
                assert block_sizes == tuple(2 * s for s in graph.component_sizes)
                assert sorted(p for block in blocks for p in block) == list(
                    range(1, 2 * n + 1)
                )


class TestTextFormat:
    def test_parse_five_chord_example(self):
        diagram = parse_diagram("1-8,2-9,3-5,7-10,4-6")
        assert diagram == from_pairs(FIVE_CHORD_PAIRS)

    def test_format_is_canonical(self):
        diagram = parse_diagram("1-8,2-9,3-5,7-10,4-6")
        assert format_chords(diagram) == "1-8,2-9,3-5,4-6,7-10"

    def test_round_trip_all_small_diagrams(self):
        for n in range(1, 6):
            for diagram in _all_diagrams(n):
                assert parse_diagram(format_chords(diagram)) == diagram

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_diagram("1-2,2-3")
        with pytest.raises(ValueError):
            parse_diagram("1,2")
        with pytest.raises(ValueError):
            parse_diagram("1-x")


@given(st.permutations(list(range(1, 13))))
def test_random_pairings_are_consistent(points):
    pairs = [(points[2 * i], points[2 * i + 1]) for i in range(6)]
    diagram = from_pairs(pairs)
    shape = classify_chords(diagram)
    graph = intersection_graph(diagram)
    assert shape.component_count == len(graph.component_sizes)
    assert shape.is_forest == (len(graph.edges) == len(diagram) - shape.component_count)
    assert _crossing_supports(_supports(diagram)) == []
    assert parse_diagram(format_chords(diagram)) == diagram
    # the chords are ascending pairs that use every point once
    assert _endpoints(diagram) == list(range(1, 13))
    for a, b in diagram:
        assert a < b
    starts = [a for a, _ in diagram]
    assert starts == sorted(starts) and starts[0] == 1
