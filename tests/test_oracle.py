"""The brute-force enumerators, checked for completeness and determinism.

The enumerators are the ground truth for the formulas, so they get their
own independent checks here: visit counts against the double factorial,
distinctness and validity of everything visited, partition counts against
the p(n, m) recurrence, and non-crossing totals against Catalan numbers.
"""

import functools
import math
import os
import subprocess
import sys
from collections import Counter

import pytest

from chordforest.diagrams import classify_chords
from chordforest.errors import EnumerationCapError
from chordforest.formulas import (
    catalan,
    double_factorial_pairings,
    forest_count,
    kreweras_count,
    rooted_forest_count,
    tree_count,
    type_sum_forest_count,
)
from chordforest.oracle import (
    brute_force_counts,
    brute_force_tables,
    enumerate_diagrams,
    enumerate_types,
    iter_forests,
    noncrossing_partition_tallies,
)
from crossing_reference import blocks_cross


@functools.cache
def _dumb_forests(n):
    """The dumb sweep, enumerate_diagrams with classify_chords on every
    pairing: its forests as (chords, tree sizes) in enumeration order, and
    the number of pairings."""
    forests = []
    total = 0
    for chords in enumerate_diagrams(n):
        total += 1
        shape = classify_chords(chords)
        if shape.is_forest:
            forests.append((chords, shape.tree_sizes))
    return forests, total


def _tally(forests):
    """(forests, rooted, by_type) over (chords, sizes) pairs: by m, by m with
    the tree-size product, and by type (tree sizes, descending)."""
    counts, rooted, by_type = {}, {}, Counter()
    for _, sizes in forests:
        m = len(sizes)
        counts[m] = counts.get(m, 0) + 1
        rooted[m] = rooted.get(m, 0) + math.prod(sizes)
        by_type[tuple(sorted(sizes, reverse=True))] += 1
    return counts, rooted, by_type


@functools.cache
def _dumb_tally(n):
    """(forests, rooted, total) of the dumb sweep."""
    forests, total = _dumb_forests(n)
    return *_tally(forests)[:2], total


@functools.cache
def _forest_tally(n):
    """_tally of iter_forests(n)."""
    return _tally(iter_forests(n))


class TestEnumerateDiagrams:
    def test_visit_counts(self):
        assert sum(1 for _ in enumerate_diagrams(1)) == 1
        assert sum(1 for _ in enumerate_diagrams(3)) == 15
        assert sum(1 for _ in enumerate_diagrams(5)) == 945
        for n in range(1, 7):
            assert sum(1 for _ in enumerate_diagrams(n)) == double_factorial_pairings(n)

    def test_visits_are_distinct_valid_matchings(self):
        for n in range(1, 5):
            visited = list(enumerate_diagrams(n))
            for diagram in visited:
                assert len(diagram) == n
                covered = sorted(p for chord in diagram for p in chord)
                assert covered == list(range(1, 2 * n + 1))
                for a, b in diagram:
                    assert a < b
                assert list(diagram) == sorted(diagram)
            # distinct, and in lexicographic order
            assert visited == sorted(set(visited))
            assert len(visited) == double_factorial_pairings(n)

    def test_deterministic_order(self):
        visited = list(enumerate_diagrams(3))
        assert visited[0] == ((1, 2), (3, 4), (5, 6))
        assert visited[-1] == ((1, 6), (2, 5), (3, 4))
        assert visited == list(enumerate_diagrams(3))

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_diagrams(9)
        with pytest.raises(EnumerationCapError):
            enumerate_diagrams(3, cap=2)
        assert sum(1 for _ in enumerate_diagrams(3, cap=3)) == 15

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_diagrams(0)


class TestBruteForceCounts:
    def test_hand_tables(self):
        # n = 2: (12)(34) and (14)(23) are non-crossing, (13)(24) is a tree
        table = brute_force_counts(2)
        assert table.forests_by_trees == {1: 1, 2: 2}
        assert table.rooted_by_trees == {1: 2, 2: 2}
        assert table.total_diagrams == 3
        # n = 3: the only non-forest is the pairwise-crossing triple
        table = brute_force_counts(3)
        assert table.forests_by_trees == {1: 3, 2: 6, 3: 5}
        assert table.rooted_by_trees == {1: 9, 2: 12, 3: 5}
        assert table.total_diagrams == 15
        assert table.total_forests == 14
        assert table.forests_by_trees.get(1, 0) == 3

    def test_matches_formulas_up_to_six(self):
        for n in range(1, 7):
            table = brute_force_counts(n)
            assert table.total_diagrams == double_factorial_pairings(n)
            assert table.forests_by_trees.get(1, 0) == tree_count(n)
            for m in range(1, n + 1):
                assert table.forests_by_trees.get(m, 0) == forest_count(n, m)
                assert table.rooted_by_trees.get(m, 0) == rooted_forest_count(n, m)

    def test_rooted_tally_is_product_of_tree_sizes(self):
        # recompute the rooted tally from classify_chords directly
        rooted = {}
        for diagram in enumerate_diagrams(4):
            shape = classify_chords(diagram)
            if shape.is_forest:
                product = 1
                for size in shape.tree_sizes:
                    product *= size
                rooted[shape.component_count] = (
                    rooted.get(shape.component_count, 0) + product
                )
        assert rooted == brute_force_counts(4).rooted_by_trees

    def test_matches_dumb_sweep_up_to_seven(self):
        for n in range(1, 8):
            table = brute_force_counts(n)
            assert (
                table.forests_by_trees,
                table.rooted_by_trees,
                table.total_diagrams,
            ) == _dumb_tally(n)

    def test_matches_forest_sweep_up_to_eight(self):
        for n in range(1, 9):
            table = brute_force_counts(n)
            tallies = (table.forests_by_trees, table.rooted_by_trees)
            assert tallies == _forest_tally(n)[:2]

    def test_one_scan_holds_every_smaller_table(self):
        tables = brute_force_tables(8)
        assert [table.n for table in tables] == list(range(1, 9))
        for n, table in enumerate(tables, start=1):
            tallies = (table.forests_by_trees, table.rooted_by_trees)
            assert tallies == _forest_tally(n)[:2]
            if n <= 7:
                assert (*tallies, table.total_diagrams) == _dumb_tally(n)

    def test_one_scan_equals_a_scan_per_bound_up_to_ten(self):
        # a scan to n prunes for 2n points, a scan to 10 for 20
        for n, table in enumerate(brute_force_tables(10, cap=10), start=1):
            alone = brute_force_counts(n, cap=10)
            assert table == alone
            assert list(table.forests_by_trees) == list(alone.forests_by_trees)

    def test_tables_domain_and_cap(self):
        with pytest.raises(ValueError):
            brute_force_tables(0)
        with pytest.raises(EnumerationCapError):
            brute_force_tables(13)

    def test_total_is_double_factorial_up_to_ten(self):
        pairings = 1
        for k in range(1, 11):
            pairings *= 2 * k - 1
            assert brute_force_counts(k, cap=10).total_diagrams == pairings

    def test_cli_import_loads_no_pool_modules(self):
        loaded = (
            "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)\n"
        )
        script = (
            "import contextlib, io, sys\n"
            "import chordforest.cli\n"
            + loaded
            + "chordforest.cli.oracle.brute_force_counts(6)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    chordforest.cli.main(['enumerate', '--n', '6'])\n"
            + loaded
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=60,
        )
        assert result.stdout == "False False\nFalse False\n", result.stderr

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            brute_force_counts(13)


class TestIterForests:
    """The cycle-pruned sweep against the dumb sweep over every pairing."""

    def test_tallies_match_dumb_sweep(self):
        for n in range(1, 8):
            assert _forest_tally(n)[:2] == _dumb_tally(n)[:2]

    def test_forests_arrive_in_enumeration_order(self):
        for n in range(1, 8):
            assert list(iter_forests(n)) == _dumb_forests(n)[0]

    def test_last_chord_by_hand(self):
        # n = 1: the last chord is the only one, crossing nothing
        assert list(iter_forests(1)) == [(((1, 2),), (1,))]
        # n = 2: the last chord stays apart, joins (1, 3), stays apart
        assert list(iter_forests(2)) == [
            (((1, 2), (3, 4)), (1, 1)),
            (((1, 3), (2, 4)), (2,)),
            (((1, 4), (2, 3)), (1, 1)),
        ]
        # n = 3: the triangle's last chord (3, 6) crosses (1, 4) and (2, 5),
        # which (2, 5) has already joined into one tree: a cycle
        forests = [chords for chords, _ in iter_forests(3)]
        assert len(forests) == 14
        assert ((1, 4), (2, 5), (3, 6)) not in forests

    def test_cap_and_domain(self):
        with pytest.raises(EnumerationCapError):
            iter_forests(9)
        with pytest.raises(ValueError):
            iter_forests(0)
        assert len(list(iter_forests(3, cap=3))) == 14


class TestForestsByType:
    """Each forest type on its own, so that a wrong per-type term cannot hide
    inside a correct sum over the types with m trees."""

    def test_every_type_appears_with_its_type_sum_count(self):
        for n in range(1, 9):
            tally = _forest_tally(n)[2]
            types = [t for m in range(1, n + 1) for t in enumerate_types(n, m)]
            assert sorted(tally) == sorted(types)
            for forest_type in types:
                assert tally[forest_type] == type_sum_forest_count([forest_type])


def _bell(n):
    """Bell numbers by the Bell triangle; independent of the enumerator."""
    row = [1]
    for _ in range(n - 1):
        new = [row[-1]]
        for value in row:
            new.append(new[-1] + value)
        row = new
    return row[-1]


def _literal_partition_tallies(ground_size):
    """Every set partition of [ground_size] in restricted-growth order, filtered
    at the leaf by testing each pair of blocks: the unpruned test oracle of
    noncrossing_partition_tallies, with its tallies in the same order."""
    tallies = {}
    blocks = []

    def place(element):
        if element > ground_size:
            for i in range(len(blocks)):
                for j in range(i + 1, len(blocks)):
                    if blocks_cross(blocks[i], blocks[j]):
                        return
            key = tuple(sorted(map(len, blocks), reverse=True))
            tallies[key] = tallies.get(key, 0) + 1
            return
        for block in blocks:
            block.append(element)
            place(element + 1)
            block.pop()
        blocks.append([element])
        place(element + 1)
        blocks.pop()

    place(1)
    return tallies


class TestEnumerateNoncrossingPartitions:
    def test_no_crossings_possible_below_four_points(self):
        # crossing needs 4 points, so every partition of [N <= 3] survives
        for n in (1, 2, 3):
            assert sum(noncrossing_partition_tallies(n)[-1].values()) == _bell(n)

    def test_small_ground_sets_by_hand(self):
        tallies = noncrossing_partition_tallies(3)[-1]
        assert sum(tallies.values()) == 5
        # N = 4: {13|24} crosses, so type (2,2) has only 2 of 3 partitions
        tallies = noncrossing_partition_tallies(4)[-1]
        assert tallies[(2, 2)] == 2
        assert sum(tallies.values()) == 14

    def test_totals_are_catalan(self):
        for n in range(1, 13):
            assert sum(noncrossing_partition_tallies(n)[-1].values()) == catalan(n)

    def test_matches_kreweras_formula(self):
        for n in range(1, 13):
            for block_type, count in noncrossing_partition_tallies(n)[-1].items():
                assert count == kreweras_count(block_type)

    def test_types_cover_the_ground_set(self):
        for block_type in noncrossing_partition_tallies(6)[-1]:
            assert sum(block_type) == 6
            # descending, so that equal multisets are equal keys
            assert list(block_type) == sorted(block_type, reverse=True)

    def test_pruned_sweep_matches_literal_sweep(self):
        for n in range(1, 10):
            pruned = noncrossing_partition_tallies(n)[-1]
            assert list(pruned.items()) == list(_literal_partition_tallies(n).items())

    def test_one_sweep_matches_literal_sweep_for_every_size(self):
        tallies = noncrossing_partition_tallies(10)
        assert len(tallies) == 10
        for n, tally in enumerate(tallies, start=1):
            assert list(tally.items()) == list(_literal_partition_tallies(n).items())

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            noncrossing_partition_tallies(13)
        with pytest.raises(ValueError, match="max_size must be >= 1, got 0"):
            noncrossing_partition_tallies(0)


@functools.cache
def _partitions_into(n, m):
    """p(n, m) by the textbook recurrence p(n, m) = p(n-1, m-1) + p(n-m, m)."""
    if m == 0:
        return 1 if n == 0 else 0
    if n < m:
        return 0
    return _partitions_into(n - 1, m - 1) + _partitions_into(n - m, m)


class TestEnumerateTypes:
    def test_spot_cases(self):
        assert list(enumerate_types(3, 2)) == [(2, 1)]
        for n in range(1, 9):
            assert list(enumerate_types(n, n)) == [(1,) * n]
        assert list(enumerate_types(6, 3)) == [(4, 1, 1), (3, 2, 1), (2, 2, 2)]

    def test_counts_match_recurrence(self):
        for n in range(1, 13):
            for m in range(1, n + 1):
                assert len(list(enumerate_types(n, m))) == _partitions_into(n, m)

    def test_visited_types_satisfy_constraints_and_are_distinct(self):
        for n in range(1, 10):
            for m in range(1, n + 1):
                seen = list(enumerate_types(n, m))
                assert len(set(seen)) == len(seen)
                for forest_type in seen:
                    assert len(forest_type) == m
                    assert sum(forest_type) == n
                    assert min(forest_type) >= 1
                    assert list(forest_type) == sorted(forest_type, reverse=True)

    def test_domain_errors(self):
        # raised by the call itself, before any type is drawn
        with pytest.raises(ValueError):
            enumerate_types(3, 0)
        with pytest.raises(ValueError):
            enumerate_types(3, 4)
