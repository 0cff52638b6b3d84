"""Exhaustive enumeration: the ground truth.

Everything the closed forms and the series engine compute is re-derivable
here by brute force.  The per-m tallies come from a transfer-matrix scan
over the circle's points (:func:`brute_force_counts`) that uses only the
crossing rule and acyclicity.  A depth-first sweep that places chords in
canonical order and cuts a branch at its first cycle (:func:`iter_forests`)
lists the forest diagrams themselves.  The deliberately dumb sweep over all
(2n-1)!! pairings (:func:`enumerate_diagrams`, with
:func:`~.diagrams.classify_chords` on each one) is kept as the test oracle
of both.  Set partitions of [N] are generated with each branch cut at its
first block crossing, and forest types are the partitions of n into m
parts.  Enumeration order is deterministic, and sizes are guarded by caps so
a typo'd n fails fast instead of running for hours; pass a larger ``cap``
explicitly to go above a default.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .diagrams import Chord, blocks_cross, classify_chords
from .errors import EnumerationCapError

DIAGRAM_CAP = 8
PARTITION_CAP = 10

__all__ = [
    "DIAGRAM_CAP",
    "PARTITION_CAP",
    "CountTable",
    "brute_force_counts",
    "enumerate_diagrams",
    "enumerate_noncrossing_partitions",
    "enumerate_types",
    "iter_forests",
]

# (chords, ascending tree sizes) per forest
ForestSweep = Iterator[tuple[tuple[Chord, ...], tuple[int, ...]]]


def _check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise EnumerationCapError(
            f"{what} at n={n} exceeds the cap of {cap}; pass a larger cap to override"
        )


def _iter_pairings(points: tuple[int, ...]) -> Iterator[tuple[Chord, ...]]:
    """All perfect matchings of the sorted point tuple.

    The smallest unmatched point is paired with each larger unmatched point
    in ascending order, so the output order is deterministic and every chord
    list arrives in canonical form.
    """
    if not points:
        yield ()
        return
    first = points[0]
    rest = points[1:]
    for index in range(len(rest)):
        chord = (first, rest[index])
        for tail in _iter_pairings(rest[:index] + rest[index + 1 :]):
            yield (chord,) + tail


def enumerate_diagrams(
    n: int,
    visit: Callable[[tuple[Chord, ...]], None] | None = None,
    cap: int = DIAGRAM_CAP,
) -> int:
    """Visit all (2n-1)!! diagrams of size n once each; return the visit count."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_cap(n, cap, "diagram enumeration")
    count = 0
    for chords in _iter_pairings(tuple(range(1, 2 * n + 1))):
        count += 1
        if visit is not None:
            visit(chords)
    return count


@dataclass(frozen=True)
class CountTable:
    """Exhaustive per-m tallies over all diagrams with n chords.

    ``forests_by_trees[m]`` counts the forest diagrams with m trees;
    ``rooted_by_trees[m]`` adds, for each such forest, the product of its
    tree sizes, which is the number of ways to pick one root chord per tree.
    """

    n: int
    forests_by_trees: dict[int, int]
    rooted_by_trees: dict[int, int]
    total_diagrams: int

    @property
    def total_forests(self) -> int:
        return sum(self.forests_by_trees.values())


def _tally(
    chord_lists: Iterator[tuple[Chord, ...]],
) -> tuple[dict[int, int], dict[int, int], int]:
    forests: dict[int, int] = {}
    rooted: dict[int, int] = {}
    total = 0
    for chords in chord_lists:
        total += 1
        shape = classify_chords(chords)
        if shape.is_forest:
            m = shape.component_count
            product = 1
            for size in shape.tree_sizes:
                product *= size
            forests[m] = forests.get(m, 0) + 1
            rooted[m] = rooted.get(m, 0) + product
    return forests, rooted, total


def iter_forests(n: int, cap: int = DIAGRAM_CAP) -> ForestSweep:
    """Every forest diagram of size n with its tree sizes, in enumeration order.

    Yields ``(chords, sizes)``: the canonical chord tuple and the chords per
    tree, ascending, in the order :func:`enumerate_diagrams` meets the
    forests.

    The sweep is depth-first and cycle-pruned.  Chords are placed in
    canonical order: the smallest unmatched point a is paired with each
    larger unmatched point b in turn.  Every placed chord starts below a, so
    the new chord (a, b) crosses exactly the placed chords whose right end
    lies in (a, b).  If two of those share a component, (a, b) closes a
    cycle, and so does every (a, b') with a larger b', whose interval holds
    the same chords and more.  The loop stops there.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_cap(n, cap, "forest sweep")
    top = 2 * n
    # label[p] is 0 while p is unmatched.  Once p is the right end of a
    # placed chord, it names that chord's component.  Left ends lie below
    # every point still to match and are never looked at again.
    label = [0] * (top + 1)
    # component label -> right ends of its chords.  A new chord (a, b) and
    # the components it joins take the label b, restored on backtrack.
    components: dict[int, list[int]] = {}

    def place(a: int, chords: tuple[Chord, ...], left: int) -> ForestSweep:
        # left: the chords still to place, (a, b) included
        crossed: list[int] = []
        for b in range(a + 1, top + 1):
            component = label[b]
            if component:
                if component in crossed:
                    return
                crossed.append(component)
                continue
            joined = [components.pop(c) for c in crossed]
            members = [b]
            for group in joined:
                members += group
            for q in members:
                label[q] = b
            components[b] = members
            placed = chords + ((a, b),)
            if left == 1:
                yield placed, tuple(sorted(map(len, components.values())))
            else:
                following = a + 1
                while label[following]:
                    following += 1
                yield from place(following, placed, left - 1)
            del components[b]
            label[b] = 0
            for c, group in zip(crossed, joined):
                components[c] = group
                for q in group:
                    label[q] = c

    return place(1, (), n)


# A scan state: the component label of each open chord, in opening order,
# and the chord count of each component, mapped to {m: [scans, sum of
# finished tree-size products]}.
ScanLayer = dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, list[int]]]


def _carry(layer: ScanLayer, state, tallies: dict[int, list[int]]) -> None:
    target = layer.setdefault(state, {})
    for m, (scans, weight) in tallies.items():
        entry = target.setdefault(m, [0, 0])
        entry[0] += scans
        entry[1] += weight


def brute_force_counts(n: int, cap: int = DIAGRAM_CAP) -> CountTable:
    """Tally the forest diagrams of size n, and rooted forests, by m.

    A transfer-matrix scan over the 2n points, one layer per point: each
    point opens a chord or closes one still open.  A closing chord crosses
    exactly the open chords opened after it, and a close that joins two
    chords of one component closes a cycle.  The scan uses nothing but
    that crossing rule and acyclicity, no counting theorem.

    Labels are renumbered by first appearance, so equal states meet.  A
    component left with no open chord is a finished tree: one more m, and
    its size multiplies the rooted weight.  Scans that have closed a cycle
    are kept apart, by their open chords only, so that ``total_diagrams``
    counts them too.  Only the current layer and the next are alive.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_cap(n, cap, "diagram sweep")
    layer: ScanLayer = {((), ()): {0: [1, 1]}}
    cyclic: Counter[int] = Counter()  # open chords -> scans that closed a cycle
    for left in range(2 * n, 0, -1):
        following: ScanLayer = {}
        following_cyclic: Counter[int] = Counter()
        # An open needs a later point for every chord then open.
        for open_chords, scans in cyclic.items():
            if open_chords + 1 < left:
                following_cyclic[open_chords + 1] += scans
            if open_chords:
                following_cyclic[open_chords - 1] += open_chords * scans
        for (labels, sizes), tallies in layer.items():
            if len(labels) + 1 < left:
                _carry(following, (labels + (len(sizes),), sizes + (1,)), tallies)
            for index, closing in enumerate(labels):
                crossed = labels[index + 1 :]
                joined = {closing, *crossed}
                if len(joined) <= len(crossed):  # a label met twice: a cycle
                    following_cyclic[len(labels) - 1] += sum(
                        scans for scans, _ in tallies.values()
                    )
                    continue
                merged = sum(sizes[c] for c in joined)
                renumber: dict[int, int] = {}
                next_labels = []
                next_sizes = []
                for c in labels[:index] + crossed:
                    if c in joined:
                        c = closing
                    if c not in renumber:
                        renumber[c] = len(next_sizes)
                        next_sizes.append(merged if c == closing else sizes[c])
                    next_labels.append(renumber[c])
                carried = tallies
                if closing not in renumber:  # no open chord left: a finished tree
                    carried = {
                        m + 1: [scans, weight * merged]
                        for m, (scans, weight) in tallies.items()
                    }
                _carry(following, (tuple(next_labels), tuple(next_sizes)), carried)
        layer, cyclic = following, following_cyclic
    tallies = sorted(layer[(), ()].items())
    forests = {m: scans for m, (scans, _) in tallies}
    rooted = {m: weight for m, (_, weight) in tallies}
    return CountTable(n, forests, rooted, sum(forests.values()) + cyclic[0])


def enumerate_noncrossing_partitions(
    ground_size: int, cap: int = PARTITION_CAP
) -> dict[tuple[int, ...], int]:
    """Tally the non-crossing partitions of [ground_size] by block-size type.

    A type is the tuple of block sizes in descending order.  Set partitions
    are generated in restricted-growth order and tested with the literal
    block-crossing test, a branch cut as soon as it has a crossing: a new
    singleton crosses nothing, and a block that grows never loses a
    crossing, so only the block just grown needs the test.
    """
    if ground_size < 1:
        raise ValueError(f"ground_size must be >= 1, got {ground_size}")
    _check_cap(ground_size, cap, "set-partition sweep")
    tallies: dict[tuple[int, ...], int] = {}
    blocks: list[list[int]] = []

    def place(element: int) -> None:
        if element > ground_size:
            key = tuple(sorted(map(len, blocks), reverse=True))
            tallies[key] = tallies.get(key, 0) + 1
            return
        for block in blocks:
            block.append(element)
            if not any(blocks_cross(block, b) for b in blocks if b is not block):
                place(element + 1)
            block.pop()
        blocks.append([element])
        place(element + 1)
        blocks.pop()

    place(1)
    return tallies


def _iter_partitions_into_parts(
    n: int, parts: int, max_part: int
) -> Iterator[tuple[int, ...]]:
    """Partitions of n into exactly ``parts`` parts, each <= max_part, descending."""
    if parts == 0:
        if n == 0:
            yield ()
        return
    for largest in range(min(max_part, n - parts + 1), 0, -1):
        if largest * parts < n:
            break
        for rest in _iter_partitions_into_parts(n - largest, parts - 1, largest):
            yield (largest,) + rest


def enumerate_types(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Every forest type with m trees and n chords total, in a fixed order.

    A type is the tuple of tree sizes in descending order: a partition of n
    into exactly m parts.  The domain is checked when called, not when
    first iterated.
    """
    if m < 1 or m > n:
        raise ValueError(f"enumerate_types requires 1 <= m <= n, got n={n}, m={m}")
    return _iter_partitions_into_parts(n, m, n - m + 1)
