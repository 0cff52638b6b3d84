"""Exhaustive enumeration: the ground truth.

Everything the closed forms and the series engine compute is re-derivable
here by brute force.  Forest diagrams come from a depth-first sweep that
places chords in canonical order and cuts a branch at its first cycle
(:func:`iter_forests`); the diagrams it cuts are counted, not visited.  The
deliberately dumb sweep over all (2n-1)!! pairings
(:func:`enumerate_diagrams`, with :func:`~.diagrams.classify_chords` on each
one) is kept as its test oracle.  Set partitions of [N] and forest type
vectors are enumerated in full.  Enumeration order is deterministic, and
sizes are guarded by caps so a typo'd n fails fast instead of running for
hours; pass a larger ``cap`` explicitly to go above a default.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Generator, Iterable, Iterator
from dataclasses import dataclass

from .diagrams import Chord, ChordDiagram, blocks_cross, classify_chords
from .errors import EnumerationCapError
from .formulas import PartitionType

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

# (chords, ascending tree sizes) per forest; the return value counts the
# diagrams cut away.
ForestSweep = Generator[tuple[tuple[Chord, ...], tuple[int, ...]], None, int]


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
    visit: Callable[[ChordDiagram], None] | None = None,
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
            visit(ChordDiagram(chords))
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

    @property
    def tree_count(self) -> int:
        return self.forests_by_trees.get(1, 0)


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
    forests.  The generator returns the number of non-forest diagrams it cut
    away, so that number plus the forests yielded is (2n-1)!!.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_cap(n, cap, "forest sweep")
    return _forest_sweep(n, range(2, 2 * n + 1))


def _forest_sweep(n: int, first_partners: Iterable[int]) -> ForestSweep:
    """The cycle-pruned depth-first sweep behind :func:`iter_forests`.

    Chords are placed in canonical order: the smallest unmatched point a is
    paired with each larger unmatched point b in turn.  Every placed chord
    starts below a, so the new chord (a, b) crosses exactly the placed
    chords whose right end lies in (a, b).  If two of those share a
    component, (a, b) closes a cycle, and so does every (a, b') with a
    larger b', whose interval holds the same chords and more.  The loop
    stops there; the completions of the pairs it skips are counted.

    ``first_partners`` are the partners of point 1 to try, so one partner
    gives one first-chord branch of the sweep.
    """
    top = 2 * n
    # label[p] is 0 while p is unmatched.  Once p is the right end of a
    # placed chord, it names that chord's component.  Left ends lie below
    # every point still to match and are never looked at again.
    label = [0] * (top + 1)
    # component label -> right ends of its chords.  A new chord (a, b) and
    # the components it joins take the label b, restored on backtrack.
    components: dict[int, list[int]] = {}
    # completions[k] = (2k-1)!!, the matchings of 2k unmatched points
    completions = [1]
    for k in range(1, n):
        completions.append(completions[-1] * (2 * k - 1))
    cut = 0

    def place(
        a: int, partners: Iterable[int], chords: tuple[Chord, ...], left: int
    ) -> Iterator[tuple[tuple[Chord, ...], tuple[int, ...]]]:
        # left: the chords still to place, (a, b) included
        nonlocal cut
        crossed: list[int] = []
        tried = 0
        for b in partners:
            component = label[b]
            if component:
                if component in crossed:
                    # Each untried partner of a (of the 2*left - 1 unmatched
                    # points above it) closes the same cycle.
                    cut += (2 * left - 1 - tried) * completions[left - 1]
                    return
                crossed.append(component)
                continue
            tried += 1
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
                yield from place(
                    following, range(following + 1, top + 1), placed, left - 1
                )
            del components[b]
            label[b] = 0
            for c, group in zip(crossed, joined):
                components[c] = group
                for q in group:
                    label[q] = c

    yield from place(1, first_partners, (), n)
    return cut


def _tally_forests(sweep: ForestSweep) -> tuple[dict[int, int], dict[int, int], int]:
    forests: dict[int, int] = {}
    rooted: dict[int, int] = {}
    visited = 0
    while True:
        try:
            _, sizes = next(sweep)
        except StopIteration as done:
            return forests, rooted, visited + done.value
        visited += 1
        m = len(sizes)
        forests[m] = forests.get(m, 0) + 1
        rooted[m] = rooted.get(m, 0) + math.prod(sizes)


def _tally_branch(n: int, partner: int) -> tuple[dict[int, int], dict[int, int], int]:
    """Tallies of the forests whose first chord is (1, partner); runs in a worker."""
    return _tally_forests(_forest_sweep(n, (partner,)))


def brute_force_counts(n: int, cap: int = DIAGRAM_CAP, threads: int = 1) -> CountTable:
    """Tally the forest diagrams of size n, and rooted forests, by m.

    The forests come from the cycle-pruned sweep of :func:`iter_forests`,
    and ``total_diagrams`` adds the diagrams it cut.  ``threads`` > 1 runs
    the 2n-1 branches for the partner of point 1 in worker processes, as
    many as ``threads`` but never more than branches or cores; the merged
    table is identical to the single-process one.  Workers need a main
    program they can import, so more than one worker raises ``ValueError``
    when the main program was read from stdin (``python -``).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _check_cap(n, cap, "diagram sweep")
    partners = range(2, 2 * n + 1)
    workers = min(threads, len(partners), os.cpu_count() or 1)
    if workers == 1:
        forests, rooted, total = _tally_forests(_forest_sweep(n, partners))
    else:
        # Imported here: a module-level import of the pool would slow every CLI start.
        import multiprocessing
        import sys
        from concurrent.futures import ProcessPoolExecutor

        # A spawned worker re-runs the main program from its file unless it
        # was run as a module; a program read from stdin has no file, and
        # every worker would die.
        main = sys.modules["__main__"]
        path = getattr(main, "__file__", None)
        run_as_module = getattr(getattr(main, "__spec__", None), "name", None)
        if run_as_module is None and path and not os.path.isfile(path):
            raise ValueError(
                f"threads={threads} runs worker processes, which re-run the main "
                f"program from its file, but it was read from {path}; run it from "
                "a file or pass threads=1"
            )
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            partials = list(pool.map(_tally_branch, [n] * len(partners), partners))
        forests, rooted, total = {}, {}, 0
        for part_forests, part_rooted, part_total in partials:
            total += part_total
            for m, value in part_forests.items():
                forests[m] = forests.get(m, 0) + value
            for m, value in part_rooted.items():
                rooted[m] = rooted.get(m, 0) + value
    return CountTable(
        n, dict(sorted(forests.items())), dict(sorted(rooted.items())), total
    )


def enumerate_noncrossing_partitions(
    ground_size: int, cap: int = PARTITION_CAP
) -> dict[PartitionType, int]:
    """Tally the non-crossing partitions of [ground_size] by block-size type.

    All set partitions are generated (restricted-growth order) and filtered
    with the literal block-crossing test; no shortcuts, this is the oracle.
    """
    if ground_size < 1:
        raise ValueError(f"ground_size must be >= 1, got {ground_size}")
    _check_cap(ground_size, cap, "set-partition sweep")
    tallies: dict[PartitionType, int] = {}
    blocks: list[list[int]] = []

    def place(element: int) -> None:
        if element > ground_size:
            for i in range(len(blocks)):
                for j in range(i + 1, len(blocks)):
                    if blocks_cross(blocks[i], blocks[j]):
                        return
            key = PartitionType.from_block_sizes(len(block) for block in blocks)
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


def enumerate_types(
    n: int, m: int, visit: Callable[[PartitionType], None] | None = None
) -> int:
    """Visit every forest type with m trees and n chords total; return the count.

    Types are the vectors (s_1..s_n) of trees per size with sum s_i = m and
    sum i s_i = n, equivalently the partitions of n into exactly m parts.
    """
    if m < 1 or m > n:
        raise ValueError(f"enumerate_types requires 1 <= m <= n, got n={n}, m={m}")
    count = 0
    for parts in _iter_partitions_into_parts(n, m, n - m + 1):
        count += 1
        if visit is not None:
            visit(PartitionType.from_block_sizes(parts))
    return count
