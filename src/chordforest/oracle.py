"""Exhaustive enumeration: the ground truth.

Everything the closed forms and the series engine compute is re-derivable
here by brute force.  The per-m tallies come from a transfer-matrix scan
over the circle's points that uses only the crossing rule and acyclicity;
one scan to n yields the tallies of every size up to n
(:func:`brute_force_tables`), the last of which is
:func:`brute_force_counts`.  A depth-first sweep that places chords in
canonical order and cuts a branch at its first cycle (:func:`iter_forests`)
lists the forest diagrams themselves.  Each chord (a, b) but the last
relabels the components it crosses with its left end a, so meeting label a
again is a cycle, and b stops at the highest unmatched point.  The last
chord relabels nothing: it closes a cycle iff a label repeats among the
right ends it spans.  The deliberately dumb sweep, a generator of all
(2n-1)!! pairings (:func:`enumerate_diagrams`) with
:func:`~.diagrams.classify_chords` on each one, is kept as the test oracle
of both.  The non-crossing partitions of [N] come from a stack sweep that
visits only them, and one sweep of [N] tallies every ground set up to N
(:func:`noncrossing_partition_tallies`).  Forest types are the
partitions of n into m parts.  Enumeration order is deterministic.  Every
n >= 1 is accepted; the cost grows fast with n, so the CLI, not this module,
caps the sizes a user can ask for.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator

# unused here, but bound: perfbench's tracer rebinds oracle.classify_chords
from .diagrams import Chord, classify_chords  # noqa: F401

__all__ = [
    "CountTable",
    "brute_force_counts",
    "brute_force_tables",
    "enumerate_diagrams",
    "enumerate_types",
    "iter_forests",
    "noncrossing_partition_tallies",
]

# (chords, ascending tree sizes) per forest
ForestSweep = Iterator[tuple[tuple[Chord, ...], tuple[int, ...]]]


def enumerate_diagrams(n: int) -> Iterator[tuple[Chord, ...]]:
    """All (2n-1)!! diagrams of size n, once each, as canonical chord tuples.

    The smallest unmatched point is paired with each larger unmatched point
    in ascending order, so the order is deterministic.  The domain is
    checked when called, not when first iterated.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def pairings(points: tuple[int, ...]) -> Iterator[tuple[Chord, ...]]:
        if not points:
            yield ()
            return
        first, rest = points[0], points[1:]
        for index, second in enumerate(rest):
            for tail in pairings(rest[:index] + rest[index + 1 :]):
                yield ((first, second),) + tail

    return pairings(tuple(range(1, 2 * n + 1)))


class CountTable(
    namedtuple("CountTable", "n forests_by_trees rooted_by_trees total_diagrams")
):
    """Exhaustive per-m tallies over all diagrams with n chords.

    ``forests_by_trees[m]`` counts the forest diagrams with m trees;
    ``rooted_by_trees[m]`` adds, for each such forest, the product of its
    tree sizes, which is the number of ways to pick one root chord per tree.
    """

    __slots__ = ()

    @property
    def total_forests(self) -> int:
        return sum(self.forests_by_trees.values())


def iter_forests(n: int) -> ForestSweep:
    """Every forest diagram of size n with its tree sizes, in enumeration order.

    Yields ``(chords, sizes)``: the canonical chord tuple and the chords per
    tree, ascending, in the order :func:`enumerate_diagrams` yields the
    forests.

    The sweep is depth-first and cycle-pruned.  Chords are placed in
    canonical order: the smallest unmatched point a is paired with each
    larger unmatched point b in turn, up to the highest unmatched point;
    every point past it is a right end.  Every placed chord starts below a,
    so the new chord (a, b) crosses exactly the placed chords whose right
    end lies in (a, b).  Walking b upwards, the first right end met of a
    component relabels the whole component with a.  No component is
    labelled a before, since labels are left ends of placed chords, so
    meeting label a again means that (a, b) crosses one component twice: a
    cycle, and so does every (a, b') with a larger b', whose interval holds
    the same chords and more.  The loop stops there.  Each crossed component
    is relabelled once per a, not once per b, and restored after the loop.

    The last chord is not walked, and relabels nothing.  Its ends are a and
    the one point left, and every point between them is a right end, so it
    closes a cycle iff a label repeats between them.  If none does, the
    components it crosses and the chord itself make one tree, and every
    other component is a tree as it stands.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    top = 2 * n
    # label[p] is 0 while p is unmatched.  Once p is the right end of a
    # placed chord, it names that chord's component.  Left ends lie below
    # every point still to match and are never looked at again.
    label = [0] * (top + 1)
    # component label -> right ends of its chords.  The chords (a, b) and
    # the components they cross take the label a, restored on backtrack.
    components: dict[int, list[int]] = {}

    def place(a: int, chords: tuple[Chord, ...], left: int, last: int) -> ForestSweep:
        # left: the chords still to place, (a, b) included; last: the highest
        # unmatched point
        if left == 1:  # the last chord, (a, last)
            between = label[a + 1 : last]
            met = set(between)
            if len(met) == len(between):
                # one size per component, less those of the crossed ones
                # (any equal entry will do); their tree holds the rest of n
                sizes = list(map(len, components.values()))
                for c in met:
                    sizes.remove(len(components[c]))
                sizes.append(n - sum(sizes))
                sizes.sort()
                yield chords + ((a, last),), tuple(sizes)
            return
        crossed: list[tuple[int, list[int]]] = []
        merged: list[int] = []  # right ends of the crossed components
        for b in range(a + 1, last + 1):
            component = label[b]
            if component == a:  # a component crossed twice: a cycle
                break
            if component:
                group = components.pop(component)
                for q in group:
                    label[q] = a
                crossed.append((component, group))
                merged += group
                continue
            label[b] = a
            components[a] = merged + [b]
            following = a + 1
            while label[following]:
                following += 1
            end = last
            while label[end]:
                end -= 1
            yield from place(following, chords + ((a, b),), left - 1, end)
            del components[a]
            label[b] = 0
        for component, group in crossed:
            components[component] = group
            for q in group:
                label[q] = component

    return place(1, (), n, top)


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


def brute_force_tables(max_n: int) -> list[CountTable]:
    """[brute_force_counts(1), ..., brute_force_counts(max_n)] from one scan.

    A transfer-matrix scan over the 2 max_n points, one layer per point:
    each point opens a chord or closes one still open.  A closing chord
    crosses exactly the open chords opened after it, and a close that joins
    two chords of one component closes a cycle.  The scan uses nothing but
    that crossing rule and acyclicity, no counting theorem.

    Labels are renumbered by first appearance, so equal states meet.  A
    component left with no open chord is a finished tree: one more m, and
    its size multiplies the rooted weight.  Scans that have closed a cycle
    are kept apart, by their open chords only, so that ``total_diagrams``
    counts them too.  Only the current layer and the next are alive.

    An open is pruned when the points left cannot close every open chord.
    A scan that has closed every chord by point 2k passes the pruning for
    2k points too, so after 2k points the state with no open chord holds
    exactly the diagrams with k chords: their table is read there.
    """
    if max_n < 1:
        raise ValueError(f"n must be >= 1, got {max_n}")
    tables: list[CountTable] = []
    layer: ScanLayer = {((), ()): {0: [1, 1]}}
    cyclic: Counter[int] = Counter()  # open chords -> scans that closed a cycle
    for left in range(2 * max_n, 0, -1):
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
        if left % 2:  # an even number of points scanned
            tallies = sorted(layer[(), ()].items())
            forests = {m: scans for m, (scans, _) in tallies}
            rooted = {m: weight for m, (_, weight) in tallies}
            total = sum(forests.values()) + cyclic[0]
            tables.append(CountTable(len(tables) + 1, forests, rooted, total))
    return tables


def brute_force_counts(n: int) -> CountTable:
    """Tally the forest diagrams of size n, and rooted forests, by m.

    The last table of one scan to n, :func:`brute_force_tables`.
    """
    return brute_force_tables(n)[-1]


def noncrossing_partition_tallies(max_size: int) -> list[dict[tuple[int, ...], int]]:
    """Non-crossing partitions of [N] tallied by type, for N = 1..max_size, in one sweep.

    A type is the tuple of block sizes in descending order.  The sweep keeps
    a stack of the blocks that can still grow, oldest at the bottom.  Each
    element either joins the block at some depth of the stack or opens a
    new block on top, and joining a block pops every block above it.

    Every block above a block B was opened after B's last element, so when
    B takes the element e, those blocks lie wholly between B's last element
    and e: any later element added to one of them would cross B.  So the
    stack holds exactly the blocks that e can join without a crossing, and
    a popped block never grows again.  The joins are tried from the bottom
    of the stack to the top and then the new block, which is the
    restricted-growth order of all set partitions with every crossing one
    skipped: each non-crossing partition is visited once.

    On its way to [max_size], the sweep holds each non-crossing partition
    of [N] once, when it reaches the element N + 1, and meets them in the
    order of a sweep of [N] alone; so every N is tallied there.  The sweep
    tallies the block sizes in block order, and each tuple is sorted once
    afterwards, in the order first met: each type comes out where its
    first partition was met, as in that sweep's order.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    # by_blocks[N-1]: block sizes of [N], oldest block first -> partitions
    by_blocks: list[dict[tuple[int, ...], int]] = [{} for _ in range(max_size)]
    sizes: list[int] = []  # every block's size, oldest first

    def place(element: int, stack: tuple[int, ...]) -> None:
        if sizes:  # a partition of [element - 1]
            tally = by_blocks[element - 2]
            key = tuple(sizes)
            tally[key] = tally.get(key, 0) + 1
            if element > max_size:
                return
        for depth, block in enumerate(stack, start=1):
            sizes[block] += 1
            place(element + 1, stack[:depth])
            sizes[block] -= 1
        sizes.append(1)
        place(element + 1, stack + (len(sizes) - 1,))
        sizes.pop()

    place(1, ())
    tallies: list[dict[tuple[int, ...], int]] = []
    for blocks in by_blocks:
        tally: dict[tuple[int, ...], int] = {}
        for block_sizes, seen in blocks.items():
            key = tuple(sorted(block_sizes, reverse=True))
            tally[key] = tally.get(key, 0) + seen
        tallies.append(tally)
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
