"""The crossing test for point sets, kept as a test reference.

The library's sweeps never test two blocks for a crossing: the partition
stack sweep and the chord scan build only non-crossing structures.  The
literal partition sweep in ``test_oracle.py`` and the component-support
checks in ``test_diagrams.py`` test every pair of blocks with this.
"""

from collections.abc import Sequence


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
