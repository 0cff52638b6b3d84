"""Exception types shared across the package."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed.

    Raised when a division that a counting theorem guarantees to be exact
    leaves a remainder, or when two independently computed results disagree.
    Always indicates a bug, never bad input.
    """
