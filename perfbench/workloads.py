"""The benchmark's workloads, their seeded inputs, and the checks on their output.

Every command is a chordforest argv list.  Each carries the check its
stdout must pass when it exits 0:

- ``Digest``: byte-for-byte equal to the stdout recorded in digests.json
  when the benchmark was added (``table``, ``series``, ``enumerate --list``,
  whose stdout the README fixes);
- ``Value``: one exact decimal, against a reference computed here from a
  different expression than the package's (``count``);
- ``AllPass``: at least one ``check`` line and every one of them a PASS
  (``verify``; the number of checks is not pinned, so a new check can join).

A nonzero exit is not a wrong output: it counts as a failed command.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

DIGESTS = json.loads((Path(__file__).resolve().parent / "digests.json").read_text())

# verify passes every bound explicitly, so a later change of its defaults is
# not a change of this workload.
VERIFY = ("verify", "--max-n-formula", "60", "--max-n-brute", "7", "--threads", "1")
TABLES = (
    ("table", "--kind", "r", "--max-n", "60"),
    ("table", "--kind", "f", "--max-n", "300"),
    ("table", "--kind", "f", "--max-n", "200", "--format", "json"),
    ("table", "--kind", "t", "--max-n", "3000"),
)
SERIES = tuple(("series", "--which", which, "--order", "300") for which in "GTR")
SWEEP = ("enumerate", "--n", "7", "--list")
# t(6000) has 4969 digits, above CPython's default int-to-str limit of 4300.
# The CLI exits 2 on it today; it stays in the workload so error counts show it.
PROBE_N = 6000

R_CELLS = 6  # r(n, m), 150 <= n <= 200, one m from each sixth of 1..n
F_CELLS = 5  # f(n, m), n <= 4000: below 4300 digits for every m
T_CELLS = 5  # t(n), n <= 5000: t(5000) has 4140 digits


@dataclass(frozen=True)
class Digest:
    sha256: str
    size: int

    def problem(self, output: dict) -> str | None:
        if output["sha256"] == self.sha256 and output["bytes"] == self.size:
            return None
        return (
            f"stdout (sha256 {output['sha256'][:12]}, {output['bytes']} bytes) is not the "
            f"recorded one (sha256 {self.sha256[:12]}, {self.size} bytes)"
        )


@dataclass(frozen=True)
class Value:
    reference: int

    def problem(self, output: dict) -> str | None:
        expected = decimal(self.reference) + "\n"
        if output["bytes"] == len(expected) and output["head"] == expected:
            return None
        return f"stdout {output['head'][:60]!r} is not the reference {expected[:60]!r}"


@dataclass(frozen=True)
class AllPass:
    def problem(self, output: dict) -> str | None:
        checks = [line for line in output["head"].splitlines() if line.startswith("check ")]
        if output["bytes"] != len(output["head"].encode()):
            return "verify printed more than the benchmark keeps"
        if not checks:
            return "verify printed no check lines"
        failing = [line for line in checks if not line.endswith(": PASS")]
        return f"not a PASS: {failing[0]}" if failing else None


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expect: Digest | Value | AllPass


def decimal(value: int) -> str:
    """Exact decimal of ``value``, lifting the int-to-str limit only for this call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


# -- references: other expressions than the ones in chordforest.formulas ------


def ref_tree(n: int) -> int:
    """t(n) = C(3n-2, n-1) / (3n-2), the ternary-tree count in its other form."""
    return math.comb(3 * n - 2, n - 1) // (3 * n - 2)


def ref_forest(n: int, m: int) -> int:
    """f(n, m) = C(2n, m-1) C(3n-2m, n-m) / (3n-2m), from [x^k] G^m = m C(3k+m, k)/(3k+m)."""
    return math.comb(2 * n, m - 1) * math.comb(3 * n - 2 * m, n - m) // (3 * n - 2 * m)


def ref_rooted(n: int, m: int) -> int:
    """r(n, m) = C(2n, m-1) [x^n] R^m / m with R = sum i t(i) x^i.

    [x^(n-m)] (R/x)^m comes from J. C. P. Miller's recurrence for the powers
    of a series p with p_0 = 1: a_0 = 1, k a_k = sum_j ((m+1) j - k) p_j a_(k-j).
    """
    depth = n - m
    p = [(i + 1) * ref_tree(i + 1) for i in range(depth + 1)]
    a = [1] + [0] * depth
    for k in range(1, depth + 1):
        a[k] = sum(((m + 1) * j - k) * p[j] * a[k - j] for j in range(1, k + 1)) // k
    return math.comb(2 * n, m - 1) * a[depth] // m


def count_cells(seed: int) -> list[tuple[str, int, int | None]]:
    """The seeded ``count`` cells as (kind, n, m); the same seed, the same cells."""
    rng = random.Random(seed)
    cells: list[tuple[str, int, int | None]] = []
    for part in range(R_CELLS):
        n = rng.randint(150, 200)
        low = part * n // R_CELLS + 1
        cells.append(("r", n, rng.randint(low, (part + 1) * n // R_CELLS)))
    for _ in range(F_CELLS):
        n = rng.randint(2, 4000)
        cells.append(("f", n, rng.randint(1, n)))
    cells += [("t", rng.randint(1, 5000), None) for _ in range(T_CELLS)]
    return cells


def _count_command(kind: str, n: int, m: int | None) -> Command:
    argv = ("count", "--kind", kind, "--n", str(n)) + (("--m", str(m)) if m else ())
    reference = {"r": ref_rooted, "f": ref_forest}[kind](n, m) if m else ref_tree(n)
    return Command(argv, Value(reference))


def _recorded(argv: tuple[str, ...]) -> Command:
    record = DIGESTS[" ".join(argv)]
    return Command(argv, Digest(record["sha256"], record["bytes"]))


def commands(workload: str, seed: int) -> list[Command]:
    """The command list of one workload, references included."""
    if workload == "verify":
        return [Command(VERIFY, AllPass())]
    if workload == "tables":
        cells = [_count_command(*cell) for cell in count_cells(seed)]
        return [_recorded(argv) for argv in TABLES] + cells + [_count_command("t", PROBE_N, None)]
    if workload == "series":
        return [_recorded(argv) for argv in SERIES]
    if workload == "sweep":
        return [_recorded(SWEEP)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify", "tables", "series", "sweep")
