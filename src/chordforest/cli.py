"""Command-line interface.

Subcommands: ``count`` (one exact value), ``table`` (CSV/JSON tables),
``verify`` (cross-check formulas, series, and brute force), ``series``
(coefficient dumps), ``enumerate`` (exhaustive tallies), ``render``
(SVG drawing of one diagram).

Exit codes: 0 success, 1 verification mismatch (a failed ``verify`` check,
or a ``ConsistencyError`` from an internal self-check in any command, printed
as ``error: <message>`` on stderr) or internal error (any other exception,
printed as ``error: internal error: <Type>: <message>``, after its traceback
only under ``python -X dev``), 2 usage or domain error, 3 output I/O error
(an unwritable ``render --out`` file, or a stdout closed by its reader, as by
``| head``).  Each of 0, 1, 2 and 3 holds when stderr is a closed pipe too,
as under ``2>&1 | head``, or a closed descriptor (``2>&-``); the message is
then dropped.  The CLI writes each of its own ``error:`` lines through
:func:`_complain`, and every exit, argparse's included, passes
:func:`main`'s last flush of stderr.
All values are printed as exact decimals, at any number of digits.

The caps on the sizes a user can type (``DIAGRAM_CAP``, ``SCAN_CAP``,
``SERIES_ORDER_CAP``) live here alone: the kernels take any size in their
domain.

``verify`` splits its checks over two cores where ``os.fork`` exists: in
one ``with`` block, a forked worker runs the paper's double sum for r, whose
rows it sends back first, then the Kreweras and type-sum checks whole, while
the main process runs the other checks and receives the worker's values in
job order.  Each payload crosses the pipe as a length-prefixed ``marshal``
frame, decoded in one call.  Where ``os.fork`` is missing or fails, each of
those jobs runs inline, at the check that receives it.  The output is the
same either way.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import marshal
import math
import os
import sys
from collections import Counter
from collections.abc import Iterable, Iterator

from . import diagrams, formulas, oracle
from .errors import ConsistencyError
from .series import rooted_gf, rooted_powers, solve_ternary_gf, tree_gf, tree_powers

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3

KREWERAS_VERIFY_MAX = 9
TYPE_SUM_VERIFY_MAX = 12
ROOTED_CELL_VERIFY_MAX = 20
IDENTITY_ORDER = 40
SERIES_ORDER_CAP = 600
DIAGRAM_CAP = 8  # enumerate --list, which visits every forest
SCAN_CAP = 12  # the transfer-matrix scan: enumerate's tallies, verify --max-n-brute
LIST_CHUNK_LINES = 1024  # enumerate --list lines per stdout write
# verify --threads selects nothing.  perfbench's verify command line passes
# --threads 1, so the flag goes when that command line drops it.
THREADS_HELP = "kept for compatibility; has no effect (must be >= 1)"

__all__ = ["build_parser", "diagram_to_svg", "entry", "main"]


def _lookup(kind: str, n: int, m: int | None) -> int:
    if kind in ("f", "r"):
        if m is None:
            raise ValueError(f"kind {kind!r} needs both --n and --m")
        if kind == "f":
            return formulas.forest_count(n, m)
        return formulas.rooted_forest_count(n, m)
    if m is not None:
        raise ValueError(f"kind {kind!r} takes no --m")
    if kind == "t":
        return formulas.tree_count(n)
    return formulas.catalan(n)


def cmd_count(args: argparse.Namespace) -> int:
    print(_lookup(args.kind, args.n, args.m))
    return EXIT_OK


def _table_records(kind: str, max_n: int):
    """Yield the table's (kind, n, m, value) records in output order, one row at a time."""
    if kind == "t":
        for n, value in enumerate(formulas.tree_counts(max_n), start=1):
            yield kind, n, None, value
        return
    if kind == "r":
        for n, row in enumerate(formulas.rooted_forest_rows(max_n), start=1):
            for m, value in enumerate(row, start=1):
                yield kind, n, m, value
        return
    for n in range(1, max_n + 1):
        if kind == "f":
            for m, value in enumerate(formulas.forest_row(n), start=1):
                yield kind, n, m, value
        else:
            yield kind, n, None, formulas.catalan(n)


def cmd_table(args: argparse.Namespace) -> int:
    """Write the table one record at a time, so memory stays at one row.

    The bytes equal an all-at-once rendering, but a ``ConsistencyError`` in
    a later row leaves the records before it on stdout.
    """
    if args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {args.max_n}")
    records = _table_records(args.kind, args.max_n)
    write = sys.stdout.write
    if args.format == "csv":
        write("kind,n,m,value\n")
        for kind, n, m, value in records:
            write(f"{kind},{n},{'' if m is None else m},{value}\n")
        return EXIT_OK
    # The layout of json.dumps(records, indent=2); kind comes from a fixed
    # set of plain names, so nothing in a record needs escaping.
    opening = "[\n"
    for kind, n, m, value in records:
        cell = "" if m is None else f'    "m": {m},\n'
        write(
            f'{opening}  {{\n    "kind": "{kind}",\n    "n": {n},\n{cell}'
            f'    "value": "{value}",\n    "source": "formula"\n  }}'
        )
        opening = ",\n"
    write("\n]\n")
    return EXIT_OK


def _series(which: str, order: int) -> tuple[int, ...]:
    """G, T or R modulo x^(order+1), as ``series`` prints it and ``verify``
    reads it: ``ConsistencyError`` unless the engine returned order + 1
    coefficients from the constant term 1 (G) or 0 (T, R)."""
    if which == "G":
        gf = solve_ternary_gf(order)
    else:
        gf = (tree_gf if which == "T" else rooted_gf)(max(order, 1))[: order + 1]
    # G = 1 + x G^3 starts at 1; T = x G and R = x T' start at 0
    constant = 1 if which == "G" else 0
    if len(gf) != order + 1 or gf[0] != constant:
        raise ConsistencyError(
            f"series {which} to order {order} is not {order + 1} coefficients from {constant}"
        )
    return gf


def cmd_series(args: argparse.Namespace) -> int:
    if not 0 <= args.order <= SERIES_ORDER_CAP:
        raise ValueError(f"--order must be in 0..{SERIES_ORDER_CAP}, got {args.order}")
    for index, coefficient in enumerate(_series(args.which, args.order)):
        print(f"{index},{coefficient}")
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    # the tallies come from the scan; only the listing walks every forest
    cap = DIAGRAM_CAP if args.list else SCAN_CAP
    if args.n > cap and not args.force:
        raise ValueError(
            f"--n {args.n} exceeds the enumeration cap of {cap}; pass --force to override"
        )
    # every table of the scan against the closed forms, before a line is printed
    tables = oracle.brute_force_tables(args.n)
    _compare(_scan_cases(args.n, tables), "formula", "bruteforce", f"enumerate --n {args.n}: ")
    table = tables[-1]
    print(f"n={table.n}")
    print(f"total-diagrams={table.total_diagrams}")
    print(f"total-forests={table.total_forests}")
    for m in sorted(table.forests_by_trees):
        print(
            f"m={m} forests={table.forests_by_trees[m]} "
            f"rooted={table.rooted_by_trees[m]}"
        )
    if args.list:
        # Chord texts and size tails are made once, and lines go out a chunk
        # at a time: few write calls, and never the whole listing.
        text = {
            (a, b): diagrams.format_chords(((a, b),))
            for a in range(1, 2 * args.n)
            for b in range(a + 1, 2 * args.n + 1)
        }
        # sizes -> [" m=... sizes=...\n", lines listed with those sizes]
        tails: dict[tuple[int, ...], list] = {}
        write = sys.stdout.write
        lines: list[str] = []
        for chords, sizes in oracle.iter_forests(args.n):
            tail = tails.get(sizes)
            if tail is None:
                text_of_sizes = f" m={len(sizes)} sizes={','.join(map(str, sizes))}\n"
                tail = tails[sizes] = [text_of_sizes, 0]
            tail[1] += 1
            lines.append(",".join(map(text.__getitem__, chords)) + tail[0])
            if len(lines) == LIST_CHUNK_LINES:
                write("".join(lines))
                lines.clear()
        write("".join(lines))
        # the lines listed, tallied by m and weighted by the product of the
        # sizes, against the closed forms; the sweep shares no code with the scan
        forests: Counter[int] = Counter()
        rooted: Counter[int] = Counter()
        for sizes, (_, listed) in tails.items():
            forests[len(sizes)] += listed
            rooted[len(sizes)] += listed * math.prod(sizes)
        cases = _tally_cases(args.n, forests, rooted)
        _compare(cases, "formula", "bruteforce", "enumerate --list: ")
    return EXIT_OK


# -- verify ----------------------------------------------------------------


def _compare(cases: Iterable[tuple], left_name: str, right_name: str, where: str = "") -> None:
    """Raise ``ConsistencyError`` at the first ``(case, left, right)`` with
    left != right, its message ``where`` and then
    ``<case> <left_name>=<left> <right_name>=<right>``."""
    for case, left, right in cases:
        if left != right:
            raise ConsistencyError(f"{where}{case} {left_name}={left} {right_name}={right}")


def _check(cases: Iterable[tuple], left_name: str, right_name: str):
    """A zero-argument callable that raises ``ConsistencyError`` at the first
    mismatch of ``cases``."""
    return functools.partial(_compare, cases, left_name, right_name)


def _bridge_row(binomials: list[int], powers: list[tuple[int, ...]], n: int) -> Iterator:
    """C(2n, m-1) [x^n] S^m / m for m = 1, 2, ..., from the binomials
    C(2n, m-1) and the powers S^m; an inexact quotient is shown as a
    fraction, which equals no count."""
    for m, (binomial, power) in enumerate(zip(binomials, powers), start=1):
        numerator = binomial * power[n]
        quotient, remainder = divmod(numerator, m)
        yield f"{numerator}/{m}" if remainder else quotient


def _series_vs_formula(max_n: int, rooted_table) -> Iterator[tuple]:
    """Coefficient bridge: C(2n, m-1) [x^n] S^m / m against the closed forms.

    R and T are read through :func:`_series`, the check that ``series``
    prints them through, R first.  [x^n] T meets ``tree_count(n)`` for every
    n, then row by row ``tree_counts(max_n)``; each f cell, from T's powers,
    meets :func:`formulas.forest_count` and then ``forest_row(n)``, and each
    r cell, from R's powers, the row of ``rooted_table()``, the table that
    :func:`_rooted_forms` shares, once its rows are counted against
    ``max_n``.  So every kernel that ``count`` and
    ``table`` print t and f from is compared.  :func:`tree_powers` steps T's
    powers by x T = x^2 + T^3 and :func:`rooted_powers` steps R's by R's own
    cubic, so no power is a truncated product; both r sources are built
    when the first r cell is compared, and the f and r cells of (n, m) share
    one C(2n, m-1).
    """
    r = _series("R", max_n)
    t = _series("T", max_n)
    for n in range(1, max_n + 1):
        yield f"t(n={n})", formulas.tree_count(n), t[n]
    counts = formulas.tree_counts(max_n)
    yield "cells of t(n)", len(counts), max_n
    t_powers = tree_powers(t)
    for n, count in enumerate(counts, start=1):
        yield f"t(n={n})", count, t[n]
        binomials = [formulas.binomial(2 * n, m - 1) for m in range(1, n + 1)]
        f_row = list(_bridge_row(binomials, t_powers, n))
        for m, series in enumerate(f_row, start=1):
            yield f"f(n={n}, m={m})", formulas.forest_count(n, m), series
        row = formulas.forest_row(n)
        yield f"cells of f(n={n}, m)", len(row), n
        for m, (count, series) in enumerate(zip(row, f_row), start=1):
            yield f"f(n={n}, m={m})", count, series
        if n == 1:
            table, r_powers = rooted_table(), rooted_powers(r)
            yield "rows of r(n, m)", len(table), max_n
        for m, series in enumerate(_bridge_row(binomials, r_powers, n), start=1):
            yield f"r(n={n}, m={m})", table[n - 1][m - 1], series


def _tally_cases(n: int, forests: dict[int, int], rooted: dict[int, int]) -> Iterator[tuple]:
    """f(n, m) and r(n, m) by the closed forms against an oracle's tallies by
    m, for every m that either side holds.  A side without that m reads
    None, so a missing m fails, and so does an extra m, even at count 0."""
    for m in sorted({*range(1, n + 1), *forests, *rooted}):
        in_range = 1 <= m <= n
        closed = formulas.forest_count(n, m) if in_range else None
        yield f"f(n={n}, m={m})", closed, forests.get(m)
        closed = formulas.rooted_forest_count(n, m) if in_range else None
        yield f"r(n={n}, m={m})", closed, rooted.get(m)


def _scan_cases(max_n: int, tables: list[oracle.CountTable]) -> Iterator[tuple]:
    """The scan's count of tables against ``max_n``, then each table of n
    against the closed forms: its n, its diagram total and its tallies by m."""
    yield f"scan tables (n<={max_n})", max_n, len(tables)
    for n, table in enumerate(tables, start=1):
        yield f"scan size (n={n})", n, table.n
        total = formulas.double_factorial_pairings(n)
        yield f"diagram total (n={n})", total, table.total_diagrams
        yield from _tally_cases(n, table.forests_by_trees, table.rooted_by_trees)


def _formula_vs_bruteforce(max_n: int) -> Iterator[tuple]:
    """:func:`_scan_cases` of one scan to ``max_n``, run inside the generator
    so that a scan that raises fails the check."""
    yield from _scan_cases(max_n, oracle.brute_force_tables(max_n))


def _kreweras(max_n: int) -> Iterator[tuple]:
    for n, tallies in enumerate(oracle.noncrossing_partition_tallies(max_n), start=1):
        total = sum(tallies.values())
        yield f"non-crossing partitions of [{n}]", formulas.catalan(n), total
        for sizes, seen in tallies.items():
            yield f"type {sizes} of [{n}]", formulas.kreweras_count(sizes), seen


def _rooted_forms(max_n: int, rooted_table, paper_rows) -> Iterator[tuple]:
    """r(n, m) from ``rooted_table()`` against the paper's double sum, then
    the cell form that ``count --kind r`` prints from, for n up to
    ``ROOTED_CELL_VERIFY_MAX``.

    ``paper_rows()`` returns the sum's rows.  :func:`cmd_verify` passes the
    ``receive()`` of its worker (:func:`_forked`), whose first job is the
    sum, started before the first check, so the sum runs while the bridge
    builds ``rooted_table()``, and the worker sends the rows before its later
    jobs.  The rows it returns, and each row's cells, are counted before any
    cell is compared.
    """
    rows = paper_rows()
    yield "rows of r(n, m)", max_n, len(rows)
    table = rooted_table()
    for n, row in enumerate(rows, start=1):
        yield f"cells of r(n={n}, m)", n, len(row)
        for m, paper in enumerate(row, start=1):
            yield f"r(n={n}, m={m})", table[n - 1][m - 1], paper
    for n, row in enumerate(rows[:ROOTED_CELL_VERIFY_MAX], start=1):
        for m, paper in enumerate(row, start=1):
            yield f"r(n={n}, m={m})", formulas.rooted_forest_count(n, m), paper


def _type_sum(max_n: int) -> Iterator[tuple]:
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            via_types = formulas.type_sum_forest_count(oracle.enumerate_types(n, m))
            yield f"f(n={n}, m={m})", formulas.forest_count(n, m), via_types


def _series_identities(order: int) -> Iterator[tuple]:
    """[x^n] R against n t_n, for n <= ``order``: R and T as ``series``
    prints them, read through :func:`_series`.  Each builder re-checks its
    own identity and raises ``ConsistencyError`` on a failure: T to
    ``order + 1`` solves and checks G at ``order`` first, so a failure of G
    names ``order``; ``rooted_gf`` checks R's closed form, its only check."""
    t = _series("T", order + 1)
    r = _series("R", order)
    for n in range(order + 1):
        yield f"[x^{n}]", r[n], n * t[n]


def _failure(exc: Exception) -> str:
    """How a failure reads: a ``ConsistencyError``'s message, or
    ``<Type>: <message>`` for any other exception."""
    if isinstance(exc, ConsistencyError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


@contextlib.contextmanager
def _forked(*jobs):
    """Start the zero-argument ``jobs``, in order, in one forked worker, and
    yield ``receive()``, which returns the next job's value, in job order.

    The worker sends each job's ``(True, value)`` or ``(False, message)``
    through a pipe as one frame, flushed as soon as the job ends, so an early
    job's value can be received while later ones run.  A frame is the
    ``marshal.dumps`` bytes after their length, 8 bytes little-endian;
    ``receive()`` reads the frame whole and decodes it with one
    ``marshal.loads``, where ``marshal.load`` on the pipe would make a read
    call per field.  The worker leaves only by ``os._exit``, so it never
    returns into the caller or flushes its stdout.  A failure in a job, or a
    value ``marshal`` cannot encode, raises ``ConsistencyError`` from its
    ``receive()``.  If the worker exits before it reports every job, or
    mid-frame, it is reaped, and the first job it never reported raises
    ``ConsistencyError``: running it inline could end the caller as it ended
    the worker.  With no worker, because it is reaped, because there is no
    ``os.fork`` (Windows) or because ``os.fork`` raised ``OSError`` (as at a
    process limit, with both pipe ends then closed), ``receive()`` runs the
    next job inline.  Leaving the block reaps the worker: once every job is
    received it is exiting by itself and is waited for, and while a job is
    unreceived it is killed first.  The CLI starts no thread, so forking it
    is safe.
    """
    unreceived = list(jobs)
    pid = None  # the worker's while it runs; None with no worker
    if hasattr(os, "fork"):
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # as at a process limit: no worker
            os.close(read_end)
        if pid == 0:
            status = 1
            try:
                os.close(read_end)
                with open(write_end, "wb") as pipe:
                    for job in jobs:
                        try:  # a value marshal cannot encode fails its own job
                            data = marshal.dumps((True, job()))
                        except Exception as exc:
                            data = marshal.dumps((False, _failure(exc)))
                        pipe.write(len(data).to_bytes(8, "little") + data)
                        pipe.flush()
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        if pid:
            pipe = open(read_end, "rb")

    def receive():
        nonlocal pid
        if not pid:
            return unreceived.pop(0)()
        header = pipe.read(8)
        size = int.from_bytes(header, "little")
        if len(header) == 8 and len(data := pipe.read(size)) == size:
            del unreceived[0]  # only now, so that a read cut short still kills
            succeeded, value = marshal.loads(data)
            if succeeded:
                return value
            raise ConsistencyError(value)
        pipe.close()  # the worker ended, or was cut off mid-frame
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pid = None
        del unreceived[0]
        raise ConsistencyError(f"verify worker exited with status {status} and no result")

    try:
        yield receive
    finally:
        if pid:
            pipe.close()
            if unreceived:  # the worker may still be in a job
                import signal

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n_formula < 1 or args.max_n_brute < 1:
        raise ValueError("verification bounds must be >= 1")
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    if args.max_n_brute > SCAN_CAP:
        raise ValueError(
            f"--max-n-brute {args.max_n_brute} exceeds the enumeration cap of {SCAN_CAP}"
        )
    # Both r checks read one table of rooted_forest_rows, one s chain per m,
    # built by whichever runs first; the cache lives for this call only.
    @functools.cache
    def rooted_table() -> list[list[int]]:
        return list(formulas.rooted_forest_rows(args.max_n_formula))

    # The worker's jobs need nothing from main's checks but their bounds.  It
    # sends the paper sum's rows first, which the second check receives while
    # main is still on its own checks, then runs the Kreweras and type-sum
    # checks whole, so both cores finish at about the same time.  The checks
    # receive the three jobs' values in job order, and no worker outlives the
    # block.
    with _forked(
        functools.partial(formulas.rooted_forest_paper_rows, args.max_n_formula),
        _check(_kreweras(KREWERAS_VERIFY_MAX), "formula", "bruteforce"),
        _check(_type_sum(TYPE_SUM_VERIFY_MAX), "formula", "type-sum"),
    ) as receive:
        # (check, a callable that raises at its first mismatch); each check's
        # cases run only when its turn comes.
        suites = (
            (
                f"formula-vs-series (n<={args.max_n_formula})",
                _check(
                    _series_vs_formula(args.max_n_formula, rooted_table), "formula", "series"
                ),
            ),
            (
                f"rooted-paper-sum-vs-lagrange-burmann (n<={args.max_n_formula})",
                _check(
                    _rooted_forms(args.max_n_formula, rooted_table, receive),
                    "lagrange-burmann",
                    "paper-sum",
                ),
            ),
            (
                f"formula-vs-bruteforce (n<={args.max_n_brute})",
                _check(_formula_vs_bruteforce(args.max_n_brute), "formula", "bruteforce"),
            ),
            (f"kreweras-vs-enumeration (N<={KREWERAS_VERIFY_MAX})", receive),
            (f"type-sum-vs-closed-form (n<={TYPE_SUM_VERIFY_MAX})", receive),
            (
                f"series-identities (order {IDENTITY_ORDER})",
                _check(_series_identities(IDENTITY_ORDER), "R", "xT'"),
            ),
        )
        failures = 0
        for name, verdict in suites:
            try:
                verdict()
            except Exception as exc:  # a check that raises fails; the rest run on
                failures += 1
                print(f"check {name}: FAIL")
                print(f"  first counterexample: {_failure(exc)}")
            else:
                print(f"check {name}: PASS")
    if failures:
        print(f"{failures} of {len(suites)} checks failed")
        return EXIT_MISMATCH
    print(f"all {len(suites)} checks passed")
    return EXIT_OK


# -- render ------------------------------------------------------------------


def diagram_to_svg(chords: tuple[diagrams.Chord, ...]) -> str:
    """Standalone SVG: unit circle, points 1..2n clockwise from the top, straight chords."""
    total = 2 * len(chords)

    def position(label: int, radius: float) -> tuple[float, float]:
        angle = -math.pi / 2 + (label - 1) * 2 * math.pi / total
        return radius * math.cos(angle), radius * math.sin(angle)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.3 -1.3 2.6 2.6" width="390" height="390">',
        '  <circle cx="0" cy="0" r="1" fill="none" stroke="black" stroke-width="0.01"/>',
    ]
    for a, b in chords:
        xa, ya = position(a, 1.0)
        xb, yb = position(b, 1.0)
        parts.append(
            f'  <line x1="{xa:.4f}" y1="{ya:.4f}" x2="{xb:.4f}" y2="{yb:.4f}" '
            'stroke="black" stroke-width="0.02"/>'
        )
    for label in range(1, total + 1):
        x, y = position(label, 1.0)
        parts.append(f'  <circle cx="{x:.4f}" cy="{y:.4f}" r="0.03" fill="black"/>')
        tx, ty = position(label, 1.16)
        parts.append(
            f'  <text x="{tx:.4f}" y="{ty:.4f}" font-size="0.12" '
            f'text-anchor="middle" dominant-baseline="middle">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_atomically(path: str, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it over ``path``.

    A failed write removes the temp file and leaves ``path`` as it was.
    """
    directory, name = os.path.split(path)
    temp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    handle = open(temp, "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def cmd_render(args: argparse.Namespace) -> int:
    diagram = diagrams.parse_diagram(args.diagram)
    svg = diagram_to_svg(diagram)
    try:
        _write_atomically(args.out, svg)
    except OSError as exc:
        # strerror, not str(exc): the file named in exc is the temp file
        return _complain(EXIT_IO, f"cannot write {args.out}: {exc.strerror or exc}")
    return EXIT_OK


# -- wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordforest",
        description="Exact counts of tree and forest chord diagrams, three ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    count = sub.add_parser("count", help="print one exact count")
    count.add_argument(
        "--kind",
        required=True,
        choices=["f", "r", "t", "catalan"],
        help="f: forests by (n, m); r: rooted forests; t: trees; catalan",
    )
    count.add_argument("--n", type=int, required=True, help="number of chords")
    count.add_argument("--m", type=int, help="number of trees (f and r only)")
    count.set_defaults(handler=cmd_count)

    table = sub.add_parser("table", help="print a table of counts")
    table.add_argument("--kind", required=True, choices=["f", "r", "t", "catalan"])
    table.add_argument("--max-n", type=int, required=True)
    table.add_argument("--format", choices=["csv", "json"], default="csv")
    table.set_defaults(handler=cmd_table)

    verify = sub.add_parser(
        "verify", help="cross-check formulas, series, and brute force"
    )
    verify.add_argument(
        "--max-n-formula",
        type=int,
        default=60,
        help="bound for the formula-vs-series and rooted paper-sum checks (default 60)",
    )
    verify.add_argument(
        "--max-n-brute",
        type=int,
        default=7,
        help="bound for the exhaustive sweep (default 7)",
    )
    verify.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    verify.set_defaults(handler=cmd_verify)

    series_cmd = sub.add_parser("series", help="print generating-series coefficients")
    series_cmd.add_argument("--which", required=True, choices=["G", "T", "R"])
    series_cmd.add_argument("--order", type=int, required=True)
    series_cmd.set_defaults(handler=cmd_series)

    enum_cmd = sub.add_parser("enumerate", help="exhaustively tally all size-n diagrams")
    enum_cmd.add_argument("--n", type=int, required=True)
    enum_cmd.add_argument(
        "--list", action="store_true", help="also print every forest diagram"
    )
    enum_cmd.add_argument(
        "--force", action="store_true", help="allow n above the default cap"
    )
    enum_cmd.set_defaults(handler=cmd_enumerate)

    render = sub.add_parser("render", help="write an SVG drawing of one diagram")
    render.add_argument(
        "--diagram", required=True, help="text form, e.g. 1-8,2-9,3-5,7-10,4-6"
    )
    render.add_argument("--out", required=True, help="output SVG path")
    render.set_defaults(handler=cmd_render)

    return parser


def _complain(code: int, message: str, before: str = "") -> int:
    """Write ``before`` and the line ``error: <message>`` to stderr, and
    return ``code``: the CLI's one writer of a failure.  A stderr that cannot
    be written, such as a pipe whose reader has gone, drops the text here,
    and :func:`main` sends what stays in its buffer to devnull."""
    with contextlib.suppress(OSError):
        print(f"{before}error: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    # CPython refuses str() of ints above 4300 digits by default; counts such
    # as t(6000) must still print exactly.  Restored for the caller afterwards.
    digit_limit = sys.get_int_max_str_digits()
    try:
        args = build_parser().parse_args(argv)
        sys.set_int_max_str_digits(0)
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed stdout is met here, not at exit
    except BrokenPipeError as exc:
        # stdout's reader has gone; as in the Python docs' SIGPIPE note, point
        # stdout at devnull so that the interpreter's last flush cannot fail.
        os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        os.close(devnull)
        code = _complain(EXIT_IO, f"cannot write to stdout: {exc.strerror}")
    except ValueError as exc:
        code = _complain(EXIT_USAGE, str(exc))
    except ConsistencyError as exc:
        code = _complain(EXIT_MISMATCH, str(exc))
    except Exception as exc:
        # A bug, as a failed self-check is, so exit 1 and no traceback, but
        # under python -X dev, which debugging runs, the traceback first.
        import traceback

        trace = traceback.format_exc() if sys.flags.dev_mode else ""
        code = _complain(EXIT_MISMATCH, f"internal error: {_failure(exc)}", trace)
    finally:
        sys.set_int_max_str_digits(digit_limit)
        # Every exit, argparse's included, passes here.  A stderr that cannot
        # be written (a pipe whose reader has gone, as under 2>&1 | head, or
        # a closed descriptor) goes to devnull with what its buffer holds, so
        # that the interpreter's last flush cannot change the exit code.
        try:
            if sys.stderr is not None:
                sys.stderr.flush()
        except OSError:
            os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
            os.close(devnull)
    # One return, here: CPython copies a finally body at each return inside
    # its try, and that larger main() raised verify's peak RSS by 256 KB.
    return code


def entry() -> None:
    sys.exit(main())
