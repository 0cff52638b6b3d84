"""In-memory spans around the calls into chordforest's layers, and their sums.

A span is (name, start, end, parent).  The name is ``<layer>.<function>``;
the parent is the index of the span that was open when the call began, or
-1.  Spans are recorded only at layer boundaries, at the attribute the
caller looks up (see :func:`install`), so calls inside a layer stay
untraced and cost nothing extra.  Spans are kept in flat arrays until the
run ends and are summed there by :func:`summarize`.
"""

from __future__ import annotations

import time
import types
from array import array
from collections.abc import Callable, Sequence

LAYERS = ("cli", "formulas", "series", "oracle", "diagrams")
COMMANDS = ("count", "table", "series", "enumerate", "verify")

# Per-function figures named in the benchmark, as (span name, statistic).
FUNCTION_METRICS = (
    ("formulas.rooted_forest_count", "calls"),
    ("formulas.rooted_forest_count", "self_s"),
    ("formulas.forest_count", "self_s"),
    ("formulas.tree_count", "self_s"),
    ("formulas.kreweras_count", "calls"),
    ("formulas.type_sum_forest_count", "self_s"),
    ("series.solve_ternary_gf", "self_s"),
    ("series.tree_gf", "self_s"),
    ("series.rooted_gf", "self_s"),
    ("oracle.brute_force_counts", "calls"),
    ("oracle.brute_force_counts", "self_s"),
    ("oracle.enumerate_noncrossing_partitions", "self_s"),
    ("oracle.enumerate_diagrams", "self_s"),
    ("diagrams.classify_chords", "calls"),
    ("diagrams.classify_chords", "self_s"),
    ("diagrams.classify", "calls"),
    ("diagrams.format_diagram", "calls"),
)


def metric_names() -> list[str]:
    """Every per-layer metric one traced child reports, in report order."""
    names = [f"{layer}.{stat}" for layer in LAYERS for stat in ("calls", "busy_s", "self_s", "share")]
    names += [f"cli.{command}.s" for command in COMMANDS]
    names += ["cli.stdout_bytes"]
    names += [f"{span}.{stat}" for span, stat in FUNCTION_METRICS]
    names += ["oracle.diagrams_per_s"]
    return names


class Tracer:
    """Collects spans from wrapped functions into flat in-memory arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids: array = array("l")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.parents: array = array("l")
        self.stack: list[int] = [-1]
        # Diagrams accounted for by the oracle's sweeps (their return values).
        self.diagrams = 0

    def wrap(
        self,
        name: str,
        function: Callable,
        count: Callable[[object], int] | None = None,
    ) -> Callable:
        """``function`` with a span named ``name`` around every call.

        ``count``, when given, maps the call's result to a number of diagrams
        added to :attr:`diagrams`.
        """
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self.stack
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                tracer.diagrams += count(result)
            return result

        return traced

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name_ids]


def traced_view(tracer: Tracer, layer: str, module: types.ModuleType) -> types.SimpleNamespace:
    """A stand-in for ``module`` whose public functions record spans.

    Only the caller that is handed the view is traced; the module itself,
    and so every call inside the layer, is left as it is.
    """
    view = types.SimpleNamespace(
        **{name: value for name, value in vars(module).items() if not name.startswith("__")}
    )
    for name in module.__all__:
        value = getattr(module, name)
        if isinstance(value, types.FunctionType):
            setattr(view, name, tracer.wrap(f"{layer}.{name}", value))
    return view


def install(tracer: Tracer, cli: types.ModuleType) -> None:
    """Trace the calls ``cli`` makes into formulas, series, oracle and diagrams,
    the oracle's calls into diagrams and back into cli and formulas."""
    oracle = cli.oracle
    sweep = oracle.enumerate_diagrams

    def enumerate_diagrams(n, visit=None, **kwargs):
        # The per-diagram callback is cli's work (classify, format, print).
        if visit is not None:
            visit = tracer.wrap("cli.visit", visit)
        return sweep(n, visit, **kwargs)

    cli.formulas = traced_view(tracer, "formulas", cli.formulas)
    cli.oracle = view = traced_view(tracer, "oracle", oracle)
    view.brute_force_counts = tracer.wrap(
        "oracle.brute_force_counts", oracle.brute_force_counts, lambda table: table.total_diagrams
    )
    view.enumerate_diagrams = tracer.wrap(
        "oracle.enumerate_diagrams", enumerate_diagrams, lambda visited: visited
    )
    cli.diagrams = traced_view(tracer, "diagrams", cli.diagrams)
    for name in ("tree_gf", "rooted_gf", "solve_ternary_gf"):
        setattr(cli, name, tracer.wrap(f"series.{name}", getattr(cli, name)))
    # The diagram sweep classifies through oracle's own binding, and
    # formulas.type_sum_forest_count imports oracle.enumerate_types per call.
    oracle.classify_chords = tracer.wrap("diagrams.classify_chords", oracle.classify_chords)
    oracle.enumerate_types = tracer.wrap("oracle.enumerate_types", oracle.enumerate_types)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(
    names: Sequence[str],
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
    wall_s: float,
    diagrams: int,
    stdout_bytes: int,
) -> dict[str, float]:
    """Per-layer metrics from one run's spans.

    A span's self time is its duration minus the durations of its direct
    children; spans are single-threaded, so children never overlap.  A
    layer's busy time is the length of the union of its spans.
    """
    durations = [end - start for start, end in zip(starts, ends)]
    covered = [0.0] * len(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[index]
    per_name: dict[str, list[float]] = {}
    per_layer: dict[str, list[float]] = {layer: [0, 0.0] for layer in LAYERS}
    intervals: dict[str, list[tuple[float, float]]] = {layer: [] for layer in LAYERS}
    for index, name in enumerate(names):
        own = durations[index] - covered[index]
        stats = per_name.setdefault(name, [0, 0.0, 0.0])
        stats[0] += 1
        stats[1] += own
        stats[2] += durations[index]
        layer = name.split(".", 1)[0]
        per_layer[layer][0] += 1
        per_layer[layer][1] += own
        intervals[layer].append((starts[index], ends[index]))

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        calls, own = per_layer[layer]
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.busy_s"] = _union_length(intervals[layer])
        metrics[f"{layer}.self_s"] = own
        metrics[f"{layer}.share"] = own / wall_s if wall_s > 0 else 0.0
    for command in COMMANDS:
        metrics[f"cli.{command}.s"] = per_name.get(f"cli.{command}", [0, 0.0, 0.0])[2]
    metrics["cli.stdout_bytes"] = stdout_bytes
    for span, stat in FUNCTION_METRICS:
        calls, own, _ = per_name.get(span, [0, 0.0, 0.0])
        metrics[f"{span}.{stat}"] = calls if stat == "calls" else own
    sweep_busy = _union_length(intervals["oracle"] + intervals["diagrams"])
    metrics["oracle.diagrams_per_s"] = diagrams / sweep_busy if sweep_busy > 0 else 0.0
    return metrics
