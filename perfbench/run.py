"""Benchmark of the chordforest CLI: exact, checked numbers, end to end and per layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Workloads (see NOTES.md for why each exists): ``verify``, ``tables``,
``series``, ``sweep``.  Every run of a workload's command list happens in a
fresh child process (child.py) that drives ``chordforest.cli.main``
in-process; this parent never runs the CLI itself.  The parent computes the
references before timing starts, checks every output after each run and
aborts, naming the command, on an exit-0 command with wrong stdout.

With ``--trace 0`` the runs are untraced and the last line of stdout holds
the end-to-end metrics; with ``--trace 1`` untraced and traced runs
alternate and it holds the per-layer metrics from the traced ones.  The line
before it records provenance and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7  # setup-only children per run, besides each run's own
MIN_PLAIN_RUNS = 3
RUN_LIMIT_S = 170.0  # whole-process budget: a run must end within 180 s

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not measure: the program is missing or a child broke."""


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith((".s", "_s")):
        return "s"
    return "ratio"


def per_layer_names() -> list[str]:
    return spans.metric_names() + ["cli.error_rate", "trace.overhead"]


def git_sha(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts child processes inside the run's time budget and reads their results."""

    def __init__(self, src: Path, argvs: list[list[str]]) -> None:
        self.src = src
        self.payload = json.dumps(argvs)
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, mode: str) -> dict:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(self.src), mode],
                input=self.payload,
                capture_output=True,
                text=True,
                timeout=max(1.0, RUN_LIMIT_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"a {mode} run did not end within the {RUN_LIMIT_S:.0f} s budget") from None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
            raise BenchError(f"{mode} child exited {proc.returncode}: {tail[0]}")
        return json.loads(proc.stdout.splitlines()[-1])


def wrong_output(commands: list[workloads.Command], outputs: list[dict]) -> str | None:
    """The first exit-0 command whose stdout fails its check, described; else None."""
    for command, output in zip(commands, outputs):
        if output["code"] == 0:
            problem = command.expect.problem(output)
            if problem:
                return f"`chordforest {' '.join(command.argv)}`: {problem}"
    return None


def measure(args: argparse.Namespace, root: Path) -> int:
    src = root / "src"
    if not (src / "chordforest" / "cli.py").is_file():
        raise BenchError(f"no chordforest sources under {src}")
    commands = workloads.commands(args.workload, args.seed)
    load_start = os.getloadavg()
    runner = Runner(src, [list(command.argv) for command in commands])

    runner.child("setup")  # fills the bytecode cache; users pay that once
    setup = [runner.child("setup") for _ in range(SETUP_SAMPLES)]
    runs: dict[str, list[dict]] = {"plain": [], "traced": []}
    took: dict[str, list[float]] = {"plain": [], "traced": []}
    attempted = failed = 0
    stderr_lines: dict[str, str] = {}
    digit_limits = set()
    measure_start = runner.elapsed()
    mode = "plain"
    while True:
        have_plain = len(runs["plain"]) >= (1 if args.trace else MIN_PLAIN_RUNS)
        have_traced = not args.trace or runs["traced"]
        estimate = statistics.median(took[mode]) if took[mode] else 0.0
        spent = runner.elapsed() - measure_start
        if have_plain and have_traced and spent + estimate > args.seconds:
            break
        before = runner.elapsed()
        result = runner.child(mode)
        took[mode].append(runner.elapsed() - before)
        attempted += len(result["outputs"])
        for output in result["outputs"]:
            if output["code"] != 0:
                failed += 1
                stderr_lines[" ".join(output["argv"])] = f"exit {output['code']}: {output['stderr']}"
        problem = wrong_output(commands, result["outputs"])
        if problem:
            print(f"error: wrong output from {problem}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
            return 1
        runs[mode].append(result)
        setup.append(result)
        digit_limits.add(result["int_max_str_digits"])
        if args.trace:
            mode = "traced" if mode == "plain" else "plain"

    plain, traced = runs["plain"], runs["traced"]
    if args.trace:
        metrics = {
            name: statistics.median(run["layers"][name] for run in traced)
            for name in spans.metric_names()
        }
        metrics["cli.error_rate"] = failed / attempted
        metrics["trace.overhead"] = (
            statistics.median(run["wall_s"] for run in traced)
            / statistics.median(run["wall_s"] for run in plain)
            - 1
        )
    else:
        metrics = {
            "wall_s": statistics.median(run["wall_s"] for run in plain),
            "setup_s": statistics.median(run["setup_s"] for run in setup),
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in plain),
            "success_rate": (attempted - failed) / attempted,
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "int_max_str_digits": sorted(digit_limits),
        "samples": {"plain": len(plain), "traced": len(traced), "setup": len(setup)},
        "plain_wall_s": [run["run_wall_s"] for run in plain],
        "plain_speed": [run["speed"] for run in plain],
        "setup_wall_s": statistics.median(run["setup_wall_s"] for run in setup),
        "failed_commands": stderr_lines,
    }
    print(json.dumps({"provenance": record}))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return measure(args, HERE.parent)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
