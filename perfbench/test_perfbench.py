"""Tests of the benchmark itself: output checks, span arithmetic, seeding.

Run from the root of the checkout with ``python3 -m pytest perfbench -q``.
"""

import contextlib
import io
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speedometer  # noqa: E402
import workloads  # noqa: E402

from chordforest import cli  # noqa: E402


def _captured(text: str) -> dict:
    capture = child.Capture()
    capture.write(text)
    return {"code": 0, **capture.record()}


def test_corrupted_stdout_is_rejected():
    argv = ("table", "--kind", "f", "--max-n", "300")
    (command,) = [c for c in workloads.commands("tables", 1) if c.argv == argv]
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli.main(list(argv)) == 0
    good = text.getvalue()
    assert command.expect.problem(_captured(good)) is None

    # One digit changed far past the part of stdout the child keeps.
    at = good.index("\n", len(good) // 2) - 1
    digit = "1" if good[at] != "1" else "2"
    corrupted = good[:at] + digit + good[at + 1 :]
    assert len(corrupted) == len(good) and at > child.KEEP_CHARS
    outputs = [_captured(corrupted)]
    assert command.expect.problem(outputs[0]) is not None
    assert "table --kind f --max-n 300" in run.wrong_output([command], outputs)


def test_wrong_count_and_failed_check_are_rejected():
    count = workloads.Command(("count", "--kind", "t", "--n", "5"), workloads.Value(workloads.ref_tree(5)))
    assert count.expect.problem(_captured("55\n")) is None
    assert count.expect.problem(_captured("56\n")) is not None
    assert count.expect.problem(_captured("55\n55\n")) is not None

    verify = workloads.Command(workloads.VERIFY, workloads.AllPass())
    passing = "check a (n<=3): PASS\ncheck b: PASS\nall 2 checks passed\n"
    assert verify.expect.problem(_captured(passing)) is None
    assert verify.expect.problem(_captured(passing.replace("b: PASS", "b: FAIL"))) is not None
    assert verify.expect.problem(_captured("all 0 checks passed\n")) is not None


def test_nonzero_exit_is_a_failure_not_a_wrong_output():
    command = workloads.Command(("count", "--kind", "t", "--n", "6000"), workloads.Value(workloads.ref_tree(6000)))
    output = {"code": 2, **child.Capture().record()}
    assert run.wrong_output([command], [output]) is None


def test_self_time_on_a_synthetic_span_tree():
    # cli.verify [0, 10] holds formulas.forest_count [1, 3] and
    # oracle.brute_force_counts [4, 9], which holds two classify_chords calls.
    names = [
        "cli.verify",
        "formulas.forest_count",
        "oracle.brute_force_counts",
        "diagrams.classify_chords",
        "diagrams.classify_chords",
    ]
    starts = [0.0, 1.0, 4.0, 5.0, 7.0]
    ends = [10.0, 3.0, 9.0, 6.0, 8.5]
    parents = [-1, 0, 0, 2, 2]
    m = spans.summarize(names, starts, ends, parents, wall_s=10.0, diagrams=30, stdout_bytes=7)
    assert m["cli.self_s"] == 3.0
    assert m["cli.busy_s"] == 10.0 and m["cli.verify.s"] == 10.0
    assert m["formulas.self_s"] == 2.0 and m["formulas.forest_count.self_s"] == 2.0
    assert m["oracle.self_s"] == 2.5 and m["oracle.busy_s"] == 5.0
    assert m["diagrams.classify_chords.calls"] == 2
    assert m["diagrams.self_s"] == 2.5 and m["diagrams.busy_s"] == 2.5
    assert m["oracle.share"] == 0.25
    # Diagrams over the union of oracle and diagrams time, [4, 9].
    assert m["oracle.diagrams_per_s"] == 6.0
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == 10.0
    assert m["series.calls"] == 0 and m["series.busy_s"] == 0.0
    assert sorted(m) == sorted(spans.metric_names())


def test_reference_seconds_scale_by_the_probed_speed():
    meter = speedometer.Speedometer()
    meter.samples = [2 * speedometer.PROBE_S, 2 * speedometer.PROBE_S, 4 * speedometer.PROBE_S]
    meter.probe_s = sum(meter.samples)
    # Probes at a half, a half and a quarter of the reference speed.
    assert abs(meter.speed() - 5 / 12) < 1e-12
    assert abs(meter.reference_s(1.2 + meter.probe_s) - 0.5) < 1e-12


def test_speedometer_samples_inside_its_span_only():
    before = signal.getsignal(signal.SIGALRM)
    with speedometer.Speedometer() as meter:
        end = time.perf_counter() + 20 * speedometer.INTERVAL_S
        while time.perf_counter() < end:
            pass
    taken = len(meter.samples)
    time.sleep(5 * speedometer.INTERVAL_S)
    assert taken >= 3 and len(meter.samples) == taken
    assert signal.getsignal(signal.SIGALRM) is before
    assert 0 < meter.reference_s(20 * speedometer.INTERVAL_S)


def test_same_seed_gives_the_same_count_cells():
    assert workloads.count_cells(7) == workloads.count_cells(7)
    assert workloads.count_cells(7) != workloads.count_cells(8)
    first = [c.argv for c in workloads.commands("tables", 7)]
    assert first == [c.argv for c in workloads.commands("tables", 7)]
    assert first[-1] == ("count", "--kind", "t", "--n", "6000")


def test_references_match_the_package_at_small_n():
    from chordforest import formulas

    for n in range(1, 25):
        assert workloads.ref_tree(n) == formulas.tree_count(n)
        for m in range(1, n + 1):
            assert workloads.ref_forest(n, m) == formulas.forest_count(n, m)
            assert workloads.ref_rooted(n, m) == formulas.rooted_forest_count(n, m)


def test_traced_child_records_each_layer():
    argvs = [["count", "--kind", "f", "--n", "3", "--m", "2"], ["enumerate", "--n", "3", "--list"]]
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(HERE.parent / "src"), "traced"],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    result = json.loads(proc.stdout)
    assert [o["head"] for o in result["outputs"]][0] == "6\n"
    layers = result["layers"]
    assert layers["cli.calls"] == 2 + 15  # two commands, one callback per diagram
    assert layers["formulas.calls"] == 1
    assert layers["oracle.brute_force_counts.calls"] == 1
    assert layers["diagrams.classify_chords.calls"] == 15  # (2*3-1)!! from the sweep
    assert layers["diagrams.classify.calls"] == 15  # once per diagram visited by --list
    assert layers["diagrams.format_diagram.calls"] == 14  # 3 + 6 + 5 forests, by m
    assert layers["oracle.diagrams_per_s"] > 0


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit(name) for name in run.per_layer_names()
    }
