"""One workload run: chordforest's commands, in-process, in a fresh interpreter.

Usage (started by run.py, one process per run)::

    python3 perfbench/child.py SRC_DIR MODE < commands.json

MODE is ``setup`` (only time the import), ``plain`` (run the commands) or
``traced`` (run them with spans at the layer boundaries).  The child first
times ``import chordforest.cli`` plus ``build_parser()``, before it imports
anything of its own but the speedometer, so the figure is what every CLI
invocation pays.  Then it reads a JSON list of argv lists from stdin,
passes each to ``chordforest.cli.main`` with stdout and stderr captured,
and writes one JSON object to its real stdout.  It never changes the interpreter's
int-to-str digit limit, so the CLI runs as a user's would.

Both timed spans run under a ``speedometer.Speedometer``, and the child
reports each in wall seconds and in seconds at the reference speed.
"""

import hashlib
import io
import sys
import time

from speedometer import Speedometer


def time_setup(src: str) -> tuple[float, float, object]:
    """Wall and reference-speed seconds of the import and ``build_parser()``, and the module."""
    sys.path.insert(0, src)
    with Speedometer() as meter:
        start = time.perf_counter()
        import chordforest.cli as cli

        cli.build_parser()
        seconds = time.perf_counter() - start
    return seconds, meter.reference_s(seconds), cli


KEEP_CHARS = 1 << 16  # stdout text kept for the value and PASS checks


class Capture(io.TextIOBase):
    """Stands in for stdout: hashes and counts every byte, keeps only the head.

    Keeping just a hash leaves the child's peak memory to the CLI itself.
    """

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.size = 0
        self.head: list[str] = []
        self.kept = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha.update(data)
        self.size += len(data)
        if self.kept < KEEP_CHARS:
            self.head.append(text)
            self.kept += len(text)
        return len(text)

    def record(self) -> dict:
        return {"sha256": self.sha.hexdigest(), "bytes": self.size, "head": "".join(self.head)}


def run_command(main, argv: list[str]) -> dict:
    """Run ``main(argv)`` with captured streams; return its exit code and output."""
    out, err = Capture(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # an escaping exception is exit 1 for a CLI user
        code = 1
        print(f"{type(exc).__name__}: {exc}", file=err)
    finally:
        seconds = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    lines = err.getvalue().strip().splitlines()
    return {
        "argv": argv,
        "code": code,
        "seconds": seconds,
        "stderr": lines[-1] if lines else "",
        **out.record(),
    }


def main() -> None:
    src, mode = sys.argv[1], sys.argv[2]
    setup_wall_s, setup_s, cli = time_setup(src)

    import json
    import os
    import resource

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import spans

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported chordforest from {cli.__file__}, not from {src}")
    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }
    if mode != "setup":
        commands = json.load(sys.stdin)
        tracer = spans.Tracer()
        run = cli.main
        if mode == "traced":
            spans.install(tracer, cli)
        outputs = []
        with Speedometer() as meter:
            start = time.perf_counter()
            for argv in commands:
                if mode == "traced":
                    run = tracer.wrap(f"cli.{argv[0]}", cli.main)
                outputs.append(run_command(run, argv))
            wall_s = time.perf_counter() - start
        result["wall_s"] = meter.reference_s(wall_s)
        result["run_wall_s"] = wall_s
        result["speed"] = meter.speed()
        result["outputs"] = outputs
        if mode == "traced":
            result["layers"] = spans.summarize(
                tracer.span_names(),
                tracer.starts,
                tracer.ends,
                tracer.parents,
                wall_s,
                tracer.diagrams,
                sum(output["bytes"] for output in outputs),
            )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.__stdout__.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
