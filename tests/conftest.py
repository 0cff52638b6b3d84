import os
import sys
from pathlib import Path

try:
    import chordforest  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# os._exit in the pytest process would end the run at once with the status it
# is given, so a bug that calls os._exit(0) there, as a fork whose parent runs
# the child's branch would, could end the tier-1 run green after a few tests.
# In that process the call is named on stderr and the run exits 70; in any
# other process, such as verify's forked worker, os._exit is the real one.
PYTEST_PID = os.getpid()
GUARDED_EXIT_STATUS = 70
_real_exit = os._exit
_config = None


def pytest_configure(config):
    global _config
    _config = config


def _guarded_exit(status):
    if os.getpid() != PYTEST_PID:
        _real_exit(status)
    caller = sys._getframe(1)
    capture = _config and _config.pluginmanager.getplugin("capturemanager")
    if capture:
        # a plain write would land in pytest's capture file and be lost
        capture.suspend_global_capture()
    test = os.environ.get("PYTEST_CURRENT_TEST", "no test")
    message = (
        f"os._exit({status}) called in the pytest process at {caller.f_code.co_filename}:"
        f"{caller.f_lineno} ({test}); exiting {GUARDED_EXIT_STATUS}\n"
    )
    os.write(2, message.encode())
    _real_exit(GUARDED_EXIT_STATUS)


os._exit = _guarded_exit
