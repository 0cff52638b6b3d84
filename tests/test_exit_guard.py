"""The guard that ``conftest.py`` puts on ``os._exit``: called in the pytest
process it ends the run nonzero and says so on stderr, while a forked child
still exits by the real ``os._exit`` with its own status."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GUARDED_EXIT_STATUS

CONFTEST = Path(__file__).resolve().parent / "conftest.py"


def _pytest_on(tmp_path, source):
    """Run pytest in a subprocess on one throwaway test file, beside a copy
    of this suite's conftest; return its exit status, stdout and stderr.
    Hypothesis's plugin, which would add about a second, is left out."""
    shutil.copy(CONFTEST, tmp_path / "conftest.py")
    (tmp_path / "test_throwaway.py").write_text(source, encoding="utf-8")
    plugins = ["-p", "no:cacheprovider", "-p", "no:hypothesispytest"]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *plugins, "--rootdir", "."],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return result.returncode, result.stdout, result.stderr


def test_os_exit_in_the_pytest_process_fails_the_run(tmp_path):
    source = "import os\n\n\ndef test_exits():\n    os._exit(0)\n"
    code, _, err = _pytest_on(tmp_path, source)
    assert code == GUARDED_EXIT_STATUS != 0
    assert f"os._exit(0) called in the pytest process at {tmp_path / 'test_throwaway.py'}:5" in err
    assert "test_throwaway.py::test_exits" in err


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_os_exit_in_a_forked_child_is_the_real_one(tmp_path):
    source = (
        "import os\n\n\n"
        "def test_child_exits():\n"
        "    pid = os.fork()\n"
        "    if pid == 0:\n"
        "        os._exit(5)\n"
        "    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 5\n"
    )
    code, out, err = _pytest_on(tmp_path, source)
    assert (code, err) == (0, "")
    assert "1 passed" in out

