"""The demos run to the end against the package as it stands.

They are the only callers of the public API outside the tests, so each
one runs as a script, in a fresh interpreter, and must exit 0.
"""

import glob
import os
import subprocess
import sys

import pytest

import gaussmin

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    src = os.path.dirname(os.path.dirname(gaussmin.__file__))
    res = subprocess.run(
        [sys.executable, path],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
