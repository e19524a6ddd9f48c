"""Every demo script runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

import elliptic_sl2

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# The child imports the package this test process imported.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(elliptic_sl2.__file__)))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env.pop("ELLIPTIC_SL2_FORMAT", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_the_demos_are_found():
    assert DEMOS
