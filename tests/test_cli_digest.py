"""tools/cli_digest.py: one line per command, exit code and output digest."""

import pathlib
import re
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"


def test_digest_line_format():
    proc = subprocess.run([sys.executable, str(TOOL), "elliptic K --k 0.5"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"0  [0-9a-f]{64}  elliptic K --k 0\.5\n", proc.stdout)
