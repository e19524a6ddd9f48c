"""Digest the CLI's output over a fixed list of commands.

Each command runs in a fresh interpreter, as ``python -m elliptic_sl2 ...``,
on the package in this checkout's ``src``, with ELLIPTIC_SL2_FORMAT unset.
One line per command:

    <exit code>  <sha256 of stdout followed by stderr>  <command>

Two checkouts print the same lines exactly when every command gives the
same bytes and exit code in both, so ``diff`` of this script's output shows
what a change does to the CLI.

    python tools/cli_digest.py                      # the fixed list
    python tools/cli_digest.py "elliptic K --k 0.5"  # only the given commands
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = (
    "hopf verify --which uh --j1 3 --j2 2 --h 0.8 --k 0.6",
    "hopf verify --which 1 --j1 3 --j2 2 --h 0.8 --k 0.6",
    "hopf verify --which 2 --j1 3 --j2 2 --h 0.8 --k 0.6",
    "hopf verify --which 2 --j1 2 --j2 3 --h 0.45 --k 0.3",
    "hopf verify --which uh --j1 4 --j2 5 --h 0.8 --k 0.6",
    "hopf verify --which 2 --j1 4 --j2 5 --h 0.8 --k 0.6",
    "hopf verify --which 1 --j1 8 --j2 8 --h 0.8 --k 0.6",
    "hopf verify --which 2 --j1 8 --j2 8 --h 0.8 --k 0.6",
    "hopf verify --which 1 --j1 12 --j2 12 --h 0.8 --k 0.6",
    "hopf verify --which 2 --j1 12 --j2 12 --h 0.8 --k 0.6",
    "hopf verify --which uh --j1 12 --j2 12 --h 0.8 --k 0.6",
    "hopf verify --which 2 --j1 0 --j2 2 --h 0.8 --k 0.6",
    "hopf verify --which 2 --j1 0 --j2 0 --h 0.8 --k 0.6",
    "hopf verify --which 1 --j1 200 --j2 2 --h 0.8 --k 0.6",
    "hopf verify --which 2 --j1 100 --j2 4 --h 0.8 --k 0.6",
    "hopf delta --which 2 --j1 2 --j2 2 --h 0.8 --k 0.6",
    "hopf delta --which uh --j1 2 --j2 1 --h 0.8",
    "hopf delta --which uh --j1 3 --j2 2 --h 0.8",
    "hopf delta --which 1 --j1 2 --j2 1 --h 0.8 --k 0.6 --format csv",
    "verify-all",
    "verify-all --h 0.45 --k 0.3",
    "deform verify --j 8 --h 0.8 --k 0.6",
    "deform verify --j 8 --h 0.8 --k 0.6 --jordanian",
    "deform verify --j 40 --h 0.45 --k 1",
    "deform build --j 100 --h 0.8 --k 0.6",
    "sweep --families deform,elliptic --j 0.5,1,3 --k 0.4,1",
    "sweep --j 20,40 --h 0.45 --k 0.6,1",
    "auto shift --which uh-half --j 2 --h 0.8 --k 0.6",
    "auto shift --which ell-iKp --j 2 --h 0.8 --k 0.6",
    "auto shift --which ell-2KiKp --j 8 --h 0.45 --k 0.7",
    "auto shift --which sign --j 2 --h 0.8 --k 0.6",
    "elliptic eval --k 0.5",
    "elliptic eval --k 0.5 --u 0.3+0.2i",
)


def digest(command):
    """(exit code, sha256 hex of stdout + stderr) of one CLI command."""
    env = dict(os.environ)
    env.pop("ELLIPTIC_SL2_FORMAT", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "elliptic_sl2", *shlex.split(command)],
                          capture_output=True, env=env, timeout=600)
    return proc.returncode, hashlib.sha256(proc.stdout + proc.stderr).hexdigest()


def main(argv=None):
    for command in (argv if argv else COMMANDS):
        code, sha = digest(command)
        print(f"{code}  {sha}  {command}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
