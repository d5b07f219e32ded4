#!/usr/bin/env python3
"""Wall time and peak RSS of the CLI on a list of commands.

Prints one line per command: ``wall_s peak_rss_mb exit command``.  Each
command runs in a fresh ``python -m gridhfk.cli`` process against the
``src`` of the checkout that holds this script, from that checkout's
root, as in ``cli_stdout.py``, whose command list it runs by default.
Peak RSS is the child's ``ru_maxrss`` from ``os.wait4``.  Commands given
as arguments, each one quoted string, run in place of the default list:

    python3 scripts/cli_cost.py
    python3 scripts/cli_cost.py \\
        "homology 10;X=0,1,2,3,4,5,6,7,8,9;O=3,4,5,6,7,8,9,0,1,2 --max-grid 10" \\
        "check invariance fixtures/granny.grid --max-grid 10 --moves 6 --seed 1"

Stdout and stderr of the child are discarded.  ``ru_maxrss`` is read as
KiB, its unit on Linux.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from cli_stdout import COMMANDS, ROOT


def cost(command: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "gridhfk.cli", *command.split()],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return f"{wall:.2f} {usage.ru_maxrss / 1024:.1f} {proc.returncode} {command}"


def main(argv: list[str]) -> int:
    for command in argv or COMMANDS:
        print(cost(command), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
