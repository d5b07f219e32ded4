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

A single run of a short command can swing by half or more from one
hour to the next, so a change of a few milliseconds cannot be read off
one run.
``--repeat K`` runs the whole list K times, round robin, so a drift of
the machine's speed spreads over every command alike, and then prints
one line per command: ``wall_p50 wall_q1-wall_q3 peak_rss_mb_p50 exit
command``, the median wall time with its quartiles, the median peak RSS
and the exit codes seen, comma separated when they differ:

    python3 scripts/cli_cost.py --repeat 20 \\
        "homology fixtures/torus34.grid --coefficients z --json"

A command that starts with ``-`` goes after ``--``, as in
``cli_cost.py --repeat 20 -- "--help"``.

Stdout and stderr of the child are discarded.  ``ru_maxrss`` is read as
KiB, its unit on Linux.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

from cli_stdout import COMMANDS, ROOT


def cost(command: str) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of one run."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "gridhfk.cli", *command.split()],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    return wall, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def summary(command: str, runs: list[tuple[float, float, int]]) -> str:
    """The ``--repeat`` line of one command's runs."""
    walls = [wall for wall, _, _ in runs]
    q1, p50, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    rss = statistics.median(r for _, r, _ in runs)
    codes = ",".join(sorted({str(code) for _, _, code in runs}))
    return f"{p50:.3f} {q1:.3f}-{q3:.3f} {rss:.1f} {codes} {command}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="runs of the whole list, round robin (default 1)")
    parser.add_argument("commands", nargs="*",
                        help="commands to run, each one quoted string")
    args = parser.parse_args(argv)
    commands = args.commands or COMMANDS
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")
    if args.repeat == 1:
        for command in commands:
            wall, rss, code = cost(command)
            print(f"{wall:.2f} {rss:.1f} {code} {command}", flush=True)
        return 0
    runs: dict[str, list] = {command: [] for command in commands}
    for _ in range(args.repeat):
        for command in commands:
            runs[command].append(cost(command))
    for command in commands:
        print(summary(command, runs[command]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
