#!/usr/bin/env python3
"""Fingerprint the CLI's stdout on a fixed list of commands.

Prints one line per command: ``sha256(stdout) exit-code command``.  Each
command runs in a fresh ``python -m gridhfk.cli`` process against the
``src`` of the checkout that holds this script, from that checkout's
root, so the fixture paths resolve.  Diffing the output of two checkouts
shows whether a change moved any table, report or exit code:

    python3 scripts/cli_stdout.py > before.txt   # in the old checkout
    python3 scripts/cli_stdout.py > after.txt    # in the new one
    diff before.txt after.txt

``cli_stdout.expected`` next to this script holds the output of the
last accepted tree; a change that moves no output reproduces it byte
for byte:

    python3 scripts/cli_stdout.py | diff - scripts/cli_stdout.expected

Stderr is not hashed; timing-free output is the contract only on stdout.
``COLUMNS`` is pinned to 80, the width argparse falls back to when
stdout is a pipe, so the help texts hash the same in any terminal.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# knot8 of the benchmark's fixed jobs, inline
KNOT8 = "8;X=6,4,3,1,5,0,7,2;O=0,1,7,6,2,3,5,4"
# a three-component split unlink: knot invariants refuse it, while the
# tilde table, which needs no knot, prints
UNLINK3 = "6;X=0,1,2,3,4,5;O=1,0,3,2,5,4"
# trefoil5 # trefoil5, a granny knot, at n = 10: the first factor's top
# right X and the second's bottom left X exchange columns
GRANNY10 = "10;X=0,1,2,3,5,4,6,7,8,9;O=2,3,4,0,1,7,8,9,5,6"
# T(3,7) at n = 10: its Z hat signs 1,490,320 moves
T37 = "10;X=0,1,2,3,4,5,6,7,8,9;O=3,4,5,6,7,8,9,0,1,2"
# trefoil5 stabilized at row 0, variant a: unlike trefoil5, it has a
# legal row and column commutation and a destabilization
STAB6 = "6;X=1,0,2,3,4,5;O=0,3,4,5,1,2"

COMMANDS = [
    "homology fixtures/unknot2.grid",
    "homology fixtures/trefoil5.grid",
    "homology fixtures/granny.grid",
    f"homology {KNOT8}",
    f"homology {GRANNY10} --max-grid 10",
    f"homology {GRANNY10} --max-grid 10 --coefficients z",
    f"homology {T37} --max-grid 10 --coefficients z",
    "homology fixtures/fig8.grid --coefficients z",
    "homology fixtures/granny.grid --coefficients z",
    "homology fixtures/torus34.grid --coefficients z --json",
    "homology fixtures/fig8.grid --version tilde",
    "homology fixtures/fig8.grid --version tilde --coefficients z",
    "homology fixtures/trefoil5.grid --version minus --coefficients z",
    "homology fixtures/trefoil5.grid --version minus --truncate 3 "
    "--coefficients z",
    "homology fixtures/fig8.grid --version minus --truncate 2 "
    "--coefficients z --json",
    "homology fixtures/trefoil5.grid --version minus --truncate 3",
    "homology fixtures/fig8.grid --version minus --truncate 2 --json",
    "homology fixtures/granny.grid --version minus",
    "alexander fixtures/granny.grid",
    f"alexander {UNLINK3}",
    f"homology {UNLINK3} --version tilde",
    f"homology {UNLINK3} --version tilde --coefficients z",
    "genus fixtures/torus34.grid",
    "fibered fixtures/torus34.grid",
    "poset stats fixtures/torus34.grid",
    "poset stats fixtures/trefoil5.grid --json",
    "poset stats fixtures/trefoil5.grid --version minus --truncate 2 "
    "--coefficients z",
    "poset stats fixtures/fig8.grid --coefficients z",
    "poset stats fixtures/trefoil5.grid --version minus --truncate 3",
    "poset stats fixtures/torus34.grid --version minus",
    "poset stats fixtures/fig8.grid --version minus --truncate 2",
    "check invariance fixtures/trefoil5.grid --moves 3 --seed 7",
    "check invariance fixtures/trefoil5.grid --moves 3 --seed 7 "
    "--coefficients z",
    "check signs fixtures/torus34.grid",
    "check signs fixtures/fig8.grid --json",
    "--help",
    "homology --help",
    "poset stats --help",
    "check signs --help",
    "moves stabilize --help",
    "moves commute fixtures/trefoil5.grid row 0",
    "moves commute fixtures/trefoil5.grid row 0 --json",
    "moves stabilize fixtures/trefoil5.grid 0 a",
    "moves stabilize fixtures/trefoil5.grid 0 a --json",
    "moves destabilize fixtures/trefoil5.grid 0 0",
    "moves destabilize fixtures/trefoil5.grid 0 0 --json",
    f"moves commute {STAB6} row 5",
    f"moves commute {STAB6} col 5 --json",
    f"moves destabilize {STAB6} 0 0",
    f"moves destabilize {STAB6} 0 0 --json",
]


def fingerprint(command: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONDONTWRITEBYTECODE="1", COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-m", "gridhfk.cli", *command.split()],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    digest = hashlib.sha256(proc.stdout).hexdigest()
    return f"{digest} {proc.returncode} {command}"


def main() -> int:
    for command in COMMANDS:
        print(fingerprint(command), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
