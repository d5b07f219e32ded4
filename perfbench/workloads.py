"""The benchmark's workloads: which CLI jobs run, on which grids, and why.

Each workload runs its fixed knots first, then an endless stream of knots
drawn from the workload seed; a run takes jobs from the front until its
time is used up.  Costs quoted are single CLI runs on a 2-core x86 machine
with Python 3.11.
"""

from __future__ import annotations

from dataclasses import dataclass

from knots import FIXTURES, inline, seeded_knots


@dataclass(frozen=True)
class Job:
    """One CLI invocation on one grid, with what its output must satisfy."""

    grid: tuple
    version: str  # "hat", "minus" or "poset"
    coefficients: str  # "F2" or "Z", as the CLI reports it
    truncation: int | None = None
    fixture: str | None = None

    @property
    def facts(self) -> dict:
        return FIXTURES[self.fixture]

    @property
    def argv(self) -> list[str]:
        """Arguments after ``gridhfk``."""
        grid = inline(self.grid)
        coeff = ["--coefficients", self.coefficients.lower()]
        if self.version == "poset":
            return ["poset", "stats", grid, "--version", "hat", *coeff,
                    "--seed", "0", "--json"]
        argv = ["homology", grid, "--version", self.version, *coeff]
        if self.truncation is not None:
            argv += ["--truncate", str(self.truncation)]
        return argv + ["--json"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixed: tuple  # fixture names
    n: int  # size of the seeded grids
    version: str
    coefficients: str
    truncation: int | None = None

    def jobs(self, seed: int):
        """Fixed jobs, then seeded ones, without end."""
        for name in self.fixed:
            yield Job(FIXTURES[name]["grid"], self.version, self.coefficients,
                      self.truncation, name)
        for grid in seeded_knots(self.n, self.name, seed):
            yield Job(grid, self.version, self.coefficients, self.truncation)


WORKLOADS = {w.name: w for w in (
    # ~5 s per job; the move table and the gradings take ~90%, and the hat
    # reads only the marking-free ~20% of the n=8 table.  No sign solve.
    Workload("hat-f2-n8",
             "F2 hat at n=8: the move table and the gradings dominate",
             ("knot8",), 8, "hat", "F2"),
    # ~5-6 s per job, 85-90% in solve_signs, which reads the whole table.
    Workload("hat-z-n7",
             "Z hat at n=7: the sign solve over the whole move table "
             "dominates",
             ("torus34", "twist52"), 7, "hat", "Z"),
    # d=2: 3,840 basis elements, ~0.4 s per job, over half of it in
    # invariant_factors.  At d=3 a job takes 7-12 s: too few per run, and
    # each too sensitive to the machine's speed, for a steady rate.
    Workload("minus-z-n5",
             "truncated minus over Z at n=5: integer elimination dominates",
             ("trefoil5",), 5, "minus", "Z", 2),
    # 0.3-0.9 s per job, mostly GridPoset.leq -> connecting_domain.
    Workload("poset-n5",
             "poset stats at n=5: order queries through leq dominate",
             ("trefoil5",), 5, "poset", "F2"),
)}
