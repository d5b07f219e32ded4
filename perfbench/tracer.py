"""Timing wrappers around the package's public functions, for the traced pass.

Run as ``python3 perfbench/tracer.py SPANS_OUT JOB_ID CLI_ARGS...``: it
installs the wrappers, calls ``gridhfk.cli.run(CLI_ARGS)``, writes the
recorded spans to SPANS_OUT and exits with the CLI's exit code.  Stdout is
the CLI's own and must match an untraced run byte for byte.

Wrappers sit at the names the callers use (``gridhfk.signs.move_table``,
``gridhfk.cli.solve_signs``, ``GridPoset.leq`` ...), because each module
binds its own reference at import.  Calls made once or a few times per
job record a span (name, start, end, parent, job id).  Calls made once per
generator or per related pair only add to a count and a total.  A call's
self time is its duration minus the time of the wrapped calls inside it,
kept on a stack as the calls happen.  Spans stay in memory until exit.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, attribute, recorded name).  The same name under several
# modules is one function reached through several callers.
TARGETS = [
    ("gridhfk.cli", "run", "cli.run"),
    ("gridhfk.cli", "solve_signs", "signs.solve_signs"),
    ("gridhfk.cli", "build_tilde_complex", "complexes.build_tilde_complex"),
    ("gridhfk.cli", "build_minus_complex", "complexes.build_minus_complex"),
    ("gridhfk.cli", "homology", "homology.homology"),
    ("gridhfk.cli", "extract_hat", "homology.extract_hat"),
    ("gridhfk.cli", "poset_stats", "poset.poset_stats"),
    ("gridhfk.complexes", "move_table", "complexes.move_table"),
    ("gridhfk.signs", "move_table", "complexes.move_table"),
    ("gridhfk.poset", "move_table", "complexes.move_table"),
    ("gridhfk.complexes", "maslov", "gradings.maslov"),
    ("gridhfk.complexes", "alexander", "gradings.alexander"),
    ("gridhfk.poset", "maslov", "gradings.maslov"),
    ("gridhfk.poset", "alexander", "gradings.alexander"),
    ("gridhfk.complexes", "ChainComplex.d_squared", "homology.d_squared"),
    ("gridhfk.homology", "f2_rank", "linalg.f2_rank"),
    ("gridhfk.homology", "invariant_factors", "linalg.invariant_factors"),
    ("gridhfk.poset", "homology", "homology.homology"),
    ("gridhfk.poset", "connecting_domain", "complexes.connecting_domain"),
    ("gridhfk.poset", "GridPoset.leq", "poset.leq"),
    ("gridhfk.poset", "build_poset", "poset.build_poset"),
    ("gridhfk.poset", "alexander_range", "poset.alexander_range"),
    ("gridhfk.poset", "components", "poset.components"),
    ("gridhfk.poset", "interval", "poset.interval"),
    ("gridhfk.poset", "tower_sum", "poset.tower_sum"),
    ("gridhfk.poset", "del2_lands_in_boundaries",
     "poset.del2_lands_in_boundaries"),
    ("gridhfk.poset", "el_increasing_chain_check",
     "poset.el_increasing_chain_check"),
]

# Called once per generator or per related pair: counted, not spanned.
AGGREGATED = {
    "gradings.maslov", "gradings.alexander", "complexes.connecting_domain",
    "poset.leq", "poset.interval", "poset.el_increasing_chain_check",
}


def layer(name: str) -> str:
    """Layer a recorded name belongs to: its module, with one exception.

    connecting_domain lives in complexes, but on the CLI paths only
    GridPoset.leq calls it: it is the poset's order query.
    """
    if name == "complexes.connecting_domain":
        return "poset"
    return name.split(".", 1)[0]


def resolve(module: str, attr: str):
    """(owner, attribute name) of a target.

    ``gridhfk.homology`` as an attribute of the package is the re-exported
    function, so modules are always taken from ``sys.modules``.
    """
    importlib.import_module(module)
    owner = sys.modules[module]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Records spans, per-name aggregates and the sizes the layers handled."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []  # [id, name, start, end, parent, self]
        self.agg: dict[str, list] = {}  # name -> [calls, total, self]
        self.stack: list[list] = []  # [span id or None, child time]
        self.tables: dict[int, object] = {}
        self.complexes: list = []
        self.sizes = {"signs.variables": 0, "signs.constraints": 0,
                      "linalg.z_nnz": 0, "linalg.z_max_rows": 0,
                      "linalg.f2_rows": 0, "poset.pairs": 0}

    def _probe_args(self, name, args):
        """Count rows and nonzeros handed to elimination; returns the args."""
        if name == "linalg.invariant_factors":
            rows = list(args[0])
            self.sizes["linalg.z_nnz"] += sum(map(len, rows))
            self.sizes["linalg.z_max_rows"] = max(
                self.sizes["linalg.z_max_rows"], len(rows))
            return (rows,) + tuple(args[1:])
        if name == "linalg.f2_rank":
            rows = list(args[0])
            self.sizes["linalg.f2_rows"] += len(rows)
            return (rows,) + tuple(args[1:])
        return args

    def _keep_result(self, name, result):
        if name == "complexes.move_table":
            self.tables[id(result)] = result
        elif name.startswith("complexes.build_"):
            self.complexes.append(result)
        elif name == "signs.solve_signs":
            self.sizes["signs.variables"] += result.n_variables
            self.sizes["signs.constraints"] += result.n_constraints
        elif name == "poset.poset_stats":
            self.sizes["poset.pairs"] += result["parity"]["pairs"]

    def wrap(self, fn, name: str):
        spanned = name not in AGGREGATED
        stack = self.stack

        def traced(*args, **kwargs):
            p0 = perf_counter()
            args = self._probe_args(name, args)
            start = perf_counter()
            if stack:  # probing is the tracer's time, nobody's self time
                stack[-1][1] += start - p0
            span_id = len(self.spans) if spanned else None
            if spanned:
                parent = next((f[0] for f in reversed(stack)
                               if f[0] is not None), None)
                self.spans.append([span_id, name, start, None, parent, None])
            frame = [span_id, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                if spanned:
                    self.spans[span_id][3] = end
                    self.spans[span_id][5] = own
                else:
                    entry = self.agg.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += own
            self._keep_result(name, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name in TARGETS:
            owner, leaf = resolve(module, attr)
            setattr(owner, leaf, self.wrap(getattr(owner, leaf), name))

    def record(self) -> dict:
        """Everything recorded, as plain data; counts the move tables now."""
        moves = marking_free = x_free = 0
        for table in self.tables.values():
            for row in table.moves:
                moves += len(row)
                for rid, _ in row:
                    rect = table.rects[rid]
                    if not rect.x_rows:
                        x_free += 1
                        marking_free += not rect.o_rows
        kept = {"tilde": marking_free, "minus": x_free}
        sizes = dict(self.sizes)
        sizes["complexes.moves"] = moves
        sizes["complexes.kept"] = sum(kept[c.version] for c in self.complexes)
        sizes["signs.kept"] = sum(kept[c.version] for c in self.complexes
                                  if c.coefficients == "Z")
        sizes["complexes.basis"] = sum(len(c.labels) for c in self.complexes)
        sizes["complexes.diff_entries"] = sum(
            len(row) for c in self.complexes for row in c.diff)
        return {"job": self.job, "spans": self.spans, "agg": self.agg,
                "sizes": sizes}


def main(argv: list[str]) -> int:
    out_path, job, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(job)
    tracer.install()
    code = sys.modules["gridhfk.cli"].run(cli_args)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.record(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
