"""Command line driver: grid file in, invariants and reports out.

Subcommands
    homology GRID           bigraded rank table (tilde, hat, or minus)
    alexander GRID          normalized Alexander polynomial
    genus GRID              Seifert genus from the hat table
    fibered GRID            fiberedness from the top Alexander group
    poset stats GRID        poset structure report per Alexander grading
    check invariance GRID   hat table equality along random legal moves
    check signs GRID        solved signs with d^2 = 0 over Z, closed form checked
    moves commute|stabilize|destabilize GRID ...   apply one move

GRID is a path to a grid file (the three-line ``n / X: ... / O: ...``
format, or ``.json``) or an inline ``n;X=...;O=...`` string.

Exit codes: 0 success, 1 usage error, 2 validation or failed check,
3 resource ceiling.  With ``--json`` every error is also mirrored as a
single JSON object on stderr.  Output is deterministic: the same input
and seed produce byte-identical bytes on stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .complexes import (
    DEFAULT_MAX_GRID,
    build_minus_complex,
    build_tilde_complex,
)
from .errors import GridFormatError, ResourceLimit, UnsatisfiableSigns
from .grid import Grid, grid_from_json, parse_grid
from .homology import BigradedRanks, certify_hat, extract_hat, homology

# The invariants, the poset lab, the sign solver and the grid moves are
# imported by the commands that run them, so a process loads only its
# command's modules.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3

# Per-command coefficient defaults.  The table and check commands run the
# cheapest pipeline (F2); the polynomial commands need integer homology to
# report exact coefficients, and fiberedness is undefined without it.
_DEFAULT_COEFF = {
    "homology": "f2",
    "alexander": "z",
    "genus": "z",
    "fibered": "z",
    "poset": "f2",
    "check": "f2",
}


class UsageError(Exception):
    """Command line could not be interpreted; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse front end that reports usage problems as exceptions.

    The stock parser exits the process with status 2, which this tool
    reserves for validation errors, so ``error`` is rerouted.
    """

    def error(self, message):
        raise UsageError(message)


def solve_signs(g: Grid, max_grid: int = DEFAULT_MAX_GRID):
    """``signs.solve_signs``, imported on first use."""
    from .signs import solve_signs

    return solve_signs(g, max_grid)


def poset_stats(*args, **kwargs) -> dict:
    """``poset.poset_stats``, imported on first use."""
    from .poset import poset_stats

    return poset_stats(*args, **kwargs)


def load_grid(source: str) -> Grid:
    """Grid from a file path or an inline ``n;X=...;O=...`` string."""
    if os.path.isfile(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise GridFormatError(f"cannot read {source!r}: {exc}")
        if source.endswith(".json"):
            try:
                return grid_from_json(text)
            except (KeyError, TypeError, ValueError) as exc:
                raise GridFormatError(f"{source!r}: {exc}")
        return parse_grid(text)
    if ";" in source:
        return parse_grid(source)
    raise GridFormatError(
        f"{source!r}: no such file, and not an inline 'n;X=...;O=...' grid")


_SAVED_RLIMIT: list[tuple[int, int]] = []


def _apply_memory_ceiling() -> None:
    """Install GRIDHFK_MAX_MEMORY_MB as an address-space rlimit."""
    raw = os.environ.get("GRIDHFK_MAX_MEMORY_MB")
    if raw is None:
        return
    try:
        megabytes = int(raw)
    except ValueError:
        megabytes = 0
    if megabytes <= 0:
        raise UsageError(
            f"GRIDHFK_MAX_MEMORY_MB must be a positive integer, got {raw!r}")
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = megabytes << 20
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
        _SAVED_RLIMIT.append((soft, hard))
    except (ImportError, OSError):
        pass  # platform without rlimits; the ceiling is best effort there


def _lift_memory_ceiling() -> None:
    """Undo the env ceiling so the error itself can still be reported.

    When the rlimit trips, the pending exception keeps every large frame
    alive, so even formatting the failure message can need fresh memory.
    """
    if not _SAVED_RLIMIT:
        return
    try:
        import resource

        resource.setrlimit(resource.RLIMIT_AS, _SAVED_RLIMIT.pop())
    except (ImportError, OSError, ValueError):
        pass


def _coefficients(args) -> str:
    choice = args.coefficients or _DEFAULT_COEFF[args.command]
    return {"f2": "F2", "z": "Z"}[choice]


def _truncation(args) -> int | None:
    """The minus truncation bound of ``args``: ``--truncate``, default 2."""
    if args.version != "minus":
        if args.truncate is not None:
            raise UsageError("--truncate only applies to --version minus")
        return None
    truncation = 2 if args.truncate is None else args.truncate
    if truncation < 1:
        raise UsageError(f"--truncate must be >= 1, got {truncation}")
    return truncation


def _group_str(coeff: str, free: int, torsion: tuple[int, ...]) -> str:
    base = "F2" if coeff == "F2" else "Z"
    parts = []
    if free:
        parts.append(base if free == 1 else f"{base}^{free}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " + ".join(parts) if parts else "0"


def _print(args, lines: list[str], payload: dict) -> None:
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _fail(code: int, kind: str, message: str, json_mode: bool) -> int:
    if json_mode:
        blob = {"error": {"exit": code, "kind": kind, "message": message}}
        sys.stderr.write(json.dumps(blob, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"gridhfk: {kind} error: {message}\n")
    return code


# ------------------------------------------------------------ subcommands

def _cmd_homology(args) -> int:
    g = load_grid(args.grid)
    coeff = _coefficients(args)
    version = args.version
    truncation = _truncation(args)
    if version == "minus":
        cx = build_minus_complex(g, truncation, coeff, max_grid=args.max_grid)
        ranks = homology(cx)
    else:
        hat = version == "hat"
        cx = build_tilde_complex(g, coeff, max_grid=args.max_grid,
                                 top_half=hat)
        ranks = homology(cx)
        if hat:
            ranks = extract_hat(ranks, g.n)
            certify_hat(g, ranks)

    label = f"minus (d={truncation})" if version == "minus" else version
    lines = [f"{label} homology over {coeff} of the {g.n}x{g.n} grid",
             "   M    A  group"]
    for entry in ranks.to_json_list():
        group = _group_str(coeff, entry["free"], tuple(entry["torsion"]))
        lines.append(f"{entry['m']:>4} {entry['a']:>4}  {group}")
    lines.append(f"total rank {ranks.total_rank}")
    _print(args, lines, {
        "command": "homology",
        "version": version,
        "coefficients": coeff,
        "truncation": truncation,
        "grid": g.to_json_dict(),
        "blocks": ranks.to_json_list(),
        "total_rank": ranks.total_rank,
    })
    return EXIT_OK


def _hat_for(args) -> tuple[Grid, BigradedRanks]:
    from .invariants import hat_homology

    g = load_grid(args.grid)
    coeff = _coefficients(args)
    return g, hat_homology(g, coeff, args.max_grid)


def _cmd_alexander(args) -> int:
    from .invariants import grid_alexander_polynomial

    g = load_grid(args.grid)
    poly = grid_alexander_polynomial(g, _coefficients(args), args.max_grid)
    text = str(poly) + ("  (coefficients mod 2)" if poly.mod2 else "")
    _print(args, [text], {
        "command": "alexander",
        "grid": g.to_json_dict(),
        "polynomial": str(poly),
        "coefficients": [[a, c] for a, c in poly.coeffs],
        "mod2": poly.mod2,
        "degree": poly.degree,
    })
    return EXIT_OK


def _cmd_genus(args) -> int:
    from .invariants import genus

    g, hat = _hat_for(args)
    value = genus(hat)
    _print(args, [str(value)], {
        "command": "genus", "grid": g.to_json_dict(), "genus": value,
    })
    return EXIT_OK


def _cmd_fibered(args) -> int:
    from .invariants import fibered

    g, hat = _hat_for(args)
    value = fibered(hat)
    _print(args, ["true" if value else "false"], {
        "command": "fibered", "grid": g.to_json_dict(), "fibered": value,
    })
    return EXIT_OK


def _cmd_poset_stats(args) -> int:
    g = load_grid(args.grid)
    coeff = _coefficients(args)
    mode = args.version
    truncation = _truncation(args)
    stats = poset_stats(g, mode, truncation, coeff, seed=args.seed,
                        max_grid=args.max_grid)

    head = f"poset stats for the {g.n}x{g.n} grid, mode={mode}"
    if truncation is not None:
        head += f" (d={truncation})"
    lines = [head + f", coefficients={coeff}"]
    for entry in stats["gradings"]:
        sizes = sorted(c["size"] for c in entry["components"])
        lines.append(
            f"A={entry['alexander']}: {entry['elements']} elements, "
            f"{len(sizes)} components, sizes {sizes}")
    parity = stats["parity"]
    tower = stats["tower"]
    el = stats["el"]
    lines.append(
        f"components {stats['components_total']} "
        f"(singletons {stats['singletons']})")
    lines.append(
        f"open intervals: {parity['pairs']} related pairs, "
        f"{parity['odd_open_intervals']} odd "
        f"({'all even' if parity['all_even'] else 'PARITY VIOLATED'})")
    lines.append(
        f"tower: sum d_i d_j = 0 for k <= {tower['max_k']}: "
        f"{'ok' if tower['ok'] else 'FAILED'}; "
        f"d_2(ker d_1) in im d_1: "
        f"{'ok' if tower['del2_in_boundaries'] else 'FAILED'}")
    lines.append(
        f"el-chains: {el['intervals_checked']} intervals checked, "
        f"{el['failures']} failures")
    stats["command"] = "poset-stats"
    _print(args, lines, stats)
    ok = parity["all_even"] and tower["ok"] and \
        tower["del2_in_boundaries"] and el["ok"]
    if not ok:
        return _fail(EXIT_INVALID, "validation",
                     "poset structure check failed", args.json)
    return EXIT_OK


def _cmd_check_invariance(args) -> int:
    from .invariants import check_invariance

    if args.moves < 0:
        raise UsageError(f"--moves must be >= 0, got {args.moves}")
    g = load_grid(args.grid)
    coeff = _coefficients(args)
    report = check_invariance(g, args.moves, seed=args.seed,
                              coefficients=coeff, max_grid=args.max_grid)
    _print(args, [report.summary()], {
        "command": "check-invariance",
        "grid": g.to_json_dict(),
        "coefficients": coeff,
        "seed": args.seed,
        "moves": [list(m) for m in report.moves],
        "tables": len(report.tables),
        "pass": report.ok,
        "summary": report.summary(),
    })
    if not report.ok:
        return _fail(EXIT_INVALID, "validation", report.summary(), args.json)
    return EXIT_OK


def _cmd_check_signs(args) -> int:
    """Solve the axioms, check d^2 = 0 with the solution, and require the
    closed form of ``move_sign`` to meet every constraint."""
    g = load_grid(args.grid)
    signs = solve_signs(g, args.max_grid)
    cx = build_tilde_complex(g, "Z", signs, args.max_grid)
    square_zero = not cx.d_squared()
    cons = signs.constraints
    broken = cons.violation(cons.closed_form())
    ok = square_zero and broken is None
    summary = (
        f"{'PASS' if ok else 'FAIL'}: sign assignment on the {g.n}x{g.n} "
        f"grid ({signs.n_variables} variables, {signs.n_constraints} "
        f"constraints), d^2 {'=' if square_zero else '!='} 0 over Z")
    if broken is not None:
        summary += f"; the closed form fails constraint {broken}"
    _print(args, [summary], {
        "command": "check-signs",
        "grid": g.to_json_dict(),
        "variables": signs.n_variables,
        "constraints": signs.n_constraints,
        "d_squared_zero": square_zero,
        "pass": ok,
        "summary": summary,
    })
    if not ok:
        return _fail(EXIT_INVALID, "validation", summary, args.json)
    return EXIT_OK


def _cmd_moves(args) -> int:
    from .invariants import apply_move
    from .moves import serialize_grid

    g = load_grid(args.grid)
    if args.subcommand == "commute":
        move = ("commute", args.axis, args.index)
    elif args.subcommand == "stabilize":
        move = ("stabilize", args.row, args.variant)
    else:
        move = ("destabilize", args.row, args.col)
    out = apply_move(g, move)
    _print(args, [serialize_grid(out).rstrip("\n")], {
        "command": "moves",
        "move": list(move),
        "grid": out.to_json_dict(),
    })
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _add_common(p: argparse.ArgumentParser, coefficients: bool = True,
                compute: bool = True) -> None:
    p.add_argument("grid", help="grid file path or inline 'n;X=...;O=...'")
    if coefficients:
        p.add_argument("--coefficients", choices=("f2", "z"),
                       help="ground ring (default depends on the command)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable stdout and stderr")
    if compute:
        p.add_argument("--max-grid", type=int, default=DEFAULT_MAX_GRID,
                       help=f"refuse grids larger than this "
                            f"(default {DEFAULT_MAX_GRID})")


def _homology_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--version", choices=("tilde", "hat", "minus"),
                   default="hat", help="complex flavor (default hat)")
    p.add_argument("--truncate", type=int, default=None, metavar="D",
                   help="U-power cutoff for the minus version (default 2)")
    p.set_defaults(func=_cmd_homology)


def _knot_args(func):
    """Fills in a command that takes one grid and reports one invariant."""
    def fill(p: argparse.ArgumentParser) -> None:
        _add_common(p)
        p.set_defaults(func=func)
    return fill


def _poset_args(poset: argparse.ArgumentParser) -> None:
    poset_sub = poset.add_subparsers(dest="subcommand", required=True,
                                     metavar="subcommand")
    p = poset_sub.add_parser("stats", help="per-grading poset report")
    _add_common(p)
    p.add_argument("--version", choices=("hat", "minus"), default="hat",
                   help="poset flavor (default hat)")
    p.add_argument("--truncate", type=int, default=None, metavar="D",
                   help="U-power cutoff for the minus posets (default 2)")
    p.add_argument("--seed", type=int, default=0,
                   help="interval sampling seed (default 0)")
    p.set_defaults(func=_cmd_poset_stats)


def _check_args(check: argparse.ArgumentParser) -> None:
    check_sub = check.add_subparsers(dest="subcommand", required=True,
                                     metavar="subcommand")
    p = check_sub.add_parser("invariance",
                             help="hat table equality along legal moves")
    _add_common(p)
    p.add_argument("--moves", type=int, default=4, metavar="K",
                   help="number of random legal moves (default 4)")
    p.add_argument("--seed", type=int, default=0,
                   help="move sampling seed (default 0)")
    p.set_defaults(func=_cmd_check_invariance)

    p = check_sub.add_parser("signs",
                             help="solve signs and verify d^2 = 0 over Z")
    _add_common(p, coefficients=False)
    p.set_defaults(func=_cmd_check_signs)


def _moves_args(moves: argparse.ArgumentParser) -> None:
    moves_sub = moves.add_subparsers(dest="subcommand", required=True,
                                     metavar="subcommand")
    p = moves_sub.add_parser("commute", help="interchange adjacent annuli")
    _add_common(p, coefficients=False, compute=False)
    p.add_argument("axis", choices=("row", "col"))
    p.add_argument("index", type=int)
    p.set_defaults(func=_cmd_moves)
    p = moves_sub.add_parser("stabilize", help="split one X into a 2x2 block")
    _add_common(p, coefficients=False, compute=False)
    p.add_argument("row", type=int)
    p.add_argument("variant", choices=tuple("abcd"))
    p.set_defaults(func=_cmd_moves)
    p = moves_sub.add_parser("destabilize", help="collapse a 2x2 block")
    _add_common(p, coefficients=False, compute=False)
    p.add_argument("row", type=int)
    p.add_argument("col", type=int)
    p.set_defaults(func=_cmd_moves)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line parser; with ``command``, that command's alone.

    Every top-level command is listed, so the top-level help and an
    unknown command's error read the same either way, but only the
    parser of ``command`` (of every command when None) gets its
    arguments and subcommands: a process runs one command, and filling
    in the others would only cost it start-up time.
    """
    parser = _Parser(prog="gridhfk",
                     description="Knot Floer homology from grid diagrams.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    # (command, help line, what fills in its parser), as help lists them
    for name, blurb, fill in (
            ("homology", "bigraded homology rank table", _homology_args),
            ("alexander", "normalized Alexander polynomial",
             _knot_args(_cmd_alexander)),
            ("genus", "Seifert genus", _knot_args(_cmd_genus)),
            ("fibered", "fiberedness of the knot", _knot_args(_cmd_fibered)),
            ("poset", "poset laboratory", _poset_args),
            ("check", "verification harnesses", _check_args),
            ("moves", "apply a single grid move", _moves_args)):
        p = sub.add_parser(name, help=blurb)
        if command is None or command == name:
            fill(p)
    return parser


def run(argv) -> int:
    """Parse ``argv`` (no program name) and execute; returns the exit code.

    The cycle collector is off while the command runs.  A command fills
    the heap with millions of acyclic tuples and lists (generators, move
    rows, matrix rows), which reference counting frees; each full
    collection would only walk them all again, at a cost that grows with
    the heap and swings with memory traffic.  The address-space limit
    that ``GRIDHFK_MAX_MEMORY_MB`` installs is lifted again on the way
    out, so the caller gets back the limit it had.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        _lift_memory_ceiling()
        if collecting:
            gc.enable()


def _run(argv) -> int:
    json_mode = "--json" in argv
    try:
        _apply_memory_ceiling()
        # the top-level parser has no option that takes a value, so the
        # first argument not starting with "-" names the command
        command = next((a for a in argv if not a.startswith("-")), None)
        args = build_parser(command).parse_args(argv)
        if getattr(args, "max_grid", 2) < 2:
            raise UsageError(f"--max-grid must be >= 2, got {args.max_grid}")
        return args.func(args)
    except UsageError as exc:
        return _fail(EXIT_USAGE, "usage", str(exc), json_mode)
    except SystemExit as exc:  # argparse --help
        return EXIT_OK if exc.code in (None, 0) else EXIT_USAGE
    except (ResourceLimit, MemoryError) as exc:
        _lift_memory_ceiling()
        return _fail(EXIT_RESOURCE, "resource",
                     str(exc) or "memory ceiling exceeded", json_mode)
    except (ValueError, ArithmeticError, UnsatisfiableSigns) as exc:
        # GridFormatError, IllegalCommutation, NotDestabilizable,
        # AsymmetryDetected, InexactDivision, and plain validation.
        return _fail(EXIT_INVALID, "validation", str(exc), json_mode)


def main(argv=None) -> int:
    return run(list(sys.argv[1:]) if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
