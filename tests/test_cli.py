"""Command line driver: outputs, exit codes, JSON mode, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GRANNY9
from conftest import KNOT8 as KNOT8_GRID
from gridhfk import Grid, ResourceLimit, parse_grid, serialize_grid, stabilize
from gridhfk import complexes
from gridhfk.cli import UsageError, build_parser, main
from gridhfk.complexes import MoveTable

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"

TREFOIL = str(FIX / "trefoil5.grid")
UNKNOT = str(FIX / "unknot2.grid")
TORUS34 = str(FIX / "torus34.grid")
GRANNY = str(FIX / "granny.grid")
KNOT8 = (f"8;X={','.join(map(str, KNOT8_GRID.x_cols))}"
         f";O={','.join(map(str, KNOT8_GRID.o_cols))}")


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ------------------------------------------------------------- happy paths

def test_cycle_collector_paused_during_a_command_and_restored(capsys,
                                                               monkeypatch):
    import gc

    import gridhfk.cli as cli

    seen = []
    real = cli._cmd_alexander
    monkeypatch.setattr(cli, "_cmd_alexander",
                        lambda args: seen.append(gc.isenabled()) or real(args))
    assert gc.isenabled()
    assert run(capsys, ["alexander", TREFOIL])[0] == 0
    assert seen == [False] and gc.isenabled()
    gc.disable()
    try:
        assert run(capsys, ["alexander", TREFOIL])[0] == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_alexander_trefoil_exact_output(capsys):
    rc, out, err = run(capsys, ["alexander", TREFOIL])
    assert rc == 0
    assert out == "t - 1 + t^-1\n"
    assert err == ""


def test_genus_unknot_exact_output(capsys):
    rc, out, _ = run(capsys, ["genus", UNKNOT])
    assert rc == 0
    assert out == "0\n"


def test_check_invariance_example_output(capsys):
    rc, out, _ = run(capsys,
                     ["check", "invariance", TREFOIL,
                      "--moves", "3", "--seed", "7"])
    assert rc == 0
    assert out == "PASS: 4/4 HFK-hat tables identical\n"


def test_alexander_torus34(capsys):
    rc, out, _ = run(capsys, ["alexander", TORUS34])
    assert rc == 0
    assert out == "t^3 - t^2 + 1 - t^-2 + t^-3\n"


def test_alexander_reads_the_grid_determinant(capsys):
    """No homology: granny9 over Z prints Delta at once; the ceiling holds."""
    rc, out, _ = run(capsys, ["alexander", GRANNY])
    assert rc == 0
    assert out == "t^2 - 2t + 3 - 2t^-1 + t^-2\n"
    rc, out, err = run(capsys, ["alexander", TORUS34, "--max-grid", "6"])
    assert rc == 3 and out == ""
    assert "exceeds the ceiling 6" in err


def test_alexander_json_coefficients_are_integers(capsys):
    """fig8's hat has M = -1 at A = -1, where (-1) ** M is a float."""
    rc, out, _ = run(capsys, ["alexander", str(FIX / "fig8.grid"), "--json"])
    assert rc == 0
    assert json.loads(out)["coefficients"] == [[1, -1], [0, 3], [-1, -1]]
    assert "1.0" not in out


def test_homology_hat_table(capsys):
    rc, out, _ = run(capsys, ["homology", TREFOIL])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "hat homology over F2 of the 5x5 grid"
    assert lines[-1] == "total rank 3"
    assert len(lines) == 6  # header, column titles, three blocks, total


def test_homology_tilde_z(capsys):
    rc, out, _ = run(capsys,
                     ["homology", UNKNOT, "--version", "tilde",
                      "--coefficients", "z"])
    assert rc == 0
    assert "tilde homology over Z" in out
    assert "total rank 2" in out
    assert " Z" in out and "F2" not in out


def test_homology_minus_truncated_json(capsys):
    rc, out, _ = run(capsys,
                     ["homology", UNKNOT, "--version", "minus",
                      "--truncate", "3", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["version"] == "minus"
    assert data["truncation"] == 3
    got = {(b["m"], b["a"]): b["free"] for b in data["blocks"]}
    for k in range(3):
        assert got[(-2 * k, -k)] == 1


def test_homology_json_payload(capsys):
    rc, out, _ = run(capsys, ["homology", TREFOIL, "--json"])
    data = json.loads(out)
    assert rc == 0
    assert data["command"] == "homology"
    assert data["coefficients"] == "F2"
    assert data["grid"] == {"n": 5, "x_cols": [0, 1, 2, 3, 4],
                            "o_cols": [2, 3, 4, 0, 1]}
    assert data["total_rank"] == 3
    assert sorted(b["a"] for b in data["blocks"]) == [-1, 0, 1]


def test_inline_grid_source(capsys):
    rc, out, _ = run(capsys, ["genus", "2;X=0 1;O=1 0"])
    assert rc == 0
    assert out == "0\n"


def test_json_grid_file(tmp_path, capsys):
    blob = {"n": 2, "x_cols": [0, 1], "o_cols": [1, 0]}
    path = tmp_path / "unknot.json"
    path.write_text(json.dumps(blob))
    rc, out, _ = run(capsys, ["genus", str(path)])
    assert rc == 0
    assert out == "0\n"


@pytest.mark.parametrize("field,value", [
    ("n", 5.0), ("n", True), ("n", "5"),
    ("x_cols", [0.0, 1, 2, 3, 4]), ("x_cols", [True, 1, 2, 3, 4]),
    ("o_cols", [2, 3, "4", 0, 1])])
def test_json_grid_values_must_be_integers(tmp_path, capsys, field, value):
    """Floats, bools and strings are refused with exit 2, not coerced."""
    blob = {"n": 5, "x_cols": [0, 1, 2, 3, 4], "o_cols": [2, 3, 4, 0, 1]}
    blob[field] = value
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(blob))
    for argv in (["homology", str(path), "--json"],
                 ["poset", "stats", str(path), "--json"],
                 ["moves", "stabilize", str(path), "0", "a", "--json"]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, ""), argv
        error = json.loads(err)["error"]
        assert error["kind"] == "validation"
        assert f"{field}: " in error["message"]
        assert "is not an integer" in error["message"]


def test_alexander_f2_is_flagged(capsys):
    rc, out, _ = run(capsys,
                     ["alexander", TREFOIL, "--coefficients", "f2"])
    assert rc == 0
    assert out == "t + 1 + t^-1  (coefficients mod 2)\n"


def test_fibered_true_and_false(capsys):
    rc, out, _ = run(capsys, ["fibered", TREFOIL])
    assert (rc, out) == (0, "true\n")
    # twist knot with Alexander polynomial 2t - 3 + 2/t: top rank 2
    rc, out, _ = run(capsys, ["fibered", "7;X=0 1 2 3 4 6 5;O=2 4 6 5 0 3 1"])
    assert (rc, out) == (0, "false\n")


def test_check_signs_pass(capsys):
    rc, out, _ = run(capsys, ["check", "signs", TREFOIL])
    assert rc == 0
    assert out.startswith("PASS: sign assignment on the 5x5 grid")
    assert "d^2 = 0 over Z" in out


def test_check_signs_json(capsys):
    rc, out, _ = run(capsys, ["check", "signs", UNKNOT, "--json"])
    data = json.loads(out)
    assert rc == 0
    assert data["pass"] is True
    assert data["d_squared_zero"] is True
    assert data["variables"] > 0 and data["constraints"] > 0


def test_check_signs_fails_a_closed_form_that_breaks_an_axiom(
        capsys, monkeypatch):
    """All +1 signs give every vertical annulus the product +1."""
    monkeypatch.setattr("gridhfk.closed_signs.signer",
                        lambda n: lambda x, rids: [1] * len(rids))
    rc, out, err = run(capsys, ["check", "signs", TREFOIL])
    assert rc == 2
    assert out.startswith("FAIL: sign assignment on the 5x5 grid")
    assert "d^2 = 0 over Z; the closed form fails constraint" in out
    assert err.startswith("gridhfk: validation error: FAIL")


def test_poset_stats_text(capsys):
    rc, out, _ = run(capsys, ["poset", "stats", TREFOIL])
    assert rc == 0
    assert "components 25 (singletons 22)" in out
    assert "all even" in out
    assert "0 failures" in out
    assert "A=-2: 46 elements, 1 components, sizes [46]" in out


def test_poset_stats_json(capsys):
    rc, out, _ = run(capsys, ["poset", "stats", TREFOIL, "--json"])
    data = json.loads(out)
    assert rc == 0
    assert data["components_total"] == 25
    assert data["singletons"] == 22
    assert data["parity"]["all_even"] is True
    assert data["tower"]["ok"] is True
    assert data["el"]["ok"] is True


def test_poset_stats_minus_mode(capsys):
    rc, out, _ = run(capsys,
                     ["poset", "stats", "3;X=0 1 2;O=1 2 0",
                      "--version", "minus", "--truncate", "2", "--json"])
    data = json.loads(out)
    assert rc == 0
    assert data["mode"] == "minus"
    assert data["truncation"] == 2
    assert data["parity"]["all_even"] is True


# ------------------------------------------------------------------ moves

def test_moves_stabilize_destabilize_roundtrip(capsys, tmp_path):
    rc, out, _ = run(capsys, ["moves", "stabilize", UNKNOT, "0", "a"])
    assert rc == 0
    stabilized = parse_grid(out)
    assert stabilized.n == 3
    path = tmp_path / "stab.grid"
    path.write_text(out)
    # the new 2x2 block sits in rows 0..1; find its collapsible corner
    rc, out2, _ = run(capsys, ["moves", "destabilize", str(path), "0", "0"])
    assert rc == 0
    assert parse_grid(out2).n == 2


def test_moves_commute_matches_library(capsys, tmp_path):
    g = stabilize(Grid(5, (0, 1, 2, 3, 4), (2, 3, 4, 0, 1)), 0, "a")
    path = tmp_path / "stab5.grid"
    path.write_text(serialize_grid(g))
    rc, out, _ = run(capsys, ["moves", "commute", str(path), "row", "5"])
    assert rc == 0
    from gridhfk import commute
    assert parse_grid(out) == commute(g, "row", 5)


def test_moves_json_grid_payload(capsys):
    rc, out, _ = run(capsys,
                     ["moves", "stabilize", UNKNOT, "0", "a", "--json"])
    data = json.loads(out)
    assert rc == 0
    assert data["move"] == ["stabilize", 0, "a"]
    assert data["grid"]["n"] == 3


# ------------------------------------------------------------- exit codes

def test_usage_errors_exit_1(capsys):
    for argv in (["bogus"],
                 ["homology"],
                 ["homology", UNKNOT, "--coefficients", "gf3"],
                 ["homology", UNKNOT, "--truncate", "3"],
                 ["poset", "stats", UNKNOT, "--version", "tilde"],
                 ["check", "invariance", UNKNOT, "--threads", "0"]):
        rc, out, err = run(capsys, argv)
        assert rc == 1, argv
        assert out == ""
        assert err.startswith("gridhfk: usage error:")


def test_negative_moves_is_a_usage_error(capsys):
    rc, out, err = run(capsys, ["check", "invariance", TREFOIL,
                                "--moves", "-1"])
    assert (rc, out) == (1, "")
    assert err == "gridhfk: usage error: --moves must be >= 0, got -1\n"


def test_max_grid_below_two_is_a_usage_error(capsys, monkeypatch):
    """No grid is smaller than 2, so a lower ceiling is a bad option, not
    a resource refusal."""
    def refuse(*args):
        raise AssertionError("a grid was loaded before --max-grid was checked")

    monkeypatch.setattr("gridhfk.cli.load_grid", refuse)
    for argv in (["homology", TREFOIL, "--max-grid", "-3"],
                 ["genus", TREFOIL, "--max-grid", "1"],
                 ["poset", "stats", TREFOIL, "--max-grid", "0"],
                 ["check", "invariance", TREFOIL, "--max-grid", "1"]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (1, ""), argv
        assert err == (f"gridhfk: usage error: --max-grid must be >= 2, "
                       f"got {argv[-1]}\n")


def test_truncate_checked_before_any_work(capsys, monkeypatch):
    """A bad --truncate is refused before any sign is computed."""
    def refuse(*args):
        raise AssertionError("signer ran before --truncate was checked")

    monkeypatch.setattr("gridhfk.closed_signs.signer", refuse)
    for argv in (["homology", TORUS34, "--version", "minus"],
                 ["homology", TORUS34],
                 ["poset", "stats", TREFOIL, "--version", "minus"],
                 ["poset", "stats", TREFOIL]):
        bad = argv + ["--coefficients", "z", "--truncate",
                      "0" if "minus" in argv else "2"]
        rc, out, err = run(capsys, bad)
        assert rc == 1, bad
        assert out == ""
        assert err.startswith("gridhfk: usage error: --truncate"), bad


# ------------------------------------------------------------- the parser

_COMMANDS = ["homology", "alexander", "genus", "fibered", "poset", "check",
             "moves"]
_COMMAND_PATHS = [[], *([c] for c in _COMMANDS), ["poset", "stats"],
                  ["check", "invariance"], ["check", "signs"],
                  ["moves", "commute"], ["moves", "stabilize"],
                  ["moves", "destabilize"]]


def _help(parser, path, capsys) -> str:
    with pytest.raises(SystemExit) as stop:
        parser.parse_args([*path, "--help"])
    assert stop.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("path", _COMMAND_PATHS,
                         ids=lambda path: " ".join(path) or "top")
def test_the_lazy_parser_helps_as_the_full_one(path, capsys, monkeypatch):
    """``build_parser(command)`` fills in that command alone, which no
    help text may show: the CLI's own help, and the top-level help of a
    parser built for any command, equal the full parser's."""
    monkeypatch.setenv("COLUMNS", "80")
    full = _help(build_parser(), path, capsys)
    assert full.startswith("usage: gridhfk")
    rc, out, _ = run(capsys, [*path, "--help"])
    assert (rc, out) == (0, full)
    if path:
        assert _help(build_parser(path[0]), path, capsys) == full
    else:
        for command in _COMMANDS + ["nosuch"]:
            assert _help(build_parser(command), [], capsys) == full


@pytest.mark.parametrize("argv", [
    ["homology", KNOT8, "--version", "hat", "--coefficients", "f2", "--json"],
    ["homology", KNOT8, "--version", "hat", "--coefficients", "z", "--json"],
    ["homology", TREFOIL, "--version", "minus", "--coefficients", "z",
     "--truncate", "2", "--json"],
    ["poset", "stats", TREFOIL, "--version", "hat", "--coefficients", "f2",
     "--seed", "0", "--json"],
], ids=["hat-f2-n8", "hat-z-n7", "minus-z-n5", "poset-n5"])
def test_the_lazy_parser_reads_the_benchmark_argvs_as_the_full_one(argv):
    lazy = build_parser(argv[0]).parse_args(argv)
    assert lazy == build_parser().parse_args(argv)
    assert lazy.func.__name__ in ("_cmd_homology", "_cmd_poset_stats")


@pytest.mark.parametrize("argv", [
    ["nosuch", TREFOIL],
    ["homology", TREFOIL, "--version", "plus"],
    ["poset", "stats"],
], ids=["unknown-command", "bad-version", "missing-grid"])
def test_the_lazy_parser_refuses_as_the_full_one(argv, capsys):
    with pytest.raises(UsageError) as full:
        build_parser().parse_args(argv)
    with pytest.raises(UsageError) as lazy:
        build_parser(argv[0]).parse_args(argv)
    assert str(lazy.value) == str(full.value)
    assert run(capsys, argv) == (1, "", f"gridhfk: usage error: {full.value}\n")


def test_usage_error_json_stderr(capsys):
    rc, _, err = run(capsys, ["homology", "--json"])
    assert rc == 1
    data = json.loads(err)
    assert data["error"]["exit"] == 1
    assert data["error"]["kind"] == "usage"


def test_validation_errors_exit_2(capsys):
    for argv in (["homology", "nosuch.grid"],
                 ["homology", "5;X=0 1 2 3;O=2 3 4 0 1"],
                 ["alexander", "2;X=0 1;O=0 1"],
                 ["fibered", TREFOIL, "--coefficients", "f2"],
                 ["moves", "commute", TREFOIL, "row", "0"],
                 ["moves", "destabilize", TREFOIL, "0", "0"]):
        rc, _, err = run(capsys, argv)
        assert rc == 2, argv
        assert err.startswith("gridhfk: validation error:")


def test_homology_on_a_link_grid_exits_2(capsys):
    """The hat path lists the generators at A >= -1; a link has none integral."""
    hopf = "4;X=0,1,2,3;O=2,3,0,1"
    for argv in (["homology", hopf], ["homology", hopf, "--coefficients", "z"],
                 ["genus", hopf, "--coefficients", "f2"], ["alexander", hopf]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, ""), argv
        assert err == ("gridhfk: validation error: Alexander grading of "
                       "(0, 1, 2, 3) is 1/2; the grid presents a "
                       "multi-component link\n"), argv


@pytest.mark.parametrize("grid", ["6;X=0,1,2,3,4,5;O=1,0,3,2,5,4",
                                  "6;X=0,1,2,3,4,5;O=3,4,5,0,1,2"],
                         ids=["split-unlink3", "torus33"])
def test_knot_commands_on_an_odd_link_exit_2(capsys, grid):
    """Three components leave every A integral; the count refuses them."""
    for argv in (["alexander", grid], ["homology", grid], ["genus", grid],
                 ["fibered", grid], ["poset", "stats", grid],
                 ["check", "invariance", grid, "--moves", "1"]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, ""), argv
        assert err == ("gridhfk: validation error: the grid presents a "
                       "3-component link, not a knot\n"), argv


def test_validation_error_json_stderr(capsys):
    rc, _, err = run(capsys,
                     ["moves", "commute", TREFOIL, "row", "0", "--json"])
    assert rc == 2
    data = json.loads(err)
    assert data["error"]["exit"] == 2
    assert data["error"]["kind"] == "validation"
    assert "interleave" in data["error"]["message"]


def test_resource_ceiling_exit_3(capsys):
    errors = []
    for command in (["homology"], ["check", "invariance", "--moves", "1"]):
        rc, out, err = run(capsys, [*command, GRANNY, "--max-grid", "5",
                                    "--json"])
        assert rc == 3 and out == "", command
        data = json.loads(err)
        assert data["error"]["exit"] == 3
        assert data["error"]["kind"] == "resource"
        errors.append(data)
    assert errors[0] == errors[1]


def test_bad_memory_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("GRIDHFK_MAX_MEMORY_MB", "lots")
    rc, _, err = run(capsys, ["genus", UNKNOT])
    assert rc == 1
    assert "GRIDHFK_MAX_MEMORY_MB" in err


@pytest.mark.parametrize("argv, code", [
    (["homology", TREFOIL], 0),
    (["homology", TREFOIL, "--max-grid", "1"], 1),
    (["homology", "4;X=0,1,2,3;O=2,3,0,1"], 2),
    (["homology", TORUS34, "--version", "minus"], 3),
], ids=["ok", "usage", "validation", "resource"])
def test_run_gives_the_caller_its_memory_limit_back(capsys, monkeypatch,
                                                    argv, code):
    """The ceiling holds while a command runs, and is lifted on every exit.

    Fakes stand in for the rlimit calls, so no real limit is set.
    """
    import resource

    import gridhfk.cli as cli

    unlimited = (resource.RLIM_INFINITY, resource.RLIM_INFINITY)
    limits = {resource.RLIMIT_AS: unlimited}
    installed = []
    monkeypatch.setattr(resource, "getrlimit", limits.__getitem__)
    monkeypatch.setattr(resource, "setrlimit",
                        lambda kind, value: installed.append(value)
                        or limits.__setitem__(kind, value))
    monkeypatch.setenv("GRIDHFK_MAX_MEMORY_MB", "4000")
    for _ in range(3):
        assert run(capsys, argv)[0] == code
        assert limits[resource.RLIMIT_AS] == unlimited
    assert installed == [(4000 << 20, resource.RLIM_INFINITY), unlimited] * 3
    assert cli._SAVED_RLIMIT == []


def test_help_exits_0(capsys):
    for argv in (["--help"], ["homology", "--help"], ["check", "--help"]):
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        assert "usage" in out


# ---------------------------------------------------------- determinism

def test_identical_runs_are_byte_identical(capsys):
    outs = []
    for _ in range(2):
        rc, out, _ = run(capsys,
                         ["poset", "stats", TREFOIL, "--json", "--seed", "3"])
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        rc, out, _ = run(capsys,
                         ["check", "invariance", TREFOIL,
                          "--moves", "3", "--seed", "7", "--json"])
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_invariance_json_records_moves(capsys):
    rc, out, _ = run(capsys,
                     ["check", "invariance", TREFOIL,
                      "--moves", "3", "--seed", "7", "--json"])
    data = json.loads(out)
    assert rc == 0
    assert data["pass"] is True
    assert data["tables"] == 4
    assert len(data["moves"]) == 3
    assert all(m[0] in ("commute", "stabilize", "destabilize")
               for m in data["moves"])


# ---------------------------------------------------------- entry point

def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gridhfk.cli", "alexander", TREFOIL],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "t - 1 + t^-1\n"


_LOADED = """
import contextlib, io, json, sys
from gridhfk.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def _modules_loaded(argv):
    """Exit code and ``sys.modules`` of a fresh process that ran ``argv``."""
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                          capture_output=True, text=True, check=True)
    code, names = json.loads(proc.stdout)
    return code, set(names)


# The sign solver, the grid moves and the dense Smith core: no benchmark
# command loads them.
_OFF_BENCH = {"gridhfk.signs", "gridhfk.moves", "gridhfk.smith"}


@pytest.mark.parametrize("argv,needs,skips", [
    (["homology", TREFOIL, "--coefficients", "f2", "--json"],
     {"gridhfk.homology"},
     {"gridhfk.invariants", "gridhfk.closed_signs", "gridhfk.poset"}
     | _OFF_BENCH),
    (["homology", TREFOIL, "--coefficients", "z", "--json"],
     {"gridhfk.closed_signs"}, {"gridhfk.invariants", "gridhfk.poset"}
     | _OFF_BENCH),
    (["homology", TREFOIL, "--version", "minus", "--coefficients", "z",
      "--truncate", "2", "--json"],
     {"gridhfk.closed_signs"}, {"gridhfk.invariants", "gridhfk.poset"}
     | _OFF_BENCH),
    (["poset", "stats", TREFOIL, "--version", "hat", "--coefficients", "f2",
      "--seed", "0", "--json"],
     {"gridhfk.poset"}, {"gridhfk.invariants", "gridhfk.closed_signs"}
     | _OFF_BENCH),
    (["poset", "stats", TREFOIL, "--version", "hat", "--coefficients", "z",
      "--seed", "0", "--json"],
     {"gridhfk.poset", "gridhfk.closed_signs"}, {"gridhfk.invariants"}
     | _OFF_BENCH),
    (["check", "signs", TREFOIL],
     {"gridhfk.signs", "gridhfk.closed_signs"},
     {"gridhfk.invariants", "gridhfk.poset", "gridhfk.moves"}),
    (["check", "invariance", TREFOIL, "--moves", "1"],
     {"gridhfk.invariants", "gridhfk.moves"},
     {"gridhfk.signs", "gridhfk.poset"}),
    (["moves", "stabilize", TREFOIL, "0", "a"],
     {"gridhfk.moves"},
     {"gridhfk.signs", "gridhfk.closed_signs", "gridhfk.poset",
      "gridhfk.smith"}),
], ids=["hat-f2", "hat-z", "minus-z", "poset-f2", "poset-z", "check-signs",
        "check-invariance", "moves-stabilize"])
def test_a_command_loads_only_the_modules_it_runs(argv, needs, skips):
    """The benchmark's four commands and three others, each in a fresh
    process: no dataclasses or exact rationals on any of them, and the
    invariants, the poset lab, the closed-form signs, the sign solver,
    the grid moves and the dense Smith core only where they run."""
    code, loaded = _modules_loaded(argv)
    assert code == 0
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal"}
    assert needs <= loaded
    assert not loaded & skips


def test_python_m_compiles_the_cli_once():
    """Under ``python -m gridhfk.cli``, ``cli.py`` runs as ``__main__``; a
    module that imported ``gridhfk.cli`` would compile it a second time."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gridhfk.cli",
         "homology", TREFOIL, "--coefficients", "z", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"gridhfk", "gridhfk.complexes", "gridhfk.homology"} <= imported
    assert "gridhfk.cli" not in imported


def test_z_paths_neither_solve_signs_nor_build_the_full_table(
        capsys, monkeypatch):
    """Only ``check signs`` runs the solver over the table of all moves."""
    builds = []

    class Counting(MoveTable):
        def __init__(self, g, cls="", gens=None):
            builds.append(cls)
            super().__init__(g, cls, gens)

    def refuse(*args):
        raise AssertionError("solve_signs ran on a production path")

    monkeypatch.setattr(complexes, "MoveTable", Counting)
    for name in ("gridhfk.signs.solve_signs", "gridhfk.cli.solve_signs"):
        monkeypatch.setattr(name, refuse)
    z = ["--coefficients", "z"]
    for argv in (["homology", TREFOIL, *z],
                 ["homology", TREFOIL, *z, "--version", "tilde"],
                 ["homology", TREFOIL, *z, "--version", "minus"],
                 ["genus", TREFOIL],
                 ["fibered", TREFOIL],
                 ["check", "invariance", TREFOIL, *z, "--moves", "2"],
                 ["poset", "stats", TREFOIL, *z],
                 ["poset", "stats", TREFOIL, *z, "--version", "minus"]):
        builds.clear()
        rc, _, err = run(capsys, argv)
        assert rc == 0, (argv, err)
        assert builds and "" not in builds, argv
    with pytest.raises(AssertionError, match="solve_signs ran"):
        main(["check", "signs", TREFOIL])


def test_z_invariance_along_stabilizations_to_n8(capsys):
    """Seed 7 stabilizes trefoil5 to n = 6, 7 and 8; the hat stays put."""
    rc, out, _ = run(capsys, ["check", "invariance", TREFOIL,
                              "--coefficients", "z", "--moves", "3",
                              "--seed", "7"])
    assert rc == 0
    assert out == "PASS: 4/4 HFK-hat tables identical\n"


def test_knot8_z_hat(capsys):
    rc, out, _ = run(capsys, ["homology", KNOT8, "--coefficients", "z"])
    assert rc == 0
    assert out == ("hat homology over Z of the 8x8 grid\n"
                   "   M    A  group\n"
                   "   0    0  Z\n"
                   "total rank 1\n")


def test_fibered_granny_under_a_memory_ceiling():
    """The Z hat reads no table of all 9! generators, so 300 MB is plenty."""
    env = dict(os.environ, GRIDHFK_MAX_MEMORY_MB="300")
    proc = subprocess.run(
        [sys.executable, "-m", "gridhfk.cli", "fibered", GRANNY],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "true\n", "")


def test_memory_ceiling_subprocess_exit_3():
    """``check signs`` still builds the table of all 9! generators."""
    env = dict(os.environ, GRIDHFK_MAX_MEMORY_MB="200")
    proc = subprocess.run(
        [sys.executable, "-m", "gridhfk.cli", "check", "signs", GRANNY,
         "--json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    data = json.loads(proc.stderr)
    assert data["error"]["kind"] == "resource"


def test_move_table_refused_over_address_space_limit(monkeypatch):
    """Under a 150 MB RLIMIT_AS the n = 9 table is refused before any work."""
    import resource

    monkeypatch.setattr(resource, "getrlimit",
                        lambda kind: (150 << 20, resource.RLIM_INFINITY))
    with pytest.raises(ResourceLimit, match="address-space limit"):
        MoveTable(GRANNY9)
