import contextlib
import io
import itertools
import json
import random

import pytest

import check as checker
from knots import FIXTURES, random_knot
from workloads import Job

from gridhfk import cli
from gridhfk.gradings import alexander, maslov


def cli_json(job: Job) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(job.argv) == 0
    return json.loads(buf.getvalue())


def verdict(job, out: dict):
    return checker.check(job, json.dumps(out).encode())


def small_knots(n, k, seed=7):
    rng = random.Random(seed)
    return [random_knot(n, rng) for _ in range(k)]


@pytest.mark.parametrize("grid", small_knots(4, 3) + small_knots(5, 3))
def test_shortcuts_match_package_gradings(grid):
    n, x_cols, o_cols = grid
    from gridhfk.grid import Grid
    g = Grid(n, x_cols, o_cols)
    table, k4 = checker.a4_table(grid)
    parity = None
    for x in itertools.permutations(range(n)):
        assert sum(table[r][c] for r, c in enumerate(x)) + k4 == \
            4 * alexander(g, x)
        inversions = sum(x[i] > x[j] for i in range(n)
                         for j in range(i + 1, n))
        rel = (maslov(g, x) + inversions) % 2
        assert parity in (None, rel)
        parity = rel
    assert checker.maslov_direct(tuple(range(n)), o_cols) == \
        maslov(g, tuple(range(n)))
    chi, count = checker.generator_sums(grid)
    assert sum(count.values()) == len(list(itertools.permutations(range(n))))
    assert sum(chi.values()) == 0  # (1 - 1/t)^(n-1) vanishes at t = 1


def fixture_job(name, version="hat", coefficients="F2", truncation=None):
    return Job(FIXTURES[name]["grid"], version, coefficients, truncation,
               name)


@pytest.mark.parametrize("job", [
    fixture_job("trefoil5"),
    fixture_job("trefoil5", coefficients="Z"),
    fixture_job("trefoil5", "poset"),
    fixture_job("trefoil5", "minus", "Z", 2),
    *[Job(g, "hat", "Z") for g in small_knots(5, 2)],
    *[Job(g, "minus", "F2", 2) for g in small_knots(4, 2)],
    *[Job(g, "poset", "F2") for g in small_knots(4, 2)],
])
def test_correct_outputs_pass(job):
    assert verdict(job, cli_json(job)) is None


@pytest.mark.parametrize("job", [
    fixture_job("trefoil5"),
    fixture_job("trefoil5", "minus", "Z", 2),
    Job(small_knots(5, 1)[0], "hat", "F2"),
])
def test_one_rank_changed_fails(job):
    out = cli_json(job)
    out["blocks"][0]["free"] += 1
    out["total_rank"] += 1
    assert verdict(job, out) is not None


def test_poset_component_rank_or_size_changed_fails():
    job = fixture_job("trefoil5", "poset")
    out = cli_json(job)
    bad = json.loads(json.dumps(out))
    bad["gradings"][0]["components"][0]["homology"][0]["free"] += 1
    assert verdict(job, bad) is not None
    bad = json.loads(json.dumps(out))
    bad["gradings"][0]["elements"] += 1
    assert verdict(job, bad) is not None


@pytest.mark.parametrize("version", ["hat", "poset"])
def test_one_delta_coefficient_changed_fails(monkeypatch, version):
    job = fixture_job("trefoil5", version)
    out = cli_json(job)
    facts = dict(FIXTURES["trefoil5"], delta={1: 1, 0: -3, -1: 1})
    monkeypatch.setitem(FIXTURES, "trefoil5", facts)
    assert "Alexander polynomial" in verdict(job, out)


def test_pinned_genus_fibered_and_rank_are_checked(monkeypatch):
    job = fixture_job("trefoil5")
    out = cli_json(job)
    for key, value in (("genus", 2), ("fibered", False), ("total_rank", 5)):
        facts = dict(FIXTURES["trefoil5"], **{key: value})
        monkeypatch.setitem(FIXTURES, "trefoil5", facts)
        assert verdict(job, out) is not None


def test_output_for_another_grid_fails():
    job = fixture_job("trefoil5")
    out = cli_json(job)
    out["grid"]["x_cols"] = out["grid"]["x_cols"][::-1]
    assert verdict(job, out) == "output names another grid"
