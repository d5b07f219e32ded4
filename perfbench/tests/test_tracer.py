import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
from knots import FIXTURES
from workloads import WORKLOADS, Job

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_every_wrapper_target_exists():
    for module, attr, name in tracer.TARGETS:
        owner, leaf = tracer.resolve(module, attr)
        assert callable(getattr(owner, leaf)), (module, attr)


def test_resolve_reaches_the_homology_module_not_the_function():
    owner, leaf = tracer.resolve("gridhfk.homology", "f2_rank")
    assert owner is sys.modules["gridhfk.homology"]


def traced_run(job: Job, tmp_path: Path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(spans), "0",
         *job.argv], capture_output=True, env=ENV, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(spans.read_text())


# Small stand-ins for each workload's jobs: same command, smaller grid.
SMALL = {
    "hat-f2-n8": Job(FIXTURES["trefoil5"]["grid"], "hat", "F2"),
    "hat-z-n7": Job(FIXTURES["trefoil5"]["grid"], "hat", "Z"),
    "minus-z-n5": Job(FIXTURES["trefoil5"]["grid"], "minus", "Z", 2),
    "poset-n5": Job(FIXTURES["trefoil5"]["grid"], "poset", "F2"),
}
COMMON = {"cli.s", "complexes.move_table_s", "complexes.moves", "gradings.s",
          "gradings.calls", "homology.s", "homology.d_squared_s"}
COMPLEX = {"complexes.build_s", "complexes.basis", "complexes.diff_entries",
           "complexes.read_ratio"}
SIGNS = {"signs.solve_s", "signs.variables", "signs.constraints",
         "signs.read_ratio", "linalg.invariant_factors_s",
         "linalg.invariant_factors_calls", "linalg.z_nnz",
         "linalg.z_max_rows"}
F2 = {"linalg.f2_rank_s", "linalg.f2_rows"}
RUNS = {
    "hat-f2-n8": COMMON | COMPLEX | F2 | {"homology.extract_hat_s"},
    "hat-z-n7": COMMON | COMPLEX | SIGNS | {"homology.extract_hat_s"},
    "minus-z-n5": COMMON | COMPLEX | SIGNS,
    "poset-n5": COMMON | F2 | {
        "poset.build_s", "poset.components_s", "poset.leq_s",
        "poset.leq_calls", "complexes.connecting_domain_calls",
        "poset.interval_s", "poset.tower_s", "poset.el_s", "poset.pairs"},
}


def test_wrapped_and_unwrapped_runs_print_identical_stdout(tmp_path):
    job = SMALL["hat-z-n7"]
    plain = subprocess.run([sys.executable, "-m", "gridhfk.cli", *job.argv],
                           capture_output=True, env=ENV, cwd=ROOT,
                           timeout=120)
    assert plain.returncode == 0
    stdout, _ = traced_run(job, tmp_path)
    assert stdout == plain.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metrics_present_where_the_layer_runs(workload, tmp_path):
    _, record = traced_run(SMALL[workload], tmp_path)
    metrics = run.layer_metrics([record], 1.2, 1.0)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} == set(metrics)
    for name in RUNS[workload]:
        assert metrics[name][0] > 0, name
    assert abs(sum(metrics[f"share.{x}"][0] for x in run.LAYERS) - 1) < 1e-9
    spans = record["spans"]
    assert spans[0][1] == "cli.run" and spans[0][4] is None
    assert all(s[4] is not None for s in spans[1:])


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poset-n5",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, cwd=tmp_path, env=dict(os.environ),
        timeout=120)
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
