#!/usr/bin/env python3
"""Benchmark of the gridhfk CLI on fixed and seeded knot grids.

    python3 perfbench/run.py --workload hat-f2-n8 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

Run from the root of a source checkout; the package is taken from
``src/``.  Each job is one ``gridhfk`` CLI process on one grid, started
after the previous one exits: a closed loop with one client.  Jobs are
taken from the workload (see workloads.py) until the next one would end
past ``--seconds`` of job time.  Every job's stdout is checked by
check.py, and hashed: stdout must be byte-identical to every earlier run
of the same command in this checkout.

--trace 0 reports the end-to-end metrics:
  grids_per_s   jobs that passed per second of summed job wall time
  job_s_p50     median job wall time, process start to exit
  peak_rss_mb   median over jobs of each job's peak RSS (wait4 rusage);
                the highest is in the results record
  setup_s       median time of a fresh interpreter that imports
                gridhfk.cli, loads the workload's first grid and exits
  passed_ratio  jobs that passed over jobs attempted

--trace 1 runs each job twice, untraced and under tracer.py, checks that
both print the same bytes, and reports per-layer metrics as means per
job: self times (``*_s``), call counts, sizes, each layer's share of the
traced self time (``share.*``) and the traced over untraced wall time.

Each metric is printed by name and unit, and the last stdout line is one
JSON object: correct, attempted, failed, metrics (with ``--workload all``,
every workload's, prefixed with its name).  A record with the grids, the seed, the source digest, nproc and
the Python version is written under .perfbench/results/, so any job can
be replayed by hand.  Exit status 2 when the package cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from check import check  # noqa: E402
from knots import inline  # noqa: E402
from tracer import layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

JOB_TIMEOUT_S = 60.0
SETUP_REPEATS = 11
LAYERS = ("cli", "complexes", "gradings", "signs", "homology", "linalg",
          "poset")

# Per-layer metric -> recorded names whose self time (or calls) it sums.
SELF_TIME = {
    "cli.s": ["cli.run"],
    "complexes.move_table_s": ["complexes.move_table"],
    "complexes.build_s": ["complexes.build_tilde_complex",
                          "complexes.build_minus_complex"],
    "complexes.connecting_domain_s": ["complexes.connecting_domain"],
    "gradings.s": ["gradings.maslov", "gradings.alexander"],
    "signs.solve_s": ["signs.solve_signs"],
    "homology.s": ["homology.homology"],
    "homology.d_squared_s": ["homology.d_squared"],
    "homology.extract_hat_s": ["homology.extract_hat"],
    "linalg.invariant_factors_s": ["linalg.invariant_factors"],
    "linalg.f2_rank_s": ["linalg.f2_rank"],
    "poset.stats_s": ["poset.poset_stats"],
    "poset.build_s": ["poset.build_poset", "poset.alexander_range"],
    "poset.components_s": ["poset.components"],
    "poset.leq_s": ["poset.leq"],
    "poset.interval_s": ["poset.interval"],
    "poset.tower_s": ["poset.tower_sum", "poset.del2_lands_in_boundaries"],
    "poset.el_s": ["poset.el_increasing_chain_check"],
}
CALLS = {
    "gradings.calls": ["gradings.maslov", "gradings.alexander"],
    "linalg.invariant_factors_calls": ["linalg.invariant_factors"],
    "complexes.connecting_domain_calls": ["complexes.connecting_domain"],
    "poset.leq_calls": ["poset.leq"],
}
SIZES = ["complexes.moves", "complexes.basis", "complexes.diff_entries",
         "signs.variables", "signs.constraints", "linalg.z_nnz",
         "linalg.f2_rows", "poset.pairs"]


class Outcome(NamedTuple):
    wall_s: float
    rss_mb: float
    code: int | None  # None when the job was killed for taking too long
    stdout: bytes
    stderr: bytes


class Runner:
    """Starts child processes one at a time and reaps each with wait4."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        path = [str(ROOT / "src")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def run(self, args: list[str]) -> Outcome:
        """Run ``python3 ARGS``, with a timeout; stdin is /dev/null."""
        out, err = self.scratch / "stdout", self.scratch / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        timed_out = []

        def on_alarm(signum, frame):
            timed_out.append(True)
            os.kill(pid, signal.SIGKILL)

        start = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args],
                             self.env, file_actions=actions)
        previous = signal.signal(signal.SIGALRM, on_alarm)
        try:
            signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
            _, status, usage = os.wait4(pid, 0)
            wall = perf_counter() - start
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        code = None if timed_out else os.waitstatus_to_exitcode(status)
        return Outcome(wall, usage.ru_maxrss / 1024, code, out.read_bytes(),
                       err.read_bytes())


def measure_setup(runner: Runner, grid: str) -> float:
    """Median time to start, import gridhfk.cli, load one grid and exit."""
    code = ("import sys, gridhfk.cli\n"
            "if not gridhfk.cli.__file__.startswith(sys.argv[1]):\n"
            "    sys.exit('gridhfk imported from ' + gridhfk.cli.__file__)\n"
            "gridhfk.cli.load_grid(sys.argv[2])\n")
    times = []
    for _ in range(SETUP_REPEATS):
        outcome = runner.run(["-c", code, str(ROOT / "src"), grid])
        if outcome.code != 0:
            raise RuntimeError(
                f"cannot import gridhfk.cli from src/: "
                f"{outcome.stderr.decode(errors='replace').strip()}")
        times.append(outcome.wall_s)
    return statistics.median(times)


class StdoutLedger:
    """sha256 of each command's stdout, kept across the runs in a checkout."""

    def __init__(self, path: Path):
        self.path = path
        self.digests = json.loads(path.read_text()) if path.exists() else {}

    def differs(self, argv: list[str], stdout: bytes) -> bool:
        digest = hashlib.sha256(stdout).hexdigest()
        return self.digests.setdefault(" ".join(argv), digest) != digest

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, sort_keys=True, indent=0))
        os.replace(tmp, self.path)


def verdict(job, outcome: Outcome, ledger: StdoutLedger) -> str | None:
    """None when the job passed, else why it failed."""
    if outcome.code is None:
        return f"timed out after {JOB_TIMEOUT_S:.0f} s"
    if outcome.code != 0:
        tail = outcome.stderr.decode(errors="replace").strip()[-300:]
        return f"exit {outcome.code}: {tail}"
    if ledger.differs(job.argv, outcome.stdout):
        return "stdout differs from an earlier run of the same command"
    return check(job, outcome.stdout)


def layer_metrics(records: list[dict], traced_s: float,
                  untraced_s: float) -> dict:
    """Per-layer metrics from the traced jobs' records, as means per job."""
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    sizes: dict[str, float] = {}
    for rec in records:
        for _, name, _, _, _, own in rec["spans"]:
            self_t[name] = self_t.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        for name, (count, _, own) in rec["agg"].items():
            self_t[name] = self_t.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + count
        for key, value in rec["sizes"].items():
            if key == "linalg.z_max_rows":
                sizes[key] = max(sizes.get(key, 0), value)
            else:
                sizes[key] = sizes.get(key, 0) + value
    jobs = len(records)
    metrics = {}
    for key, names in SELF_TIME.items():
        metrics[key] = (sum(self_t.get(n, 0.0) for n in names) / jobs, "s")
    for key, names in CALLS.items():
        metrics[key] = (sum(calls.get(n, 0) for n in names) / jobs, "count")
    for key in SIZES:
        metrics[key] = (sizes.get(key, 0) / jobs, "count")
    metrics["linalg.z_max_rows"] = (sizes.get("linalg.z_max_rows", 0),
                                    "count")
    moves = sizes.get("complexes.moves", 0)
    metrics["complexes.read_ratio"] = (
        sizes.get("complexes.kept", 0) / moves if moves else 0.0, "ratio")
    variables = sizes.get("signs.variables", 0)
    metrics["signs.read_ratio"] = (
        sizes.get("signs.kept", 0) / variables if variables else 0.0,
        "ratio")
    total = sum(self_t.values())
    for name in LAYERS:
        part = sum(t for n, t in self_t.items() if layer(n) == name)
        metrics[f"share.{name}"] = (part / total if total else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return metrics


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gridhfk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object of the last stdout line."""
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    ledger = StdoutLedger(STATE / "stdout_sha256.json")
    with tempfile.TemporaryDirectory(dir=STATE) as scratch:
        runner = Runner(Path(scratch))
        jobs = workload.jobs(seed)
        job = next(jobs)
        setup_s = measure_setup(runner, inline(job.grid))

        log, walls, rss, records = [], [], [], []
        traced_s = untraced_s = elapsed = 0.0
        while True:
            entry = {"job": len(log), "argv": ["gridhfk", *job.argv]}
            result = runner.run(["-m", "gridhfk.cli", *job.argv])
            reason = verdict(job, result, ledger)
            cost = result.wall_s
            if trace:
                spans = Path(scratch) / "spans.json"
                traced = runner.run([str(HERE / "tracer.py"), str(spans),
                                     str(len(log)), *job.argv])
                if reason is None:
                    reason = verdict(job, traced, ledger)
                if reason is None:
                    records.append(json.loads(spans.read_text()))
                untraced_s += result.wall_s
                traced_s += traced.wall_s
                cost += traced.wall_s
                entry["traced_wall_s"] = traced.wall_s
            walls.append(result.wall_s)
            rss.append(result.rss_mb)
            elapsed += cost
            entry.update(wall_s=result.wall_s, peak_rss_mb=result.rss_mb,
                         exit=result.code, failure=reason)
            log.append(entry)
            print(f"job {entry['job']:3d} {result.wall_s:7.3f} s "
                  f"{result.rss_mb:7.1f} MB "
                  f"{'ok' if reason is None else 'FAIL'}"
                  f"  {' '.join(entry['argv'])}"
                  + ("" if reason is None else f"\n    {reason}"))
            if elapsed + cost > seconds:  # the next job would likely overrun
                break
            job = next(jobs)
    ledger.save()

    failed = sum(e["failure"] is not None for e in log)
    passed = len(log) - failed
    if trace:
        metrics = layer_metrics(records, traced_s, untraced_s) if records \
            else {}
    else:
        metrics = {
            "grids_per_s": (passed / sum(walls), "1/s"),
            "job_s_p50": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "setup_s": (setup_s, "s"),
            "passed_ratio": (passed / len(log), "ratio"),
        }
    print(f"{workload.name}: {len(log)} jobs, {failed} failed, job time "
          f"{sum(walls):.2f} s, median job {statistics.median(walls):.3f} s "
          f"over {len(walls)} samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "commit": commit(),
        "source_sha256": source_digest(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "max_peak_rss_mb": max(rss),
        "jobs": log, "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    name = f"{workload.name}.seed{seed}.trace{int(trace)}.json"
    (STATE / "results" / name).write_text(json.dumps(record, indent=1))
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(log),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Let a termination request unwind, so the running job is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not (ROOT / "src" / "gridhfk" / "cli.py").is_file():
        print(f"perfbench: no gridhfk sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(WORKLOADS[name], args.seed,
                                         args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
    if len(results) == 1:
        (result,) = results.values()
    else:  # metric names prefixed with the workload's
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
