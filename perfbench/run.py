"""kahlerqe benchmark: certify-grid, verify-fs and sweep-flat.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of certify-grid, verify-fs, sweep-flat, or ``all`` to run the
three in turn.  Each repeat is a fresh child interpreter that imports
``kahlerqe.cli`` from ``src/`` and calls ``kahlerqe.cli.main`` in-process.
Without tracing, repeats run while the next one is expected to end within
S seconds (at least two, so artifacts can be compared), and every
end-to-end metric is the median over repeats.  The program's time is
reported in CPU seconds at a reference processor speed (see speed.py),
which leave out both the time a shared host takes the processor away and
the slowdown from what runs beside it; wall and raw CPU times go to the
run record.  With ``--trace 1`` the
run makes one untraced and one traced repeat and reports the per-layer
metrics.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
MIN_REPEATS = 2
MIN_SETUPS = 3
DEADLINE_S = 170.0

# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ref_cpu_s", "s", "lower"),
    ("cells_per_ref_s", "cells/ref_s", "higher"),
    ("points_per_ref_s", "points/ref_s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_frac", "fraction", "higher"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or a child misbehaved)."""


def _git_state():
    """HEAD of the checkout and whether tracked files differ; None outside git.

    The ceiling keeps git from looking for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    if sha.returncode != 0:
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


class Runner:
    """Spawns child repeats for one workload and seed, inside the checkout."""

    def __init__(self, name, seed, work):
        self.name = name
        self.seed = seed
        self.work = work
        self.inputs = os.path.join(work, "inputs")
        self.t0 = time.monotonic()

    def workload(self, tag):
        return workloads.make(self.name, self.seed, self.inputs,
                              os.path.join(self.work, tag))

    def child(self, wl, tag, trace=False, setup_only=False, untraced=None, probe=True):
        """Run one repeat of ``wl`` in a fresh interpreter and return its result.

        ``probe`` runs the speed probe beside the commands."""
        spec_path = os.path.join(self.work, f"{tag}.spec.json")
        result_path = os.path.join(self.work, f"{tag}.result.json")
        spec = {
            "root": ROOT, "commands": list(wl.commands), "configs": list(wl.configs),
            "result": result_path, "log": os.path.join(self.work, f"{tag}.log"),
            "trace": trace, "probe": probe, "setup_only": setup_only,
            "cell_span": wl.cell_span, "cells": wl.cells, "workers": wl.workers,
            "untraced": untraced and {k: untraced[k] for k in ("wall_s", "cell_s")},
        }
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        timeout = DEADLINE_S - (time.monotonic() - self.t0)
        if timeout <= 1.0:
            raise BenchError("out of time before the next repeat")
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"repeat {tag} did not finish within {timeout:.0f} s")
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise BenchError(f"repeat {tag} exited with {proc.returncode}:\n"
                             + out.decode(errors="replace")[-2000:])
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_wall_s"] = result["t_ready"] - t_spawn
        result["setup_s"] = speed.at_reference_speed(result["setup_cpu_s"],
                                                     result["setup_ref_slice_s"])
        return result

    def elapsed(self):
        return time.monotonic() - self.t0


def _outcome(results, wls):
    repeats = [oracle.repeat_ops(wl, r["commands"]) for wl, r in zip(wls, results)]
    oracle.compare_repeats(repeats)
    attempted = sum(len(ops) for ops in repeats)
    failed = sum(1 for ops in repeats for op in ops if op.failure)
    return repeats, attempted, failed


def run_untraced(runner, seconds):
    wls, results = [], []
    # start another repeat only if it is expected to end within ``seconds``
    while (len(results) < MIN_REPEATS
           or runner.elapsed() * (len(results) + 1) / len(results) <= seconds):
        tag = f"rep{len(results)}"
        wl = runner.workload(tag)
        results.append(runner.child(wl, tag))
        wls.append(wl)
    setup_runs = list(results)
    while len(setup_runs) < MIN_SETUPS:
        setup_runs.append(runner.child(wls[0], f"setup{len(setup_runs)}", setup_only=True))
    setups = [r["setup_s"] for r in setup_runs]
    setup_walls = [r["setup_wall_s"] for r in setup_runs]
    repeats, attempted, failed = _outcome(results, wls)

    def per_repeat(fn):
        return statistics.median(fn(wl, r) for wl, r in zip(wls, results))

    def ref_cpu(r):
        return speed.at_reference_speed(r["cpu_s"], r["ref_slice_s"])

    def points(wl, r):
        if runner.name == workloads.VERIFY_FS:
            return workloads.VERIFY_FS_SAMPLES
        if runner.name == workloads.SWEEP_FLAT:
            return workloads.SWEEP_SAMPLES * oracle.built_cells(wl)
        return wl.cells  # each certify cell is one point of the parameter grid

    metrics = {
        "setup_s": statistics.median(setups),
        "ref_cpu_s": per_repeat(lambda wl, r: ref_cpu(r)),
        "cells_per_ref_s": per_repeat(lambda wl, r: wl.cells / ref_cpu(r)),
        "points_per_ref_s": per_repeat(lambda wl, r: points(wl, r) / ref_cpu(r)),
        "peak_rss_mb": per_repeat(lambda wl, r: r["rss_mb"]),
        "pass_frac": 1.0 - failed / attempted,
    }
    record = {"repeats": len(results), "setups": setups,
              "setup_walls": setup_walls,
              "walls": [r["wall_s"] for r in results],
              "cpus": [r["cpu_s"] for r in results],
              "ref_slices": [(len(r["ref_slice_s"]), statistics.fmean(r["ref_slice_s"]))
                             for r in results],
              "environment": results[0]["environment"]}
    return metrics, END_TO_END, repeats, attempted, failed, record


def run_traced(runner):
    base = runner.workload("untraced")
    # no speed probe in either repeat, so that their wall times compare
    plain = runner.child(base, "untraced", probe=False)
    wl = runner.workload("traced")
    traced = runner.child(wl, "traced", trace=True, untraced=plain, probe=False)
    repeats, attempted, failed = _outcome([plain, traced], [base, wl])
    record = {"walls": [plain["wall_s"], traced["wall_s"]],
              "environment": traced["environment"]}
    return traced["per_layer"], layers.PER_LAYER, repeats, attempted, failed, record


def run_workload(name, seed, seconds, trace):
    work = os.path.join(WORK, f"{name}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(name, seed, work)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "cpu_count": os.cpu_count(), "loadavg_start": os.getloadavg(),
              "git": _git_state()}
    try:
        if trace:
            metrics, units, repeats, attempted, failed, rec = run_traced(runner)
        else:
            metrics, units, repeats, attempted, failed, rec = run_untraced(runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)  # only when no other run is using it
        except OSError:
            pass
    record.update(rec)
    record["elapsed_s"] = runner.elapsed()
    record["failures"] = sorted({f"{op.key}:{op.failure}" for ops in repeats
                                 for op in ops if op.failure})
    record["artifact_sha256"] = [oracle.combined_digest(ops) for ops in repeats]
    result = {
        "correct": oracle.is_correct(name, repeats),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit, _ in units},
    }
    return result, record


def _print_table(name, result, record):
    print(f"== {name}  seed={record['seed']}  correct={result['correct']}  "
          f"failed={result['failed']}/{result['attempted']}")
    for key, m in result["metrics"].items():
        print(f"  {key:46s} {m['value']:14.6g} {m['unit']}")
    print("run record: " + json.dumps(record, sort_keys=True))


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kahlerqe", "cli.py")):
        print(f"benchmark error: no kahlerqe sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        _print_table(name, result, record)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else name + "."
        for key, m in result["metrics"].items():
            combined["metrics"][prefix + key] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
