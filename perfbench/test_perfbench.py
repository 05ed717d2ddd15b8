"""Tests of the benchmark itself: oracle, tracer and workload generation.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import kahlerqe.cli as cli  # noqa: E402


def _main(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _command(wl, i, code):
    return {"argv": wl.commands[i], "exit": code, "error": None}


@pytest.fixture(scope="module")
def fs_report(tmp_path_factory):
    """A real construct-verify report of the verify-fs chart, at 4 samples."""
    base = tmp_path_factory.mktemp("fs")
    wl = workloads.make(workloads.VERIFY_FS, 0, str(base / "in"), str(base / "out"))
    code = _main(wl.commands[0] + ["--samples", "4"])
    assert code == 0
    with open(os.path.join(wl.out_dirs[0], "report.json")) as fh:
        return json.load(fh)


def _verify_repeat(tmp_path, tag, report):
    wl = workloads.make(workloads.VERIFY_FS, 0, str(tmp_path / "in"), str(tmp_path / tag))
    os.makedirs(wl.out_dirs[0])
    with open(os.path.join(wl.out_dirs[0], "report.json"), "w") as fh:
        json.dump(report, fh)
    code = 0 if report["passed"] else 2
    return oracle.repeat_ops(wl, [_command(wl, 0, code)])


def test_untampered_report_passes(tmp_path, fs_report):
    ops = _verify_repeat(tmp_path, "a", fs_report)
    assert len(ops) == workloads.VERIFY_FS_RECORDS
    assert not [op for op in ops if op.failure]
    assert oracle.is_correct(workloads.VERIFY_FS, [ops])


def test_tampered_report_counts_one_failed_operation(tmp_path, fs_report):
    bad = json.loads(json.dumps(fs_report))
    bad["checks"][3]["status"] = "fail"
    bad["checks"][3]["passed"] = False
    bad["passed"] = False
    ops = _verify_repeat(tmp_path, "a", bad)
    assert [op.failure for op in ops if op.failure] == [oracle.VERDICT]
    assert not oracle.is_correct(workloads.VERIFY_FS, [ops])


def test_exit_code_that_contradicts_the_report_is_a_crash(tmp_path, fs_report):
    wl = workloads.make(workloads.VERIFY_FS, 0, str(tmp_path / "in"), str(tmp_path / "a"))
    os.makedirs(wl.out_dirs[0])
    with open(os.path.join(wl.out_dirs[0], "report.json"), "w") as fh:
        json.dump(fs_report, fh)
    ops = oracle.repeat_ops(wl, [_command(wl, 0, 2)])
    assert all(op.failure == oracle.CRASH for op in ops)


def test_unparseable_artifact_fails_every_operation(tmp_path):
    wl = workloads.make(workloads.VERIFY_FS, 0, str(tmp_path / "in"), str(tmp_path / "a"))
    os.makedirs(wl.out_dirs[0])
    with open(os.path.join(wl.out_dirs[0], "report.json"), "w") as fh:
        fh.write('{"checks": [')
    ops = oracle.repeat_ops(wl, [_command(wl, 0, 0)])
    assert len(ops) == workloads.VERIFY_FS_RECORDS
    assert all(op.failure == oracle.CRASH for op in ops)


def test_differing_artifact_hash_counts_as_failed(tmp_path, fs_report):
    other = json.loads(json.dumps(fs_report))
    other["checks"][5]["max_abs"] *= 1.5
    first = _verify_repeat(tmp_path, "a", fs_report)
    second = _verify_repeat(tmp_path, "b", other)
    oracle.compare_repeats([first, second])
    assert not [op for op in first if op.failure]
    assert [op.failure for op in second if op.failure] == [oracle.HASH]
    assert not oracle.is_correct(workloads.VERIFY_FS, [first, second])


def test_tampered_certificate_counts_as_failed(tmp_path):
    wl = workloads.make(workloads.CERTIFY_GRID, 0, str(tmp_path / "in"), str(tmp_path / "a"))
    for i in (0, 1):
        assert _main(wl.commands[i]) == 0
    path = os.path.join(wl.out_dirs[1], "certificate.json")
    with open(path) as fh:
        cert = json.load(fh)
    entry = next(e for e in cert["identities"] if "equal" in e)
    entry["equal"] = False
    cert["passed"] = False
    with open(path, "w") as fh:
        json.dump(cert, fh)
    commands = [_command(wl, 0, 0), _command(wl, 1, 2)]
    commands += [{"argv": a, "exit": None, "error": "not run"} for a in wl.commands[2:]]
    ops = oracle.repeat_ops(wl, commands)
    assert [op.failure for op in ops[:2]] == ["", oracle.VERDICT]
    assert all(op.failure == oracle.CRASH for op in ops[2:])


def test_sweep_verdicts_are_failures_but_refusals_are_not(tmp_path):
    wl = workloads.make(workloads.SWEEP_FLAT, 0, str(tmp_path / "in"), str(tmp_path / "a"))
    os.makedirs(wl.out_dirs[0])
    header = "index,status,passed,note\n"
    rows = ["0,ok,True,", "1,refused,,obstruction a(2ck+1) != 0 forces phi = 0",
            "2,no-interval,,", "3,ok,False,", "4,error,,ValueError: boom", "5,refused,,"]
    with open(os.path.join(wl.out_dirs[0], "sweep.csv"), "w") as fh:
        fh.write(header + "\n".join(rows) + "\n")
    ops = oracle.repeat_ops(wl, [_command(wl, 0, 0)])
    failures = [op.failure for op in ops[:6]]
    assert failures == ["", "", "", oracle.VERDICT, oracle.CRASH, oracle.CRASH]
    assert len(ops) == workloads.SWEEP_CELLS  # missing rows are padded as crashes
    verdict_only = ops[:4]
    assert oracle.is_correct(workloads.SWEEP_FLAT, [verdict_only])
    assert not oracle.is_correct(workloads.VERIFY_FS, [verdict_only])


def _snapshot():
    """Identity of every attribute of every kahlerqe module and class."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("kahlerqe"):
            continue
        for key, val in vars(mod).items():
            snap[(name, key)] = val
            if isinstance(val, type) and val.__module__.startswith("kahlerqe"):
                for ck, cv in val.__dict__.items():
                    snap[(name, key, ck)] = cv
    return snap


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    before = _snapshot()
    tracer = Tracer()
    wl = workloads.make(workloads.CERTIFY_GRID, 0, str(tmp_path / "in"), str(tmp_path / "a"))
    with tracer.installed(layers.install):
        during = _snapshot()
        assert _main(wl.commands[0]) == 0
    after = _snapshot()
    wrapped = [k for k in before if before[k] is not during[k]]
    assert ("kahlerqe.verify", "ricci") in wrapped
    assert ("kahlerqe.jets", "Jet", "__mul__") in wrapped
    assert ("kahlerqe.jets", "Jet", "__rmul__") in wrapped
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []
    spans, _, _ = tracer.span_table("cli.main")
    assert spans["cli.main"]["calls"] == 1
    assert spans["odes.closed_form_certificate"]["calls"] == 2
    assert tracer.counts()["rational.poly_mul"] > 0


def test_tracer_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with Tracer().installed(layers.install):
            raise RuntimeError("boom")
    after = _snapshot()
    assert [k for k in before if before[k] is not after[k]] == []


def test_traced_cell_reports_every_per_layer_metric(tmp_path):
    tracer = Tracer()
    wl = workloads.make(workloads.CERTIFY_GRID, 0, str(tmp_path / "in"), str(tmp_path / "a"))
    with tracer.installed(layers.install):
        _main(wl.commands[0])
    metrics = layers.per_layer_metrics(tracer, "cli.main", 1, 1, 1.0,
                                       {"wall_s": 0.9, "cell_s": {"0": 0.9}})
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert metrics["odes.certified_share"] == 1.0


def test_new_seed_changes_inputs_but_not_counts(tmp_path):
    made = {}
    for seed in (0, 1):
        for name in workloads.NAMES:
            wl = workloads.make(name, seed, str(tmp_path / f"in{seed}"), str(tmp_path / "o"))
            texts = []
            for cfg in wl.configs:
                with open(cfg) as fh:
                    texts.append(fh.read())
            made[name, seed] = (wl, texts)
    for name in workloads.NAMES:
        (wl0, t0), (wl1, t1) = made[name, 0], made[name, 1]
        assert t0 != t1
        assert len(wl0.commands) == len(wl1.commands)
        assert (wl0.ops_per_repeat, wl0.cells) == (wl1.ops_per_repeat, wl1.cells)
    c2 = [[line for line in t.splitlines() if line.startswith("c2")]
          for t in made[workloads.CERTIFY_GRID, 0][1] + made[workloads.CERTIFY_GRID, 1][1]]
    assert c2[:56] != c2[56:]
    assert len(workloads.certify_cells(0)) == len(workloads.certify_cells(12345)) == 56
    assert all(c2 != 0 for _, _, _, c2, _ in workloads.certify_cells(7))


def test_new_seed_changes_the_halton_stretch():
    from kahlerqe.numutil import halton_points
    assert (halton_points(4, 8, seed=0) != halton_points(4, 8, seed=1)).any()


def test_speed_probe_samples_and_scales():
    with speed.SpeedProbe(period=0.01) as probe:
        time.sleep(0.05)
    assert len(probe.samples) >= 2
    assert 0 < sum(probe.samples) <= probe.cpu_s
    slow = [2 * speed.REFERENCE_SLICE_S] * 3
    assert speed.at_reference_speed(10.0, slow) == pytest.approx(5.0)


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    rows = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    assert rows == list(run.END_TO_END)
    rows = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert rows == list(layers.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
