"""Output oracle: turns one repeat's artifacts into operations with verdicts.

An operation is one certify cell, one construct-verify check record, or
one sweep cell.  It fails on an exception, an unexpected exit code, a
missing artifact, a FAIL verdict, or an artifact hash that differs from
the first repeat of the same code and seed.  Refusals by the obstruction
and cells with no positivity interval are completed operations.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass

import workloads

EXIT_OK = 0
EXIT_VERIFY = 2

# failure kinds
CRASH = "crash"          # exception, unexpected exit code, or missing artifact
VERDICT = "verdict"      # the program itself reports FAIL
HASH = "hash"            # artifact differs between repeats


@dataclass
class Op:
    key: str
    digest: str
    failure: str = ""    # "" when the operation completed


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _certify_ops(wl, commands):
    ops = []
    for i, (cmd, out) in enumerate(zip(commands, wl.out_dirs)):
        key = f"cell{i:02d}"
        path = os.path.join(out, "certificate.json")
        if cmd["error"] or cmd["exit"] not in (EXIT_OK, EXIT_VERIFY) or not os.path.exists(path):
            ops.append(Op(key, "", CRASH))
            continue
        data = _read(path)
        cert = json.loads(data)
        holds = cert["passed"] and all(e.get("equal", True) for e in cert["identities"])
        if holds != (cmd["exit"] == EXIT_OK):
            ops.append(Op(key, _sha(data), CRASH))
        else:
            ops.append(Op(key, _sha(data), "" if holds else VERDICT))
    return ops


def _verify_ops(wl, commands):
    cmd = commands[0]
    path = os.path.join(wl.out_dirs[0], "report.json")
    if cmd["error"] or cmd["exit"] not in (EXIT_OK, EXIT_VERIFY) or not os.path.exists(path):
        return [Op(f"record{i:02d}", "", CRASH) for i in range(wl.ops_per_repeat)]
    report = json.loads(_read(path))
    ops = []
    for rec in report["checks"]:
        digest = _sha(json.dumps(rec, sort_keys=True).encode())
        ops.append(Op(rec["name"], digest, "" if rec["status"] != "fail" else VERDICT))
    if report["passed"] != (cmd["exit"] == EXIT_OK):
        ops = [Op(op.key, op.digest, CRASH) for op in ops]
    return ops


def _sweep_ops(wl, commands):
    cmd = commands[0]
    path = os.path.join(wl.out_dirs[0], "sweep.csv")
    if cmd["error"] or cmd["exit"] != EXIT_OK or not os.path.exists(path):
        return [Op(f"cell{i:02d}", "", CRASH) for i in range(wl.ops_per_repeat)]
    ops = []
    for row in csv.DictReader(io.StringIO(_read(path).decode())):
        key = f"cell{int(row['index']):02d}"
        digest = _sha(json.dumps(row, sort_keys=True).encode())
        status = row["status"]
        if status == "ok":
            failure = "" if row["passed"] == "True" else VERDICT
        elif status == "no-interval" or (status == "refused" and row["note"]):
            failure = ""
        else:
            failure = CRASH
        ops.append(Op(key, digest, failure))
    return ops


_OPS = {workloads.CERTIFY_GRID: _certify_ops, workloads.VERIFY_FS: _verify_ops,
        workloads.SWEEP_FLAT: _sweep_ops}


def repeat_ops(wl, commands):
    """Operations of one repeat, padded with crashes to the expected count.

    An artifact that does not parse makes every operation of the repeat a crash.
    """
    try:
        ops = _OPS[wl.name](wl, commands)
    except (ValueError, KeyError, TypeError):
        ops = []
    missing = wl.ops_per_repeat - len(ops)
    ops += [Op(f"missing{i}", "", CRASH) for i in range(max(0, missing))]
    return ops


def combined_digest(ops):
    """One sha256 over the artifact hashes of a repeat, for the run record."""
    return _sha("\n".join(f"{op.key} {op.digest}" for op in ops).encode())


def compare_repeats(repeats):
    """Mark operations whose artifact hash differs from the first repeat's."""
    first = {op.key: op.digest for op in repeats[0]}
    for ops in repeats[1:]:
        for op in ops:
            if not op.failure and op.digest != first.get(op.key):
                op.failure = HASH


def built_cells(wl):
    """Sweep cells that got a chart (status ok), from one repeat's sweep.csv."""
    path = os.path.join(wl.out_dirs[0], "sweep.csv")
    if not os.path.exists(path):
        return 0
    with open(path, newline="") as fh:
        return sum(1 for row in csv.DictReader(fh) if row["status"] == "ok")


def is_correct(name, repeats):
    """No crash or hash mismatch anywhere, and every verdict passes, except
    FAIL verdicts of built sweep cells: those are a known defect, counted as
    failed operations but not as wrong output."""
    for ops in repeats:
        for op in ops:
            if op.failure and not (op.failure == VERDICT and name == workloads.SWEEP_FLAT):
                return False
    return True
