"""The three benchmark workloads, generated from a seed.

Each workload is a list of ``kahlerqe`` command lines plus the INI files
they read.  The seed is a benchmark argument: the program only ever sees
the generated configs.  A workload also fixes how many operations one
repeat attempts, which the output oracle checks against.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

CERTIFY_GRID = "certify-grid"
VERIFY_FS = "verify-fs"
SWEEP_FLAT = "sweep-flat"
NAMES = (CERTIFY_GRID, VERIFY_FS, SWEEP_FLAT)

# C2 draws are small nonzero integers: a new seed changes the exact
# arithmetic, but rational C2 would change its cost too (up to 1.7x on the
# small cells), and with it the latency percentiles.
C2_POOL = tuple(Fraction(v) for v in (1, -1, 2, -2, 3, -3, 4, -4))

# The program's sample seed selects a Halton stretch by fast-forwarding
# seed * 100003 points, and that costs memory and time linear in the seed
# (about 12 MB and 34 ms per unit at 8 dimensions, per sampled chart;
# seed 1000 would need gigabytes).  The benchmark therefore passes only
# SAMPLE_SEEDS distinct sample seeds, so every seed fits the machine and
# the cost of the fast-forward stays a fixed share of each run.
SAMPLE_SEEDS = 2

VERIFY_FS_SAMPLES = 200
VERIFY_FS_RECORDS = 12
SWEEP_SAMPLES = 25
SWEEP_WORKERS = 2
SWEEP_CELLS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple      # argv lists for kahlerqe.cli.main
    configs: tuple       # config paths the commands read
    out_dirs: tuple      # one output directory per command
    ops_per_repeat: int  # operations the oracle expects from one repeat
    cells: int           # parameter cells decided per repeat
    workers: int = 1     # threads the program decides cells on
    cell_span: str = "cli.main"  # traced span that decides one cell


def certify_cells(seed):
    """(m, a, c, C2, kappa) for the 56 certify cells of one seed."""
    rng = random.Random(seed)
    cells = []
    for m in (2, 3, 4):
        for a in (Fraction(1), Fraction(2), Fraction(7, 2)):
            for c in (1, -1, 3):
                for c2 in rng.sample(C2_POOL, 2):
                    cells.append((m, a, Fraction(c), c2, Fraction(2 * m)))
    # the slowest cell today, and the a = 7/3 cell that has no radical certificate
    cells.append((12, Fraction(21, 2), Fraction(1), Fraction(1), Fraction(24)))
    cells.append((3, Fraction(7, 3), Fraction(1), Fraction(1), Fraction(6)))
    return cells


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _certify_grid(seed, inputs, outputs):
    commands, configs, outs = [], [], []
    for i, (m, a, c, c2, kappa) in enumerate(certify_cells(seed)):
        cfg = os.path.join(inputs, f"cell{i:02d}.ini")
        _write(cfg, f"[params]\nm = {m}\na = {a}\nc = {c}\nc2 = {c2}\nkappa = {kappa}\n")
        out = os.path.join(outputs, f"cell{i:02d}")
        commands.append(["certify", "--config", cfg, "--out", out])
        configs.append(cfg)
        outs.append(out)
    return Workload(CERTIFY_GRID, tuple(commands), tuple(configs), tuple(outs),
                    ops_per_repeat=len(commands), cells=len(commands))


def sample_seed(seed):
    """The program's sample seed for benchmark seed ``seed``."""
    return seed % SAMPLE_SEEDS


def _verify_fs(seed, inputs, outputs):
    # the Fubini-Study acceptance chart fs-a2: s = 1, m = 3 (n = 8)
    cfg = os.path.join(inputs, "fs-a2.ini")
    _write(cfg, (
        "[params]\nm = 3\na = 2\nc = 1\nc2 = -1/100\nkappa = 3\nb = -1/2\nsign_phi = 1\n"
        "[base]\nkind = fubini-study\ns = 1\n"
        "[interval]\nlo = 1.3\nhi = 1.9\n"
        f"[run]\nseed = {sample_seed(seed)}\nsamples = {VERIFY_FS_SAMPLES}\n"
    ))
    out = os.path.join(outputs, "fs-a2")
    return Workload(VERIFY_FS, (["construct-verify", "--config", cfg, "--out", out],),
                    (cfg,), (out,), ops_per_repeat=VERIFY_FS_RECORDS, cells=1)


def _sweep_flat(seed, inputs, outputs):
    cfg = os.path.join(inputs, "sweep-flat.ini")
    _write(cfg, (
        "[sweep]\nm = 2, 3\na = 1, 2\nc = 1, -1\nc2 = 1, -1\nk = branch, 0\n"
        f"samples = {SWEEP_SAMPLES}\n"
        "[base]\nkind = flat\n"
        f"[run]\nworkers = {SWEEP_WORKERS}\nseed = {sample_seed(seed)}\n"
    ))
    out = os.path.join(outputs, "sweep")
    return Workload(SWEEP_FLAT, (["sweep", "--config", cfg, "--out", out],),
                    (cfg,), (out,), ops_per_repeat=SWEEP_CELLS, cells=SWEEP_CELLS,
                    workers=SWEEP_WORKERS, cell_span="cli.sweep_cell")


_BUILDERS = {CERTIFY_GRID: _certify_grid, VERIFY_FS: _verify_fs, SWEEP_FLAT: _sweep_flat}


def make(name, seed, inputs, outputs):
    """Write the configs of workload ``name`` for ``seed`` into ``inputs``.

    Command outputs go under ``outputs``; pass a fresh directory per repeat.
    """
    os.makedirs(inputs, exist_ok=True)
    return _BUILDERS[name](seed, inputs, outputs)
