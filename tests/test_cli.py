"""Command-line entry points: config parsing, the certify / construct-verify /
sweep subcommands, artifact layout, exit codes, and the effective-config
round trip."""

import csv
import dataclasses
import json
import os
import re
import threading
from fractions import Fraction

import numpy as np
import pytest

from kahlerqe import cli, verify
from kahlerqe.builder import FLAT, BaseModel
from kahlerqe.jets import Jet
from kahlerqe.odes import SKRParams
from kahlerqe.rational import Polynomial


FLAT_PARAMS = """\
[params]
m = 2
a = 1
c = 1
c2 = -1
b = 1
sign_phi = -1
"""

FLAT_INI = FLAT_PARAMS + """
[base]
kind = flat
s = 1

[interval]
lo = 0.35
hi = 0.95

[run]
seed = 0
samples = 8
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_config_coercion(tmp_path):
    path = write(tmp_path, "a.ini", "[params]\nm = 3\na = 7/2\nc = -2\nk = 1/4\n")
    cfg = cli.load_config(path)
    params = cli.params_from_config(cfg)
    assert params.m == 3
    assert params.a == Fraction(7, 2)
    assert params.k == Fraction(1, 4)  # explicit k bypasses the branch constructor
    branch = write(tmp_path, "b.ini", "[params]\nm = 2\na = 1\nc = 1\nc2 = 5\nkappa = 4\n")
    p2 = cli.params_from_config(cli.load_config(branch))
    assert p2.k == Fraction(-1, 2)
    assert p2.C1 == 1 and p2.lam == 8


def test_load_config_rejections(tmp_path):
    with pytest.raises(cli.ConfigError, match="not found"):
        cli.load_config(str(tmp_path / "missing.ini"))
    bad_key = write(tmp_path, "k.ini", "[params]\nm = 2\nzeta = 1\n")
    with pytest.raises(cli.ConfigError, match="unknown key"):
        cli.load_config(bad_key)
    bad_sec = write(tmp_path, "s.ini", "[metric]\nm = 2\n")
    with pytest.raises(cli.ConfigError, match="unknown section"):
        cli.load_config(bad_sec)
    search = write(tmp_path, "r.ini", "[interval]\nsearch_lo = -3\nsearch_hi = 5\n")
    with pytest.raises(cli.ConfigError, match="unknown key 'search_lo'"):
        cli.load_config(search)
    bad_val = write(tmp_path, "v.ini", "[params]\nm = 2\na = 0.5x\nc = 1\n")
    with pytest.raises(cli.ConfigError):
        cli.params_from_config(cli.load_config(bad_val))


def test_config_directory_is_a_config_error(tmp_path, capsys):
    # configparser.read skips a path it cannot open, which left "[params] m
    # is required" as the error
    rc = cli.main(["certify", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {tmp_path}")
    assert "is required" not in err


def test_config_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes("[params]\nm = 2\na = 1\nc = 1 ; \u00e9t\u00e9\n".encode("latin-1"))
    rc = cli.main(["certify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: config {path} is not UTF-8 text")


def test_config_with_a_byte_order_mark_certifies_like_the_plain_file(tmp_path, capsys):
    # an editor may save UTF-8 with a BOM; configparser then saw no section
    # header and the command exited 4
    plain = write(tmp_path, "plain.ini", FLAT_PARAMS)
    bom = tmp_path / "bom.ini"
    bom.write_bytes(b"\xef\xbb\xbf" + FLAT_PARAMS.encode())
    for cfgp, out in ((plain, "plain"), (str(bom), "bom")):
        assert cli.main(["certify", "--config", cfgp, "--out", str(tmp_path / out)]) == 0
    text = (tmp_path / "bom" / "certificate.json").read_bytes()
    assert text == (tmp_path / "plain" / "certificate.json").read_bytes()


def test_certify_pass(tmp_path, capsys):
    # certify reads only [params] and [run] out
    cfgp = write(tmp_path, "flat.ini", FLAT_PARAMS)
    out = str(tmp_path / "out")
    rc = cli.main(["certify", "--config", cfgp, "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "decision: constants-admitted" in text
    assert "[PASS] compatibility-E1" in text
    assert "overall: PASS" in text
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert cert["passed"] is True
    names = [e["name"] for e in cert["identities"]]
    for need in (
        "first-order-p", "compatibility-E1", "compatibility-E2",
        "appendix-compatibility-E1", "branch-scaling",
        "closed-form-residual-1", "closed-form-residual-2",
    ):
        assert need in names


def test_certify_fractional_a(tmp_path, capsys):
    cfgp = write(tmp_path, "frac.ini", "[params]\nm = 2\na = 7/3\nc = 1\nc2 = 1\n")
    rc = cli.main(["certify", "--config", cfgp, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "overall: PASS" in capsys.readouterr().out
    cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
    residuals = {e["name"]: e for e in cert["identities"]
                 if e["name"].startswith("closed-form-residual")}
    assert sorted(residuals) == ["closed-form-residual-1", "closed-form-residual-2"]
    assert all(e["equal"] for e in residuals.values())


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN_CELLS = {
    # m, a, c, C2, kappa; the a = 7/3 cell has no radical certificate
    "certificate_m3_a7-3.json": (3, Fraction(7, 3), 1, 1, 6),
    "certificate_m4_a7-2.json": (4, Fraction(7, 2), 3, 2, 8),
    # the tail cell of the certify grid: its largest integers
    "certificate_m12_a21-2.json": (12, Fraction(21, 2), 1, 1, 24),
    # a = 1 keeps a zero exponent in psi_factors, here with negative c
    "certificate_m2_a1_c-1.json": (2, 1, -1, -3, 4),
    # integer a: psi itself is rational
    "certificate_m3_a2.json": (3, 2, 3, -4, 6),
    # every parameter carries a denominator, kappa fractional and negative
    "certificate_m3_a5-2_c-2-3.json": (3, Fraction(5, 2), Fraction(-2, 3), Fraction(3, 4),
                                       Fraction(-9, 2)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CELLS))
def test_certificate_matches_golden(name):
    # rendered by earlier kernels (term-by-term division, then in-place
    # division over Fractions); the fraction-free kernel must reproduce them
    # byte for byte, as cmd_certify writes certificate.json
    m, a, c, C2, kappa = GOLDEN_CELLS[name]
    params = SKRParams.section6(m=m, a=a, c=c, C2=C2, kappa=kappa)
    text = json.dumps(cli.certify_params(params), sort_keys=True, indent=2) + "\n"
    with open(os.path.join(GOLDEN, name)) as fh:
        assert text == fh.read()


def test_certify_reduces_each_identity_once(monkeypatch):
    # each compatibility quantity and closed-form residual is one numerator
    # over its known denominator, reduced once, and L is formed once; the
    # earlier operator-by-operator forms ran 62 Euclid gcds on this cell,
    # and summing L term by term would add one (8)
    runs = []
    gcd = Polynomial.gcd

    def counted(p, q):
        if p.degree > 0 and q.degree > 0:
            runs.append((p, q))
        return gcd(p, q)

    monkeypatch.setattr(Polynomial, "gcd", counted)
    m, a, c, C2, kappa = GOLDEN_CELLS["certificate_m12_a21-2.json"]
    assert cli.certify_params(SKRParams.section6(m=m, a=a, c=c, C2=C2, kappa=kappa))["passed"]
    assert len(runs) == 7


GOLDEN_CONFIGS = {
    # off the distinguished branch k = -1/(2c): denominators in p, q and E1
    "certificate_offbranch_m3.json": (
        "[params]\nm = 3\na = 5/2\nc = 2\nk = 1/3\nkappa = 6\nlam = 1\n"
        "c1 = 1/2\nc2 = 3\n", cli.EXIT_OK),
    # the same cell with sign_phi = -1: the -sign_phi*kappa/2 terms of both
    # fiber-constancy members flip sign
    "certificate_offbranch_m3_neg.json": (
        "[params]\nm = 3\na = 5/2\nc = 2\nk = 1/3\nkappa = 6\nlam = 1\n"
        "c1 = 1/2\nc2 = 3\nsign_phi = -1\n", cli.EXIT_OK),
    # on the branch with lambda not matched to C1: a nonzero closed-form residual
    "certificate_fail_m2.json": (
        "[params]\nm = 2\na = 3/2\nc = -1\nk = 1/2\nkappa = 4\nlam = 1\n"
        "c1 = 1\nc2 = 2/3\n", cli.EXIT_VERIFY),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_certify_writes_golden_certificate(tmp_path, capsys, name):
    text, exit_code = GOLDEN_CONFIGS[name]
    cfgp = write(tmp_path, "cell.ini", text)
    rc = cli.main(["certify", "--config", cfgp, "--out", str(tmp_path / "o")])
    assert rc == exit_code
    with open(os.path.join(GOLDEN, name)) as fh:
        assert (tmp_path / "o" / "certificate.json").read_text() == fh.read()


def test_certify_detects_inconsistent_constants(tmp_path, capsys):
    # explicit k on the branch but lambda not matched to C1: the closed-form
    # residual is a nonzero rational function and certification must fail
    bad = """\
[params]
m = 2
a = 1
c = 1
k = -1/2
c1 = 0
c2 = 1
lam = 1
"""
    cfgp = write(tmp_path, "bad.ini", bad)
    rc = cli.main(["certify", "--config", cfgp, "--out", str(tmp_path / "o")])
    assert rc == 2
    text = capsys.readouterr().out
    assert "FAIL" in text
    cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
    assert cert["passed"] is False
    assert any(e.get("equal") is False for e in cert["identities"])


def test_construct_verify_artifacts(tmp_path, capsys):
    cfgp = write(tmp_path, "flat.ini", FLAT_INI)
    out = str(tmp_path / "run1")
    rc = cli.main(["construct-verify", "--config", cfgp, "--out", out])
    assert rc == 0
    report = json.loads((tmp_path / "run1" / "report.json").read_text())
    assert report["passed"] is True
    assert report["samples"] == 8
    with open(os.path.join(out, "warp.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tau", "log_r", "Q"]
    assert len(rows) == 201
    taus = [float(r[0]) for r in rows[1:]]
    assert all(0.35 < t < 0.95 for t in taus)
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    assert "expected_kahler=True" in text


def test_construct_verify_automatic_window(tmp_path, capsys):
    # without [interval] the window is the first positivity interval of Q on
    # the sign_phi = -1 side of c, clamped as in the sweep
    auto = FLAT_INI.replace("[interval]\nlo = 0.35\nhi = 0.95\n", "")
    assert "[interval]" not in auto
    cfgp = write(tmp_path, "auto.ini", auto)
    rc = cli.main(["construct-verify", "--config", cfgp, "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["interval"][1] < 1.0
    assert len(report["checks"]) == 12
    assert all(r["passed"] for r in report["checks"])
    assert "expected_kahler=True" in capsys.readouterr().out


def test_effective_config_roundtrip(tmp_path):
    cfgp = write(tmp_path, "flat.ini", FLAT_INI)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert cli.main(["construct-verify", "--config", cfgp, "--out", out1]) == 0
    eff = os.path.join(out1, "effective.ini")
    assert cli.main(["construct-verify", "--config", eff, "--out", out2]) == 0
    r1 = (tmp_path / "r1" / "report.json").read_bytes()
    r2 = (tmp_path / "r2" / "report.json").read_bytes()
    assert r1 == r2


def test_construct_verify_failure_exit(tmp_path):
    # b = -1 is not the Kahler value on the sign_phi = -1 side: the pinned
    # kahler check fails (max about 8.5 against 1e-8)
    wrong_b = FLAT_INI.replace("b = 1\n", "b = -1\n")
    cfgp = write(tmp_path, "wrong_b.ini", wrong_b)
    rc = cli.main(["construct-verify", "--config", cfgp, "--out", str(tmp_path / "o")])
    assert rc == 2



def test_metric_indefinite_at_one_point_fails_the_suite_with_a_full_report(
        tmp_path, monkeypatch):
    """g_00 of the README flat chart lowered by 1e6 at the sample point
    with the least x_0 makes the metric indefinite there, and the
    complement of grad tau and J grad tau has no orthonormal frame at it.
    The command still writes every check: positive-definite counts the
    point, skr-eigenstructure fails with it in ``frameless_points`` and
    reports the residuals of the other points, and the exit code is 2."""
    build = cli.end_to_end

    def indefinite_at_one_point(params, base, interval, warp=None):
        skr, phi = build(params, base, interval, warp)
        x0 = sorted(p[0] for p in skr.sample_points(16) if skr.chart.domain(p))
        cut = 0.5 * (x0[0] + x0[1])

        def fields(coords):
            g, tau, f, J = skr.fields(coords)
            g00 = g[0][0]
            shift = np.where(coords[0].val < cut, -1e6, 0.0)
            g[0][0] = g00 + Jet(shift, np.zeros_like(g00.grad), np.zeros_like(g00.hess))
            return g, tau, f, J

        return dataclasses.replace(skr, fields=fields), phi

    monkeypatch.setattr(cli, "end_to_end", indefinite_at_one_point)
    cfgp = write(tmp_path, "flat.ini", FLAT_INI)
    out = tmp_path / "o"
    assert cli.main(["construct-verify", "--config", cfgp, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert len(checks) == 12 and not report["passed"]
    assert checks["positive-definite"]["extra"]["indefinite_points"] == 1
    skr_check = checks["skr-eigenstructure"]
    assert skr_check["status"] == "fail"
    assert skr_check["extra"]["frameless_points"] == 1
    assert skr_check["samples"] == 7 and skr_check["max_abs"] < skr_check["tolerance"]
    assert (out / "warp.csv").exists()

def test_construction_error_exit(tmp_path, capsys):
    off = """\
[params]
m = 2
a = 1
c = 1
k = 0

[base]
kind = flat
"""
    cfgp = write(tmp_path, "off.ini", off)
    rc = cli.main(["construct-verify", "--config", cfgp, "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "construction error" in err
    assert "obstruction a(2ck+1)" in err


def test_fractional_a_window_below_two_c_is_refused(tmp_path, capsys):
    # phi has the factor (tau - 2c)^(1 - a): for a = 7/2 it is real only for
    # tau > max(0, 2c) = 2, and the given window reaches down to 1.5
    frac = """\
[params]
m = 2
a = 7/2
c = 1
c2 = 1
sign_phi = 1

[base]
kind = flat

[interval]
lo = 1.5
hi = 2.5

[run]
samples = 4
"""
    cfgp = write(tmp_path, "frac.ini", frac)
    rc = cli.main(["construct-verify", "--config", cfgp, "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "construction error: fractional a = 7/2 needs tau > max(0, 2c) = 2" in err
    assert "across the whole window" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("a, c2, sign_phi, lo, hi, root", (
    (1, -1, -1, 0.5, 1.5, "1"),
    (1, -1, -1, -0.5, 0.5, "0"),
    (1, -1, -1, -0.5, 0.4, "0"),  # the grid misses 0, but the warp integral diverges
    (2, 1, 1, 1.5, 2.5, "2"),
    (2, -1, 1, 1.5, 2.5, "2"),
    (1, 1, 1, 1.5, 2.5, None),  # a = 1 drops the factor of 2c: the chart builds
))
def test_window_with_a_root_of_psi_inside_is_refused(tmp_path, capsys, a, c2, sign_phi,
                                                      lo, hi, root):
    # the 257-point grid of a window symmetric about a root lands on it; the
    # root is named instead of the closed form raising there
    cfg = (f"[params]\nm = 2\na = {a}\nc = 1\nc2 = {c2}\nb = 1\nsign_phi = {sign_phi}\n"
           f"[base]\nkind = flat\n[interval]\nlo = {lo}\nhi = {hi}\n[run]\nsamples = 8\n")
    if root is None:
        cfg = cfg.replace("b = 1\n", "")  # the Kahler b of the window's side
    cfgp = write(tmp_path, "root.ini", cfg)
    rc = cli.main(["construct-verify", "--config", cfgp, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if root is None:
        assert (rc, err) == (0, "")
        return
    assert rc == 3
    assert err == (f"construction error: interval ({lo}, {hi}) contains tau = {root}, a root "
                   "of a factor of psi, where phi or f = 1/tau + k is singular\n")
    assert not (tmp_path / "o").exists()


def test_config_error_exit(tmp_path, capsys):
    bad = write(tmp_path, "bad.ini", "[params]\nm = 2\nq = 1\n")
    assert cli.main(["certify", "--config", bad, "--out", str(tmp_path / "o")]) == 4
    assert "config error" in capsys.readouterr().err
    assert cli.main(["certify", "--config", str(tmp_path / "nope.ini")]) == 4
    no_kind = write(tmp_path, "no-kind.ini", FLAT_INI.replace("kind = flat\n", ""))
    assert cli.main(["construct-verify", "--config", no_kind, "--out", str(tmp_path / "o")]) == 4
    assert ("config error: [base] kind is required (flat or fubini-study)"
            in capsys.readouterr().err)


# the construct-verify configs of the CI workflow: the README's flat chart
# and the benchmark's Fubini-Study chart, at 20 samples
GOLDEN_CHARTS = {
    "chart_flat_readme": "[params]\nm = 2\na = 1\nc = 1\nc2 = -1\nb = 1\nsign_phi = -1\n"
                         "[base]\nkind = flat\ns = 1\n[interval]\nlo = 0.35\nhi = 0.95\n"
                         "[run]\nseed = 0\nsamples = 20\n",
    "chart_fs_a2": "[params]\nm = 3\na = 2\nc = 1\nc2 = -1/100\nkappa = 3\nb = -1/2\n"
                   "sign_phi = 1\n[base]\nkind = fubini-study\ns = 1\n[interval]\nlo = 1.3\n"
                   "hi = 1.9\n[run]\nseed = 0\nsamples = 20\n",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CHARTS))
def test_construct_verify_writes_the_golden_chart_artifacts(tmp_path, capsys, name):
    """report.json and warp.csv of each chart, byte for byte as checked in."""
    cfgp = write(tmp_path, "chart.ini", GOLDEN_CHARTS[name])
    out = tmp_path / "o"
    assert cli.main(["construct-verify", "--config", cfgp, "--out", str(out)]) == 0
    for artifact in ("report.json", "warp.csv"):
        with open(os.path.join(GOLDEN, name, artifact), "rb") as fh:
            assert (out / artifact).read_bytes() == fh.read(), artifact


def test_sweep_grid(tmp_path, capsys):
    sweep = """\
[sweep]
m = 2
a = 1, 2
c = 1
c2 = -1
k = branch, 0
samples = 6

[base]
kind = flat
s = 1

[run]
workers = 2
"""
    cfgp = write(tmp_path, "sweep.ini", sweep)
    out = str(tmp_path / "sw")
    rc = cli.main(["sweep", "--config", cfgp, "--out", out])
    assert rc == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 values of a x 2 values of k
    by_k = {}
    for r in rows:
        by_k.setdefault(r["k"], []).append(r)
    assert all(r["status"] == "refused" for r in by_k["0"])
    assert all("obstruction" in r["note"] for r in by_k["0"])
    assert all(r["status"] == "ok" and r["passed"] == "True" for r in by_k["branch"])
    text = capsys.readouterr().out
    assert text.startswith("sweep: 4 cells\n")
    assert "sweep results" in text


GOLDEN_SWEEP = os.path.join(GOLDEN, "sweep_flat_small.csv")


def test_sweep_with_workers_writes_the_serial_csv(tmp_path, monkeypatch):
    """The sweep decides its cells in the calling thread: ``workers`` is
    accepted but starts no thread, and 1, 2 and 4 workers write the same
    sweep.csv byte for byte, equal to the golden file (written with
    ``workers = 2`` when the cells still ran on a thread pool)."""
    def no_thread(self):
        raise AssertionError("sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    grid = ("[sweep]\nm = 2\na = 1, 2\nc = 1, -1\nc2 = 1, -1\nk = branch\nsamples = 6\n"
            "[base]\nkind = flat\n[run]\nworkers = {}\n")
    with open(GOLDEN_SWEEP, "rb") as fh:
        golden = fh.read()
    rows = list(csv.DictReader(golden.decode().splitlines()))
    assert len(rows) == 8 and all(r["passed"] == "True" for r in rows)
    for workers in (1, 2, 4):
        cfgp = write(tmp_path, f"sweep{workers}.ini", grid.format(workers))
        out = str(tmp_path / f"sw{workers}")
        assert cli.main(["sweep", "--config", cfgp, "--out", out]) == 0
        with open(os.path.join(out, "sweep.csv"), "rb") as fh:
            assert fh.read() == golden, workers


GOLDEN_SWEEP_FS = os.path.join(GOLDEN, "sweep_fs_small.csv")


def test_sweep_fubini_study_grid_matches_the_golden_csv(tmp_path):
    """The Fubini-Study sweep grid (m in {2, 3}, a in {1, 2}, c = +-1,
    C2 = +-1, 6 samples, seed 0) writes the golden sweep.csv byte for byte."""
    grid = ("[sweep]\nm = 2, 3\na = 1, 2\nc = 1, -1\nc2 = 1, -1\nsamples = 6\n"
            "[base]\nkind = fubini-study\n[run]\nseed = 0\n")
    cfgp = write(tmp_path, "fs-grid.ini", grid)
    out = str(tmp_path / "sw")
    assert cli.main(["sweep", "--config", cfgp, "--out", out]) == 0
    with open(os.path.join(out, "sweep.csv"), "rb") as fh, open(GOLDEN_SWEEP_FS, "rb") as gh:
        assert fh.read() == gh.read()


GOLDEN_SWEEP_BENCH = os.path.join(GOLDEN, "sweep_flat_bench.csv")
BENCH_GRID = ("[sweep]\nm = 2, 3\na = 1, 2\nc = 1, -1\nc2 = 1, -1\nk = branch, 0\n"
              "samples = 25\n[base]\nkind = flat\n[run]\nseed = 0\n")


def test_sweep_benchmark_grid_matches_the_golden_csv(tmp_path):
    """The benchmark's flat sweep grid (m in {2, 3}, a in {1, 2}, c = +-1,
    C2 = +-1, k = branch or 0, 25 samples, seed 0) writes the golden
    sweep.csv byte for byte: 14 built cells, among them the capped
    windows, 16 obstruction refusals and 2 cells without a window."""
    cfgp = write(tmp_path, "bench-grid.ini", BENCH_GRID)
    out = str(tmp_path / "sw")
    assert cli.main(["sweep", "--config", cfgp, "--out", out]) == 0
    with open(os.path.join(out, "sweep.csv"), "rb") as fh, open(GOLDEN_SWEEP_BENCH, "rb") as gh:
        assert fh.read() == gh.read()


GOLDEN_SWEEP_BENCH_SEED1 = os.path.join(GOLDEN, "sweep_flat_bench_seed1.csv")


def test_sweep_benchmark_grid_at_seed_1_matches_the_golden_csv(tmp_path):
    """The benchmark's flat sweep grid at ``[run] seed = 1`` writes its
    golden sweep.csv byte for byte."""
    cfgp = write(tmp_path, "bench-grid.ini", BENCH_GRID.replace("seed = 0", "seed = 1"))
    out = str(tmp_path / "sw")
    assert cli.main(["sweep", "--config", cfgp, "--out", out]) == 0
    with open(os.path.join(out, "sweep.csv"), "rb") as fh, \
            open(GOLDEN_SWEEP_BENCH_SEED1, "rb") as gh:
        assert fh.read() == gh.read()


def test_sweep_evaluates_the_built_cells_of_one_n_in_one_batch(tmp_path, monkeypatch):
    """On the benchmark grid, the 8 built cells of n = 4 and the 6 of n = 6
    gather their points in one call each, and every cell's suite runs on
    its slice of that batch."""
    gathered, suites = [], []
    gather, suite = cli.gather_points, cli.run_suite

    def counted_gather(skr, samples, seed=0):
        gathered.append([one.dim for one in skr] if isinstance(skr, list) else skr.dim)
        return gather(skr, samples, seed=seed)

    def counted_suite(skr, *args, geos=None, **kwargs):
        suites.append(geos is not None and len(geos))
        return suite(skr, *args, geos=geos, **kwargs)

    monkeypatch.setattr(cli, "gather_points", counted_gather)
    monkeypatch.setattr(cli, "run_suite", counted_suite)
    cfgp = write(tmp_path, "bench-grid.ini", BENCH_GRID)
    assert cli.main(["sweep", "--config", cfgp, "--out", str(tmp_path / "sw")]) == 0
    assert gathered == [[4] * 8, [6] * 6]
    assert suites == [25] * 14


def test_sweep_batches_stay_within_the_batch_bound():
    """Built cells of one n share a batch while its n^4 entries per point
    times its points stay within ``BATCH_N4_POINTS``; a cell too large for
    the bound takes a batch alone."""
    def cell(n):
        return cli._Cell({}, skr=None if n is None else type("Chart", (), {"dim": n})())

    cells = [cell(n) for n in (4, None, 4, 6, 6, 4, 12, 12)]
    assert cli._sweep_batches(cells, 25) == [[0, 2], [3, 4], [5], [6], [7]]
    assert cli._sweep_batches([cell(6)] * 9, 25) == [list(range(8)), [8]]
    assert cli._sweep_batches([cell(4)] * 3, 400) == [[0, 1], [2]]


def test_a_cell_whose_geometry_raises_fails_alone(tmp_path, monkeypatch):
    """Q forced to 0 at the first sample point of one cell of the benchmark
    grid makes that point's metric singular, so the n = 4 batch raises as a
    whole.  Its cells are then evaluated one at a time: the tampered cell's
    row reads ``error`` with the note it gets on its own, and every other
    row is byte for byte the untampered sweep's."""
    import kahlerqe.builder as builder
    from kahlerqe.odes import ScalarProfile

    target = 8  # m = 2, a = 2, c = 1, C2 = 1, branch
    build = cli.end_to_end

    def singular_at_one_point(params, base, interval, warp=None):
        skr, phi = build(params, base, interval, warp)
        if (params.m, params.a, params.c, params.C2) != (2, 2, 1, 1):
            return skr, phi
        q = skr.warp.q

        def taylor(t):
            q0, q1, q2 = q.taylor(t)
            return np.where(np.arange(np.size(t)) == 0, 0.0, q0), q1, q2

        warp = dataclasses.replace(skr.warp, q=ScalarProfile(value=q.value, taylor=taylor))
        return builder.assemble_chart(skr.base, warp), phi

    gathered = []
    gather = cli.gather_points

    def counted_gather(skr, samples, seed=0):
        gathered.append(len(skr) if isinstance(skr, list) else 1)
        return gather(skr, samples, seed=seed)

    monkeypatch.setattr(cli, "end_to_end", singular_at_one_point)
    monkeypatch.setattr(cli, "gather_points", counted_gather)
    monkeypatch.setattr(verify, "gather_points", counted_gather)
    base = BaseModel(kind=FLAT, dim_c=1, s=1)
    alone = cli._sweep_cell(target, 2, Fraction(2), Fraction(1), Fraction(1), None,
                            base=base, samples=25, seed=0)
    assert alone["status"] == "error"
    assert alone["note"].startswith("SingularMetricError: metric not invertible")
    gathered.clear()
    cfgp = write(tmp_path, "bench-grid.ini", BENCH_GRID)
    out = str(tmp_path / "sw")
    assert cli.main(["sweep", "--config", cfgp, "--out", out]) == 0
    # the n = 4 batch raised, its 8 cells gathered alone, the n = 6 batch held
    assert gathered == [8] + [1] * 8 + [6]
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = list(csv.DictReader(fh))
    with open(GOLDEN_SWEEP_BENCH) as gh:
        golden = list(csv.DictReader(gh))
    assert rows[target] == {key: str(val) for key, val in alone.items()}
    assert rows[:target] + rows[target + 1:] == golden[:target] + golden[target + 1:]
    with open(os.path.join(out, "sweep.csv"), "rb") as fh, open(GOLDEN_SWEEP_BENCH, "rb") as gh:
        got, want = fh.read().splitlines(), gh.read().splitlines()
    assert got[:target + 1] + got[target + 2:] == want[:target + 1] + want[target + 2:]


def test_sweep_decides_phi_once_per_window_search(tmp_path, monkeypatch):
    """Each window search runs ``admitted_phi`` once; the chart takes phi
    from the warp the search returns instead of deciding it again."""
    import kahlerqe.builder as builder

    searches, decisions = [], []
    search, decide = cli.select_window, builder.admitted_phi

    def counted_search(*args, **kwargs):
        searches.append(args[0])
        return search(*args, **kwargs)

    def counted_decide(params, base):
        decisions.append(params)
        return decide(params, base)

    monkeypatch.setattr(cli, "select_window", counted_search)
    monkeypatch.setattr(cli, "admitted_phi", counted_decide)
    monkeypatch.setattr(builder, "admitted_phi", counted_decide)
    cfgp = write(tmp_path, "bench-grid.ini", BENCH_GRID)
    assert cli.main(["sweep", "--config", cfgp, "--out", str(tmp_path / "sw")]) == 0
    assert len(searches) == 16
    assert decisions == searches

def test_sweep_cell_builds_one_warp_per_window(monkeypatch):
    """The warp ``_clamp_window`` builds on the window it returns is the
    chart's warp.  A cell whose clamp keeps its window builds one
    WarpProfile; a cell whose log r span is capped builds a second on the
    capped window, and inverts both of its ends in one call.  The other
    inversion is the chart's, of the sample points."""
    import kahlerqe.builder as builder

    builds, inversions = [], []
    build = builder.WarpProfile.build.__func__
    invert = builder.invert_monotone

    def counted_build(cls, params, phi, interval):
        builds.append(interval)
        return build(cls, params, phi, interval)

    def counted_invert(fdf, target, lo, hi):
        inversions.append(np.shape(target))
        return invert(fdf, target, lo, hi)

    monkeypatch.setattr(builder.WarpProfile, "build", classmethod(counted_build))
    monkeypatch.setattr(builder, "invert_monotone", counted_invert)
    base = BaseModel(kind=FLAT, dim_c=1, s=1)
    # flat m = 2, a = 1, c = 1: C2 = 1 keeps its clamped window, C2 = -1 is capped
    for C2, count, shapes in ((1, 1, [(6,)]), (-1, 2, [(2,), (6,)])):
        builds.clear()
        inversions.clear()
        row = cli._sweep_cell(0, 2, Fraction(1), Fraction(1), Fraction(C2), None,
                              base=base, samples=6, seed=0)
        assert row["status"] == "ok" and row["passed"] == "True"
        assert len(builds) == count, C2
        assert (f"{builds[-1][0]:.9g}", f"{builds[-1][1]:.9g}") == (
            row["interval_lo"], row["interval_hi"])
        assert inversions == shapes, C2


def test_sweep_fubini_study_windows_above_c(tmp_path):
    # a base with kappa != 0 admits only sign_phi = +1, so only tau > c
    sweep = """\
[sweep]
m = 2
a = 1
c = 1
c2 = 1, -1
samples = 6

[base]
kind = fubini-study
"""
    cfgp = write(tmp_path, "fs.ini", sweep)
    out = str(tmp_path / "sw")
    assert cli.main(["sweep", "--config", cfgp, "--out", out]) == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    ok = [r for r in rows if r["status"] == "ok"]
    assert ok
    assert all(float(r["interval_lo"]) > 1.0 for r in ok)
    assert all(r["status"] in ("ok", "no-interval") for r in rows)


def test_sweep_no_interval_rows_name_the_scanned_range(tmp_path):
    # the Fubini-Study grid: in cells 1 and 9 (a = 1, c = 1, C2 = -1) Q is
    # negative above tau = c throughout the scan
    sweep = """\
[sweep]
m = 2, 3
a = 1, 2
c = 1, -1
c2 = 1, -1
samples = 6

[base]
kind = fubini-study
"""
    cfgp = write(tmp_path, "fs.ini", sweep)
    out = str(tmp_path / "sw")
    assert cli.main(["sweep", "--config", cfgp, "--out", out]) == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["index"] for r in rows if r["status"] == "no-interval"] == ["1", "9"]
    for i in (1, 9):
        assert rows[i]["note"] == (
            "no positivity interval of Q found in (-3, 5) on the sgn(tau - c) = 1 side")


def test_sweep_window_matches_construct_verify_when_b_is_not_one(tmp_path):
    # flat s = 2 gives |b| = sigma / 2 = 2, and the log r span cap applies
    # to this cell's positivity interval, so a window clamped with b = 1
    # would end at tau = -0.34760682 instead
    sweep = "[sweep]\nm = 2\na = 1\nc = 1\nc2 = -1\nsamples = 6\n[base]\nkind = flat\ns = 2\n"
    cfgp = write(tmp_path, "flat-s2.ini", sweep)
    out = str(tmp_path / "sw")
    assert cli.main(["sweep", "--config", cfgp, "--out", out]) == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        (row,) = csv.DictReader(fh)
    # construct-verify's parameters: sign_phi = -1 (the window lies below
    # tau = c) and the Kahler b of that side
    base = BaseModel(kind=FLAT, dim_c=1, s=2)
    params = SKRParams.section6(m=2, a=1, c=1, C2=-1, b=base.kahler_b(-1), sign_phi=-1)
    lo, hi = cli.select_window(params, base, side=-1).interval
    assert (row["interval_lo"], row["interval_hi"]) == (f"{lo:.9g}", f"{hi:.9g}")
    assert row["interval_hi"] == "-0.451504216"
    assert row["passed"] == "True"


def test_sweep_config_rejections(tmp_path, capsys):
    grid = "[sweep]\nm = 2\na = 1\nc = 1\nc2 = 1\n{extra}\n[base]\n{base}\n"
    for extra, base, message in (
            ("k =", "kind = flat", "empty k list"),
            ("samples = 0", "kind = flat", "samples must be positive, got 0"),
            # [base] is checked as construct-verify checks it, before any cell
            ("", "kind = flat\ns = 0", "config error: invalid [base]: s must be nonzero"),
            ("", "kind = round", "config error: invalid [base]: unknown base kind 'round' "
                                 "(flat or fubini-study)")):
        cfgp = write(tmp_path, "bad.ini", grid.format(extra=extra, base=base))
        assert cli.main(["sweep", "--config", cfgp, "--out", str(tmp_path / "o")]) == 4
        assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_construct_verify_derives_b(tmp_path, capsys):
    # without [params] b, b is the Kahler value -sign_phi * sigma / 2
    given, derived = str(tmp_path / "given"), str(tmp_path / "derived")
    no_b = FLAT_INI.replace("b = 1\n", "")
    assert "b =" not in no_b
    for text, out in ((FLAT_INI, given), (no_b, derived)):
        cfgp = write(tmp_path, "flat.ini", text)
        assert cli.main(["construct-verify", "--config", cfgp, "--out", out]) == 0
    assert ((tmp_path / "given" / "report.json").read_bytes()
            == (tmp_path / "derived" / "report.json").read_bytes())
    assert "b = 1\n" in (tmp_path / "derived" / "effective.ini").read_text()

    fs = "[params]\nm = 3\na = 2\nc = 1\nc2 = 1\nkappa = 3\n[base]\nkind = fubini-study\n"
    cfgp = write(tmp_path, "fs.ini", fs)
    capsys.readouterr()
    # the exit code is not pinned: on the unclamped window (2, 5) other
    # checks still fail by tolerance
    cli.main(["construct-verify", "--config", cfgp, "--out", str(tmp_path / "fs"),
              "--samples", "8"])
    assert "expected_kahler=True" in capsys.readouterr().out
    assert "b = -1/2\n" in (tmp_path / "fs" / "effective.ini").read_text()
    report = json.loads((tmp_path / "fs" / "report.json").read_text())
    assert report["params"]["b"] == "-1/2"
    kahler = next(r for r in report["checks"] if r["name"] == "kahler")
    assert kahler["passed"] is True


def test_each_command_takes_only_its_flags(tmp_path, capsys):
    cfgp = write(tmp_path, "flat.ini", FLAT_INI)
    for argv in (["certify", "--samples", "5"],
                 ["construct-verify", "--workers", "2"],
                 ["construct-verify", "--tolerance-scale", "1e10"],
                 ["sweep", "--samples", "5"],
                 ["sweep", "--tolerance-scale", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", cfgp])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_each_command_rejects_what_it_does_not_read(tmp_path, capsys):
    sweep = "[sweep]\nm = 2\na = 1\nc = 1\nc2 = 1\n[base]\nkind = flat\n"
    for command, text, named in (
        ("certify", FLAT_INI, "[base]"),
        ("construct-verify", FLAT_INI + "workers = 2\n", "'workers'"),
        ("sweep", sweep + "[run]\nsamples = 3\n", "'samples'"),
        ("sweep", sweep + "[tolerances]\nkahler = 1\n", "[tolerances]"),
        # no setting can loosen a pinned tolerance
        ("construct-verify", FLAT_INI + "[tolerances]\nkahler = 1e300\n", "[tolerances]"),
        ("construct-verify", FLAT_INI + "tolerance_scale = 2\n", "'tolerance_scale'"),
        ("sweep", sweep + "[run]\ntolerance_scale = 2\n", "'tolerance_scale'"),
    ):
        cfgp = write(tmp_path, "extra.ini", text)
        assert cli.main([command, "--config", cfgp, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert named in err and f"for {command}" in err
    assert not (tmp_path / "o").exists()


def test_flags_parse_like_ini_values(tmp_path, capsys):
    # each fails before any construction: the flag is parsed and range-checked
    # as the [run] value it overrides
    cfgp = write(tmp_path, "flat.ini", FLAT_INI)
    for flag, value, message in (
        ("--seed", "-1", "[run] seed must be non-negative, got -1"),
        ("--seed", str(10**20), f"[run] seed must be at most {10**12}, got {10**20}"),
        ("--samples", "0", "[run] samples must be positive, got 0"),
    ):
        argv = ["construct-verify", "--config", cfgp, "--out", str(tmp_path / "o")]
        assert cli.main(argv + [flag, value]) == 4
        assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # the INI value gives the same message as the flag
    cfgp = write(tmp_path, "zero.ini", FLAT_INI.replace("samples = 8", "samples = 0"))
    assert cli.main(["construct-verify", "--config", cfgp]) == 4
    assert "config error: [run] samples must be positive, got 0\n" == capsys.readouterr().err
    sweep = write(tmp_path, "sweep.ini", "[sweep]\nm = 2\n[base]\nkind = flat\n")
    assert cli.main(["sweep", "--config", sweep, "--workers", "0"]) == 4
    assert "[run] workers must be positive, got 0" in capsys.readouterr().err
    # a seed whose sample stream would start past int64, for both commands
    big = f"[run]\nseed = {10**20}\n"
    for command, text in (("construct-verify", FLAT_INI.replace("[run]\nseed = 0\n", big)),
                          ("sweep", "[sweep]\nm = 2\n[base]\nkind = flat\n" + big)):
        cfgp = write(tmp_path, "big.ini", text)
        assert cli.main([command, "--config", cfgp, "--out", str(tmp_path / "o")]) == 4
        assert (f"config error: [run] seed must be at most {10**12}, got {10**20}\n"
                == capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_parser_is_reused_without_carrying_state(tmp_path):
    # main parses with one parser per process; a flag or a usage error of
    # one call must not reach the next
    assert cli.build_parser() is cli.build_parser()
    cfgp = write(tmp_path, "flat.ini", FLAT_INI)
    out = str(tmp_path / "o")
    assert cli.main(["construct-verify", "--config", cfgp, "--out", out, "--seed", "5"]) == 0
    assert "seed = 5\n" in (tmp_path / "o" / "effective.ini").read_text()
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct-verify", "--config", cfgp, "--bogus"])
    assert exc.value.code == 2
    assert cli.main(["construct-verify", "--config", cfgp, "--out", out]) == 0
    assert "seed = 0\n" in (tmp_path / "o" / "effective.ini").read_text()


def _readme_lines():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        return fh.read().splitlines()


def _ticked(text):
    return re.findall(r"`([^`]*)`", text)


def test_readme_settings_table_matches_reads():
    # the "sections and keys it reads" table and the key list under it name
    # exactly what cli._READS accepts, command by command
    lines = _readme_lines()
    head = lines.index("| command | sections and keys it reads | `[run]` keys, each also a flag |")
    table = {}
    for line in lines[head + 2:]:
        if not line.startswith("|"):
            break
        command, sections, run = (cell.strip() for cell in line.strip("|").split("|"))
        (command,) = _ticked(command)
        table[command] = ({sec.strip("[]") for sec in _ticked(sections)} | {"run"},
                          tuple(_ticked(run)))
    start = next(i for i, line in enumerate(lines[head:], head)
                 if line.startswith("The keys are"))
    paragraph = " ".join(lines[start:lines.index("", start)])
    keys = {sec: tuple(k.strip() for k in ks.split(","))
            for ks, sec in re.findall(r"`([^`]*)` in `\[(\w+)\]`", paragraph)}
    assert sorted(table) == sorted(cli._READS)
    for command, reads in cli._READS.items():
        sections, run = table[command]
        assert sections == set(reads), command
        for sec, want in reads.items():
            assert (run if sec == "run" else keys[sec]) == want, (command, sec)
    read = {sec for reads in cli._READS.values() for sec in reads}
    assert set(keys) <= read


def test_readme_configs_load_under_their_commands(tmp_path):
    # every ```ini block of the README belongs to the command named by the
    # "### `kahlerqe <command> ..." heading above it
    lines = _readme_lines()
    command, loaded = None, 0
    for i, line in enumerate(lines):
        if line.startswith("### `kahlerqe "):
            command = line.split()[2]
        elif line == "```ini":
            end = lines.index("```", i + 1)
            cfgp = write(tmp_path, f"readme{i}.ini", "\n".join(lines[i + 1:end]))
            assert command in cli._READS
            cli.load_config(cfgp, command)
            loaded += 1
    assert loaded == 3
