"""Command-line entry points: config parsing, the certify / construct-verify /
sweep subcommands, artifact layout, exit codes, and the effective-config
round trip."""

import csv
import json
import os
import re
from fractions import Fraction

import pytest

from kahlerqe import cli


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


def test_config_error_exit(tmp_path, capsys):
    bad = write(tmp_path, "bad.ini", "[params]\nm = 2\nq = 1\n")
    assert cli.main(["certify", "--config", bad, "--out", str(tmp_path / "o")]) == 4
    assert "config error" in capsys.readouterr().err
    assert cli.main(["certify", "--config", str(tmp_path / "nope.ini")]) == 4


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
    assert "sweep results" in text


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


def test_sweep_config_rejections(tmp_path, capsys):
    grid = "[sweep]\nm = 2\na = 1\nc = 1\nc2 = 1\n{extra}\n[base]\n{base}\n"
    for extra, base, message in (
            ("k =", "kind = flat", "empty k list"),
            ("samples = 0", "kind = flat", "samples must be positive, got 0"),
            # [base] is checked as construct-verify checks it, before any cell
            ("", "kind = flat\ns = 0", "config error: invalid [base]: s must be nonzero"),
            ("", "kind = round", "config error: invalid [base]: unknown base kind 'round'")):
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
