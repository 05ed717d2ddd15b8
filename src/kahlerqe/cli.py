"""Command-line driver: certify / construct-verify / sweep.

certify          exact rational-algebra certification of the ODE-level
                 identities for one parameter set (certificate.json).
construct-verify build the chart for one parameter set and run the full
                 numerical suite (report.json, warp.csv).
sweep            grid of parameter cells, one row per cell (sweep.csv).

Exit codes: 0 success, 2 verification/certification failure,
3 construction refused or failed, 4 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from kahlerqe.builder import (
    BaseModel,
    ConstructionError,
    admitted_phi,
    build_warp,
    end_to_end,
    expected_kahler,
    positivity_intervals,
    q_from_phi,
    tau_side,
)
from kahlerqe.odes import (
    ExactParameterError,
    SKRParams,
    alpha_degeneracy_roots,
    appendix_system,
    as_fraction,
    closed_form_certificate,
    closed_form_log_derivative,
    first_order_reduction,
    lemma_quantities,
    nonexistence_decision,
    solsys_system,
    system_12,
    CONSTANTS_ADMITTED,
)
from kahlerqe.rational import RationalFunction
from kahlerqe.verify import params_dict, run_suite

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_CONSTRUCT = 3
EXIT_CONFIG = 4


class ConfigError(ValueError):
    """Bad configuration file or option combination."""


_PARAMS = ("m", "a", "c", "k", "kappa", "lam", "c1", "c2", "b", "sign_phi")
_BASE = ("kind", "s")

# Every (section, key) each command reads; any other is a config error.  Each
# [run] key is also a flag of its command (in this order, the order
# effective.ini writes them), and a flag's value is parsed as the INI value is.
_READS = {
    "certify": {"params": _PARAMS, "run": ("out",)},
    "construct-verify": {
        "params": _PARAMS, "base": _BASE, "interval": ("lo", "hi"),
        "run": ("seed", "samples", "out"),
    },
    "sweep": {
        "sweep": ("m", "a", "c", "c2", "k", "samples"), "base": _BASE,
        "run": ("seed", "workers", "out"),
    },
}


@dataclass
class RunConfig:
    sections: dict

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)

    def has(self, section, key):
        return key in self.sections.get(section, {})


def load_config(path, command=None):
    """Read an INI file; a section or key that ``command`` does not read (with
    no command: that no command reads) is a ``ConfigError``."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config {path}: {exc}") from exc
    if command is None:
        allowed, where = {}, ""
        for reads in _READS.values():
            for sec, keys in reads.items():
                allowed.setdefault(sec, set()).update(keys)
    else:
        allowed, where = _READS[command], f" for {command}"
    sections = {}
    for sec in cp.sections():
        if sec not in allowed:
            raise ConfigError(
                f"unknown section [{sec}]{where}; allowed: {sorted(allowed)}"
            )
        body = {}
        for key, value in cp.items(sec):
            if key not in allowed[sec]:
                raise ConfigError(
                    f"unknown key {key!r} in [{sec}]{where}; allowed: {sorted(allowed[sec])}"
                )
            body[key] = value.strip()
        sections[sec] = body
    return RunConfig(sections=sections)


def _frac(cfg, section, key, default=None):
    raw = cfg.get(section, key)
    if raw is None:
        return default
    try:
        return as_fraction(raw, f"[{section}] {key}")
    except ExactParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _int(cfg, section, key, default=None):
    raw = cfg.get(section, key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from exc


def _float(cfg, section, key, default=None):
    raw = cfg.get(section, key)
    if raw is None:
        return default
    try:
        return float(Fraction(raw))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"[{section}] {key} must be numeric, got {raw!r}") from exc


def params_from_config(cfg):
    m = _int(cfg, "params", "m")
    if m is None:
        raise ConfigError("[params] m is required")
    a = _frac(cfg, "params", "a")
    c = _frac(cfg, "params", "c")
    if a is None or c is None:
        raise ConfigError("[params] a and c are required")
    C2 = _frac(cfg, "params", "c2", Fraction(0))
    kappa = _frac(cfg, "params", "kappa", Fraction(0))
    b = _frac(cfg, "params", "b", Fraction(1))
    sign_phi = _int(cfg, "params", "sign_phi", 1)
    try:
        if cfg.has("params", "k"):
            return SKRParams(
                m=m, a=a, c=c, k=_frac(cfg, "params", "k"),
                kappa=kappa, lam=_frac(cfg, "params", "lam", Fraction(0)),
                C1=_frac(cfg, "params", "c1", Fraction(0)),
                C2=C2, b=b, sign_phi=sign_phi,
            )
        return SKRParams.section6(
            m=m, a=a, c=c, C2=C2, kappa=kappa, b=b, sign_phi=sign_phi
        )
    except (ValueError, ExactParameterError) as exc:
        raise ConfigError(f"invalid [params]: {exc}") from exc


def base_from_config(cfg, m, kind=None):
    """``[base]`` as a BaseModel of complex dimension m - 1; ``kind`` stands in
    for a missing ``[base] kind`` (None: the key is required)."""
    kind = cfg.get("base", "kind", kind)
    if kind is None:
        raise ConfigError("[base] kind is required (flat or fubini-study)")
    s = _frac(cfg, "base", "s", Fraction(1))
    try:
        return BaseModel(kind=kind, dim_c=m - 1, s=s)
    except ValueError as exc:
        raise ConfigError(f"invalid [base]: {exc}") from exc


def interval_from_config(cfg):
    lo = _float(cfg, "interval", "lo")
    hi = _float(cfg, "interval", "hi")
    if (lo is None) != (hi is None):
        raise ConfigError("[interval] needs both lo and hi (or neither)")
    return None if lo is None else (lo, hi)


def _ranged(cfg, section, key, parse, default, *rules):
    value = parse(cfg, section, key, default)
    for what, ok in rules:
        if not ok(value):
            raise ConfigError(f"[{section}] {key} must be {what}, got {value!r}")
    return value


_POSITIVE = ("positive", lambda v: v > 0)
# the sample stream of seed s starts at index 64 + 100003 s, which must stay
# well inside int64
_SEED_MAX = 10**12
# [run] key: parser, default and the rules its value must meet
_RUN = {
    "seed": (_int, 0, ("non-negative", lambda v: v >= 0),
             (f"at most {_SEED_MAX}", lambda v: v <= _SEED_MAX)),
    "samples": (_int, 200, _POSITIVE),
    "workers": (_int, 1, _POSITIVE),
    "out": (RunConfig.get, "out", ("non-empty", bool)),
}


def _run_settings(cfg, command, flags):
    """The [run] settings ``command`` reads, range-checked; a flag that was
    given replaces the INI value before it is parsed."""
    keys = _READS[command]["run"]
    run = cfg.sections.setdefault("run", {})
    run.update((k, flags[k].strip()) for k in keys if flags[k] is not None)
    return {k: _ranged(cfg, "run", k, *_RUN[k]) for k in keys}


# -- certify ----------------------------------------------------------------


def _entry(name, computed, expected=None, equal=None):
    out = {"name": name, "computed": computed}
    if expected is not None:
        out["expected"] = expected
        out["equal"] = bool(equal)
    return out


def certify_params(params):
    """Exact certification of every symbolic identity for one parameter set."""
    t = RationalFunction.variable()
    entries = []

    sys12 = system_12(params)
    red = first_order_reduction(sys12, params)
    if params.on_distinguished_branch():
        expected_p = -1 * closed_form_log_derivative(params)
        entries.append(
            _entry("first-order-p", red.p.render(), expected_p.render(),
                   red.p == expected_p)
        )
    else:
        entries.append(_entry("first-order-p", red.p.render()))
    entries.append(_entry("first-order-q", red.q.render()))

    E1, E2 = lemma_quantities(red, sys12[0])
    expected_E1 = (params.a * (t - params.c) ** 2 * (2 * params.c * params.k + 1)) / (
        (t - 2 * params.c) * (params.k * t + 1)
    )
    entries.append(
        _entry("compatibility-E1", E1.render(), expected_E1.render(), E1 == expected_E1)
    )
    entries.append(_entry("compatibility-E2", E2.render(), "0", E2.is_zero))

    mek_f, qe2_f, red_f = appendix_system(
        params.m, params.a, params.c, params.kappa, params.lam, params.sign_phi
    )
    Ea, Eb = lemma_quantities(red_f, qe2_f)
    expected_Ea = -params.a * (t - params.c) / t
    entries.append(
        _entry("appendix-compatibility-E1", Ea.render("f"),
               expected_Ea.render("f"), Ea == expected_Ea)
    )
    entries.append(
        _entry("appendix-compatibility-E2", Eb.render("f"), "0", Eb.is_zero)
    )

    decision = nonexistence_decision(params)
    if params.on_distinguished_branch():
        branch = solsys_system(params)
        twoc = 2 * params.c
        scaling_ok = all(
            getattr(branch[i], co) == twoc * getattr(sys12[i], co)
            for i in (0, 1)
            for co in ("A", "B", "C", "D")
        )
        entries.append(
            _entry(
                "branch-scaling",
                f"[{branch[0].render()}; {branch[1].render()}]",
                "2c * (general system at k = -1/(2c))",
                scaling_ok,
            )
        )
        for i, member in enumerate(branch, start=1):
            psi_part, rat_part = closed_form_certificate(params, member)
            entries.append(
                _entry(
                    f"closed-form-residual-{i}",
                    f"psi*({psi_part.render()}) + ({rat_part.render()})",
                    "psi*(0) + (0)",
                    psi_part.is_zero and rat_part.is_zero,
                )
            )

    passed = all(e.get("equal", True) for e in entries)
    return {
        "params": params_dict(params),
        "decision": decision,
        "degeneracy_roots": alpha_degeneracy_roots(params),
        "identities": entries,
        "passed": passed,
    }


def cmd_certify(cfg, run):
    params = params_from_config(cfg)
    out_dir = run["out"]
    cert = certify_params(params)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "certificate.json")
    with open(path, "w") as fh:
        json.dump(cert, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"decision: {cert['decision']}")
    for e in cert["identities"]:
        if "equal" in e:
            mark = "PASS" if e["equal"] else "FAIL"
            print(f"  [{mark}] {e['name']}")
            if not e["equal"]:
                print(f"         computed: {e['computed']}")
                print(f"         expected: {e['expected']}")
        else:
            print(f"  [----] {e['name']}: {e['computed']}")
    print(f"certificate: {path}")
    print(f"overall: {'PASS' if cert['passed'] else 'FAIL'}")
    return EXIT_OK if cert["passed"] else EXIT_VERIFY


# -- construct-verify -------------------------------------------------------


def write_effective_config(path, params, base, interval, run):
    """Fully resolved configuration; reloading it reproduces the same run."""
    cp = configparser.ConfigParser()
    ini_key = {"lambda": "lam", "C1": "c1", "C2": "c2"}
    cp["params"] = {ini_key.get(k, k): str(v) for k, v in params_dict(params).items()}
    cp["base"] = {"kind": base.kind, "s": str(base.s)}
    cp["interval"] = {"lo": f"{interval[0]:.17g}", "hi": f"{interval[1]:.17g}"}
    cp["run"] = {k: str(v) for k, v in run.items()}
    with open(path, "w") as fh:
        cp.write(fh)


def cmd_construct_verify(cfg, run):
    params = params_from_config(cfg)
    base = base_from_config(cfg, params.m)
    if not cfg.has("params", "b"):
        params = dataclasses.replace(params, b=base.kahler_b(params.sign_phi))
    interval = interval_from_config(cfg)
    seed, samples, out_dir = run["seed"], run["samples"], run["out"]

    if interval is None:
        interval = select_window(params, base, side=params.sign_phi)
    skr, phi = end_to_end(params, base, interval)
    print(
        f"chart: {skr.chart.name}  interval=({skr.warp.interval[0]:.6g}, "
        f"{skr.warp.interval[1]:.6g})  expected_kahler={expected_kahler(base, params, skr.warp.interval)}"
    )
    report = run_suite(skr, samples=samples, seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    rpath = os.path.join(out_dir, "report.json")
    with open(rpath, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    wpath = os.path.join(out_dir, "warp.csv")
    with open(wpath, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "log_r", "Q"])
        for row in skr.warp.csv_rows():
            writer.writerow([f"{x:.17g}" for x in row])
    epath = os.path.join(out_dir, "effective.ini")
    write_effective_config(epath, params, base, skr.warp.interval, run)
    print("\n".join(report.summary_lines()))
    print(f"report: {rpath}  (sha256 {report.report_hash[:16]}...)")
    print(f"warp profile: {wpath}")
    print(f"effective config: {epath}")
    return EXIT_OK if report.passed else EXIT_VERIFY


# -- sweep ------------------------------------------------------------------


def _parse_list(raw, conv, what):
    out = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(conv(piece))
        except (ValueError, ExactParameterError) as exc:
            raise ConfigError(f"bad {what} value {piece!r} in [sweep]") from exc
    if not out:
        raise ConfigError(f"empty {what} list in [sweep]")
    return out


def _clamp_window(params, phi, iv, qcap=50.0, span_cap=6.0):
    """Shrink a positivity interval to a numerically comfortable window.

    Two failure modes bound the usable range: where Q is tiny the integral
    of b/Q makes log r diverge (exp overflows any sampling shell), and
    where Q is huge the metric entries dwarf each check's absolute tolerance.
    Center on the grid point with Q nearest 1, grow while Q <= qcap, then
    cap the log r span.
    """
    q = q_from_phi(params, phi)
    lo, hi = iv
    pad = 1e-4 * (hi - lo)
    grid = [lo + pad + (hi - lo - 2 * pad) * i / 512 for i in range(513)]
    qs = [q.value(t) for t in grid]
    jstar = min(range(513), key=lambda j: abs(math.log(max(qs[j], 1e-300))))
    j0 = j1 = jstar
    while j0 > 0 and qs[j0 - 1] <= qcap:
        j0 -= 1
    while j1 < 512 and qs[j1 + 1] <= qcap:
        j1 += 1
    if grid[j1] - grid[j0] > 1e-2:
        iv = (grid[j0], grid[j1])

    warp = build_warp(params, phi, iv)
    lo_l, hi_l = warp.ell_range
    if hi_l - lo_l <= span_cap:
        return iv
    half = span_cap / 2.0
    t0, t1 = warp.work_interval
    wgrid = [t0 + (t1 - t0) * i / 256 for i in range(257)]
    tstar = min(wgrid, key=lambda t: abs(math.log(max(warp.q.value(t), 1e-300))))
    lstar = warp.logr_of_tau(tstar)
    llo, lhi = lstar - half, lstar + half
    if llo < lo_l:
        llo, lhi = lo_l, lo_l + span_cap
    elif lhi > hi_l:
        llo, lhi = hi_l - span_cap, hi_l
    ta, tb = warp.tau_of_logr(llo), warp.tau_of_logr(lhi)
    return (min(ta, tb), max(ta, tb))


class NoWindowError(ConstructionError):
    """Q has no usable positivity interval on the allowed side of tau = c."""


def select_window(params, base, side=None):
    """The automatic tau-window, after the refusals of ``admitted_phi``.

    Q is scanned around 0, c and 2c (fractional a: only tau > max(0, 2c),
    where phi is real); the first positivity interval wider than 1e-2 on
    the allowed side of tau = c (side = +1 or -1, None for either) is
    clamped by ``_clamp_window``.
    """
    phi = admitted_phi(params, base)
    cf = float(params.c)
    span = 3.0 * max(1.0, abs(cf))
    lo, hi = min(0.0, 2 * cf) - span, max(0.0, 2 * cf) + span
    if params.a.denominator != 1:
        lo = max(0.0, 2 * cf) + 1e-6
    candidates = [
        iv for iv in positivity_intervals(q_from_phi(params, phi), lo, hi, {0.0, cf, 2 * cf})
        if iv[1] - iv[0] > 1e-2 and side in (None, tau_side(iv, cf))
    ]
    if not candidates:
        where = "" if side is None else f" on the sgn(tau - c) = {side} side"
        raise NoWindowError(f"no positivity interval of Q found in ({lo:.6g}, {hi:.6g}){where}")
    return _clamp_window(params, phi, candidates[0])


def _sweep_cell(index, m, a, c, C2, k, base, samples, seed):
    row = {
        "index": index, "m": m, "a": str(a), "c": str(c), "C2": str(C2),
        "k": "branch" if k is None else str(k),
        "status": "", "interval_lo": "", "interval_hi": "", "tol_scale": "",
        "kahler_max": "", "killing_max": "", "skr_max": "",
        "ricci_hessian_max": "", "quasi_einstein_max": "", "passed": "",
        "note": "",
    }
    try:
        try:
            base = dataclasses.replace(base, dim_c=m - 1)
            if k is not None:
                probe = SKRParams(m=m, a=a, c=c, k=k, kappa=base.kappa, C2=C2)
                if nonexistence_decision(probe) != CONSTANTS_ADMITTED:
                    row["status"] = "refused"
                    row["note"] = "obstruction a(2ck+1) != 0 forces phi = 0"
                    return row
            # any admitted cell sits on k = -1/(2c); take the matched constants
            params = SKRParams.section6(m=m, a=a, c=c, C2=C2, kappa=base.kappa)
        except (ValueError, ExactParameterError) as exc:
            row["status"] = "refused"
            row["note"] = str(exc)
            return row
        # section6 admits kappa != 0 only with sign_phi = +1, i.e. tau > c
        try:
            iv = select_window(params, base, side=None if base.kappa == 0 else 1)
        except NoWindowError:
            row["status"] = "no-interval"
            return row
        # the b that makes the chart Kahler on the window's side of tau = c
        sgn = tau_side(iv, c)
        params = SKRParams.section6(m=m, a=a, c=c, C2=C2, kappa=base.kappa,
                                    b=base.kahler_b(sgn), sign_phi=sgn)
        skr, _ = end_to_end(params, base, iv)
        # absolute residuals grow with the metric's magnitude; grade each
        # cell relative to the profile scale on its own window
        t0, t1 = skr.warp.work_interval
        qmax = max(skr.warp.q.value(t0 + (t1 - t0) * i / 64) for i in range(65))
        cell_ts = max(1.0, qmax)
        report = run_suite(skr, samples=samples, seed=seed,
                           tolerance_scale=cell_ts,
                           include_profile_identities=False)
        by_name = {r.name: r for r in report.records}
        row["status"] = "ok"
        row["interval_lo"] = f"{iv[0]:.9g}"
        row["interval_hi"] = f"{iv[1]:.9g}"
        row["tol_scale"] = f"{cell_ts:.3g}"
        row["kahler_max"] = f"{by_name['kahler'].max_abs:.3e}"
        row["killing_max"] = f"{by_name['killing'].max_abs:.3e}"
        row["skr_max"] = f"{by_name['skr-eigenstructure'].max_abs:.3e}"
        row["ricci_hessian_max"] = f"{by_name['ricci-hessian'].max_abs:.3e}"
        row["quasi_einstein_max"] = f"{by_name['quasi-einstein'].max_abs:.3e}"
        row["passed"] = str(report.passed)
    except ConstructionError as exc:
        row["status"] = "refused"
        row["note"] = str(exc)
    except Exception as exc:  # keep the sweep alive; the row records the cell
        row["status"] = "error"
        row["note"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_sweep(cfg, run):
    if "sweep" not in cfg.sections:
        raise ConfigError("sweep needs a [sweep] section")
    ms = _parse_list(cfg.get("sweep", "m", "2"), int, "m")
    a_list = _parse_list(cfg.get("sweep", "a", "1"), lambda x: as_fraction(x, "a"), "a")
    c_list = _parse_list(cfg.get("sweep", "c", "1"), lambda x: as_fraction(x, "c"), "c")
    C2_list = _parse_list(cfg.get("sweep", "c2", "1"), lambda x: as_fraction(x, "C2"), "C2")
    k_list = _parse_list(
        cfg.get("sweep", "k", "branch"),
        lambda x: None if x == "branch" else as_fraction(x, "k"), "k",
    )
    cell_samples = _ranged(cfg, "sweep", "samples", _int, 25, _POSITIVE)
    # checked once, before any cell; each cell sets its own dim_c = m - 1
    base = base_from_config(cfg, 2, kind="flat")
    seed, workers, out_dir = run["seed"], run["workers"], run["out"]

    cells = list(itertools.product(ms, a_list, c_list, C2_list, k_list))
    print(f"sweep: {len(cells)} cells, {workers} worker(s)")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(
            pool.map(
                lambda ic: _sweep_cell(
                    ic[0], *ic[1], base=base, samples=cell_samples, seed=seed,
                ),
                enumerate(cells),
            )
        )
    rows.sort(key=lambda r: r["index"])
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sweep.csv")
    fields = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    counts = {}
    for r in rows:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    print(f"sweep results: {counts}")
    print(f"rows: {path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kahlerqe",
        description=(
            "certify, construct, and verify conformally Kahler "
            "quasi-Einstein metrics"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("certify", cmd_certify),
                     ("construct-verify", cmd_construct_verify),
                     ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI configuration file")
        for key in _READS[name]["run"]:
            p.add_argument("--" + key.replace("_", "-"), help=f"overrides [run] {key}")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        return args.fn(cfg, _run_settings(cfg, args.command, vars(args)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConstructionError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCT
    except ExactParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
