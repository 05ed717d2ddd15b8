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
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from kahlerqe.builder import (
    KINDS,
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
    SKRParams,
    alpha_degeneracy_roots,
    appendix_system,
    closed_form_certificate,
    closed_form_log_derivative,
    first_order_reduction,
    lemma_quantities,
    nonexistence_decision,
    psi_factors,
    real_floor,
    solsys_system,
    system_12,
    CONSTANTS_ADMITTED,
)
from kahlerqe.rational import ExactParameterError, RationalFunction, as_fraction, from_ints
from kahlerqe.verify import gather_points, params_dict, run_suite

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


# command=None serves perfbench/child.py, which loads every config during set-up
def load_config(path, command=None):
    """Read an INI file, as UTF-8 (a leading byte-order mark is skipped); a
    file that cannot be opened or decoded, and a section or key that
    ``command`` does not read (with no command: that no command reads), is
    a ``ConfigError`` naming it."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cp.read_file(fh, source=path)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
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
        raise ConfigError(f"[base] kind is required ({KINDS})")
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


def _identity(name, computed, expected, var="t"):
    """The entry of an exact identity between two rational functions."""
    return _entry(name, computed.render(var), expected.render(var), computed == expected)


def certify_params(params):
    """Exact certification of every symbolic identity for one parameter set;
    on the branch, L = psi'/psi is formed once for all three of its uses."""
    # every polynomial here is formed in ints over d, the parameters'
    # common denominator: A = a d, C = c d, K = k d
    d, A, C, K = params.cleared()[:4]
    dd = d * d
    t = from_ints([0, 1], 1)
    zero = RationalFunction.constant(0)
    on_branch = params.on_distinguished_branch()
    entries = []

    sys12 = system_12(params)
    red = first_order_reduction(sys12, t, from_ints([C, -d], d))
    if on_branch:
        L = closed_form_log_derivative(params)
        entries.append(_identity("first-order-p", red.p, -L))
    else:
        entries.append(_entry("first-order-p", red.p.render()))
    entries.append(_entry("first-order-q", red.q.render()))

    E1, E2 = lemma_quantities(red, sys12[0])
    # a(2ck + 1)(t - c)^2 / ((t - 2c)(kt + 1)), with a(2ck + 1) = s / d^3
    s = A * (2 * C * K + dd)
    expected_E1 = RationalFunction(from_ints([s * C * C, -2 * s * C * d, s * dd], dd * dd * d),
                                   from_ints([-2 * C * d, dd - 2 * C * K, K * d], dd))
    entries.append(_identity("compatibility-E1", E1, expected_E1))
    entries.append(_identity("compatibility-E2", E2, zero))

    _, qe2_f, red_f = appendix_system(params)
    Ea, Eb = lemma_quantities(red_f, qe2_f)
    expected_Ea = RationalFunction(from_ints([A * C, -A * d], dd), t)  # -a(t - c)/t
    entries.append(_identity("appendix-compatibility-E1", Ea, expected_Ea, "f"))
    entries.append(_identity("appendix-compatibility-E2", Eb, zero, "f"))

    decision = nonexistence_decision(params)
    if on_branch:
        branch = solsys_system(params)
        # branch = 2c * general, i.e. d * branch = 2C * general
        scaling_ok = all(d * getattr(bm, co) == 2 * C * getattr(gm, co)
                         for bm, gm in zip(branch, sys12) for co in "ABCD")
        entries.append(_entry("branch-scaling", f"[{branch[0].render()}; {branch[1].render()}]",
                              "2c * (general system at k = -1/(2c))", scaling_ok))
        for i, member in enumerate(branch, start=1):
            psi_part, rat_part = closed_form_certificate(params, member, L)
            entries.append(_entry(f"closed-form-residual-{i}",
                                  f"psi*({psi_part.render()}) + ({rat_part.render()})",
                                  "psi*(0) + (0)", psi_part.is_zero and rat_part.is_zero))

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
        fh.write(json.dumps(cert, sort_keys=True, indent=2) + "\n")
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

    warp = None
    if interval is None:
        warp = select_window(params, base, side=params.sign_phi)
        interval = warp.interval
    skr, _ = end_to_end(params, base, interval, warp)
    print(
        f"chart: {skr.chart.name}  interval=({skr.warp.interval[0]:.6g}, "
        f"{skr.warp.interval[1]:.6g})  expected_kahler={expected_kahler(base, params, skr.warp.interval)}"
    )
    report = run_suite(skr, samples=samples, seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    rpath = os.path.join(out_dir, "report.json")
    text = report.to_json()
    with open(rpath, "w") as fh:
        fh.write(text + "\n")
    wpath = os.path.join(out_dir, "warp.csv")
    with open(wpath, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "log_r", "Q"])
        for row in skr.warp.csv_rows():
            writer.writerow([f"{x:.17g}" for x in row])
    epath = os.path.join(out_dir, "effective.ini")
    write_effective_config(epath, params, base, skr.warp.interval, run)
    print("\n".join(report.summary_lines()))
    print(f"report: {rpath}  (sha256 {hashlib.sha256(text.encode()).hexdigest()[:16]}...)")
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


QCAP = 50.0
SPAN_CAP = 6.0


def _nearest_one(qs):
    """Index of the first grid value Q with |log Q| least (Q floored at
    1e-300): ``math.log`` on each value, and ``list.index`` of the least,
    which picks the same index as a ``min`` over the indices with that key."""
    keys = list(map(abs, map(math.log, np.maximum(qs, 1e-300).tolist())))
    return keys.index(min(keys))


def _clamp_window(params, phi, iv):
    """Shrink a positivity interval to a numerically comfortable window, and
    return the warp of ``params`` built on it (the window is its
    ``interval``), which the chart then uses as it is.

    Two failure modes bound the usable range: where Q is tiny the integral
    of b/Q makes log r diverge (exp overflows any sampling shell), and
    where Q is huge the metric entries dwarf each check's absolute tolerance.
    Center on the grid point with Q nearest 1, grow while Q <= ``QCAP``,
    then cap the log r span at ``SPAN_CAP``: a window the cap shrinks ends
    at the tau of two log r values, both inverted in one ``tau_of_logr``
    call, and gets a second warp.  The window depends on b only through |b|:
    negating b negates the warp's log r exactly, and the cap's window with
    it.
    """
    q = q_from_phi(params, phi)
    lo, hi = iv
    pad = 1e-4 * (hi - lo)
    grid = [lo + pad + (hi - lo - 2 * pad) * i / 512 for i in range(513)]
    qs = q.value(np.array(grid))
    j0 = j1 = _nearest_one(qs)
    qs = qs.tolist()
    while j0 > 0 and qs[j0 - 1] <= QCAP:
        j0 -= 1
    while j1 < 512 and qs[j1 + 1] <= QCAP:
        j1 += 1
    if grid[j1] - grid[j0] > 1e-2:
        iv = (grid[j0], grid[j1])

    warp = build_warp(params, phi, iv)
    lo_l, hi_l = warp.ell_range
    if hi_l - lo_l <= SPAN_CAP:
        return warp
    half = SPAN_CAP / 2.0
    t0, t1 = warp.work_interval
    wgrid = [t0 + (t1 - t0) * i / 256 for i in range(257)]
    tstar = wgrid[_nearest_one(warp.q.value(np.array(wgrid)))]
    lstar = warp.antiderivative(tstar)
    llo, lhi = lstar - half, lstar + half
    if llo < lo_l:
        llo, lhi = lo_l, lo_l + SPAN_CAP
    elif lhi > hi_l:
        llo, lhi = hi_l - SPAN_CAP, hi_l
    ta, tb = warp.tau_of_logr(np.array([llo, lhi])).tolist()
    return build_warp(params, phi, (min(ta, tb), max(ta, tb)))


class NoWindowError(ConstructionError):
    """Q has no usable positivity interval on the allowed side of tau = c."""


def select_window(params, base, side=None):
    """The warp on the automatic tau-window, after the refusals of
    ``admitted_phi``; the window is the warp's ``interval``.

    Q is scanned around the roots 0, c and 2c of ``psi_factors``, cut at
    each (fractional a: only above ``real_floor``, where phi is real); the
    first positivity interval wider than 1e-2 on the allowed side of tau = c
    (side = +1 or -1, None for either) is clamped by ``_clamp_window``,
    whose warp is returned; the segments to its right are not scanned.
    Its ``params`` are those of the window's side: a window off
    ``params.sign_phi`` (only with side=None) is clamped with sign_phi and
    b negated, so b keeps its sign relative to the side (a Kahler b stays
    Kahler) and the window is the one the given b selects.
    """
    phi = admitted_phi(params, base)
    cf = float(params.c)
    roots = [float(root) for _, root in psi_factors(params)]
    span = 3.0 * max(1.0, abs(cf))
    floor = real_floor(params)
    lo = min(roots) - span if floor is None else floor + 1e-6
    hi = max(roots) + span
    for iv in positivity_intervals(q_from_phi(params, phi), lo, hi, roots):
        if iv[1] - iv[0] > 1e-2 and side in (None, tau_side(iv, cf)):
            break
    else:
        where = "" if side is None else f" on the sgn(tau - c) = {side} side"
        raise NoWindowError(f"no positivity interval of Q found in ({lo:.6g}, {hi:.6g}){where}")
    if tau_side(iv, cf) != params.sign_phi:
        params = dataclasses.replace(params, b=-params.b, sign_phi=-params.sign_phi)
    return _clamp_window(params, phi, iv)


# A sweep evaluates the built cells of one dimension n together, in batches
# of at most this many n^4 entries (n^4 per point: the second derivatives
# of the metrics), the size of construct-verify's 200-point batch at n = 6;
# so a cell of larger n still takes a batch of its own, as large as today's.
BATCH_N4_POINTS = 6**4 * 200


@dataclass
class _Cell:
    """A sweep cell settled up to its suite: its row, and, unless a refusal
    or an error decided the row, its chart and tolerance scale."""

    row: dict
    skr: object = None
    tol_scale: float = 1.0


def _settle_cell(index, m, a, c, C2, k, base):
    """Decide a sweep cell up to its suite: the obstruction, the window and
    the chart, and the tolerance scale the chart's profile sets."""
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
                    return _Cell(row)
            # any admitted cell sits on k = -1/(2c); take the matched constants,
            # with the b that makes the chart Kahler above tau = c.  A window
            # below c comes back with sign_phi and b negated: the b that makes
            # the chart Kahler on that side
            params = SKRParams.section6(m=m, a=a, c=c, C2=C2, kappa=base.kappa,
                                        b=base.kahler_b(1))
        except (ValueError, ExactParameterError) as exc:
            row["status"] = "refused"
            row["note"] = str(exc)
            return _Cell(row)
        # section6 admits kappa != 0 only with sign_phi = +1, i.e. tau > c
        try:
            warp = select_window(params, base, side=None if base.kappa == 0 else 1)
        except NoWindowError as exc:
            row["status"] = "no-interval"
            row["note"] = str(exc)
            return _Cell(row)
        skr, _ = end_to_end(warp.params, base, warp.interval, warp)
        # absolute residuals grow with the metric's magnitude; grade each
        # cell relative to the profile scale on its own window
        t0, t1 = skr.warp.work_interval
        ts = np.array([t0 + (t1 - t0) * i / 64 for i in range(65)])
        qmax = max(skr.warp.q.value(ts).tolist())
        return _Cell(row, skr, max(1.0, qmax))
    except Exception as exc:  # keep the sweep alive; the row records the cell
        _record_failure(row, exc)
    return _Cell(row)


def _record_failure(row, exc):
    """A cell that raised: refused on a ``ConstructionError``, else an error."""
    if isinstance(exc, ConstructionError):
        row["status"], row["note"] = "refused", str(exc)
    else:
        row["status"], row["note"] = "error", f"{type(exc).__name__}: {exc}"


def _sweep_cell(index, m, a, c, C2, k, base, samples, seed, cell=None, geos=None):
    """The row of one sweep cell.  ``cell`` is the cell as ``_settle_cell``
    left it (settled here when None), and ``geos`` the geometry of its
    sample points, its slice of a sweep batch (gathered here when None)."""
    if cell is None:
        cell = _settle_cell(index, m, a, c, C2, k, base)
    row, skr = cell.row, cell.skr
    if skr is None:
        return row
    try:
        report = run_suite(skr, samples=samples, seed=seed,
                           tolerance_scale=cell.tol_scale, geos=geos)
        by_name = {r.name: r for r in report.records}
        iv = skr.warp.interval
        row["status"] = "ok"
        row["interval_lo"] = f"{iv[0]:.9g}"
        row["interval_hi"] = f"{iv[1]:.9g}"
        row["tol_scale"] = f"{cell.tol_scale:.3g}"
        row["kahler_max"] = f"{by_name['kahler'].max_abs:.3e}"
        row["killing_max"] = f"{by_name['killing'].max_abs:.3e}"
        row["skr_max"] = f"{by_name['skr-eigenstructure'].max_abs:.3e}"
        row["ricci_hessian_max"] = f"{by_name['ricci-hessian'].max_abs:.3e}"
        row["quasi_einstein_max"] = f"{by_name['quasi-einstein'].max_abs:.3e}"
        row["passed"] = str(report.passed)
    except Exception as exc:  # keep the sweep alive; the row records the cell
        _record_failure(row, exc)
    return row


def _sweep_batches(cells, samples):
    """The built cells, as lists of indices evaluated in one batch: runs of
    consecutive built cells of one dimension n, cut where the next would
    pass ``BATCH_N4_POINTS``."""
    batches = []
    for i, cell in enumerate(cells):
        if cell.skr is None:
            continue
        n = cell.skr.dim
        last = batches[-1] if batches else None
        if (last and cells[last[0]].skr.dim == n
                and (len(last) + 1) * samples * n**4 <= BATCH_N4_POINTS):
            last.append(i)
        else:
            batches.append([i])
    return batches


def _batch_geometry(skrs, samples, seed):
    """Each chart's slice of one geometry batch of all their sample points;
    None where the chart gathers its own points in ``_sweep_cell``.

    A batch that raises names no cell, so each chart of it gathers its own
    points, and the one at fault fails alone, with the row it gets alone.
    """
    if len(skrs) == 1:
        return [None]
    try:
        geos, _ = gather_points(skrs, samples, seed=seed)
    except Exception:  # the cell at fault raises again in _sweep_cell
        return [None] * len(skrs)
    return [geos.select(slice(i * samples, (i + 1) * samples)) for i in range(len(skrs))]


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
    # [run] workers is range-checked by _run_settings but has no effect: the
    # cells are CPU-bound Python, so threads only contend for the GIL
    seed, out_dir = run["seed"], run["out"]

    cells = list(itertools.product(ms, a_list, c_list, C2_list, k_list))
    print(f"sweep: {len(cells)} cells")
    # two phases: every cell is settled up to its suite, then the built
    # cells of one n are evaluated in shared batches, one batch at a time
    settled = [_settle_cell(i, *cell, base=base) for i, cell in enumerate(cells)]
    rows = {}
    for batch in _sweep_batches(settled, cell_samples):
        slices = _batch_geometry([settled[i].skr for i in batch], cell_samples, seed)
        for i, geos in zip(batch, slices):
            rows[i] = _sweep_cell(i, *cells[i], base=base, samples=cell_samples,
                                  seed=seed, cell=settled[i], geos=geos)
    rows = [rows[i] if i in rows else
            _sweep_cell(i, *cell, base=base, samples=cell_samples, seed=seed,
                        cell=settled[i])
            for i, cell in enumerate(cells)]
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


@functools.cache
def build_parser():
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls, so in-process callers of ``main`` share it."""
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
