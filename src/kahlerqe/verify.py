"""Numerical verification suite for assembled charts.

Each check samples the chart at deterministic low-discrepancy points,
evaluates a tensor identity through the jet-based curvature operators, and
reports the worst absolute residual against a pinned tolerance.  Reports
serialize to canonical JSON (sorted keys, no timestamps) so a rerun with
the same seed is byte-identical, including its hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from kahlerqe.charts import (
    conformal_scale,
    grad_norm_sq,
    hessian,
    is_positive_definite,
    kahler_residual,
    killing_residual,
    laplacian,
    metric_values,
    ricci,
    scalar_jet,
)
from kahlerqe.odes import alpha_profile, gamma_from_phi
from kahlerqe.builder import q_from_phi

DEFAULT_TOLERANCES = {
    "kahler": 1e-8,
    "killing": 1e-8,
    "skr-eigenstructure": 1e-8,
    "ricci-hessian": 1e-7,
    "quasi-einstein": 1e-6,
    "warped-einstein-constant": 1e-6,
    "conformal-expansions": 1e-8,
    "grad-norm-identity": 1e-8,
    "laplacian-identity": 1e-8,
    "c-recovery": 1e-9,
    "hessian-eigenvalue": 1e-8,
    "positive-definite": 0.0,
}


@dataclass
class CheckRecord:
    name: str
    passed: bool
    samples: int
    max_abs: float
    mean_abs: float
    tolerance: float
    status: str = ""  # "pass" | "fail" | "skipped"
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.status:
            self.status = "pass" if self.passed else "fail"

    def to_dict(self):
        return {
            "name": self.name,
            "status": self.status,
            "passed": self.passed,
            "samples": self.samples,
            "max_abs": self.max_abs,
            "mean_abs": self.mean_abs,
            "tolerance": self.tolerance,
            "extra": self.extra,
        }


def _finish(name, residuals, tol, extra=None, scale=1.0):
    arr = np.asarray(residuals, dtype=float)
    mx = float(np.max(arr)) if arr.size else 0.0
    mn = float(np.mean(arr)) if arr.size else 0.0
    return CheckRecord(
        name=name,
        passed=bool(mx <= tol * scale),
        samples=int(arr.size),
        max_abs=mx,
        mean_abs=mn,
        tolerance=tol * scale,
        extra=extra or {},
    )


def gather_points(skr, samples, seed=0, grad_floor=1e-12):
    """Valid sample points plus the count of deterministic exclusions.

    Points where the gradient of tau degenerates (never expected on a
    margin-trimmed interval, but guarded anyway) are skipped and replaced
    by later points of the same low-discrepancy stream.
    """
    raw = skr.sample_points(2 * samples, seed=seed)
    pts, excluded = [], 0
    for p in raw:
        if len(pts) == samples:
            break
        if not skr.chart.domain(p):
            excluded += 1
            continue
        if grad_norm_sq(skr.chart, skr.tau, p) <= grad_floor:
            excluded += 1
            continue
        pts.append(p)
    if len(pts) < samples:
        raise RuntimeError(
            f"only {len(pts)} of {samples} requested sample points were usable"
        )
    return pts, excluded


def check_positive_definite(skr, points, tol=0.0, tolerance_scale=1.0):
    bad = sum(0 if is_positive_definite(metric_values(skr.chart, p)) else 1 for p in points)
    rec = _finish("positive-definite", [float(bad)], 0.0, {"indefinite_points": bad})
    return rec


def check_kahler(skr, points, tol=None, tolerance_scale=1.0):
    tol = DEFAULT_TOLERANCES["kahler"] if tol is None else tol
    res = [kahler_residual(skr.chart, skr.J, p) for p in points]
    return _finish("kahler", res, tol, scale=tolerance_scale)


def check_killing(skr, points, tol=None, tolerance_scale=1.0):
    tol = DEFAULT_TOLERANCES["killing"] if tol is None else tol
    res = [
        float(np.max(np.abs(killing_residual(skr.chart, skr.tau, skr.J, p))))
        for p in points
    ]
    return _finish("killing", res, tol, scale=tolerance_scale)


def _h_frame(G, v1, v2, dim, drop_tol=1e-8):
    """g-orthonormal frame of the complement of span{v1, v2}.

    Deterministic: projects the coordinate basis and runs modified
    Gram-Schmidt in index order, skipping directions that collapse.
    """
    def inner(a, b):
        return float(a @ G @ b)

    frame = []
    for v in (v1, v2):
        nv = np.sqrt(inner(v, v))
        frame.append(v / nv)
    out = []
    for i in range(dim):
        w = np.zeros(dim)
        w[i] = 1.0
        for u in frame + out:
            w = w - inner(w, u) * u
        nw = inner(w, w)
        if nw > drop_tol:
            out.append(w / np.sqrt(nw))
        if len(out) == dim - 2:
            break
    if len(out) != dim - 2:
        raise RuntimeError("failed to build a frame for the horizontal complement")
    return frame[0], frame[1], out


def check_skr(skr, points, tol=None, tolerance_scale=1.0):
    """Eigenstructure of Hess(tau) and Ricci on the complement of
    {grad tau, J grad tau}: both must restrict to scalars there with no
    mixed terms."""
    tol = DEFAULT_TOLERANCES["skr-eigenstructure"] if tol is None else tol
    n = skr.dim
    res = []
    phi_hats = []
    J0 = np.asarray(skr.J.fn(np.zeros(n)), dtype=float)
    for p in points:
        G = metric_values(skr.chart, p)
        _, dt, _ = scalar_jet(skr.tau, skr.chart, p)
        v1 = np.linalg.solve(G, dt)
        v2 = J0 @ v1
        _, _, hs = _h_frame(G, v1, v2, n)
        H = hessian(skr.chart, skr.tau, p)
        R = ricci(skr.chart, p)
        worst = 0.0
        for S, keep in ((H, True), (R, False)):
            block = np.array([[u @ S @ w for w in hs] for u in hs])
            lam = np.trace(block) / (n - 2)
            worst = max(worst, float(np.max(np.abs(block - lam * np.eye(n - 2)))))
            for vv in (v1, v2):
                vn = vv / np.sqrt(vv @ G @ vv)
                worst = max(worst, float(np.max(np.abs([u @ S @ vn for u in hs]))))
            if keep:
                phi_hats.append(lam)
        res.append(worst)
    extra = {
        "phi_estimate_min": float(np.min(phi_hats)),
        "phi_estimate_max": float(np.max(phi_hats)),
        "trivial_pair": bool(np.max(np.abs(phi_hats)) <= tol * tolerance_scale),
    }
    return _finish("skr-eigenstructure", res, tol, extra, scale=tolerance_scale)


def check_ricci_hessian(skr, points, tol=None, tolerance_scale=1.0,
                        alpha=None, gamma=None):
    """alpha(tau) Hess(tau) + r = gamma(tau) g with the profile coefficients."""
    tol = DEFAULT_TOLERANCES["ricci-hessian"] if tol is None else tol
    params = skr.params
    phi = skr.warp.phi
    if alpha is None:
        arf = alpha_profile(params)
        alpha = lambda t: arf(t)
    if gamma is None:
        gamma = lambda t: gamma_from_phi(params, phi, alpha, t)
    res = []
    for p in points:
        t = skr.tau_at(p)
        G = metric_values(skr.chart, p)
        H = hessian(skr.chart, skr.tau, p)
        R = ricci(skr.chart, p)
        res.append(float(np.max(np.abs(alpha(t) * H + R - gamma(t) * G))))
    return _finish("ricci-hessian", res, tol, scale=tolerance_scale)


def check_quasi_einstein(skr, points, tol=None, tolerance_scale=1.0):
    """(-a/f) Hess_ghat(f) + ricci(ghat) = lambda ghat for ghat = g / tau^2."""
    tol = DEFAULT_TOLERANCES["quasi-einstein"] if tol is None else tol
    params = skr.params
    af, lamf = float(params.a), float(params.lam)
    ghat = conformal_scale(skr.chart, skr.tau)
    res = []
    fmin = np.inf
    for p in points:
        fv = scalar_jet(skr.f, skr.chart, p)[0]
        fmin = min(fmin, abs(fv))
        Hf = hessian(ghat, skr.f, p)
        Rh = ricci(ghat, p)
        Gh = metric_values(ghat, p)
        res.append(float(np.max(np.abs((-af / fv) * Hf + Rh - lamf * Gh))))
    return _finish(
        "quasi-einstein", res, tol, {"min_abs_f": float(fmin)}, scale=tolerance_scale
    )


def check_warped_einstein_constant(skr, points, tol=None, tolerance_scale=1.0):
    """Pointwise constancy of mu_F = f lap(f) + (a-1)|grad f|^2 + lambda f^2
    in the scaled metric; constancy is what makes the warped product with an
    a-dimensional Einstein fiber itself Einstein.  Skipped for fractional a
    (no integer fiber dimension)."""
    tol = DEFAULT_TOLERANCES["warped-einstein-constant"] if tol is None else tol
    params = skr.params
    if params.a.denominator != 1:
        return CheckRecord(
            name="warped-einstein-constant", passed=True, samples=0,
            max_abs=0.0, mean_abs=0.0, tolerance=tol * tolerance_scale,
            status="skipped",
            extra={"reason": f"a = {params.a} is not an integer fiber dimension"},
        )
    af, lamf = float(params.a), float(params.lam)
    ghat = conformal_scale(skr.chart, skr.tau)
    mus = []
    for p in points:
        fv = scalar_jet(skr.f, skr.chart, p)[0]
        lapf = laplacian(ghat, skr.f, p)
        gnf = grad_norm_sq(ghat, skr.f, p)
        mus.append(fv * lapf + (af - 1.0) * gnf + lamf * fv * fv)
    mu_mean = float(np.mean(mus))
    spread = [abs(m - mu_mean) for m in mus]
    scale = max(1.0, abs(mu_mean))
    rec = _finish(
        "warped-einstein-constant", spread, tol,
        {"mu_mean": mu_mean, "scale": scale},
        scale=tolerance_scale * scale,
    )
    return rec


def check_conformal_formulas(skr, points, tol=None, tolerance_scale=1.0):
    """Direct curvature of ghat = g/tau^2 against its expansion in g-terms,
    and likewise for the Hessian of f; both identities are exact, so the
    residual is pure differentiation noise."""
    tol = DEFAULT_TOLERANCES["conformal-expansions"] if tol is None else tol
    n = skr.dim
    ghat = conformal_scale(skr.chart, skr.tau)
    res = []
    for p in points:
        G = metric_values(skr.chart, p)
        tv, dt, _ = scalar_jet(skr.tau, skr.chart, p)
        fv, df, _ = scalar_jet(skr.f, skr.chart, p)
        Ht = hessian(skr.chart, skr.tau, p)
        R = ricci(skr.chart, p)
        Q = grad_norm_sq(skr.chart, skr.tau, p)
        lap = laplacian(skr.chart, skr.tau, p)
        r_hat = ricci(ghat, p)
        expand_r = R + (n - 2) / tv * Ht + (lap / tv - (n - 1) * Q / tv**2) * G
        e1 = float(np.max(np.abs(r_hat - expand_r)))

        Hf = hessian(skr.chart, skr.f, p)
        Hf_hat = hessian(ghat, skr.f, p)
        ginv = np.linalg.inv(G)
        cross = float(dt @ ginv @ df)
        expand_h = Hf + (np.outer(dt, df) + np.outer(df, dt) - cross * G) / tv
        e2 = float(np.max(np.abs(Hf_hat - expand_h)))
        res.append(max(e1, e2))
    return _finish("conformal-expansions", res, tol, scale=tolerance_scale)


def check_profile_identities(skr, points, tolerance_scale=1.0, tols=None):
    """The chart-level identities tying the construction to its profiles:
    |grad tau|^2 = Q(tau), lap tau = 2m phi + 2(tau-c) phi', recovery of the
    constant c, and phi as the horizontal Hessian eigenvalue."""
    tols = tols or {}
    params = skr.params
    phi = skr.warp.phi
    q = q_from_phi(params, phi)
    cf = float(params.c)
    m = params.m
    n = skr.dim
    J0 = np.asarray(skr.J.fn(np.zeros(n)), dtype=float)
    e_grad, e_lap, e_c, e_eig = [], [], [], []
    for p in points:
        t = skr.tau_at(p)
        gn = grad_norm_sq(skr.chart, skr.tau, p)
        lap = laplacian(skr.chart, skr.tau, p)
        e_grad.append(abs(gn - q.value(t)))
        e_lap.append(abs(lap - (2 * m * phi.value(t) + 2 * (t - cf) * phi.d1(t))))
        e_c.append(abs((t - q.value(t) / (2 * phi.value(t))) - cf))
        G = metric_values(skr.chart, p)
        _, dt, _ = scalar_jet(skr.tau, skr.chart, p)
        v1 = np.linalg.solve(G, dt)
        v2 = J0 @ v1
        _, _, hs = _h_frame(G, v1, v2, n)
        H = hessian(skr.chart, skr.tau, p)
        lam = np.trace(np.array([[u @ H @ w for w in hs] for u in hs])) / (n - 2)
        e_eig.append(abs(lam - phi.value(t)))
    out = []
    for name, errs in (
        ("grad-norm-identity", e_grad),
        ("laplacian-identity", e_lap),
        ("c-recovery", e_c),
        ("hessian-eigenvalue", e_eig),
    ):
        tol = tols.get(name, DEFAULT_TOLERANCES[name])
        out.append(_finish(name, errs, tol, scale=tolerance_scale))
    return out


SUITE_CHECKS = (
    "positive-definite",
    "kahler",
    "killing",
    "skr-eigenstructure",
    "ricci-hessian",
    "quasi-einstein",
    "warped-einstein-constant",
    "conformal-expansions",
)


@dataclass
class VerificationReport:
    label: str
    params: dict
    base: dict
    interval: tuple
    seed: int
    samples: int
    tolerance_scale: float
    excluded_points: int
    records: list

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def to_dict(self):
        return {
            "label": self.label,
            "params": self.params,
            "base": self.base,
            "interval": list(self.interval),
            "seed": self.seed,
            "samples": self.samples,
            "tolerance_scale": self.tolerance_scale,
            "excluded_points": self.excluded_points,
            "passed": self.passed,
            "checks": [r.to_dict() for r in self.records],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @property
    def report_hash(self):
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def summary_lines(self):
        out = []
        for r in self.records:
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[r.status]
            out.append(
                f"  [{mark}] {r.name:26s} max={r.max_abs:.3e}  tol={r.tolerance:.1e}"
            )
        out.append(f"  overall: {'PASS' if self.passed else 'FAIL'}")
        return out


def params_dict(params):
    return {
        "m": params.m,
        "a": str(params.a),
        "c": str(params.c),
        "k": str(params.k),
        "kappa": str(params.kappa),
        "lambda": str(params.lam),
        "C1": str(params.C1),
        "C2": str(params.C2),
        "b": str(params.b),
        "sign_phi": params.sign_phi,
    }


def base_dict(base):
    return {"kind": base.kind, "dim_c": base.dim_c, "s": str(base.s),
            "kappa": str(base.kappa)}


def run_suite(skr, samples=200, seed=0, tolerance_scale=1.0, tolerances=None,
              include_profile_identities=True, label=""):
    """Run every check on one shared deterministic point set."""
    tolerances = tolerances or {}
    points, excluded = gather_points(skr, samples, seed=seed)
    ts = tolerance_scale
    records = [
        check_positive_definite(skr, points),
        check_kahler(skr, points, tolerances.get("kahler"), ts),
        check_killing(skr, points, tolerances.get("killing"), ts),
        check_skr(skr, points, tolerances.get("skr-eigenstructure"), ts),
        check_ricci_hessian(skr, points, tolerances.get("ricci-hessian"), ts),
        check_quasi_einstein(skr, points, tolerances.get("quasi-einstein"), ts),
        check_warped_einstein_constant(
            skr, points, tolerances.get("warped-einstein-constant"), ts
        ),
        check_conformal_formulas(skr, points, tolerances.get("conformal-expansions"), ts),
    ]
    if include_profile_identities:
        records.extend(check_profile_identities(skr, points, ts, tolerances))
    return VerificationReport(
        label=label or skr.chart.name,
        params=params_dict(skr.params),
        base=base_dict(skr.base),
        interval=skr.warp.interval,
        seed=seed,
        samples=samples,
        tolerance_scale=tolerance_scale,
        excluded_points=excluded,
        records=records,
    )
