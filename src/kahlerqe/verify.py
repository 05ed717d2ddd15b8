"""Numerical verification suite for assembled charts.

The suite samples the chart at deterministic low-discrepancy points and
evaluates each point once, into a ``charts.PointGeometry``; every check
reads its tensor identity off those geometries and reports the worst
absolute residual against a pinned tolerance, with the sample index and
tau where it occurred.  Reports serialize to canonical JSON (sorted keys,
no timestamps) so a rerun with the same seed is byte-identical, including
its hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

# ``ricci`` is unused here, but perfbench's layer test expects the wrapped
# name in this module's namespace.
from kahlerqe.charts import PointGeometry, is_positive_definite, ricci  # noqa: F401
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


def _finish(name, residuals, tol, geos, extra=None):
    """Record for per-point residuals; ``geos[i]`` is where ``residuals[i]``
    was measured, and ``extra`` gains the sample index and tau of the worst."""
    arr = np.asarray(residuals, dtype=float)
    mx = float(np.max(arr)) if arr.size else 0.0
    mn = float(np.mean(arr)) if arr.size else 0.0
    extra = dict(extra or {})
    if arr.size:
        worst = geos[int(np.argmax(arr))]
        extra["worst_index"] = worst.index
        extra["worst_tau"] = worst.tau
    return CheckRecord(
        name=name,
        passed=bool(mx <= tol),
        samples=int(arr.size),
        max_abs=mx,
        mean_abs=mn,
        tolerance=tol,
        extra=extra,
    )


def gather_points(skr, samples, seed=0, grad_floor=1e-12):
    """Geometries of the valid sample points, plus the count of deterministic
    exclusions.

    Each point is evaluated once, into a ``PointGeometry`` whose ``index``
    is its position in ``skr.sample_points(2 * samples, seed)``.  Points
    where the gradient of tau degenerates (never expected on a
    margin-trimmed interval, but guarded anyway) are skipped and replaced
    by later points of the same low-discrepancy stream.
    """
    raw = skr.sample_points(2 * samples, seed=seed)
    geos, excluded = [], 0
    for index, p in enumerate(raw):
        if len(geos) == samples:
            break
        if not skr.chart.domain(p):
            excluded += 1
            continue
        geo = PointGeometry(skr, p, index)
        if geo.grad_tau_sq <= grad_floor:
            excluded += 1
            continue
        geos.append(geo)
    if len(geos) < samples:
        raise RuntimeError(
            f"only {len(geos)} of {samples} requested sample points were usable"
        )
    return geos, excluded


def check_positive_definite(skr, geos):
    flags = [0.0 if is_positive_definite(geo.g) else 1.0 for geo in geos]
    bad = int(sum(flags))
    # one aggregate residual, the count; its point is the first indefinite one
    worst = [geos[int(np.argmax(flags))]]
    return _finish("positive-definite", [float(bad)], 0.0, worst,
                   {"indefinite_points": bad})


def check_kahler(skr, geos, tol=DEFAULT_TOLERANCES["kahler"]):
    res = [geo.kahler_residual for geo in geos]
    return _finish("kahler", res, tol, geos)


def check_killing(skr, geos, tol=DEFAULT_TOLERANCES["killing"]):
    res = [geo.killing_residual for geo in geos]
    return _finish("killing", res, tol, geos)


def check_skr(skr, geos, tol=DEFAULT_TOLERANCES["skr-eigenstructure"]):
    """Eigenstructure of Hess(tau) and Ricci on the complement of
    {grad tau, J grad tau}: both must restrict to scalars there with no
    mixed terms."""
    n = skr.dim
    res = []
    phi_hats = []
    for geo in geos:
        G, v1 = geo.g, geo.grad_tau
        v2 = geo.J @ v1
        hs = geo.horizontal
        worst = 0.0
        for S, block, keep in ((geo.hess_tau, geo.hess_tau_horizontal, True),
                               (geo.ricci, geo.horizontal_block(geo.ricci), False)):
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
        "trivial_pair": bool(np.max(np.abs(phi_hats)) <= tol),
    }
    return _finish("skr-eigenstructure", res, tol, geos, extra)


def check_ricci_hessian(skr, geos, tol=DEFAULT_TOLERANCES["ricci-hessian"]):
    """alpha(tau) Hess(tau) + r = gamma(tau) g with the profile coefficients."""
    params = skr.params
    alpha = alpha_profile(params)
    res = []
    for geo in geos:
        t = geo.tau
        gamma = gamma_from_phi(params, skr.warp.phi, alpha, t)
        res.append(float(np.max(np.abs(
            alpha(t) * geo.hess_tau + geo.ricci - gamma * geo.g))))
    return _finish("ricci-hessian", res, tol, geos)


def check_quasi_einstein(skr, geos, tol=DEFAULT_TOLERANCES["quasi-einstein"]):
    """(-a/f) Hess_ghat(f) + ricci(ghat) = lambda ghat for ghat = g / tau^2."""
    params = skr.params
    af, lamf = float(params.a), float(params.lam)
    res = []
    fmin = np.inf
    for geo in geos:
        fv = geo.f
        fmin = min(fmin, abs(fv))
        res.append(float(np.max(np.abs(
            (-af / fv) * geo.hess_f_hat + geo.ricci_hat - lamf * geo.g_hat))))
    return _finish("quasi-einstein", res, tol, geos, {"min_abs_f": float(fmin)})


def check_warped_einstein_constant(skr, geos,
                                   tol=DEFAULT_TOLERANCES["warped-einstein-constant"]):
    """Pointwise constancy of mu_F = f lap(f) + (a-1)|grad f|^2 + lambda f^2
    in the scaled metric; constancy is what makes the warped product with an
    a-dimensional Einstein fiber itself Einstein.  Skipped for fractional a
    (no integer fiber dimension)."""
    params = skr.params
    if params.a.denominator != 1:
        return CheckRecord(
            name="warped-einstein-constant", passed=True, samples=0,
            max_abs=0.0, mean_abs=0.0, tolerance=tol,
            status="skipped",
            extra={"reason": f"a = {params.a} is not an integer fiber dimension"},
        )
    af, lamf = float(params.a), float(params.lam)
    mus = []
    for geo in geos:
        fv = geo.f
        mus.append(fv * geo.lap_f_hat + (af - 1.0) * geo.grad_f_hat_sq + lamf * fv * fv)
    mu_mean = float(np.mean(mus))
    spread = [abs(m - mu_mean) for m in mus]
    scale = max(1.0, abs(mu_mean))
    return _finish("warped-einstein-constant", spread, tol * scale, geos,
                   {"mu_mean": mu_mean, "scale": scale})


def check_conformal_formulas(skr, geos, tol=DEFAULT_TOLERANCES["conformal-expansions"]):
    """Direct curvature of ghat = g/tau^2 against its expansion in g-terms,
    and likewise for the Hessian of f; both identities are exact, so the
    residual is pure differentiation noise."""
    n = skr.dim
    res = []
    for geo in geos:
        G, tv, dt, df = geo.g, geo.tau, geo.dtau, geo.df
        Ht, Q, lap = geo.hess_tau, geo.grad_tau_sq, geo.lap_tau
        expand_r = geo.ricci + (n - 2) / tv * Ht + (lap / tv - (n - 1) * Q / tv**2) * G
        e1 = float(np.max(np.abs(geo.ricci_hat - expand_r)))

        cross = float(dt @ geo.ginv @ df)
        expand_h = geo.hess_f + (np.outer(dt, df) + np.outer(df, dt) - cross * G) / tv
        e2 = float(np.max(np.abs(geo.hess_f_hat - expand_h)))
        res.append(max(e1, e2))
    return _finish("conformal-expansions", res, tol, geos)


def check_profile_identities(skr, geos, tols=DEFAULT_TOLERANCES):
    """The chart-level identities tying the construction to its profiles:
    |grad tau|^2 = Q(tau), lap tau = 2m phi + 2(tau-c) phi', recovery of the
    constant c, and phi as the horizontal Hessian eigenvalue."""
    params = skr.params
    phi = skr.warp.phi
    q = q_from_phi(params, phi)
    cf = float(params.c)
    m = params.m
    n = skr.dim
    e_grad, e_lap, e_c, e_eig = [], [], [], []
    for geo in geos:
        t = geo.tau
        e_grad.append(abs(geo.grad_tau_sq - q.value(t)))
        e_lap.append(abs(geo.lap_tau - (2 * m * phi.value(t) + 2 * (t - cf) * phi.d1(t))))
        e_c.append(abs((t - q.value(t) / (2 * phi.value(t))) - cf))
        lam = np.trace(geo.hess_tau_horizontal) / (n - 2)
        e_eig.append(abs(lam - phi.value(t)))
    out = []
    for name, errs in (
        ("grad-norm-identity", e_grad),
        ("laplacian-identity", e_lap),
        ("c-recovery", e_c),
        ("hessian-eigenvalue", e_eig),
    ):
        out.append(_finish(name, errs, tols[name], geos))
    return out


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


def run_suite(skr, samples=200, seed=0, tolerance_scale=1.0):
    """Run every check on one shared deterministic point set; every tolerance
    of ``DEFAULT_TOLERANCES`` is multiplied by ``tolerance_scale`` here, once."""
    tols = {name: tol * tolerance_scale for name, tol in DEFAULT_TOLERANCES.items()}
    geos, excluded = gather_points(skr, samples, seed=seed)
    records = [
        check_positive_definite(skr, geos),
        check_kahler(skr, geos, tols["kahler"]),
        check_killing(skr, geos, tols["killing"]),
        check_skr(skr, geos, tols["skr-eigenstructure"]),
        check_ricci_hessian(skr, geos, tols["ricci-hessian"]),
        check_quasi_einstein(skr, geos, tols["quasi-einstein"]),
        check_warped_einstein_constant(skr, geos, tols["warped-einstein-constant"]),
        check_conformal_formulas(skr, geos, tols["conformal-expansions"]),
        *check_profile_identities(skr, geos, tols),
    ]
    return VerificationReport(
        label=skr.chart.name,
        params=params_dict(skr.params),
        base=base_dict(skr.base),
        interval=skr.warp.interval,
        seed=seed,
        samples=samples,
        tolerance_scale=tolerance_scale,
        excluded_points=excluded,
        records=records,
    )
