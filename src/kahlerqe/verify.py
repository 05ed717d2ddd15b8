"""Numerical verification suite for assembled charts.

The suite samples the chart at deterministic low-discrepancy points and
evaluates all of them once, in one batch, into a ``charts.PointGeometry``;
every check reads its tensor identity off that batch's arrays, at all
points at once, and reports the worst absolute residual against a pinned
tolerance, with the sample index and tau where it occurred.  Reports
serialize to canonical JSON (sorted keys, no timestamps) so a rerun with
the same seed is byte-identical.

The arrays carry the point axis last, as in ``kahlerqe.charts``, so a
check scales a 2-tensor (n, n, B) by a per-point scalar (B,) as it is,
with its inner loop over the contiguous batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# ``ricci`` is unused here, but perfbench's layer test expects the wrapped
# name in this module's namespace.
from kahlerqe.charts import (  # noqa: F401
    PointGeometry,
    _max_entry,
    _quad,
    ricci,
)
from kahlerqe.odes import alpha_profile, gamma_from_phi

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

GRAD_FLOOR = 1e-12


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


def _finish(name, residuals, tol, geos, extra=None):
    """Record for per-point residuals; ``residuals[i]`` was measured at point
    i of the batch ``geos``, and ``extra`` gains the sample index and tau of
    the worst."""
    arr = np.asarray(residuals, dtype=float)
    mx = float(np.max(arr)) if arr.size else 0.0
    mn = float(np.mean(arr)) if arr.size else 0.0
    extra = dict(extra or {})
    if arr.size:
        worst = int(np.argmax(arr))
        extra["worst_index"] = int(geos.index[worst])
        extra["worst_tau"] = None if geos.tau is None else float(geos.tau[worst])
    return CheckRecord(
        name=name,
        passed=bool(mx <= tol),
        samples=int(arr.size),
        max_abs=mx,
        mean_abs=mn,
        tolerance=tol,
        extra=extra,
    )


# the parameter-free quantities the checks read beyond those PointGeometry
# forms on construction; gather_points forms them on its whole batch
SHARED = ("indefinite", "frameless", "skr_residual")


def gather_points(skr, samples, seed=0):
    """Geometry of the valid sample points, as one ``PointGeometry`` batch,
    plus the count of deterministic exclusions.

    The first ``samples`` points of ``skr.sample_points(2 * samples, seed)``
    inside the chart domain (one ``chart.domain`` call on all the rows) are
    evaluated together, in one batch; ``index`` holds each one's position
    in that stream.  Points where the gradient of tau degenerates
    (|grad tau|^2 at most ``GRAD_FLOOR``; never expected on a
    margin-trimmed interval, but guarded anyway) are dropped and replaced
    by the next points of the stream, evaluated in a further batch.  A
    point's geometry does not depend on its batch, so the result is that of
    evaluating the points one at a time, in stream order, until ``samples``
    are usable.  The quantities of ``SHARED`` are formed on the result.

    ``skr`` may also be a group: a list of charts of one base.  Their
    points are then evaluated in one batch across the charts (each further
    batch holds the charts still short), and the result holds chart i's
    ``samples`` points at rows ``i * samples`` to ``(i + 1) * samples``,
    each chart's bit for bit its own result, with the sum of the charts'
    exclusions.  ``SHARED`` is formed on the whole group, before any
    caller takes a chart's ``select``ed slice.
    """
    skrs = skr if isinstance(skr, list) else [skr]
    streams = []
    for one in skrs:
        raw = one.sample_points(2 * samples, seed=seed)
        streams.append((raw, np.flatnonzero(one.chart.domain(raw))))
    taken, usable = [0] * len(skrs), np.zeros(len(skrs), dtype=int)
    parts, owners = [], []
    while True:
        short = [i for i, (_, inside) in enumerate(streams)
                 if usable[i] < samples and taken[i] < len(inside)]
        if not short:
            break
        batch = []
        for i in short:
            batch.append(streams[i][1][taken[i]:taken[i] + samples - usable[i]])
            taken[i] += len(batch[-1])
        pts = [streams[i][0][rows] for i, rows in zip(short, batch)]
        geo = (PointGeometry(skrs[short[0]], pts[0], batch[0]) if len(short) == 1
               else PointGeometry([skrs[i] for i in short], pts, batch))
        owner = np.repeat(short, [len(rows) for rows in batch])
        keep = geo.grad_tau_sq > GRAD_FLOOR
        if not keep.all():
            geo, owner = geo.select(keep), owner[keep]
        parts.append(geo)
        owners.append(owner)
        usable += np.bincount(owner, minlength=len(skrs))
    if usable.min() < samples:
        raise RuntimeError(
            f"only {usable.min()} of {samples} requested sample points were usable"
        )
    geos = parts[0] if len(parts) == 1 else PointGeometry.join(parts)
    if len(parts) > 1 and len(skrs) > 1:
        # chart after chart, each in stream order
        geos = geos.select(np.lexsort((geos.index, np.concatenate(owners))))
    for name in SHARED:
        getattr(geos, name)
    # every point of a stream up to its last usable one was excluded or used
    last = geos.index[samples - 1::samples]
    return geos, int(np.sum(last + 1 - samples))


def check_positive_definite(skr, geos):
    """The count of points whose metric is not positive definite, and the
    first of them."""
    bad = geos.indefinite
    # one aggregate residual, the count; its point is the first indefinite one
    return _finish("positive-definite", [float(bad.sum())], 0.0,
                   geos.select([int(np.argmax(bad))]),
                   {"indefinite_points": int(bad.sum())})


def check_kahler(skr, geos, tol=DEFAULT_TOLERANCES["kahler"]):
    return _finish("kahler", geos.kahler_residual, tol, geos)


def check_killing(skr, geos, tol=DEFAULT_TOLERANCES["killing"]):
    return _finish("killing", geos.killing_residual, tol, geos)


def check_skr(skr, geos, tol=DEFAULT_TOLERANCES["skr-eigenstructure"]):
    """Eigenstructure of Hess(tau) and Ricci on the complement of
    {grad tau, J grad tau}: both must restrict to scalars there with no
    mixed terms.  A point where that complement has no orthonormal frame
    (the metric is not positive definite there) cannot be checked: the
    check fails, with the count of such points in ``frameless_points``,
    and reports the residuals of the others."""
    worst = geos.skr_residual
    frameless = geos.frameless
    if frameless.any():
        framed = ~frameless
        geos, worst = geos.select(framed), worst[framed]
    extra = {} if not len(geos) else {
        "phi_estimate_min": float(np.min(geos.phi_hat)),
        "phi_estimate_max": float(np.max(geos.phi_hat)),
        "trivial_pair": bool(np.max(np.abs(geos.phi_hat)) <= tol),
    }
    record = _finish("skr-eigenstructure", worst, tol, geos, extra)
    if frameless.any():
        record.extra["frameless_points"] = int(frameless.sum())
        record.passed, record.status = False, "fail"
    return record


def check_ricci_hessian(skr, geos, tol=DEFAULT_TOLERANCES["ricci-hessian"]):
    """alpha(tau) Hess(tau) + r = gamma(tau) g with the profile coefficients."""
    params = skr.params
    alpha = alpha_profile(params)
    t = geos.tau
    gamma = gamma_from_phi(params, skr.warp.phi, alpha, t)
    res = _max_entry(alpha(t) * geos.hess_tau + geos.ricci - gamma * geos.g)
    return _finish("ricci-hessian", res, tol, geos)


def check_quasi_einstein(skr, geos, tol=DEFAULT_TOLERANCES["quasi-einstein"]):
    """(-a/f) Hess_ghat(f) + ricci(ghat) = lambda ghat for ghat = g / tau^2."""
    params = skr.params
    af, lamf = float(params.a), float(params.lam)
    fv = geos.f
    res = _max_entry((-af / fv) * geos.hess_f_hat + geos.ricci_hat - lamf * geos.g_hat)
    return _finish("quasi-einstein", res, tol, geos,
                   {"min_abs_f": float(np.min(np.abs(fv)))})


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
    fv = geos.f
    mus = fv * geos.lap_f_hat + (af - 1.0) * geos.grad_f_hat_sq + lamf * fv * fv
    mu_mean = float(np.mean(mus))
    scale = max(1.0, abs(mu_mean))
    return _finish("warped-einstein-constant", np.abs(mus - mu_mean), tol * scale, geos,
                   {"mu_mean": mu_mean, "scale": scale})


def check_conformal_formulas(skr, geos, tol=DEFAULT_TOLERANCES["conformal-expansions"]):
    """Direct curvature of ghat = g/tau^2 against its expansion in g-terms,
    and likewise for the Hessian of f; both identities are exact, so the
    residual is pure differentiation noise."""
    n = skr.dim
    G, dt, df = geos.g, geos.dtau, geos.df
    tv, Q, lap = geos.tau, geos.grad_tau_sq, geos.lap_tau
    expand_r = (geos.ricci + (n - 2) / tv * geos.hess_tau
                + (lap / tv - (n - 1) * Q / tv**2) * G)
    e1 = _max_entry(geos.ricci_hat - expand_r)

    cross = _quad(dt, geos.ginv, df)
    outer = dt[:, None] * df[None, :]
    expand_h = geos.hess_f + (outer + outer.transpose(1, 0, 2) - cross * G) / tv
    e2 = _max_entry(geos.hess_f_hat - expand_h)
    return _finish("conformal-expansions", np.maximum(e1, e2), tol, geos)


def check_profile_identities(skr, geos, tols=DEFAULT_TOLERANCES):
    """The chart-level identities tying the construction to its profiles:
    |grad tau|^2 = Q(tau), lap tau = 2m phi + 2(tau-c) phi', recovery of the
    constant c, and phi as the horizontal Hessian eigenvalue."""
    params = skr.params
    cf = float(params.c)
    m = params.m
    t = geos.tau
    pt, pt_d, _ = skr.warp.phi.taylor(t)
    qt = 2.0 * (t - cf) * pt  # Q = 2 (tau - c) phi, as q_from_phi forms it
    out = []
    for name, errs in (
        ("grad-norm-identity", np.abs(geos.grad_tau_sq - qt)),
        ("laplacian-identity", np.abs(geos.lap_tau - (2 * m * pt + 2 * (t - cf) * pt_d))),
        ("c-recovery", np.abs((t - qt / (2 * pt)) - cf)),
        ("hessian-eigenvalue", np.abs(geos.phi_hat - pt)),
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

    def to_json(self):
        out = dict(vars(self))
        out["checks"] = [vars(r) for r in out.pop("records")]
        out["passed"] = self.passed
        return json.dumps(out, sort_keys=True, indent=2)

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


def run_suite(skr, samples=200, seed=0, tolerance_scale=1.0, geos=None):
    """Run every check on one shared deterministic point set; every tolerance
    of ``DEFAULT_TOLERANCES`` is multiplied by ``tolerance_scale`` here, once.

    ``geos`` is the chart's points when they were gathered already, as its
    slice of a group's batch (``gather_points`` on a list of charts);
    without it they are gathered here."""
    tols = {name: tol * tolerance_scale for name, tol in DEFAULT_TOLERANCES.items()}
    if geos is None:
        geos, excluded = gather_points(skr, samples, seed=seed)
    else:
        excluded = int(geos.index[-1]) + 1 - samples
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
