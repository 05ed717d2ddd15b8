"""Coordinate-chart tensor calculus from second-order jets.

A MetricChart supplies metric components as a callable on coordinates; the
callable must be written with jet-friendly arithmetic (see kahlerqe.jets)
so that evaluating it on seeded jets yields exact first and second
derivatives of every component.  All curvature operators below consume
those derivative arrays; nothing here uses finite differences.

The chart-level operators (``christoffel``, ``ricci``, ``hessian``, ...)
evaluate the metric afresh on every call.  ``PointGeometry`` makes one
evaluation per point, of a ``fields`` callable that returns the metric's
rows together with tau, f and J, and derives everything the verification
suite needs from that one evaluation.

Sign conventions: Ricci of the unit round sphere is +g, of the hyperbolic
plane -g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from kahlerqe.jets import Jet, value


class ChartDomainError(ValueError):
    """Point outside the declared chart domain."""


class SingularMetricError(ValueError):
    """Metric not invertible (or not positive definite) at a point."""


def _always(coords):
    return True


@dataclass(frozen=True)
class MetricChart:
    """Riemannian metric in a single coordinate chart."""

    dim: int
    components: Callable
    domain: Callable = _always
    name: str = ""


def check_point(chart, p):
    p = np.asarray(p, dtype=float)
    if p.shape != (chart.dim,):
        raise ChartDomainError(f"expected {chart.dim} coordinates, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ChartDomainError(f"non-finite coordinates {p}")
    if not chart.domain(p):
        raise ChartDomainError(f"point {p} outside domain of chart {chart.name!r}")
    return p


def _scalar_arrays(e, n):
    """(value, gradient, Hessian) of a Jet, or of a constant with zero derivatives."""
    if isinstance(e, Jet):
        return e.val, e.grad, e.hess
    return float(e), np.zeros(n), np.zeros((n, n))


def _row_arrays(rows, n):
    """Arrays (M[i,j], dM[k,i,j], d2M[k,l,i,j]) of n x n rows of Jets and constants."""
    M = np.empty((n, n))
    dM = np.empty((n, n, n))
    d2M = np.empty((n, n, n, n))
    for i in range(n):
        for j in range(n):
            M[i, j], dM[:, i, j], d2M[:, :, i, j] = _scalar_arrays(rows[i][j], n)
    return M, dM, d2M


def metric_jets(chart, p):
    """Metric with derivatives: (g[i,j], dg[k,i,j]=d_k g_ij, d2g[k,l,i,j])."""
    p = check_point(chart, p)
    return _row_arrays(chart.components(Jet.seed(p)), chart.dim)


def scalar_jet(fn, chart, p):
    """Scalar field value, gradient and coordinate Hessian: (v, dv[i], d2v[i,j])."""
    p = check_point(chart, p)
    return _scalar_arrays(fn(Jet.seed(p)), chart.dim)


def inverse_metric(g):
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError(f"metric not invertible: {exc}") from exc
    if not np.all(np.isfinite(ginv)):
        raise SingularMetricError("metric inverse overflowed")
    return ginv


def is_positive_definite(g, tol=0.0):
    """Cholesky-based positive definiteness test for a symmetric matrix."""
    try:
        np.linalg.cholesky(g - tol * np.eye(g.shape[0]))
        return True
    except np.linalg.LinAlgError:
        return False


def _christoffel_with_derivative(g, dg, d2g):
    ginv = inverse_metric(g)
    # T[a,i,j] = d_i g_aj + d_j g_ai - d_a g_ij
    T = np.einsum("iaj->aij", dg) + np.einsum("jai->aij", dg) - dg
    dT = (
        np.einsum("miaj->maij", d2g)
        + np.einsum("mjai->maij", d2g)
        - np.einsum("maij->maij", d2g)
    )
    gamma = 0.5 * np.einsum("ka,aij->kij", ginv, T)
    dginv = -np.einsum("mab,ka,bl->mkl", dg, ginv, ginv)
    dgamma = 0.5 * np.einsum("mka,aij->mkij", dginv, T) + 0.5 * np.einsum(
        "ka,maij->mkij", ginv, dT
    )
    return ginv, gamma, dgamma


def _riemann(gamma, dgamma):
    R = np.einsum("iljk->lkij", dgamma) - np.einsum("jlik->lkij", dgamma)
    R += np.einsum("lia,ajk->lkij", gamma, gamma) - np.einsum(
        "lja,aik->lkij", gamma, gamma
    )
    return R


def _levi_civita(g, dg, d2g):
    """(ginv, Gamma, Ricci) from the metric jets; dGamma and Riemann are dropped."""
    ginv, gamma, dgamma = _christoffel_with_derivative(g, dg, d2g)
    return ginv, gamma, np.einsum("lklj->kj", _riemann(gamma, dgamma))


def christoffel(chart, p):
    """Levi-Civita connection coefficients Gamma[k,i,j] = Gamma^k_ij."""
    return _christoffel_with_derivative(*metric_jets(chart, p))[1]


def riemann(chart, p):
    """Curvature R[l,k,i,j] = R^l_{k i j}, i.e. R(e_i,e_j)e_k = R^l_{kij} e_l."""
    _, gamma, dgamma = _christoffel_with_derivative(*metric_jets(chart, p))
    return _riemann(gamma, dgamma)


def ricci(chart, p):
    """Ricci tensor r_ij; unit round sphere gives r = +g."""
    return _levi_civita(*metric_jets(chart, p))[2]


def _covariant_hessian(gamma, dv, d2v):
    return d2v - np.einsum("kij,k->ij", gamma, dv)


def hessian(chart, fieldlike, p):
    """Covariant Hessian (nabla d tau)_ij of a scalar field."""
    _, dv, d2v = scalar_jet(fieldlike, chart, p)
    return _covariant_hessian(christoffel(chart, p), dv, d2v)


def conformal_jets(g, dg, d2g, tau_jet):
    """Jets of g / tau^2 from the jets of g and of tau, by the product rule.

    w = 1/tau^2 is formed with Jet arithmetic and each entry is multiplied
    in the order of ``Jet.__mul__``, so the result equals
    ``metric_jets(conformal_scale(chart, tau), p)`` bit for bit without
    evaluating the components again.
    """
    t = Jet(*tau_jet)
    w = 1.0 / (t * t)
    cross = dg[:, None] * w.grad[None, :, None, None]
    return (
        g * w.val,
        dg * w.val + w.grad[:, None, None] * g,
        d2g * w.val + w.hess[:, :, None, None] * g + cross + cross.transpose(1, 0, 2, 3),
    )


def _killing_residual(g, dg, ginv, gamma, dv, d2v, J, dJ):
    """Lie derivative (L_K g)_ij for K = J grad(tau); zero iff K is Killing."""
    dginv = -np.einsum("mab,ia,bj->mij", dg, ginv, ginv)
    grad_up = ginv @ dv
    K_up = J @ grad_up
    # coordinate derivative of K^i
    dK_up = (
        np.einsum("mil,l->mi", dJ, grad_up)
        + np.einsum("il,mls,s->mi", J, dginv, dv)
        + np.einsum("il,ls,ms->mi", J, ginv, d2v)
    )
    K_low = g @ K_up
    dK_low = np.einsum("mji,i->mj", dg, K_up) + np.einsum("ji,mi->mj", g, dK_up)
    return dK_low + dK_low.T - 2.0 * np.einsum("lmj,l->mj", gamma, K_low)


def _horizontal_frame(G, v1, v2, drop_tol=1e-8):
    """G-orthonormal frame of the complement of span{v1, v2}.

    Deterministic: projects the coordinate basis and runs modified
    Gram-Schmidt in index order, skipping directions that collapse.
    """
    dim = G.shape[0]

    def inner(a, b):
        return float(a @ G @ b)

    frame = [v / np.sqrt(inner(v, v)) for v in (v1, v2)]
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
    return out


class PointGeometry:
    """Everything the verification suite reads at one sample point.

    Built from one call of ``skr.fields`` at ``p`` on seeded jets, which
    returns the metric's rows together with tau, f and J; every derived
    quantity is formed once, here.
    The jets of ghat = g / tau^2 come from those of g and tau by the
    product rule (``conformal_jets``), and ghat's curvature is computed
    from them directly, not from its expansion in g-terms.  Arrays with
    n^4 entries (second derivatives of the metrics, dGamma, Riemann) are
    contracted to Ricci during construction and not kept.

    ``skr`` needs ``chart`` and ``fields``; ``fields(coords)`` returns
    ``(g, tau, f, J)`` with None for an absent tau, f or J, and the
    quantities that need a missing field are not set.  ``index`` is the
    point's position in the sample stream it came from.

    Attributes: ``g``, ``ginv``, ``ricci``; with tau: ``tau`` (its value,
    else None), ``dtau``, ``grad_tau`` (contravariant), ``grad_tau_sq``,
    ``hess_tau``, ``lap_tau``, ``g_hat``, ``ricci_hat``; with f: ``f``,
    ``df``, ``hess_f`` and, with tau too, ``hess_f_hat``, ``lap_f_hat``,
    ``grad_f_hat_sq``; with J: ``J`` (its value at p), ``kahler_residual``
    (max |nabla J| entry) and, with tau too, ``killing_residual`` (max
    |L_K g| entry for K = J grad tau).
    """

    def __init__(self, skr, p, index=None):
        n = skr.chart.dim
        self.index = index
        self.p = p = check_point(skr.chart, p)
        rows, tau, f, J = skr.fields(Jet.seed(p))
        g, dg, d2g = _row_arrays(rows, n)
        self.g = g
        self.ginv, gamma, self.ricci = _levi_civita(g, dg, d2g)
        self.tau = None
        if tau is not None:
            tau_jet = _scalar_arrays(tau, n)
            self.tau, self.dtau, d2tau = tau_jet
            self.grad_tau = np.linalg.solve(g, self.dtau)
            self.grad_tau_sq = float(self.dtau @ self.ginv @ self.dtau)
            self.hess_tau = _covariant_hessian(gamma, self.dtau, d2tau)
            self.lap_tau = float(np.einsum("ij,ij->", self.ginv, self.hess_tau))
            g_hat, dg_hat, d2g_hat = conformal_jets(g, dg, d2g, tau_jet)
            self.g_hat = g_hat
            ginv_hat, gamma_hat, self.ricci_hat = _levi_civita(g_hat, dg_hat, d2g_hat)
        if f is not None:
            self.f, self.df, d2f = _scalar_arrays(f, n)
            self.hess_f = _covariant_hessian(gamma, self.df, d2f)
            if tau is not None:
                self.hess_f_hat = _covariant_hessian(gamma_hat, self.df, d2f)
                self.lap_f_hat = float(np.einsum("ij,ij->", ginv_hat, self.hess_f_hat))
                self.grad_f_hat_sq = float(self.df @ ginv_hat @ self.df)
        if J is not None:
            self.J, dJ = _row_arrays(J, n)[:2]
            nabla_J = (
                dJ
                + np.einsum("jil,lk->ijk", gamma, self.J)
                - np.einsum("lik,jl->ijk", gamma, self.J)
            )
            self.kahler_residual = float(np.max(np.abs(nabla_J)))
            if tau is not None:
                self.killing_residual = float(np.max(np.abs(_killing_residual(
                    g, dg, self.ginv, gamma, self.dtau, d2tau, self.J, dJ))))

    @cached_property
    def horizontal(self):
        """G-orthonormal frame of the complement of {grad tau, J grad tau},
        with J taken at this point."""
        return _horizontal_frame(self.g, self.grad_tau, self.J @ self.grad_tau)

    def horizontal_block(self, S):
        """The (n-2)x(n-2) block of a 2-tensor S on the ``horizontal`` frame."""
        hs = self.horizontal
        return np.array([[u @ S @ w for w in hs] for u in hs])

    @cached_property
    def hess_tau_horizontal(self):
        """Hess tau on the ``horizontal`` frame, built once for every check."""
        return self.horizontal_block(self.hess_tau)


def conformal_scale(chart, fn):
    """Chart for g-hat = g / tau^2; domain excludes zeros of tau."""

    def components(coords):
        rows = chart.components(coords)
        t = fn(coords)
        w = 1.0 / (t * t)
        return [[rows[i][j] * w for j in range(chart.dim)] for i in range(chart.dim)]

    def domain(coords):
        return chart.domain(coords) and value(fn(coords)) != 0.0

    return MetricChart(
        dim=chart.dim,
        components=components,
        domain=domain,
        name=f"{chart.name}/tau^2" if chart.name else "conformal",
    )
