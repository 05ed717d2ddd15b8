"""Coordinate-chart tensor calculus from second-order jets.

A MetricChart supplies metric components as a callable on coordinates; the
callable must be written with jet-friendly arithmetic (see kahlerqe.jets)
so that evaluating it on seeded jets yields exact first and second
derivatives of every component.  All curvature operators below consume
those derivative arrays; nothing here uses finite differences.

Sign conventions: Ricci of the unit round sphere is +g, of the hyperbolic
plane -g.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class ScalarField:
    fn: Callable
    name: str = ""


@dataclass(frozen=True)
class ComplexStructure:
    """Almost complex structure J^i_j as a callable on coordinates."""

    fn: Callable
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


def _to_value_matrix(rows, n):
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = value(rows[i][j])
    return out


def metric_values(chart, p):
    p = check_point(chart, p)
    return _to_value_matrix(chart.components(p), chart.dim)


def metric_jets(chart, p):
    """Metric with derivatives: (g[i,j], dg[k,i,j]=d_k g_ij, d2g[k,l,i,j])."""
    p = check_point(chart, p)
    n = chart.dim
    rows = chart.components(Jet.seed(p))
    g = np.empty((n, n))
    dg = np.empty((n, n, n))
    d2g = np.empty((n, n, n, n))
    for i in range(n):
        for j in range(n):
            e = rows[i][j]
            if isinstance(e, Jet):
                g[i, j] = e.val
                dg[:, i, j] = e.grad
                d2g[:, :, i, j] = e.hess
            else:
                g[i, j] = float(e)
                dg[:, i, j] = 0.0
                d2g[:, :, i, j] = 0.0
    return g, dg, d2g


def scalar_jet(fieldlike, chart, p):
    """Scalar field value, gradient and coordinate Hessian: (v, dv[i], d2v[i,j])."""
    p = check_point(chart, p)
    fn = fieldlike.fn if isinstance(fieldlike, ScalarField) else fieldlike
    out = fn(Jet.seed(p))
    if isinstance(out, Jet):
        return out.val, out.grad.copy(), out.hess.copy()
    n = chart.dim
    return float(out), np.zeros(n), np.zeros((n, n))


def matrix_jets(structure, chart, p):
    """Matrix-valued field with first derivatives: (M[i,j], dM[k,i,j])."""
    p = check_point(chart, p)
    n = chart.dim
    fn = structure.fn if isinstance(structure, ComplexStructure) else structure
    rows = fn(Jet.seed(p))
    M = np.empty((n, n))
    dM = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            e = rows[i][j]
            if isinstance(e, Jet):
                M[i, j] = e.val
                dM[:, i, j] = e.grad
            else:
                M[i, j] = float(e)
                dM[:, i, j] = 0.0
    return M, dM


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


def christoffel(chart, p):
    """Levi-Civita connection coefficients Gamma[k,i,j] = Gamma^k_ij."""
    g, dg, _ = metric_jets(chart, p)
    ginv = inverse_metric(g)
    # T[a,i,j] = d_i g_aj + d_j g_ai - d_a g_ij
    T = np.einsum("iaj->aij", dg) + np.einsum("jai->aij", dg) - dg
    return 0.5 * np.einsum("ka,aij->kij", ginv, T)


def _christoffel_with_derivative(g, dg, d2g):
    ginv = inverse_metric(g)
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


def riemann(chart, p):
    """Curvature R[l,k,i,j] = R^l_{k i j}, i.e. R(e_i,e_j)e_k = R^l_{kij} e_l."""
    g, dg, d2g = metric_jets(chart, p)
    _, gamma, dgamma = _christoffel_with_derivative(g, dg, d2g)
    R = np.einsum("iljk->lkij", dgamma) - np.einsum("jlik->lkij", dgamma)
    R += np.einsum("lia,ajk->lkij", gamma, gamma) - np.einsum(
        "lja,aik->lkij", gamma, gamma
    )
    return R


def riemann_lowered(chart, p):
    g = metric_values(chart, p)
    return np.einsum("la,akij->lkij", g, riemann(chart, p))


def ricci(chart, p):
    """Ricci tensor r_ij; unit round sphere gives r = +g."""
    R = riemann(chart, p)
    return np.einsum("lklj->kj", R)


def scalar_curvature(chart, p):
    g = metric_values(chart, p)
    return float(np.einsum("ij,ij->", inverse_metric(g), ricci(chart, p)))


def hessian(chart, fieldlike, p):
    """Covariant Hessian (nabla d tau)_ij of a scalar field."""
    _, dv, d2v = scalar_jet(fieldlike, chart, p)
    gamma = christoffel(chart, p)
    return d2v - np.einsum("kij,k->ij", gamma, dv)


def gradient(chart, fieldlike, p):
    """Contravariant gradient components (grad tau)^i."""
    g, _, _ = metric_jets(chart, p)
    _, dv, _ = scalar_jet(fieldlike, chart, p)
    return inverse_metric(g) @ dv


def grad_norm_sq(chart, fieldlike, p):
    g = metric_values(chart, p)
    _, dv, _ = scalar_jet(fieldlike, chart, p)
    return float(dv @ inverse_metric(g) @ dv)


def laplacian(chart, fieldlike, p):
    g = metric_values(chart, p)
    return float(np.einsum("ij,ij->", inverse_metric(g), hessian(chart, fieldlike, p)))


def killing_residual(chart, fieldlike, structure, p):
    """Lie derivative (L_K g)_ij for K = J grad(tau); zero iff K is Killing."""
    g, dg, d2g = metric_jets(chart, p)
    _, dv, d2v = scalar_jet(fieldlike, chart, p)
    J, dJ = matrix_jets(structure, chart, p)
    ginv, gamma, _ = _christoffel_with_derivative(g, dg, d2g)
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


def covariant_derivative_J(chart, structure, p):
    """(nabla J)[i,j,k] = nabla_i J^j_k."""
    g, dg, d2g = metric_jets(chart, p)
    J, dJ = matrix_jets(structure, chart, p)
    _, gamma, _ = _christoffel_with_derivative(g, dg, d2g)
    return (
        dJ
        + np.einsum("jil,lk->ijk", gamma, J)
        - np.einsum("lik,jl->ijk", gamma, J)
    )


def kahler_residual(chart, structure, p):
    """max |nabla J| entry; zero iff the pair (g, J) is Kahler at p."""
    return float(np.max(np.abs(covariant_derivative_J(chart, structure, p))))


def conformal_scale(chart, fieldlike):
    """Chart for g-hat = g / tau^2; domain excludes zeros of tau."""
    fn = fieldlike.fn if isinstance(fieldlike, ScalarField) else fieldlike

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
