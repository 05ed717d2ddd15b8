"""Curvature operators on coordinate charts: pinned closed-form fixtures,
symmetry properties on random metrics, and independence checks against
finite differences."""

import math
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from kahlerqe.charts import (
    ChartDomainError,
    ComplexStructure,
    MetricChart,
    PointGeometry,
    ScalarField,
    SingularMetricError,
    christoffel,
    conformal_scale,
    hessian,
    inverse_metric,
    is_positive_definite,
    metric_values,
    ricci,
    riemann,
)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _geometry(chart, p, **fields):
    """PointGeometry of ``chart`` at ``p`` carrying the given tau / f / J."""
    return PointGeometry(SimpleNamespace(chart=chart, **fields), p)


def flat_chart(n):
    return MetricChart(dim=n, components=lambda c: np.eye(n).tolist(), name=f"flat{n}")


def sphere_chart():
    """Unit round 2-sphere, polar coordinates (theta, phi)."""
    from kahlerqe.jets import sin_

    def comps(c):
        th = c[0]
        s = sin_(th)
        return [[1.0, 0.0], [0.0, s * s]]

    return MetricChart(
        dim=2, components=comps,
        domain=lambda p: 0.05 < p[0] < math.pi - 0.05, name="sphere",
    )


def hyperbolic_chart():
    """Upper half-plane, g = (dx^2 + dy^2)/y^2."""

    def comps(c):
        y = c[1]
        w = 1.0 / (y * y)
        return [[w, 0.0], [0.0, w]]

    return MetricChart(dim=2, components=comps,
                       domain=lambda p: p[1] > 1e-3, name="hyperbolic")


def test_flat_christoffel_and_ricci():
    ch = flat_chart(3)
    p = np.array([0.2, -1.0, 3.0])
    npt.assert_allclose(christoffel(ch, p), 0.0, atol=1e-15)
    npt.assert_allclose(ricci(ch, p), 0.0, atol=1e-15)


def test_sphere_christoffels_pinned():
    ch = sphere_chart()
    p = np.array([math.pi / 4, 0.3])
    G = christoffel(ch, p)
    # Gamma^theta_{phi phi} = -sin(theta)cos(theta) = -1/2 at theta = pi/4
    assert abs(G[0, 1, 1] - (-0.5)) < 1e-12
    # Gamma^phi_{theta phi} = cot(theta) = 1
    assert abs(G[1, 0, 1] - 1.0) < 1e-12
    assert abs(G[1, 1, 0] - 1.0) < 1e-12


def test_conformal_flat_2d_christoffels_pinned():
    from kahlerqe.jets import exp_

    def comps(c):
        w = exp_(2.0 * c[0])
        return [[w, 0.0], [0.0, w]]

    ch = MetricChart(dim=2, components=comps, name="e2x")
    G = christoffel(ch, np.zeros(2))
    assert abs(G[0, 0, 0] - 1.0) < 1e-13
    assert abs(G[0, 1, 1] - (-1.0)) < 1e-13
    assert abs(G[1, 0, 1] - 1.0) < 1e-13
    assert abs(G[1, 1, 0] - 1.0) < 1e-13


def test_sphere_is_einstein():
    ch = sphere_chart()
    for th in (0.4, 1.1, 2.3):
        p = np.array([th, 0.7])
        npt.assert_allclose(ricci(ch, p), metric_values(ch, p), atol=1e-9)
    geo = _geometry(ch, np.array([1.0, 0.0]))
    scal = float(np.einsum("ij,ij->", geo.ginv, geo.ricci))
    assert abs(scal - 2.0) < 1e-9


def test_hyperbolic_is_negative_einstein():
    ch = hyperbolic_chart()
    for y in (0.5, 1.0, 2.5):
        p = np.array([0.3, y])
        npt.assert_allclose(ricci(ch, p), -metric_values(ch, p), atol=1e-9)


def test_fubini_study_line_is_kahler_einstein():
    """CP^1 in the affine chart: g = 2(dx^2+dy^2)/(1+|z|^2)^2, r = 2g."""

    def comps(c):
        x, y = c[0], c[1]
        w = 2.0 / (1.0 + x * x + y * y) ** 2
        return [[w, 0.0], [0.0, w]]

    ch = MetricChart(dim=2, components=comps, name="fs1")
    J = ComplexStructure(lambda c: J2, "J")
    for p in (np.array([0.0, 0.0]), np.array([0.4, -0.3]), np.array([1.0, 0.5])):
        npt.assert_allclose(ricci(ch, p), 2.0 * metric_values(ch, p), atol=1e-10)
        assert _geometry(ch, p, J=J).kahler_residual < 1e-10


def _random_metric_chart(seed, n=3, eps=0.08):
    rng = np.random.RandomState(seed)
    quad = rng.uniform(-1.0, 1.0, size=(n, n, n))
    cub = rng.uniform(-1.0, 1.0, size=(n, n, n))

    def comps(c):
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                acc = 2.0 if i == j else 0.0
                for k in range(n):
                    acc = acc + eps * quad[i, j, k] * c[k] * c[k]
                    acc = acc + eps * cub[i, j, k] * c[k] * c[(k + 1) % n]
                rows[i][j] = acc
                rows[j][i] = acc
        return rows

    return MetricChart(dim=n, components=comps, name=f"poly{seed}")


def test_riemann_symmetries_random_metrics():
    for seed in (0, 1, 2):
        ch = _random_metric_chart(seed)
        rng = np.random.RandomState(100 + seed)
        for _ in range(4):
            p = rng.uniform(-0.6, 0.6, size=3)
            assert is_positive_definite(metric_values(ch, p))
            R = riemann(ch, p)
            # first Bianchi identity: cyclic sum over the last three slots
            cyc = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
            assert np.max(np.abs(cyc)) < 1e-9
            Rl = np.einsum("la,akij->lkij", _geometry(ch, p).g, R)
            npt.assert_allclose(Rl, -np.transpose(Rl, (0, 1, 3, 2)), atol=1e-9)
            npt.assert_allclose(Rl, np.transpose(Rl, (2, 3, 0, 1)), atol=1e-9)


def _fd_ricci(ch, p, h=1e-5):
    """Ricci built only from finite differences of the component oracle."""
    n = ch.dim

    def gamma_at(q):
        g = metric_values(ch, q)
        dg = np.zeros((n, n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            dg[k] = (metric_values(ch, q + e) - metric_values(ch, q - e)) / (2 * h)
        ginv = np.linalg.inv(g)
        T = np.zeros((n, n, n))
        for a in range(n):
            for i in range(n):
                for j in range(n):
                    T[a, i, j] = dg[i, a, j] + dg[j, a, i] - dg[a, i, j]
        return 0.5 * np.einsum("ka,aij->kij", ginv, T)

    gam = gamma_at(p)
    dgam = np.zeros((n, n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        dgam[k] = (gamma_at(p + e) - gamma_at(p - e)) / (2 * h)
    # R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik} + products
    R = np.zeros((n, n, n, n))
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    R[l, k, i, j] = dgam[i, l, j, k] - dgam[j, l, i, k]
    R += np.einsum("lia,ajk->lkij", gam, gam) - np.einsum("lja,aik->lkij", gam, gam)
    return np.einsum("lklj->kj", R)


def test_ricci_matches_finite_differences():
    ch = _random_metric_chart(7)
    rng = np.random.RandomState(77)
    for _ in range(3):
        p = rng.uniform(-0.5, 0.5, size=3)
        r_ad = ricci(ch, p)
        r_fd = _fd_ricci(ch, p)
        rel = np.max(np.abs(r_ad - r_fd)) / max(1.0, np.max(np.abs(r_ad)))
        assert rel < 1e-5


def test_hessian_fixtures():
    ch = flat_chart(2)
    sq = ScalarField(lambda c: c[0] * c[0], "x^2")
    lin = ScalarField(lambda c: 3.0 * c[0] - 2.0 * c[1], "linear")
    p = np.array([0.7, -0.2])
    npt.assert_allclose(hessian(ch, sq, p), [[2.0, 0.0], [0.0, 0.0]], atol=1e-14)
    npt.assert_allclose(hessian(ch, lin, p), 0.0, atol=1e-14)


def test_sphere_height_function_hessian():
    from kahlerqe.jets import cos_

    ch = sphere_chart()
    height = ScalarField(lambda c: cos_(c[0]), "cos(theta)")
    for th in (0.5, 1.2, 2.0):
        p = np.array([th, 1.0])
        npt.assert_allclose(
            hessian(ch, height, p),
            -math.cos(th) * metric_values(ch, p),
            atol=1e-12,
        )


def test_gradient_laplacian_fixtures():
    ch = flat_chart(2)
    rad = ScalarField(lambda c: c[0] * c[0] + c[1] * c[1], "r^2")
    p = np.array([0.6, -0.8])
    geo = _geometry(ch, p, tau=rad)
    assert abs(geo.grad_tau_sq - 4.0 * (0.6 ** 2 + 0.8 ** 2)) < 1e-13
    assert abs(geo.lap_tau - 4.0) < 1e-13
    npt.assert_allclose(geo.grad_tau, [1.2, -1.6], atol=1e-14)
    const = _geometry(ch, p, tau=ScalarField(lambda c: 5.0, "const"))
    assert const.grad_tau_sq == 0.0
    assert const.lap_tau == 0.0


def test_killing_fixtures():
    ch = flat_chart(2)
    J = ComplexStructure(lambda c: J2, "J")
    rot = ScalarField(lambda c: 0.5 * (c[0] * c[0] + c[1] * c[1]), "rotation")
    trans = ScalarField(lambda c: c[0], "translation")
    bad = ScalarField(lambda c: c[0] * c[0], "anisotropic")
    p = np.array([0.9, 0.4])
    assert _geometry(ch, p, tau=rot, J=J).killing_residual < 1e-13
    assert _geometry(ch, p, tau=trans, J=J).killing_residual < 1e-13
    assert _geometry(ch, p, tau=bad, J=J).killing_residual > 0.1


def test_kahler_fixtures():
    ch = flat_chart(4)
    J4 = np.kron(np.eye(2), J2)
    J = ComplexStructure(lambda c: J4, "J")
    p = np.array([0.3, -0.4, 0.8, 0.1])
    assert _geometry(ch, p, J=J).kahler_residual < 1e-14

    # Hermitian but non-Kahler: second complex direction scaled by e^{2x0}
    from kahlerqe.jets import exp_

    def comps(c):
        w = exp_(2.0 * c[0])
        return [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, w, 0.0],
            [0.0, 0.0, 0.0, w],
        ]

    bad = MetricChart(dim=4, components=comps, name="nonkahler")
    res = _geometry(bad, np.zeros(4), J=J).kahler_residual
    assert res > 0.1
    assert abs(res - 1.0) < 1e-12  # pinned: the only nonzero covariant slot


def test_conformal_scale_constant_factor():
    ch = flat_chart(3)
    tau = ScalarField(lambda c: 2.0, "two")
    gh = conformal_scale(ch, tau)
    p = np.array([0.1, 0.2, 0.3])
    npt.assert_allclose(metric_values(gh, p), np.eye(3) / 4.0, atol=1e-15)
    npt.assert_allclose(ricci(gh, p), 0.0, atol=1e-13)


def test_conformal_scale_gives_hyperbolic():
    """Flat plane scaled by 1/y^2 (potential tau = y) is the hyperbolic plane."""
    ch = flat_chart(2)
    tau = ScalarField(lambda c: c[1], "y")
    gh = conformal_scale(ch, tau)
    for p in (np.array([0.0, 1.0]), np.array([0.5, 0.7]), np.array([-1.0, 2.0])):
        npt.assert_allclose(ricci(gh, p), -metric_values(gh, p), atol=1e-9)
    with pytest.raises(ChartDomainError):
        metric_values(gh, np.array([0.0, 0.0]))


def test_degenerate_metric_raises():
    def comps(c):
        return [[c[0], 0.0], [0.0, 1.0]]

    ch = MetricChart(dim=2, components=comps, name="degenerate")
    with pytest.raises(SingularMetricError):
        inverse_metric(metric_values(ch, np.array([0.0, 1.0])))
    assert not is_positive_definite(np.diag([-1.0, 1.0]))


def test_domain_enforced():
    ch = MetricChart(
        dim=2, components=lambda c: np.eye(2).tolist(),
        domain=lambda p: p[0] > 0, name="halfplane",
    )
    with pytest.raises(ChartDomainError):
        metric_values(ch, np.array([-1.0, 0.0]))
