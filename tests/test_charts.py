"""Curvature operators on coordinate charts: pinned closed-form fixtures,
symmetry properties on random metrics, and independence checks against
finite differences and against the Riemann tensor built from dGamma."""

import glob
import math
import os
import re
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

import kahlerqe
from kahlerqe import charts
from kahlerqe.builder import FLAT, BaseModel, end_to_end
from kahlerqe.charts import (
    MetricChart,
    PointGeometry,
    DROP_TOL,
    SingularMetricError,
    _esum,
    _horizontal_frame,
    _quad,
    _unit,
    inverse_metric,
    is_positive_definite,
)
from kahlerqe.odes import SKRParams
from oracles import (
    ChartDomainError,
    conformal_scale,
    cos_,
    curvature_at,
    esum_loop,
    exp_,
    horizontal_frame_left_looking,
    jets_at,
    point,
    riemann,
    sin_,
)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _geometry(chart, p, tau=None, J=None):
    """PointGeometry of ``chart`` at the one point ``p`` carrying the given
    tau and J; no f."""

    def fields(c):
        return (chart.components(c), None if tau is None else tau(c), None,
                None if J is None else J(c))

    return point(PointGeometry(SimpleNamespace(chart=chart, fields=fields), p), 0)


def flat_chart(n):
    return MetricChart(dim=n, components=lambda c: np.eye(n).tolist(), name=f"flat{n}")


def sphere_chart():
    """Unit round 2-sphere, polar coordinates (theta, phi)."""

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
    at = curvature_at(ch, p)
    npt.assert_allclose(at.gamma, 0.0, atol=1e-15)
    npt.assert_allclose(at.ricci, 0.0, atol=1e-15)


def test_sphere_christoffels_pinned():
    ch = sphere_chart()
    p = np.array([math.pi / 4, 0.3])
    G = curvature_at(ch, p).gamma
    # Gamma^theta_{phi phi} = -sin(theta)cos(theta) = -1/2 at theta = pi/4
    assert abs(G[0, 1, 1] - (-0.5)) < 1e-12
    # Gamma^phi_{theta phi} = cot(theta) = 1
    assert abs(G[1, 0, 1] - 1.0) < 1e-12
    assert abs(G[1, 1, 0] - 1.0) < 1e-12


def test_conformal_flat_2d_christoffels_pinned():
    def comps(c):
        w = exp_(2.0 * c[0])
        return [[w, 0.0], [0.0, w]]

    ch = MetricChart(dim=2, components=comps, name="e2x")
    G = curvature_at(ch, np.zeros(2)).gamma
    assert abs(G[0, 0, 0] - 1.0) < 1e-13
    assert abs(G[0, 1, 1] - (-1.0)) < 1e-13
    assert abs(G[1, 0, 1] - 1.0) < 1e-13
    assert abs(G[1, 1, 0] - 1.0) < 1e-13


def test_sphere_is_einstein():
    ch = sphere_chart()
    for th in (0.4, 1.1, 2.3):
        p = np.array([th, 0.7])
        npt.assert_allclose(curvature_at(ch, p).ricci, jets_at(ch, p)[0], atol=1e-9)
    geo = _geometry(ch, np.array([1.0, 0.0]))
    scal = float(np.einsum("ij,ij->", geo.ginv, geo.ricci))
    assert abs(scal - 2.0) < 1e-9


def test_hyperbolic_is_negative_einstein():
    ch = hyperbolic_chart()
    for y in (0.5, 1.0, 2.5):
        p = np.array([0.3, y])
        npt.assert_allclose(curvature_at(ch, p).ricci, -jets_at(ch, p)[0], atol=1e-9)


def test_fubini_study_line_is_kahler_einstein():
    """CP^1 in the affine chart: g = 2(dx^2+dy^2)/(1+|z|^2)^2, r = 2g."""

    def comps(c):
        x, y = c[0], c[1]
        d = 1.0 + x * x + y * y
        w = 2.0 / (d * d)
        return [[w, 0.0], [0.0, w]]

    ch = MetricChart(dim=2, components=comps, name="fs1")
    J = lambda c: J2
    for p in (np.array([0.0, 0.0]), np.array([0.4, -0.3]), np.array([1.0, 0.5])):
        npt.assert_allclose(curvature_at(ch, p).ricci, 2.0 * jets_at(ch, p)[0], atol=1e-10)
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
            assert is_positive_definite(jets_at(ch, p)[0])
            R = riemann(ch, p)
            # first Bianchi identity: cyclic sum over the last three slots
            cyc = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
            assert np.max(np.abs(cyc)) < 1e-9
            Rl = np.einsum("la,akij->lkij", _geometry(ch, p).g, R)
            npt.assert_allclose(Rl, -np.transpose(Rl, (0, 1, 3, 2)), atol=1e-9)
            npt.assert_allclose(Rl, np.transpose(Rl, (2, 3, 0, 1)), atol=1e-9)


def test_contracted_ricci_matches_trace_of_riemann():
    """Ricci from contracted second derivatives of g (no dGamma) against the
    trace of the full tensor built from dGamma."""
    for seed in (3, 4):
        ch = _random_metric_chart(seed, eps=0.2)
        rng = np.random.RandomState(200 + seed)
        for _ in range(4):
            p = rng.uniform(-0.8, 0.8, size=3)
            want = np.einsum("lklj->kj", riemann(ch, p))
            got = curvature_at(ch, p).ricci
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def _fd_ricci(ch, p, h=1e-5):
    """Ricci built only from finite differences of the component oracle."""
    n = ch.dim

    def gamma_at(q):
        g = jets_at(ch, q)[0]
        dg = np.zeros((n, n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            dg[k] = (jets_at(ch, q + e)[0] - jets_at(ch, q - e)[0]) / (2 * h)
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
        r_ad = curvature_at(ch, p).ricci
        r_fd = _fd_ricci(ch, p)
        rel = np.max(np.abs(r_ad - r_fd)) / max(1.0, np.max(np.abs(r_ad)))
        assert rel < 1e-5


def test_hessian_fixtures():
    ch = flat_chart(2)
    sq = lambda c: c[0] * c[0]
    lin = lambda c: 3.0 * c[0] - 2.0 * c[1]
    p = np.array([0.7, -0.2])
    npt.assert_allclose(curvature_at(ch, p, sq).hess, [[2.0, 0.0], [0.0, 0.0]], atol=1e-14)
    npt.assert_allclose(curvature_at(ch, p, lin).hess, 0.0, atol=1e-14)


def test_sphere_height_function_hessian():
    ch = sphere_chart()
    height = lambda c: cos_(c[0])
    for th in (0.5, 1.2, 2.0):
        p = np.array([th, 1.0])
        npt.assert_allclose(
            curvature_at(ch, p, height).hess,
            -math.cos(th) * jets_at(ch, p)[0],
            atol=1e-12,
        )


def test_gradient_laplacian_fixtures():
    ch = flat_chart(2)
    rad = lambda c: c[0] * c[0] + c[1] * c[1]
    p = np.array([0.6, -0.8])
    geo = _geometry(ch, p, tau=rad)
    assert abs(geo.grad_tau_sq - 4.0 * (0.6 ** 2 + 0.8 ** 2)) < 1e-13
    assert abs(geo.lap_tau - 4.0) < 1e-13
    npt.assert_allclose(geo.grad_tau, [1.2, -1.6], atol=1e-14)
    const = _geometry(ch, p, tau=lambda c: 5.0)
    assert const.grad_tau_sq == 0.0
    assert const.lap_tau == 0.0


def test_killing_fixtures():
    ch = flat_chart(2)
    J = lambda c: J2
    rot = lambda c: 0.5 * (c[0] * c[0] + c[1] * c[1])
    trans = lambda c: c[0]
    bad = lambda c: c[0] * c[0]
    p = np.array([0.9, 0.4])
    assert _geometry(ch, p, tau=rot, J=J).killing_residual < 1e-13
    assert _geometry(ch, p, tau=trans, J=J).killing_residual < 1e-13
    assert _geometry(ch, p, tau=bad, J=J).killing_residual > 0.1


def test_kahler_fixtures():
    ch = flat_chart(4)
    J4 = np.kron(np.eye(2), J2)
    J = lambda c: J4
    p = np.array([0.3, -0.4, 0.8, 0.1])
    assert _geometry(ch, p, J=J).kahler_residual < 1e-14

    # Hermitian but non-Kahler: second complex direction scaled by e^{2x0}
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
    tau = lambda c: 2.0
    gh = conformal_scale(ch, tau)
    p = np.array([0.1, 0.2, 0.3])
    npt.assert_allclose(jets_at(gh, p)[0], np.eye(3) / 4.0, atol=1e-15)
    npt.assert_allclose(curvature_at(gh, p).ricci, 0.0, atol=1e-13)


def test_conformal_scale_gives_hyperbolic():
    """Flat plane scaled by 1/y^2 (potential tau = y) is the hyperbolic plane."""
    ch = flat_chart(2)
    tau = lambda c: c[1]
    gh = conformal_scale(ch, tau)
    for p in (np.array([0.0, 1.0]), np.array([0.5, 0.7]), np.array([-1.0, 2.0])):
        npt.assert_allclose(curvature_at(gh, p).ricci, -jets_at(gh, p)[0], atol=1e-9)
    with pytest.raises(ChartDomainError):
        jets_at(gh, np.array([0.0, 0.0]))


def test_degenerate_metric_raises():
    def comps(c):
        return [[c[0], 0.0], [0.0, 1.0]]

    ch = MetricChart(dim=2, components=comps, name="degenerate")
    with pytest.raises(SingularMetricError):
        inverse_metric(jets_at(ch, np.array([0.0, 1.0]))[0])
    assert not is_positive_definite(np.diag([-1.0, 1.0]))


def test_domain_enforced():
    ch = MetricChart(
        dim=2, components=lambda c: np.eye(2).tolist(),
        domain=lambda p: p[0] > 0, name="halfplane",
    )
    with pytest.raises(ChartDomainError):
        jets_at(ch, np.array([-1.0, 0.0]))


def test_point_geometry_calls_the_kernels_through_the_module(monkeypatch):
    """The traced benchmark times the curvature kernels by wrapping the
    ``charts`` module globals, so ``PointGeometry`` must look every kernel
    up there at call time: one batch of the flat acceptance chart shows
    each of its calls."""
    params = SKRParams.section6(m=2, a=1, c=1, C2=-1, kappa=0, b=1, sign_phi=-1)
    skr, _ = end_to_end(params, BaseModel(kind=FLAT, dim_c=1, s=1), interval=(0.35, 0.95))
    calls = dict.fromkeys(("metric_jets", "scalar_jet", "christoffel", "ricci", "hessian"), 0)
    for name in calls:
        def counted(*args, name=name, kernel=getattr(charts, name), **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(charts, name, counted)
    PointGeometry(skr, skr.sample_points(8, seed=0))
    # metric_jets: g and J; scalar_jet: tau and f; christoffel and ricci: g
    # and ghat; hessian: tau on g, f on g and on ghat
    assert calls == {"metric_jets": 2, "scalar_jet": 2, "christoffel": 2, "ricci": 2,
                     "hessian": 3}


def _esum_specs():
    """Every literal ``_esum`` spec in the package's modules."""
    src = os.path.dirname(kahlerqe.__file__)
    specs = set()
    for path in glob.glob(os.path.join(src, "*.py")):
        with open(path) as fh:
            specs.update(re.findall(r'_esum\(\s*"([^"]*)"', fh.read()))
    return sorted(specs)


def test_esum_matches_loop_oracle_bit_for_bit():
    """The broadcast ``_esum`` forms the same products and the same
    sequential sum as the loop over summed index tuples, for every spec the
    package uses, at one point and at many, on entries of both signs spread
    over ten orders of magnitude."""
    specs = _esum_specs()
    assert {"ii->", "llq,qa->a", "la,ljak->kj", "sj,tj->st"} <= set(specs)
    rng = np.random.default_rng(14)
    for n in (3, 4, 6, 8):
        size = {c: n - 2 if c in "st" else n for c in "abcdefghijklmnopqrstuvwxyz"}
        for B in (1, 25, 200):
            for spec in specs:
                ops = []
                for letters in spec.split("->")[0].split(","):
                    shape = tuple(size[c] for c in letters) + (B,)
                    sign = rng.choice((-1.0, 1.0), size=shape)
                    ops.append(sign * 10.0 ** rng.uniform(-5.0, 5.0, size=shape))
                got, want = _esum(spec, *ops), esum_loop(spec, *ops)
                assert got.shape == want.shape, (spec, n, B)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (spec, n, B)


def test_horizontal_frame_matches_left_looking_oracle_bit_for_bit():
    """Right-looking modified Gram-Schmidt applies the same projections to
    each coordinate vector in the same order as the left-looking loop, so
    the frames agree bit for bit: on random positive-definite batches, at
    B = 1, and where the first coordinate direction collapses (squared
    G-norm at most ``DROP_TOL``) at some points only, so that the points
    take different coordinate vectors into their frames."""
    rng = np.random.default_rng(25)
    for n in (4, 6, 8):
        for B in (1, 2, 37):
            A = rng.standard_normal((n, n, B))
            G = np.einsum("ikb,jkb->ijb", A, A) + n * np.eye(n)[:, :, None]
            v1, v2 = rng.standard_normal((2, n, B))
            along = v1.copy()
            along[:, ::2] = 0.0
            along[0, ::2] = 1.0 + rng.uniform(size=along[0, ::2].shape)
            # e_0 less its projections on the units of v1 and v2, at each point
            w = np.zeros((n, B))
            w[0] = 1.0
            for u in (_unit(along, G), _unit(v2, G)):
                w = w - _quad(w, G, u) * u
            collapsed = _quad(w, G, w) <= DROP_TOL
            assert collapsed.tolist() == [b % 2 == 0 for b in range(B)]
            for d1 in (v1, along):
                got = _horizontal_frame(G, np.stack([_unit(d1, G), _unit(v2, G)]))
                want = horizontal_frame_left_looking(G, d1, v2)
                assert got.shape == want.shape == (n - 2, n, B)
                assert got.tobytes() == want.tobytes(), (n, B)

