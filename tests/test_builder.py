"""Construction layer: base models, the Q profile and its positivity
intervals, the warp (tau <-> log r) correspondence and its inversion
against an mpmath oracle, chart assembly, and the end-to-end refusal
logic."""

import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from kahlerqe.builder import (
    FLAT,
    FUBINI_STUDY,
    SCAN_POINTS,
    BaseModel,
    ConstructionError,
    WarpProfile,
    assemble_chart,
    build_warp,
    end_to_end,
    expected_kahler,
    positivity_intervals,
    q_from_phi,
    warp_jets,
)
from kahlerqe.charts import MetricChart, PointGeometry, is_positive_definite
from kahlerqe.cli import NoWindowError, select_window
from kahlerqe.jets import Jet
from kahlerqe.numutil import PanelAntiderivative, halton_points
from kahlerqe.odes import ScalarProfile, SKRParams, phi_closed_form, real_floor
from oracles import domain_loop, jets_at, sample_points_loop


def tau_at(skr, p):
    """tau at the one point ``p``, from the chart's ``fields`` on its jets."""
    return float(skr.fields(Jet.seed(p))[1].val[0])


def flat_params(a=1, C2=-1, sign_phi=-1):
    return SKRParams.section6(m=2, a=a, c=1, C2=C2, kappa=0, b=1, sign_phi=sign_phi)


def fs_params(a=1, C2=Fraction(1, 100)):
    return SKRParams.section6(
        m=3, a=a, c=1, C2=C2, kappa=3, b=Fraction(-1, 2), sign_phi=1
    )


def test_base_model():
    flat = BaseModel(kind=FLAT, dim_c=1, s=1)
    assert flat.kappa == 0
    fs = BaseModel(kind=FUBINI_STUDY, dim_c=2, s=1)
    assert fs.kappa == 3
    with pytest.raises(ValueError):
        BaseModel(kind=FLAT, dim_c=1, s=0)
    with pytest.raises(ValueError):
        BaseModel(kind="round", dim_c=1)
    with pytest.raises(ValueError):
        BaseModel(kind=FLAT, dim_c=0)


@pytest.mark.parametrize("kind", (FLAT, FUBINI_STUDY))
@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("s", (1, 2))
def test_base_row_is_einstein_with_its_kappa_sigma_and_rho(kind, d, s):
    """Each base on its own, from ``BaseModel`` alone: the metric h that
    ``h_block`` gives is Einstein with the row's kappa, Ric(h) = kappa h;
    rho's k is its gradient, d rho/dx_i = k x_i; and sigma h is
    Hess rho + J^T Hess rho J, the J-invariant part of the Hessian of 2 rho."""
    base = BaseModel(kind=kind, dim_c=d, s=s)
    n = 2 * d

    def fields(coords):
        rho, k = base.rho(sum((x * x for x in coords[1:]), coords[0] * coords[0]))
        alpha, beta = [], []
        for j in range(d):
            kx, ky = k * coords[2 * j], k * coords[2 * j + 1]
            alpha += [kx, ky]
            beta += [-ky, kx]
        hdiag, hcoef = base.h_block(k, 1.0, 0.0)
        h = [[hcoef * (alpha[i] * alpha[j] + beta[i] * beta[j]) + (hdiag if i == j else 0.0)
              for j in range(n)] for i in range(n)]
        return h, None, None, None

    xb = base.row.x_bound
    pts = np.random.default_rng(d + 10 * s).uniform(-xb, xb, size=(12, n))
    assert np.all(np.sum(pts * pts, axis=1) < base.row.z2_max)
    geo = PointGeometry(SimpleNamespace(chart=MetricChart(dim=n, components=None),
                                        fields=fields), pts)
    assert np.max(np.abs(geo.ricci - float(base.kappa) * geo.g)) <= 1e-12
    x = Jet.seed(geo.p)
    rho, k = base.rho(sum((xi * xi for xi in x[1:]), x[0] * x[0]))
    kv = k.val if isinstance(k, Jet) else k
    npt.assert_allclose(rho.grad, kv * geo.p, rtol=1e-14, atol=0)
    J = np.kron(np.eye(d), [[0.0, -1.0], [1.0, 0.0]])
    levi = rho.hess + np.einsum("ai,abp,bj->ijp", J, rho.hess, J)
    npt.assert_allclose(float(base.sigma) * geo.g, levi, rtol=0, atol=1e-14)


def test_q_from_phi():
    p = SKRParams.section6(m=2, a=1, c=1, C2=1, kappa=0)
    q = q_from_phi(p, phi_closed_form(p))
    assert abs(q.value(2.0) - 32.0) < 1e-12
    const = SKRParams.section6(m=2, a=1, c=1, C2=0, kappa=4)  # phi = C1 = 1
    qc = q_from_phi(const, phi_closed_form(const))
    assert abs(qc.value(1.0 + 1e-12)) < 1e-11  # Q vanishes at tau = c
    for t in (0.3, 1.75, 2.6):
        q0, q1, q2 = qc.taylor(t)
        assert abs(qc.value(t) - 2.0 * (t - 1.0)) < 1e-14
        assert q0 == qc.value(t)
        assert abs(q1 - 2.0) < 1e-14
        assert abs(q2) < 1e-14
    # derivative consistency by finite differences
    h = 1e-6
    for t in (1.4, 1.9):
        fd = (q.value(t + h) - q.value(t - h)) / (2 * h)
        assert abs(fd - q.taylor(t)[1]) < 1e-6


def test_positivity_intervals():
    par = ScalarProfile(value=lambda t: t * t - 1.0,
                        taylor=lambda t: (t * t - 1.0, 2 * t, 2.0))
    ivs = list(positivity_intervals(par, -3.0, 3.0))
    assert len(ivs) == 2
    npt.assert_allclose(ivs[0], (-3.0, -1.0), atol=1e-6)
    npt.assert_allclose(ivs[1], (1.0, 3.0), atol=1e-6)
    assert list(positivity_intervals(par, -0.9, 0.9)) == []
    # excluded points split intervals even where the profile stays positive
    pos = ScalarProfile(value=lambda t: 1.0, taylor=lambda t: (1.0, 0.0, 0.0))
    split = list(positivity_intervals(pos, 0.0, 2.0, exclude=(1.0,)))
    assert len(split) == 2



def test_positivity_scan_is_lazy_and_takes_one_taylor_per_newton_step():
    """The intervals come one at a time: the first is found from the first
    segment's grid alone.  ``value`` is called only on the scan grids; each
    inversion calls ``taylor`` once on both bracket ends, then once per
    Newton step, for the value and the slope together."""
    calls = []

    def value(t):
        calls.append(("value", np.shape(t)))
        return t * t - 1.0

    def taylor(t):
        calls.append(("taylor", np.shape(t)))
        return t * t - 1.0, 2 * t, 2.0

    ivs = positivity_intervals(ScalarProfile(value=value, taylor=taylor), -3.0, 3.0,
                               exclude=(0.0,))
    assert calls == []
    npt.assert_allclose(next(ivs), (-3.0, -1.0), atol=1e-6)
    assert calls[0] == ("value", (SCAN_POINTS,))
    assert calls[1] == ("taylor", (2,))
    assert len(calls) > 3 and calls[2:] == [("taylor", (1,))] * (len(calls) - 2)
    calls.clear()
    npt.assert_allclose(next(ivs), (1.0, 3.0), atol=1e-6)
    assert [kind for kind, _ in calls].count("value") == 1
    assert next(ivs, None) is None

@pytest.mark.parametrize("c, floor", ((1, 2.0), (-1, 0.0)))
def test_real_floor_bounds_phi_the_window_and_the_window_search(c, floor):
    """For a = 7/2 phi is real only above max(0, 2c); the closed form, the
    window refusal and the window search all read that one floor."""
    params = SKRParams.section6(m=2, a=Fraction(7, 2), c=c, C2=1, kappa=0, b=1)
    base = BaseModel(kind=FLAT, dim_c=1, s=1)
    assert real_floor(params) == floor
    phi = phi_closed_form(params)
    with pytest.raises(ValueError, match=rf"needs tau > 0 and tau > 2c, got tau={floor}$"):
        phi.value(floor)
    assert math.isfinite(phi.value(math.nextafter(floor, math.inf)))
    with pytest.raises(ConstructionError, match=(
            rf"^fractional a = 7/2 needs tau > max\(0, 2c\) = {floor:g} across the "
            rf"whole window, but interval \({floor - 0.5}, {floor + 0.5}\) starts below it$")):
        end_to_end(params, base, (floor - 0.5, floor + 0.5))
    assert select_window(params, base, side=1).interval[0] > floor


def test_refusal_message_has_plain_float_endpoints():
    # Q is positive on (-3, -1.657...) and on (2, 5); the automatic window
    # skips the first, which lies on the wrong side of c for sign_phi = +1
    base = BaseModel(kind=FUBINI_STUDY, dim_c=2, s=1)
    params = SKRParams.section6(m=3, a=2, c=1, C2=1, kappa=3, b=Fraction(-1, 2))
    lo, hi = select_window(params, base, side=params.sign_phi).interval
    assert 2.0 <= lo < hi <= 5.0
    skr, _ = end_to_end(params, base, (lo, hi))
    assert skr.dim == 6
    # an explicit wrong-side interval is still refused, named with plain floats
    with pytest.raises(ConstructionError, match=r"sgn\(tau - c\) = -1") as info:
        end_to_end(params, base, (np.float64(-3.0), np.float64(-1.7)))
    assert "np.float64" not in str(info.value)
    for iv in positivity_intervals(q_from_phi(params, phi_closed_form(params)), -3.0, 5.0,
                                   {0.0, 1.0, 2.0}):
        assert all(type(x) is float for x in iv)


def test_warp_profile_roundtrip_and_monotonicity():
    p = flat_params()
    phi = phi_closed_form(p)
    warp = build_warp(p, phi, (0.35, 0.95))
    assert warp.roundtrip_error() < 1e-10
    # b > 0 and Q > 0: log r increases with tau
    assert warp.antiderivative(0.7) > warp.antiderivative(0.6)
    lo, hi = warp.ell_range
    assert lo < hi
    # set once by build, from the two ends of the working interval
    assert (lo, hi) == tuple(sorted(warp.antiderivative(t) for t in warp.work_interval))
    rows = warp.csv_rows(50)
    assert len(rows) == 50
    taus = [r[0] for r in rows]
    assert taus == sorted(taus)
    assert all(r[2] > 0 for r in rows)


def test_unconverged_warp_integral_is_a_construction_error(monkeypatch):
    build = PanelAntiderivative.build
    monkeypatch.setattr(
        PanelAntiderivative, "build",
        classmethod(lambda cls, *args, **kw: build(*args, max_depth=0, **kw)),
    )
    p = flat_params()
    with pytest.raises(ConstructionError, match=r"did not converge on \(0.35, 0.95\)"):
        WarpProfile.build(p, phi_closed_form(p), (0.35, 0.95))


def test_warp_tau_jet_derivatives():
    p = flat_params()
    warp = build_warp(p, phi_closed_form(p), (0.35, 0.95))
    lo, hi = warp.ell_range
    ell0 = 0.5 * (lo + hi)
    jet, qjet = warp_jets(((warp, slice(None)),), Jet.seed(np.array([ell0]))[0])
    t0 = warp.tau_of_logr(ell0)
    assert abs(jet.val - t0) < 1e-12
    # dtau/dl = Q/b
    assert abs(jet.grad[0] - warp.q.value(t0) / float(p.b)) < 1e-9
    # Q(tau) by the chain rule through the same tau
    q0, q1, q2 = warp.q.taylor(jet.val)
    assert qjet.val == q0
    assert qjet.grad[0] == q1 * jet.grad[0]
    assert abs(qjet.hess[0, 0] - (q1 * jet.hess[0, 0] + q2 * jet.grad[0] ** 2)) < 1e-12
    h = 1e-5
    fd2 = (
        warp.tau_of_logr(ell0 + h) - 2 * t0 + warp.tau_of_logr(ell0 - h)
    ) / h**2
    assert abs(jet.hess[0, 0] - fd2) < 1e-4


def _mp_q(params):
    """Q = 2 (tau - c) phi of the closed form, in mpmath arithmetic."""
    mp = pytest.importorskip("mpmath").mp
    fr = lambda x: mp.mpf(x.numerator) / x.denominator
    m, a, c, C1, C2 = params.m, fr(params.a), fr(params.c), fr(params.C1), fr(params.C2)
    return lambda t: 2 * (t - c) * (
        C1 + C2 * (t - 2 * c) ** (1 - a) * (t - c) ** (-m) * t ** (2 * m - 1 + a))


@pytest.mark.parametrize("m, a, c, C2", [(m, a, c, C2) for m in (2, 3) for a in (1, 2)
                                          for c in (1, -1) for C2 in (1, -1)])
def test_closed_form_q_matches_mpmath_across_the_cuts(m, a, c, C2):
    """Q and its two derivatives on a grid crossing 0, c and 2c, where the
    bases of psi change sign, against mpmath.  Q is within 8 ulp of |Q| plus
    8 ulp of 2|tau - c||C1| (the term that cancels in it); Q' and Q'' are
    within 8 eps of the sum of their terms' sizes.  Each has the reference's
    sign wherever the reference exceeds its bound."""
    mp = pytest.importorskip("mpmath").mp
    eps = np.finfo(float).eps
    ts = np.linspace(-4.0, 4.0, 201) + 1.3e-3
    ts = ts[np.min(np.abs(ts[:, None] - np.array([0.0, c, 2.0 * c])), axis=1) > 1e-3]
    factors = [(1 - a, 2.0 * c), (-m, float(c)), (2 * m - 1 + a, 0.0)]
    w = np.abs(C2) * np.prod([np.abs(ts - r) ** e for e, r in factors], axis=0)
    s1 = sum(np.abs(e / (ts - r)) for e, r in factors)
    s2 = sum(abs(e) / (ts - r) ** 2 for e, r in factors)
    for kappa in (0, 2 * m):  # C1 = 0 and C1 = 1
        params = SKRParams.section6(m=m, a=a, c=c, C2=C2, kappa=kappa, b=1, sign_phi=1)
        q, qr = q_from_phi(params, phi_closed_form(params)), _mp_q(params)
        C1 = float(params.C1)
        with mp.workdps(40):
            refs = [np.array([float(mp.diff(qr, mp.mpf(t), k)) for t in ts]) for k in range(3)]
        bounds = (
            8 * np.spacing(np.abs(refs[0])) + 8 * np.spacing(2 * np.abs(ts - c) * C1),
            8 * eps * (2 * C1 + 2 * w + 2 * np.abs(ts - c) * w * s1),
            8 * eps * (4 * w * s1 + 2 * np.abs(ts - c) * w * (s1 * s1 + s2)),
        )
        # Q's value is checked once from each of its two entry points
        npt.assert_array_equal(q.value(ts), q.taylor(ts)[0])
        for k, (got, ref, bound) in enumerate(zip(q.taylor(ts), refs, bounds)):
            assert np.all(np.abs(got - ref) <= bound), (kappa, k)
            big = np.abs(ref) > bound
            assert np.array_equal(np.sign(got[big]), np.sign(ref[big])), (kappa, k)


@pytest.mark.parametrize("params, interval", (
    (flat_params(), (0.35, 0.95)),
    (fs_params(a=2, C2=Fraction(-1, 100)), (1.3, 1.9)),
    (SKRParams.section6(m=3, a=2, c=-1, C2=-1, kappa=0, b=1, sign_phi=-1), (-2.0, -1.0)),
), ids=("flat-a1", "fs-a2", "sweep-flat-cell30"))
def test_tau_of_logr_matches_mpmath(params, interval):
    mp = pytest.importorskip("mpmath").mp
    warp = build_warp(params, phi_closed_form(params), interval)
    q, b, tau0 = _mp_q(params), mp.mpf(float(params.b)), mp.mpf(warp.antiderivative.anchor)
    lo, hi = warp.ell_range
    for i in range(1, 8):
        ell = lo + (hi - lo) * i / 8
        with mp.workdps(30):
            ref = mp.findroot(lambda t: mp.quad(lambda x: b / q(x), [tau0, t]) - ell,
                              tuple(mp.mpf(t) for t in warp.work_interval),
                              solver="anderson")
        tau = warp.tau_of_logr(ell)
        assert abs(tau - float(ref)) <= 1e-14 * (1.0 + abs(tau)), (ell, tau, ref)


def test_log_r_keeps_full_precision_near_a_zero_of_q():
    """On the positivity interval (0, 1) that the window search finds for flat
    m=2, a=2, c=1, C2=1, the integral of b/Q from the work interval's left
    end reaches 9e4 while log r is about -4.9 where Q = 0.012.  Summed from
    there, log r was resolved only to 1.5e-11, and two tau 7.5e-14 apart
    gave the same log r; summed outward from the anchor, each matches a
    30-digit quadrature."""
    mp = pytest.importorskip("mpmath").mp
    params = SKRParams.section6(m=2, a=2, c=1, C2=1, kappa=0, b=1, sign_phi=-1)
    phi = phi_closed_form(params)
    assert next(positivity_intervals(q_from_phi(params, phi), -3.0, 5.0, {0.0, 1.0, 2.0})) \
        == (0.0, 1.0)
    warp = build_warp(params, phi, (0.0, 1.0))
    assert warp.ell_range[0] < -3e4
    q = _mp_q(params)
    taus = (0.3625, 0.3625 + 7.5e-14)
    assert abs(warp.q.value(taus[0]) - 0.012) < 1e-4
    ells = [warp.antiderivative(t) for t in taus]
    assert ells[0] != ells[1]
    anchor = mp.mpf(warp.antiderivative.anchor)
    for tau, ell in zip(taus, ells):
        with mp.workdps(30):
            ref = float(mp.quad(lambda x: 1 / q(x), [anchor, mp.mpf(tau)]))
        assert abs(ell - ref) <= 2 * np.spacing(abs(ref)), (tau, ell, ref)


def test_positivity_interval_ends_are_roots_of_q():
    mp = pytest.importorskip("mpmath").mp
    params = fs_params(a=2, C2=Fraction(-1, 100))
    ivs = list(positivity_intervals(q_from_phi(params, phi_closed_form(params)),
                                    -5.0, 7.0, {0.0, 1.0, 2.0}))
    root = ivs[0][0]
    with mp.workdps(30):
        ref = float(mp.findroot(_mp_q(params), mp.mpf(root)))
    assert abs(root - ref) <= 4 * np.spacing(ref), (root, ref)


def constant_q_profile(Q0, c):
    """phi = Q0 / (2 (tau - c)), so Q = 2 (tau - c) phi = Q0 identically."""
    return ScalarProfile(
        value=lambda t: Q0 / (2.0 * (t - c)),
        taylor=lambda t: (Q0 / (2.0 * (t - c)), -Q0 / (2.0 * (t - c) ** 2),
                          Q0 / (t - c) ** 3),
    )


def test_constant_q_warp_is_logarithmic():
    p = SKRParams(m=2, a=1, c=-2, k=Fraction(1, 4), b=1)  # c < interval
    Q0 = 3.0
    warp = WarpProfile.build(p, constant_q_profile(Q0, -2.0), (1.0, 2.0))
    t0 = warp.antiderivative.anchor
    for t in (1.2, 1.5, 1.9):
        expected = (t - t0) * float(p.b) / Q0
        assert abs((warp.antiderivative(t) - warp.antiderivative(t0)) - expected) < 1e-10
    # inversion: tau(log r) = tau0 + (Q0/b) log(r/r0)
    ell0 = warp.antiderivative(t0)
    assert abs(warp.tau_of_logr(ell0 + 0.1) - (t0 + Q0 * 0.1)) < 1e-9


def test_constant_q_chart_vertical_block():
    p = SKRParams(m=2, a=1, c=-2, k=Fraction(1, 4), b=1)
    Q0 = 3.0
    warp = WarpProfile.build(p, constant_q_profile(Q0, -2.0), (1.0, 2.0))
    base = BaseModel(kind=FLAT, dim_c=1, s=1)
    skr = assemble_chart(base, warp)
    # point with x = 0 and |w| = 1 (so log r = 0, well inside ell_range)
    lo, hi = warp.ell_range
    assert lo < 0.0 < hi
    pt = np.array([0.0, 0.0, 1.0, 0.0])
    g = jets_at(skr.chart, pt)[0]
    tau = tau_at(skr, pt)
    # vertical block Q/(b|w|)^2 Re<.,.> = Q0 * I at |w| = 1
    npt.assert_allclose(g[2:, 2:], Q0 * np.eye(2), atol=1e-9)
    # base block 2|tau - c| h = 2(tau + 2) I at x = 0 (connection terms vanish there)
    npt.assert_allclose(g[:2, :2], 2.0 * (tau + 2.0) * np.eye(2), atol=1e-9)
    npt.assert_allclose(g[:2, 2:], 0.0, atol=1e-12)
    assert is_positive_definite(g)


@pytest.mark.parametrize("params, kind, dim_c, interval", (
    (flat_params(), FLAT, 1, (0.35, 0.95)),
    (fs_params(a=2, C2=Fraction(-1, 100)), FUBINI_STUDY, 2, (1.3, 1.9)),
), ids=("flat-a1", "fs-a2"))
def test_metric_blocks_on_chern_horizontal_lifts(params, kind, dim_c, interval):
    # the defining blocks of g away from x = 0, where the connection terms
    # do not vanish: 2|tau - c| h on the horizontal lifts X_a of e_a,
    # Q/(b|w|)^2 I on the vertical (d_u, d_v), and nothing between them
    skr, _ = end_to_end(params, BaseModel(kind=kind, dim_c=dim_c, s=1), interval)
    nb = 2 * dim_c
    c, b = float(params.c), float(params.b)
    for pt in skr.sample_points(10, seed=0):
        assert skr.chart.domain(pt)
        x, (u, v) = pt[:nb], pt[nb:]
        D = 1.0 + x @ x
        # d rho = k x.dx for rho = |x|^2/2 (flat) or log(1 + |x|^2)/2
        k = 1.0 if kind == FLAT else 1.0 / D
        Jx = np.empty(nb)
        Jx[0::2], Jx[1::2] = -x[1::2], x[0::2]
        wsq = u * u + v * v
        # alpha + i beta = 2 d'rho - dw/w; X_a = e_a + lam d_u + mu d_v
        # has alpha(X_a) = beta(X_a) = 0
        fiber = np.array([[-u, -v], [v, -u]]) / wsq
        lam_mu = np.linalg.solve(fiber, -np.array([k * x, k * Jx]))
        X = np.hstack([np.eye(nb), lam_mu.T])
        V = np.hstack([np.zeros((2, nb)), np.eye(2)])
        # h_jk = delta_jk (flat), d d-bar log(1 + |z|^2) (Fubini-Study)
        if kind == FLAT:
            h = np.eye(nb)
        else:
            xi = np.eye(nb)[:, 0::2] + 1j * np.eye(nb)[:, 1::2]  # dz^j(e_a)
            zbar_xi = xi @ (x[0::2] - 1j * x[1::2])
            h = 2.0 * np.real(xi @ xi.conj().T / D
                              - np.outer(zbar_xi, zbar_xi.conj()) / D**2)
        g = jets_at(skr.chart, pt)[0]
        tau = tau_at(skr, pt)
        q = skr.warp.q.value(tau)
        scale = np.max(np.abs(g))
        npt.assert_allclose(X @ g @ X.T / scale, 2.0 * abs(tau - c) * h / scale,
                            rtol=0, atol=1e-13)
        npt.assert_allclose(X @ g @ V.T / scale, 0.0, rtol=0, atol=1e-13)
        npt.assert_allclose(V @ g @ V.T / scale, q / (b * b * wsq) * np.eye(2) / scale,
                            rtol=0, atol=1e-13)


def test_assemble_chart_rejections():
    p = flat_params()
    warp = build_warp(p, phi_closed_form(p), (0.35, 0.95))
    with pytest.raises(ConstructionError):
        assemble_chart(BaseModel(kind=FLAT, dim_c=2, s=1), warp)  # needs m = 3
    # constant-Q profile stays positive across tau = c, but the chart must
    # still refuse an interval that contains c
    pc = SKRParams(m=2, a=1, c=Fraction(7, 5), k=1, b=1)
    warp_c = WarpProfile.build(pc, constant_q_profile(1.0, 1.4), (1.0, 2.0))
    with pytest.raises(ConstructionError):
        assemble_chart(BaseModel(kind=FLAT, dim_c=1, s=1), warp_c)


def test_sample_points_deterministic_and_in_domain():
    skr, _ = end_to_end(flat_params(), BaseModel(kind=FLAT, dim_c=1, s=1),
                        interval=(0.35, 0.95))
    pts = skr.sample_points(40, seed=3)
    again = skr.sample_points(40, seed=3)
    npt.assert_array_equal(pts, again)
    other = skr.sample_points(40, seed=4)
    assert np.max(np.abs(pts - other)) > 1e-6
    lo, hi = skr.warp.work_interval
    for p in pts:
        assert skr.chart.domain(p)
        assert lo <= tau_at(skr, p) <= hi



def test_sample_points_equal_the_row_loop_bit_for_bit():
    """The rows formed together equal the loop over rows, bit for bit, on
    fs-a2, the README flat chart and the chart of a sweep cell, at the
    sample counts of the sweep and of construct-verify; the Halton
    table behind them is computed once and is read-only."""
    flat = BaseModel(kind=FLAT, dim_c=1, s=1)
    fs = BaseModel(kind=FUBINI_STUDY, dim_c=2, s=1)
    sweep = SKRParams.section6(m=3, a=2, c=-1, C2=1, kappa=0, b=flat.kahler_b(1))
    flat3 = BaseModel(kind=FLAT, dim_c=2, s=1)
    warp = select_window(sweep, flat3)
    charts = [
        end_to_end(fs_params(a=2, C2=Fraction(-1, 100)), fs, (1.3, 1.9))[0],
        end_to_end(flat_params(), flat, (0.35, 0.95))[0],
        end_to_end(warp.params, flat3, warp.interval, warp)[0],
    ]
    for skr in charts:
        for count, seed in ((50, 0), (50, 1), (400, 0), (7, 3)):
            got = skr.sample_points(count, seed=seed)
            want = sample_points_loop(skr, count, seed=seed)
            assert got.shape == want.shape == (count, skr.dim)
            assert got.tobytes() == want.tobytes(), (skr.chart.name, count, seed)
    table = halton_points(6, 50, seed=0)
    assert table is halton_points(6, 50, seed=0)
    assert not table.flags.writeable

def test_domain_mask_equals_the_row_loop():
    """``chart.domain`` on all rows at once gives the mask of the loop over
    rows, on the README flat chart and on fs-a2: for sample rows, for rows
    past the |z|^2 bound of the Fubini-Study chart, with w at 0, and with
    log r on either side of each end of the guarded range.  One row gives
    a bool."""
    charts = [end_to_end(flat_params(), BaseModel(kind=FLAT, dim_c=1, s=1), (0.35, 0.95))[0],
              end_to_end(fs_params(a=2, C2=Fraction(-1, 100)),
                         BaseModel(kind=FUBINI_STUDY, dim_c=2, s=1), (1.3, 1.9))[0]]
    for skr in charts:
        d = skr.base.dim_c
        rows = [skr.sample_points(400, seed=0)]
        xs = rows[0][:60, :2 * d]
        lo, hi = skr.warp.ell_range
        guard = 1e-9 * (hi - lo)
        for ell in (lo, lo + 0.5 * guard, lo + 2 * guard, hi - 2 * guard,
                    hi - 0.5 * guard, hi, lo - 1.0, hi + 1.0):
            R = [math.exp(ell + skr.base.rho(float(np.dot(x, x)))[0]) for x in xs]
            rows.append(np.column_stack([xs, np.multiply(R, 0.6), np.multiply(R, 0.8)]))
        past = np.array(rows[0][:40])
        past[:, :2 * d] *= np.linspace(0.5, 4.0, 40)[:, None]
        zero_w = np.array(rows[0][:3])
        zero_w[:, 2 * d:] = [[0.0, 0.0], [1e-16, 0.0], [0.0, -1e-15]]
        rows = np.concatenate(rows + [past, zero_w])
        want = domain_loop(skr, rows)
        got = skr.chart.domain(rows)
        assert got.dtype == bool and got.shape == (len(rows),)
        assert np.array_equal(got, want), skr.chart.name
        assert 0 < want.sum() < len(rows)
        assert [skr.chart.domain(p) for p in rows[::37]] == want[::37].tolist()
        if skr.base.kind == FUBINI_STUDY:
            x2 = np.einsum("ij,ij->i", past[:, :2 * d], past[:, :2 * d])
            assert (x2 >= skr.base.row.z2_max).any()
            assert not domain_loop(skr, past)[x2 >= skr.base.row.z2_max].any()


def test_expected_kahler_pinned():
    flat = BaseModel(kind=FLAT, dim_c=1, s=1)   # sigma = 2s = 2
    p = flat_params()                            # b = 1
    assert expected_kahler(flat, p, (0.35, 0.95)) is True      # tau < c side
    assert expected_kahler(flat, p, (1.2, 1.8)) is False       # tau > c side
    fs = BaseModel(kind=FUBINI_STUDY, dim_c=2, s=1)  # sigma = s = 1
    q = fs_params()                                  # b = -1/2
    assert expected_kahler(fs, q, (1.3, 1.9)) is True
    assert expected_kahler(fs, q, (0.2, 0.8)) is False


def test_end_to_end_flat():
    p = flat_params(a=2, C2=1, sign_phi=-1)
    skr, phi = end_to_end(p, BaseModel(kind=FLAT, dim_c=1, s=1),
                          interval=(0.35, 0.95))
    assert skr.dim == 4
    kf = float(p.k)
    for pt in skr.sample_points(10, seed=1):
        _, tau, f, _ = skr.fields(Jet.seed(pt))
        tau, fval = tau.val[0], f.val[0]
        assert 0.35 < tau < 0.95
        assert abs(fval - (1.0 / tau + kf)) < 1e-12
        assert is_positive_definite(jets_at(skr.chart, pt)[0])


def test_end_to_end_uses_a_given_warp_only_on_its_window():
    p = flat_params(a=2, C2=1, sign_phi=-1)
    base = BaseModel(kind=FLAT, dim_c=1, s=1)
    warp = WarpProfile.build(p, phi_closed_form(p), (0.35, 0.95))
    skr, _ = end_to_end(p, base, (0.35, 0.95), warp)
    assert skr.warp is warp
    with pytest.raises(ValueError, match=r"built on \(0\.35, 0\.95\)"):
        end_to_end(p, base, (0.4, 0.95), warp)
    with pytest.raises(ValueError, match="other parameters"):
        end_to_end(dataclasses.replace(p, b=2), base, (0.35, 0.95), warp)


def test_end_to_end_fubini_study():
    p = fs_params(a=2, C2=Fraction(-1, 100))
    skr, _ = end_to_end(p, BaseModel(kind=FUBINI_STUDY, dim_c=2, s=1),
                        interval=(1.3, 1.9))
    assert skr.dim == 6
    pt = skr.sample_points(4, seed=0)[0]
    assert 1.3 < tau_at(skr, pt) < 1.9
    assert is_positive_definite(jets_at(skr.chart, pt)[0])


def test_end_to_end_refusals():
    base = BaseModel(kind=FLAT, dim_c=1, s=1)
    off_branch = SKRParams(m=2, a=1, c=1, k=0)
    wrong_kappa = SKRParams.section6(m=2, a=1, c=1, C2=1, kappa=4)
    wrong_m = fs_params()
    # the parameter refusals come before any window is looked at or built
    for params, reason in ((off_branch, "forced-zero"), (wrong_kappa, "Einstein constant"),
                           (wrong_m, "m=")):
        with pytest.raises(ConstructionError, match=reason):
            end_to_end(params, base, interval=(0.35, 0.95))
        with pytest.raises(ConstructionError, match=reason):
            select_window(params, base)
    # interval on the wrong side of c for the declared sign
    with pytest.raises(ConstructionError, match="sign_phi"):
        end_to_end(flat_params(sign_phi=1), base, interval=(0.35, 0.95))
    # phi identically zero has no positivity interval
    zero = flat_params(C2=0)
    with pytest.raises(NoWindowError, match="no positivity interval"):
        select_window(zero, base)
