"""Construction layer: base models, the Q profile and its positivity
intervals, the warp (tau <-> log r) correspondence, chart assembly, and the
end-to-end refusal logic."""

import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from kahlerqe.builder import (
    FLAT,
    FUBINI_STUDY,
    BaseModel,
    ConstructionError,
    WarpProfile,
    assemble_chart,
    build_warp,
    end_to_end,
    expected_kahler,
    positivity_intervals,
    q_from_phi,
)
from kahlerqe.charts import is_positive_definite, metric_jets
from kahlerqe.cli import NoWindowError, select_window
from kahlerqe.jets import Jet
from kahlerqe.numutil import PanelAntiderivative
from kahlerqe.odes import ScalarProfile, SKRParams, phi_closed_form


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


def test_q_from_phi():
    p = SKRParams.section6(m=2, a=1, c=1, C2=1, kappa=0)
    q = q_from_phi(p, phi_closed_form(p))
    assert abs(q.value(2.0) - 32.0) < 1e-12
    const = SKRParams.section6(m=2, a=1, c=1, C2=0, kappa=4)  # phi = C1 = 1
    qc = q_from_phi(const, phi_closed_form(const))
    assert abs(qc.value(1.0 + 1e-12)) < 1e-11  # Q vanishes at tau = c
    for t in (0.3, 1.75, 2.6):
        assert abs(qc.value(t) - 2.0 * (t - 1.0)) < 1e-14
        assert abs(qc.d1(t) - 2.0) < 1e-14
        assert abs(qc.d2(t)) < 1e-14
    # derivative consistency by finite differences
    h = 1e-6
    for t in (1.4, 1.9):
        fd = (q.value(t + h) - q.value(t - h)) / (2 * h)
        assert abs(fd - q.d1(t)) < 1e-6


def test_positivity_intervals():
    par = ScalarProfile(
        value=lambda t: t * t - 1.0, d1=lambda t: 2 * t, d2=lambda t: 2.0
    )
    ivs = positivity_intervals(par, -3.0, 3.0)
    assert len(ivs) == 2
    npt.assert_allclose(ivs[0], (-3.0, -1.0), atol=1e-6)
    npt.assert_allclose(ivs[1], (1.0, 3.0), atol=1e-6)
    assert positivity_intervals(par, -0.9, 0.9) == []
    # excluded points split intervals even where the profile stays positive
    pos = ScalarProfile(value=lambda t: 1.0, d1=lambda t: 0.0, d2=lambda t: 0.0)
    split = positivity_intervals(pos, 0.0, 2.0, exclude=(1.0,))
    assert len(split) == 2


def test_refusal_message_has_plain_float_endpoints():
    # Q is positive on (-3, -1.657...) and on (2, 5); the automatic window
    # skips the first, which lies on the wrong side of c for sign_phi = +1
    base = BaseModel(kind=FUBINI_STUDY, dim_c=2, s=1)
    params = SKRParams.section6(m=3, a=2, c=1, C2=1, kappa=3, b=Fraction(-1, 2))
    lo, hi = select_window(params, base, side=params.sign_phi)
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
    assert warp.logr_of_tau(0.7) > warp.logr_of_tau(0.6)
    lo, hi = warp.ell_range
    assert lo < hi
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
    jet = warp.tau_jet(Jet.seed(np.array([ell0]))[0])
    t0 = warp.tau_of_logr(ell0)
    assert abs(jet.val - t0) < 1e-12
    # dtau/dl = Q/b
    assert abs(jet.grad[0] - warp.q.value(t0) / float(p.b)) < 1e-9
    h = 1e-5
    fd2 = (
        warp.tau_of_logr(ell0 + h) - 2 * t0 + warp.tau_of_logr(ell0 - h)
    ) / h**2
    assert abs(jet.hess[0, 0] - fd2) < 1e-4


def constant_q_profile(Q0, c):
    """phi = Q0 / (2 (tau - c)), so Q = 2 (tau - c) phi = Q0 identically."""
    return ScalarProfile(
        value=lambda t: Q0 / (2.0 * (t - c)),
        d1=lambda t: -Q0 / (2.0 * (t - c) ** 2),
        d2=lambda t: Q0 / (t - c) ** 3,
    )


def test_constant_q_warp_is_logarithmic():
    p = SKRParams(m=2, a=1, c=-2, k=Fraction(1, 4), b=1)  # c < interval
    Q0 = 3.0
    warp = WarpProfile.build(p, constant_q_profile(Q0, -2.0), (1.0, 2.0))
    t0 = warp.tau0
    for t in (1.2, 1.5, 1.9):
        expected = (t - t0) * float(p.b) / Q0
        assert abs((warp.logr_of_tau(t) - warp.logr_of_tau(t0)) - expected) < 1e-10
    # inversion: tau(log r) = tau0 + (Q0/b) log(r/r0)
    ell0 = warp.logr_of_tau(t0)
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
    g = metric_jets(skr.chart, pt)[0]
    tau = float(skr.tau(pt))
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
        g = metric_jets(skr.chart, pt)[0]
        tau = float(skr.tau(pt))
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
        assert lo <= float(skr.tau(p)) <= hi


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
        tau = float(skr.tau(pt))
        assert 0.35 < tau < 0.95
        fval = float(np.asarray(skr.f(pt)))
        assert abs(fval - (1.0 / tau + kf)) < 1e-12
        assert is_positive_definite(metric_jets(skr.chart, pt)[0])


def test_end_to_end_fubini_study():
    p = fs_params(a=2, C2=Fraction(-1, 100))
    skr, _ = end_to_end(p, BaseModel(kind=FUBINI_STUDY, dim_c=2, s=1),
                        interval=(1.3, 1.9))
    assert skr.dim == 6
    pt = skr.sample_points(4, seed=0)[0]
    assert 1.3 < float(skr.tau(pt)) < 1.9
    assert is_positive_definite(metric_jets(skr.chart, pt)[0])


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
