"""Verification suite: a constructed chart passes every check, tampering
with the constants is detected, and the individual checks behave correctly
on hand-built fixtures (products, Einstein spaces, constant profiles)."""

import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from kahlerqe.builder import (
    FLAT,
    FUBINI_STUDY,
    BaseModel,
    end_to_end,
)
from kahlerqe.charts import (
    MetricChart,
    PointGeometry,
    conformal_jets,
    conformal_scale,
    metric_jets,
    ricci,
    scalar_jet,
)
from kahlerqe.jets import log_, sin_
from kahlerqe.odes import SKRParams, alpha_profile, gamma_from_phi, phi_closed_form
from kahlerqe.verify import (
    DEFAULT_TOLERANCES,
    check_positive_definite,
    check_quasi_einstein,
    check_ricci_hessian,
    check_skr,
    check_warped_einstein_constant,
    gather_points,
    run_suite,
)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
J4 = np.kron(np.eye(2), J2)


def _geometries(skr, pts):
    return [PointGeometry(skr, p, i) for i, p in enumerate(pts)]


@pytest.fixture(scope="module")
def flat_skr():
    params = SKRParams.section6(m=2, a=1, c=1, C2=-1, kappa=0, b=1, sign_phi=-1)
    skr, phi = end_to_end(params, BaseModel(kind=FLAT, dim_c=1, s=1),
                          interval=(0.35, 0.95))
    return skr, phi


@pytest.fixture(scope="module")
def fs_skr():
    params = SKRParams.section6(m=3, a=2, c=1, C2=Fraction(-1, 100), kappa=3,
                                b=Fraction(-1, 2), sign_phi=1)
    skr, _ = end_to_end(params, BaseModel(kind=FUBINI_STUDY, dim_c=2, s=1),
                        interval=(1.3, 1.9))
    return skr


@pytest.fixture(scope="module")
def flat_report(flat_skr):
    skr, _ = flat_skr
    return run_suite(skr, samples=25, seed=0)


def test_constructed_chart_passes_suite(flat_report):
    report = flat_report
    assert report.passed
    names = [r.name for r in report.records]
    for expected in (
        "positive-definite", "kahler", "killing", "skr-eigenstructure",
        "ricci-hessian", "quasi-einstein", "warped-einstein-constant",
        "conformal-expansions", "grad-norm-identity", "laplacian-identity",
        "c-recovery", "hessian-eigenvalue",
    ):
        assert expected in names
    by_name = {r.name: r for r in report.records}
    assert by_name["kahler"].max_abs < 1e-10
    assert by_name["killing"].max_abs < 1e-10
    assert by_name["skr-eigenstructure"].extra["trivial_pair"] is False
    assert by_name["warped-einstein-constant"].status == "pass"
    assert report.excluded_points == 0


def test_worst_point_recorded(flat_skr, flat_report):
    skr, _ = flat_skr
    geos, _ = gather_points(skr, 25, seed=0)
    for rec in flat_report.records:
        worst = geos[rec.extra["worst_index"]]
        assert rec.extra["worst_tau"] == worst.tau
    killing = next(r for r in flat_report.records if r.name == "killing")
    worst = geos[killing.extra["worst_index"]]
    assert worst.killing_residual == killing.max_abs


def test_run_suite_evaluates_components_once_per_point(flat_skr, fs_skr):
    for skr in (flat_skr[0], fs_skr):
        calls = []

        def counted(coords, components=skr.chart.components):
            calls.append(coords)
            return components(coords)

        counted_skr = replace(skr, chart=replace(skr.chart, components=counted))
        report = run_suite(counted_skr, samples=6, seed=0)
        assert report.excluded_points == 0
        assert len(calls) == 6


def test_conformal_jets_match_rescaled_chart_bit_for_bit(flat_skr, fs_skr):
    for skr in (flat_skr[0], fs_skr):
        ghat = conformal_scale(skr.chart, skr.tau)
        geos, _ = gather_points(skr, 20, seed=0)
        for geo in geos:
            p = geo.p
            got = conformal_jets(*metric_jets(skr.chart, p), scalar_jet(skr.tau, skr.chart, p))
            want = metric_jets(ghat, p)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            assert np.array_equal(geo.g_hat, want[0])
            assert np.array_equal(geo.ricci_hat, ricci(ghat, p))


def test_report_deterministic(flat_skr, flat_report):
    skr, _ = flat_skr
    again = run_suite(skr, samples=25, seed=0)
    assert again.to_json() == flat_report.to_json()
    assert again.report_hash == flat_report.report_hash
    other = run_suite(skr, samples=25, seed=1)
    assert other.report_hash != flat_report.report_hash


def test_lambda_tampering_fails_quasi_einstein(flat_skr):
    skr, _ = flat_skr
    bad = replace(skr, params=replace(skr.params, lam=skr.params.lam + Fraction(1, 1000)))
    points, _ = gather_points(bad, 12, seed=0)
    rec = check_quasi_einstein(bad, points)
    assert not rec.passed
    assert rec.max_abs > 1e-4
    good = check_quasi_einstein(skr, points)
    assert good.passed


def test_gamma_mismatch_fails_ricci_hessian(flat_skr):
    skr, _ = flat_skr
    points, _ = gather_points(skr, 12, seed=0)
    wrong_params = SKRParams.section6(
        m=2, a=1, c=1, C2=-2, kappa=0, b=1, sign_phi=-1
    )
    wrong_phi = phi_closed_form(wrong_params)
    aprof = alpha_profile(skr.params)
    alpha = lambda t: float(aprof(t))
    gamma = lambda t: gamma_from_phi(skr.params, wrong_phi, alpha, t)
    rec = check_ricci_hessian(skr, points, alpha=alpha, gamma=gamma)
    assert not rec.passed
    good = check_ricci_hessian(skr, points)
    assert good.passed


def _product_double_fixture(Q0=3.0, tau0=2.0):
    """Flat R^2 times a rotationally symmetric fiber with |grad tau|^2 = Q0.

    tau = tau0 + Q0 log|w| depends only on the fiber, so the pair
    (Hess tau, r) restricts trivially to the horizontal complement: an
    honest product, not a twisted bundle."""

    def comps(c):
        u, v = c[2], c[3]
        wsq = u * u + v * v
        fib = Q0 / wsq
        return [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, fib, 0.0],
            [0.0, 0.0, 0.0, fib],
        ]

    def tau_fn(c):
        u, v = c[2], c[3]
        return tau0 + Q0 * 0.5 * log_(u * u + v * v)

    chart = MetricChart(
        dim=4, components=comps,
        domain=lambda p: p[2] ** 2 + p[3] ** 2 > 1e-12, name="product-double",
    )
    return SimpleNamespace(
        chart=chart,
        tau=tau_fn,
        J=lambda c: J4,
        dim=4,
    )


def test_product_double_flagged_trivial():
    ns = _product_double_fixture()
    pts = [
        np.array([0.3, -0.2, 1.0, 0.4]),
        np.array([-0.5, 0.1, 0.8, -0.6]),
        np.array([0.0, 0.0, 1.3, 0.2]),
    ]
    rec = check_skr(ns, _geometries(ns, pts))
    assert rec.passed  # eigenstructure holds...
    assert rec.extra["trivial_pair"] is True  # ...but only because phi = 0
    assert abs(rec.extra["phi_estimate_max"]) < 1e-9


def test_horizontal_frame_uses_J_at_the_sample_point():
    """J is the standard structure where |w| = 1, at every sample point,
    but vanishes at the coordinate origin."""
    ns = _product_double_fixture()

    def J_fn(c):
        wsq = c[2] * c[2] + c[3] * c[3]
        return [[float(J4[i, j]) * wsq for j in range(4)] for i in range(4)]

    ns.J = J_fn
    pts = [
        np.array([0.3, -0.2, 0.6, 0.8]),
        np.array([-0.5, 0.1, 0.8, -0.6]),
        np.array([0.0, 0.0, 1.0, 0.0]),
    ]
    rec = check_skr(ns, _geometries(ns, pts))
    assert rec.passed
    assert rec.extra["trivial_pair"] is True


def test_generic_kahler_chart_fails_skr_check():
    def comps(c):
        return np.eye(4).tolist()

    chart = MetricChart(dim=4, components=comps, name="flat4")
    tau = lambda c: c[0] * c[0] + c[2] * c[2]
    ns = SimpleNamespace(
        chart=chart, tau=tau, J=lambda c: J4, dim=4
    )
    pts = [np.array([0.3, 0.7, 0.5, 0.2]), np.array([-0.4, 0.1, 0.9, -0.3])]
    rec = check_skr(ns, _geometries(ns, pts))
    assert not rec.passed
    assert rec.max_abs > 0.1


def test_einstein_product_alpha_zero():
    """S^2 x S^2 is Einstein (r = g): the equation holds with alpha = 0,
    gamma = 1 regardless of the potential."""
    from kahlerqe.jets import cos_

    def comps(c):
        s1, s2 = sin_(c[0]), sin_(c[2])
        return [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, s1 * s1, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, s2 * s2],
        ]

    def cos1(c):
        return cos_(c[0])

    chart = MetricChart(
        dim=4, components=comps,
        domain=lambda p: 0.05 < p[0] < math.pi - 0.05
        and 0.05 < p[2] < math.pi - 0.05,
        name="s2xs2",
    )
    ns = SimpleNamespace(
        chart=chart,
        tau=cos1,
        params=None,
        warp=SimpleNamespace(phi=None),
        dim=4,
    )
    pts = [
        np.array([0.7, 0.3, 1.1, -0.4]),
        np.array([1.4, -0.8, 2.0, 0.9]),
        np.array([2.2, 0.0, 0.6, 0.5]),
    ]
    rec = check_ricci_hessian(
        ns, _geometries(ns, pts), alpha=lambda t: 0.0, gamma=lambda t: 1.0
    )
    assert rec.passed
    assert rec.max_abs < 1e-9


def test_constant_f_makes_fiber_constant_exact():
    """With f constant, mu_F = f lap(f) + (a-1)|grad f|^2 + lambda f^2
    collapses to lambda f^2 pointwise: zero spread."""

    def comps(c):
        w = 1.0 / (c[1] * c[1])
        return [[w, 0.0], [0.0, w]]

    chart = MetricChart(dim=2, components=comps,
                        domain=lambda p: p[1] > 0.1, name="h2")
    ns = SimpleNamespace(
        chart=chart,
        tau=lambda c: 1.0,
        f=lambda c: 3.0,
        params=SKRParams(m=2, a=2, c=1, k=0, lam=5),
    )
    pts = [np.array([0.1, 0.5]), np.array([-0.7, 1.2]), np.array([0.4, 2.0])]
    rec = check_warped_einstein_constant(ns, _geometries(ns, pts))
    assert rec.passed
    assert rec.max_abs == 0.0
    assert abs(rec.extra["mu_mean"] - 5.0 * 9.0) < 1e-12


def test_fractional_fiber_dimension_skipped():
    ns = SimpleNamespace(params=SKRParams(m=2, a=Fraction(7, 2), c=1, k=0))
    rec = check_warped_einstein_constant(ns, [])
    assert rec.status == "skipped"
    assert rec.passed
    assert rec.samples == 0
    assert "not an integer" in rec.extra["reason"]


def test_positive_definite_check_flags_bad_metric():
    chart = MetricChart(dim=2, components=lambda c: [[-1.0, 0.0], [0.0, 1.0]],
                        name="lorentz")
    ns = SimpleNamespace(chart=chart)
    rec = check_positive_definite(ns, _geometries(ns, [np.zeros(2)]))
    assert not rec.passed
    assert rec.extra["indefinite_points"] == 1


def test_gather_points_counts_and_degeneracy(flat_skr):
    skr, _ = flat_skr
    pts, excluded = gather_points(skr, 15, seed=2)
    assert len(pts) == 15
    assert excluded == 0
    degenerate = replace(skr, tau=lambda c: 1.0)
    with pytest.raises(RuntimeError, match="usable"):
        gather_points(degenerate, 5, seed=0)


def test_tolerance_scale_and_label(flat_skr):
    skr, _ = flat_skr
    report = run_suite(skr, samples=6, seed=0, tolerance_scale=10.0,
                       include_profile_identities=False)
    kah = next(r for r in report.records if r.name == "kahler")
    assert abs(kah.tolerance - 10.0 * DEFAULT_TOLERANCES["kahler"]) < 1e-18
