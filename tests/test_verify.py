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

from kahlerqe import builder, charts, verify
from kahlerqe.builder import (
    FLAT,
    FUBINI_STUDY,
    BaseModel,
    WarpProfile,
    end_to_end,
    tau_side,
)
from kahlerqe.cli import select_window
from kahlerqe.charts import MetricChart, PointGeometry, conformal_jets
from kahlerqe.jets import Jet, log_
from oracles import conformal_scale, cos_, curvature_at, jets_at, point, points, sin_
from kahlerqe.odes import ScalarProfile, SKRParams, phi_closed_form
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
    return PointGeometry(skr, np.array(pts))


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
        worst = point(geos, rec.extra["worst_index"])
        assert rec.extra["worst_tau"] == worst.tau
    killing = next(r for r in flat_report.records if r.name == "killing")
    worst = point(geos, killing.extra["worst_index"])
    assert worst.killing_residual == killing.max_abs


def test_run_suite_evaluates_components_once_per_point(flat_skr, fs_skr):
    """The components come from ``fields``, whose calls cover each point
    once, and the chart's own ``components`` is not called at all."""
    for skr in (flat_skr[0], fs_skr):
        calls, component_calls = [], []

        def counted(coords, fields=skr.fields):
            calls.append(np.stack([c.val for c in coords], axis=1))
            return fields(coords)

        def counted_components(coords, components=skr.chart.components):
            component_calls.append(coords)
            return components(coords)

        counted_skr = replace(skr, fields=counted,
                              chart=replace(skr.chart, components=counted_components))
        report = run_suite(counted_skr, samples=6, seed=0)
        assert report.excluded_points == 0
        points = np.concatenate(calls)
        assert len(points) == 6
        assert len(np.unique(points, axis=0)) == 6
        assert component_calls == []


def test_one_warp_inversion_per_sample_point(flat_skr, fs_skr, monkeypatch):
    """g, tau and f at a point share one tau: each evaluated point's log r is
    inverted once, in one ``tau_of_logr`` call per batch."""
    inversions, evaluated = [], []
    tau_of_logr, point_geometry = WarpProfile.tau_of_logr, verify.PointGeometry

    def counted_tau(self, ell):
        inversions.append(np.atleast_1d(ell))
        return tau_of_logr(self, ell)

    def counted_geometry(skr, points, index):
        evaluated.append(len(points))
        return point_geometry(skr, points, index)

    monkeypatch.setattr(WarpProfile, "tau_of_logr", counted_tau)
    monkeypatch.setattr(verify, "PointGeometry", counted_geometry)
    for skr in (flat_skr[0], fs_skr):
        inversions.clear()
        evaluated.clear()
        geos, _ = gather_points(skr, 10, seed=0)
        assert len(geos) == 10
        assert sum(evaluated) >= 10
        assert len(inversions) == len(evaluated)
        assert [len(ell) for ell in inversions] == evaluated
        assert len(np.unique(np.concatenate(inversions))) == sum(evaluated)


def test_one_taylor_triple_of_q_per_batch_and_of_phi_per_check(fs_skr, monkeypatch):
    """A batch evaluates Q's (Q, Q', Q'') once, inside ``builder.warp_jets``,
    for both tau and Q(tau); the suite evaluates phi's (phi, phi', phi'')
    once in each check that reads phi's derivatives, and nowhere else."""
    calls = []

    def traced(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            out = fn(*args, **kwargs)
            calls.append("/" + name)
            return out
        return wrapper

    def counted(profile, name):
        def taylor(t):
            calls.append(name)
            return profile.taylor(t)
        return ScalarProfile(value=profile.value, taylor=taylor)

    warp = fs_skr.warp
    monkeypatch.setattr(builder, "warp_jets", traced("jets", builder.warp_jets))
    monkeypatch.setattr(warp, "q", counted(warp.q, "q.taylor"))
    monkeypatch.setattr(warp, "phi", counted(warp.phi, "phi.taylor"))
    for name in ("check_ricci_hessian", "check_profile_identities"):
        monkeypatch.setattr(verify, name, traced(name, getattr(verify, name)))
    geos, _ = gather_points(fs_skr, 8, seed=0)
    assert len(geos) == 8
    assert calls == ["jets", "q.taylor", "/jets"]
    calls.clear()
    report = run_suite(fs_skr, samples=8, seed=0)
    assert report.passed
    assert calls == ["jets", "q.taylor", "/jets",
                     "check_ricci_hessian", "phi.taylor", "/check_ricci_hessian",
                     "check_profile_identities", "phi.taylor", "/check_profile_identities"]


def test_one_j_grad_tau_and_two_units_per_suite(flat_skr, fs_skr, monkeypatch):
    """J grad tau and the G-units of grad tau and J grad tau are formed once
    per suite run, in ``PointGeometry.tau_units``, for both the horizontal
    frame and ``check_skr``."""
    made, j_grad, units = [], [], []
    init, esum, unit = PointGeometry.__init__, charts._esum, charts._unit

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    def counted_esum(spec, *ops):
        if spec == "ij,j->i":
            j_grad.append(ops[1])
        return esum(spec, *ops)

    def counted_unit(v, G):
        units.append(v)
        return unit(v, G)

    monkeypatch.setattr(PointGeometry, "__init__", counted_init)
    monkeypatch.setattr(charts, "_esum", counted_esum)
    monkeypatch.setattr(charts, "_unit", counted_unit)
    for skr in (flat_skr[0], fs_skr):
        made.clear(), j_grad.clear(), units.clear()
        assert run_suite(skr, samples=8, seed=0).passed
        assert len(made) == 1
        assert sum(op is made[0].grad_tau for op in j_grad) == 1
        assert len(units) == 2


def _sphere_fields_fixture():
    """Unit round 2-sphere in polar coordinates with the height function
    tau = 2 + cos(theta) and f = 1/tau + 0.3; no J."""

    def comps(c):
        s = sin_(c[0])
        return [[1.0, 0.0], [0.0, s * s]]

    def fields(c):
        tau = cos_(c[0]) + 2.0
        return comps(c), tau, 1.0 / tau + 0.3, None

    chart = MetricChart(dim=2, components=comps,
                        domain=lambda p: 0.05 < p[0] < math.pi - 0.05, name="sphere")
    pts = np.column_stack([np.linspace(0.2, 2.9, 17), np.linspace(-1.0, 3.0, 17)])
    return SimpleNamespace(chart=chart, fields=fields), pts


def _assert_same_point(one, many):
    names = set(vars(one)) | set(vars(many))
    assert names == set(vars(one))
    for name in names:
        a, b = getattr(one, name), getattr(many, name)
        if name == "index":
            continue
        assert np.array_equal(a, b), name


def test_batch_geometry_equals_each_point_alone_bit_for_bit(flat_skr, fs_skr):
    """A point's geometry does not depend on the batch it lands in, nor on
    its position there: every array, the horizontal frame included, is bit
    for bit that of the point evaluated alone."""
    sphere, sphere_pts = _sphere_fields_fixture()
    cases = [(sphere, sphere_pts)]
    for skr in (flat_skr[0], fs_skr):
        raw = skr.sample_points(24, seed=3)
        cases.append((skr, raw[[skr.chart.domain(p) for p in raw]]))
    for skr, pts in cases:
        for order in (np.arange(len(pts)), np.random.RandomState(1).permutation(len(pts))):
            batch = PointGeometry(skr, pts[order], order)
            if hasattr(batch, "J"):
                batch.hess_tau_horizontal  # noqa: B018 -- fill the cached frames
            for row, i in enumerate(order):
                alone = PointGeometry(skr, pts[i], [i])
                if hasattr(alone, "J"):
                    alone.hess_tau_horizontal  # noqa: B018
                _assert_same_point(point(alone, 0), point(batch, row))
                assert point(batch, row).index == i


def _same_bits(one, many):
    """Every attribute of ``one`` is ``many``'s, arrays bit for bit."""
    assert set(vars(many)) == set(vars(one))
    for key, val in vars(one).items():
        got = getattr(many, key)
        if isinstance(val, np.ndarray):
            assert got.shape == val.shape, key
            assert np.ascontiguousarray(got).tobytes() == val.tobytes(), key
        else:
            assert got == val, key


def _charts_of_n4():
    """Flat and Fubini-Study charts of n = 4 whose a, c, C2 and window side
    differ: as the sweep builds them, and one Fubini-Study chart below
    tau = c with C1 = -kappa/(2m), which section6 does not build."""
    flat = BaseModel(kind=FLAT, dim_c=1, s=1)
    fs = BaseModel(kind=FUBINI_STUDY, dim_c=1, s=1)
    groups = []
    for base, side, cells in ((flat, None, ((1, 1, 1), (1, 1, -1), (2, -1, 1), (1, -1, 1))),
                              (fs, 1, ((1, 1, 1), (2, -1, -1)))):
        params = [SKRParams.section6(m=2, a=a, c=c, C2=C2, kappa=base.kappa,
                                     b=base.kahler_b(1)) for a, c, C2 in cells]
        groups.append((base, [select_window(p, base, side=side) for p in params]))
    C1 = -fs.kappa / 4
    below = SKRParams(m=2, a=Fraction(2), c=Fraction(1), k=Fraction(-1, 2), kappa=fs.kappa,
                      lam=2 * 1 * (2 + 3) * C1, C1=C1, C2=Fraction(1, 2),
                      b=fs.kahler_b(-1), sign_phi=-1)
    groups[1][1].append(select_window(below, fs, side=-1))
    out = []
    for base, warps in groups:
        assert {tau_side(w.interval, w.params.c) for w in warps} == {1, -1}
        out.append([end_to_end(w.params, base, w.interval, w)[0] for w in warps])
    return out


def test_a_batch_of_several_charts_equals_each_chart_alone_bit_for_bit(monkeypatch):
    """One PointGeometry over the points of several charts of one base and
    dimension holds, in each chart's block, that chart's own batch bit for
    bit: every array, the quantities ``gather_points`` forms on the batch
    (the horizontal frame among them) included.  ``gather_points`` on the
    group equals each chart's own, also where a raised gradient floor
    drops points and further batches replace them, and charts of two
    bases do not stack."""
    groups = _charts_of_n4()
    for group in groups:
        pts, idx = [], []
        for j, skr in enumerate(group):
            raw = skr.sample_points(24, seed=j)
            inside = np.flatnonzero(skr.chart.domain(raw))[:3 + 2 * j]
            pts.append(raw[inside])
            idx.append(inside)
        batch = PointGeometry(group, pts, idx)
        for name in verify.SHARED:
            getattr(batch, name)
        start = 0
        for skr, p, i in zip(group, pts, idx):
            alone = PointGeometry(skr, p, i)
            for name in verify.SHARED:
                getattr(alone, name)
            _same_bits(alone, batch.select(slice(start, start + len(p))))
            start += len(p)
        # the floor drops at least two of the first points of some chart,
        # and at most two of any
        floor = min(np.sort(PointGeometry(skr, p[:5], i[:5]).grad_tau_sq)[2]
                    for skr, p, i in zip(group, pts, idx) if len(p) >= 5)
        for grad_floor in (verify.GRAD_FLOOR, floor):
            monkeypatch.setattr(verify, "GRAD_FLOOR", grad_floor)
            geos, excluded = gather_points(group, 6, seed=0)
            assert len(geos) == 6 * len(group)
            total = 0
            for j, skr in enumerate(group):
                own, own_excluded = gather_points(skr, 6, seed=0)
                _same_bits(own, geos.select(slice(6 * j, 6 * j + 6)))
                total += own_excluded
            assert excluded == total and (excluded > 0) == (grad_floor == floor)
    mixed = [groups[0][0], groups[1][0]]
    with pytest.raises(ValueError, match="one base"):
        PointGeometry(mixed, [m.sample_points(2) for m in mixed], None)


def test_point_axis_is_last_and_indexing_drops_it(fs_skr):
    """Every array of a batch of B points ends in the point axis, and point
    i alone has the same arrays without it."""
    raw = fs_skr.sample_points(20, seed=0)
    pts = raw[[fs_skr.chart.domain(p) for p in raw]][:7]
    B = len(pts)
    geos = PointGeometry(fs_skr, pts)
    geos.hess_tau_horizontal  # noqa: B018 -- fill the cached frames
    arrays = {k: v for k, v in vars(geos).items() if isinstance(v, np.ndarray)}
    assert {"p", "g", "ricci", "ricci_hat", "horizontal", "kahler_residual"} <= set(arrays)
    assert arrays["p"].shape == (fs_skr.dim, B)
    for i in (0, B - 1):
        one = point(geos, i)
        for key, val in arrays.items():
            assert val.shape[-1] == B, key
            assert np.shape(getattr(one, key)) == val.shape[:-1], key
            assert np.array_equal(getattr(one, key), val[..., i]), key


def test_excluded_points_match_sequential_selection(flat_skr, monkeypatch):
    """Points whose tau gradient degenerates are replaced by later points of
    the stream, in further batches; the selection and the exclusion count
    are those of taking the stream one point at a time."""
    skr, _ = flat_skr

    def degenerate_where_x0_is_large(coords):
        g, tau, f, J = skr.fields(coords)
        flat = coords[0].val > 0.3
        tau = Jet(tau.val, np.where(flat, 0.0, tau.grad), tau.hess)
        return g, tau, f, J

    bad = replace(skr, fields=degenerate_where_x0_is_large)
    batches = []

    class Counted(PointGeometry):
        def __init__(self, skr_, points, index):
            batches.append(len(points))
            super().__init__(skr_, points, index)

    samples = 12
    raw = bad.sample_points(2 * samples, seed=0)
    expected, examined = [], 0
    for index, p in enumerate(raw):
        if len(expected) == samples:
            break
        examined += 1
        if bad.chart.domain(p):
            alone = PointGeometry(bad, p, [index])
            if alone.grad_tau_sq[0] > 1e-12:
                for name in verify.SHARED:
                    getattr(alone, name)
                expected.append(point(alone, 0))
    monkeypatch.setattr(verify, "PointGeometry", Counted)
    geos, excluded = gather_points(bad, samples, seed=0)
    assert len(batches) >= 2  # the floor forced a further batch
    assert [geo.index for geo in points(geos)] == [geo.index for geo in expected]
    assert excluded == examined - samples > 0
    for one, many in zip(expected, points(geos)):
        _assert_same_point(one, many)


def test_conformal_jets_match_rescaled_chart_bit_for_bit(flat_skr, fs_skr):
    for skr in (flat_skr[0], fs_skr):
        def tau(c, fields=skr.fields):
            return fields(c)[1]

        ghat = conformal_scale(skr.chart, tau)
        geos, _ = gather_points(skr, 20, seed=0)
        for geo in points(geos):
            p = geo.p
            at = curvature_at(skr.chart, p, tau)
            got = conformal_jets(at.g[..., None], at.dg[..., None], at.d2g[..., None],
                                 (at.v[..., None], at.dv[..., None], at.d2v[..., None]))
            want = jets_at(ghat, p)
            for a, b in zip(got, want):
                assert np.array_equal(a[..., 0], b)
            assert np.array_equal(geo.g_hat, want[0])
            assert np.array_equal(geo.ricci_hat, curvature_at(ghat, p).ricci)


def test_report_deterministic(flat_skr, flat_report):
    skr, _ = flat_skr
    again = run_suite(skr, samples=25, seed=0)
    assert again.to_json() == flat_report.to_json()
    other = run_suite(skr, samples=25, seed=1)
    assert other.to_json() != flat_report.to_json()


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
    # gamma from the wrong phi, evaluated on the true chart's points
    bad = replace(skr, warp=replace(skr.warp, phi=wrong_phi))
    rec = check_ricci_hessian(bad, points)
    assert not rec.passed
    good = check_ricci_hessian(skr, points)
    assert good.passed


def _product_double_fixture(Q0=3.0, tau0=2.0, J_fn=lambda c: J4):
    """Flat R^2 times a rotationally symmetric fiber with |grad tau|^2 = Q0.

    tau = tau0 + Q0 log|w| depends only on the fiber, so the pair
    (Hess tau, r) restricts trivially to the horizontal complement: an
    honest product, not a twisted bundle.  No f."""

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
        fields=lambda c: (comps(c), tau_fn(c), None, J_fn(c)),
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

    def J_fn(c):
        wsq = c[2] * c[2] + c[3] * c[3]
        return [[float(J4[i, j]) * wsq for j in range(4)] for i in range(4)]

    ns = _product_double_fixture(J_fn=J_fn)
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
    J = lambda c: J4
    ns = SimpleNamespace(
        chart=chart, fields=lambda c: (comps(c), tau(c), None, J(c)), dim=4
    )
    pts = [np.array([0.3, 0.7, 0.5, 0.2]), np.array([-0.4, 0.1, 0.9, -0.3])]
    rec = check_skr(ns, _geometries(ns, pts))
    assert not rec.passed
    assert rec.max_abs > 0.1


def test_einstein_product_alpha_zero():
    """S^2 x S^2 is Einstein (r = g): the equation holds with alpha = 0,
    gamma = 1 regardless of the potential."""

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
    ns = SimpleNamespace(chart=chart, fields=lambda c: (comps(c), cos1(c), None, None),
                         dim=4)
    pts = [
        np.array([0.7, 0.3, 1.1, -0.4]),
        np.array([1.4, -0.8, 2.0, 0.9]),
        np.array([2.2, 0.0, 0.6, 0.5]),
    ]
    worst = max(float(np.max(np.abs(geo.ricci - geo.g)))
                for geo in points(_geometries(ns, pts)))
    assert worst < 1e-9


def test_constant_f_makes_fiber_constant_exact():
    """With f constant, mu_F = f lap(f) + (a-1)|grad f|^2 + lambda f^2
    collapses to lambda f^2 pointwise: zero spread."""

    def comps(c):
        w = 1.0 / (c[1] * c[1])
        return [[w, 0.0], [0.0, w]]

    chart = MetricChart(dim=2, components=comps,
                        domain=lambda p: p[1] > 0.1, name="h2")
    tau = lambda c: 1.0
    f = lambda c: 3.0
    ns = SimpleNamespace(
        chart=chart,
        fields=lambda c: (comps(c), tau(c), f(c), None),
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
    ns = SimpleNamespace(chart=chart,
                         fields=lambda c: (chart.components(c), None, None, None))
    rec = check_positive_definite(ns, _geometries(ns, [np.zeros(2)]))
    assert not rec.passed
    assert rec.extra["indefinite_points"] == 1


def test_positive_definite_check_finds_the_one_indefinite_point(monkeypatch):
    """One Cholesky call decides a definite batch; with one indefinite
    metric among 30 definite ones, the per-point fallback counts it and
    records its position."""
    chart = MetricChart(dim=2, components=lambda c: [[c[0], 0.0], [0.0, 1.0]],
                        name="diag")
    ns = SimpleNamespace(chart=chart,
                         fields=lambda c: (chart.components(c), None, None, None))
    pts = np.column_stack([np.linspace(0.5, 2.0, 31), np.zeros(31)])
    calls = []

    def counted(g, test=charts.is_positive_definite):
        calls.append(np.shape(g))
        return test(g)

    monkeypatch.setattr(charts, "is_positive_definite", counted)
    rec = check_positive_definite(ns, _geometries(ns, pts))
    assert rec.passed and rec.extra["indefinite_points"] == 0
    assert calls == [(31, 2, 2)]
    calls.clear()
    pts[17, 0] = -0.5
    rec = check_positive_definite(ns, _geometries(ns, pts))
    assert not rec.passed
    assert rec.extra["indefinite_points"] == 1
    assert rec.extra["worst_index"] == 17
    assert calls == [(31, 2, 2)] + [(2, 2)] * 31


def test_gather_points_counts_and_degeneracy(flat_skr):
    skr, _ = flat_skr
    pts, excluded = gather_points(skr, 15, seed=2)
    assert len(pts) == 15
    assert excluded == 0

    def constant_tau(c):
        g, _, f, J = skr.fields(c)
        return g, 1.0, f, J

    degenerate = replace(skr, fields=constant_tau)
    with pytest.raises(RuntimeError, match="usable"):
        gather_points(degenerate, 5, seed=0)


def test_tolerance_scale_and_label(flat_skr):
    skr, _ = flat_skr
    report = run_suite(skr, samples=6, seed=0, tolerance_scale=10.0)
    kah = next(r for r in report.records if r.name == "kahler")
    assert abs(kah.tolerance - 10.0 * DEFAULT_TOLERANCES["kahler"]) < 1e-18
