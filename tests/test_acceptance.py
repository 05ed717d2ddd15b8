"""Acceptance criteria for the package, one test per criterion.

Each test prints a single summary line "[criterion N] ...: PASS/FAIL" and
asserts with pinned tolerances.  Criteria 5 and 6 share the four
fully-verified charts built by the module fixture (200 samples each).
"""

import hashlib
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from kahlerqe import cli
from kahlerqe.builder import (
    FLAT,
    FUBINI_STUDY,
    BaseModel,
    ConstructionError,
    end_to_end,
)
from kahlerqe.charts import MetricChart, PointGeometry
from kahlerqe.odes import (
    FORCED_ZERO,
    SKRParams,
    appendix_system,
    closed_form_certificate,
    closed_form_log_derivative,
    first_order_reduction,
    lemma_quantities,
    nonexistence_decision,
    phi_closed_form,
    solsys_system,
    system_12,
)
from kahlerqe.rational import Polynomial, RationalFunction
from kahlerqe.verify import check_conformal_formulas, gather_points, run_suite
from oracles import curvature_at, exp_, jets_at, riemann, sin_


def _line(n, desc, ok):
    print(f"[criterion {n}] {desc}: {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# criterion 1: exact compatibility pair on the tau-variable system
# ---------------------------------------------------------------------------


def test_criterion_1_symbolic_certification():
    t0 = time.perf_counter()
    rng = random.Random(2026)
    t, tp = RationalFunction.variable(), Polynomial.variable()
    ok = True
    tuples = 0
    while tuples < 20:
        m = rng.randint(2, 5)
        a = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
        c = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
        k = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        if c == 0:
            continue
        params = SKRParams(m=m, a=a, c=c, k=k,
                           kappa=Fraction(rng.randint(-3, 3)),
                           lam=Fraction(rng.randint(-3, 3)))
        eq1, eq2 = system_12(params)
        e1, e2 = lemma_quantities(first_order_reduction((eq1, eq2), tp, -(tp - c)), eq1)
        expected = (a * (t - c) ** 2 * (2 * c * k + 1)) / ((t - 2 * c) * (t * k + 1))
        ok = ok and e1 == expected and e2.is_zero
        tuples += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _line(1, f"20 random tuples: compatibility pair matches the closed form "
             f"exactly ({elapsed:.2f}s)", ok)
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: appendix obstruction in the f variable
# ---------------------------------------------------------------------------


def test_criterion_2_appendix_obstruction():
    t0 = time.perf_counter()
    rng = random.Random(2027)
    t = RationalFunction.variable()
    ok = True
    tuples = 0
    while tuples < 20:
        m = rng.randint(2, 5)
        a = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
        c = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
        if c == 0:
            continue
        _, qe2_f, red = appendix_system(SKRParams(
            m=m, a=a, c=c, k=0, kappa=Fraction(rng.randint(-3, 3)),
            lam=Fraction(rng.randint(-3, 3))))
        e1, e2 = lemma_quantities(red, qe2_f)
        ok = ok and e1 == (-a * (t - c)) / t and e2.is_zero
        ok = ok and not e1.is_zero  # E1*phi = 0 with E1 != 0 forces phi = 0
        tuples += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _line(2, f"20 random (m, a, c): f-variable pair forces phi = 0 "
             f"({elapsed:.2f}s)", ok)
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: closed form solves both members on the full parameter grid
# ---------------------------------------------------------------------------


def ode_residual(ode, profile, x):
    """A phi'' + B phi' + C phi - D of one system member at x."""
    f, d1, d2 = profile.taylor(x)
    return ode.A(x) * d2 + ode.B(x) * d1 + ode.C(x) * f - ode.D(x)


def test_criterion_3_closed_form_solves_system():
    t0 = time.perf_counter()
    ok = True
    cells = 0
    for m in (2, 3, 4):
        for a in (Fraction(1), Fraction(2), Fraction(7, 2)):
            for c in (Fraction(1), Fraction(-1), Fraction(3)):
                for C2 in (Fraction(0), Fraction(1), Fraction(-1), Fraction(5)):
                    params = SKRParams.section6(m=m, a=a, c=c, C2=C2, kappa=2 * m)
                    L = closed_form_log_derivative(params)
                    cells += 1
                    for eq in solsys_system(params):
                        r0, r1 = closed_form_certificate(params, eq, L)
                        ok = ok and r0.is_zero and r1.is_zero
                        # evaluate the certified residual at 100 rational
                        # tau values clear of the excluded points
                        for j in range(100):
                            tau = Fraction(6 * j + 3, 100) + 2 * c + Fraction(1, 7)
                            if tau == 0 or tau == c or tau == 2 * c:
                                continue
                            val = r0(tau)
                            sq = tau * (tau - 2 * c)
                            ok = ok and val == 0 and r1(tau) == 0 and (
                                abs(float(val)) < 1e-9
                            )
                            del sq
    # float spot checks on well-conditioned windows
    spots = (
        (2, Fraction(1), Fraction(1), Fraction(5), np.linspace(2.2, 4.0, 100)),
        (3, Fraction(2), Fraction(-1), Fraction(1), np.linspace(0.1, 0.9, 100)),
        (4, Fraction(2), Fraction(1), Fraction(-1), np.linspace(2.1, 3.0, 100)),
    )
    worst = 0.0
    for m, a, c, C2, taus in spots:
        params = SKRParams.section6(m=m, a=a, c=c, C2=C2, kappa=2 * m)
        phi = phi_closed_form(params)
        for eq in solsys_system(params):
            for tau in taus:
                worst = max(worst, abs(ode_residual(eq, phi, float(tau))))
    ok = ok and worst < 1e-9
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _line(3, f"closed form solves both members on {cells} grid cells "
             f"(exact certificates + float spot max {worst:.1e}, {elapsed:.2f}s)", ok)
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: nonexistence cross-check and pipeline refusal
# ---------------------------------------------------------------------------


def test_criterion_4_nonexistence_crosscheck():
    t0 = time.perf_counter()
    rng = random.Random(2028)
    tp = Polynomial.variable()
    ok = True
    tried = 0
    while tried < 12:
        m = rng.randint(2, 5)
        a = Fraction(rng.randint(1, 9), rng.choice((1, 2)))
        c = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
        k = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        if c == 0 or a * (2 * c * k + 1) == 0:
            continue
        params = SKRParams(m=m, a=a, c=c, k=k)
        eq1, eq2 = system_12(params)
        e1, e2 = lemma_quantities(first_order_reduction((eq1, eq2), tp, -(tp - c)), eq1)
        # the forced value phi = E2/E1 is the zero rational function
        ok = ok and (not e1.is_zero) and (e2 / e1).is_zero
        ok = ok and nonexistence_decision(params) == FORCED_ZERO
        tried += 1
    refused = False
    try:
        end_to_end(SKRParams(m=2, a=1, c=1, k=0), BaseModel(kind=FLAT, dim_c=1, s=1),
                   interval=(0.35, 0.95))
    except ConstructionError as exc:
        refused = "forced-zero" in str(exc)
    ok = ok and refused
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _line(4, f"off the distinguished branch the forced solution is phi = 0 "
             f"and construction refuses ({elapsed:.2f}s)", ok)
    assert ok


# ---------------------------------------------------------------------------
# criteria 5 and 6: end-to-end verification of four charts
# ---------------------------------------------------------------------------

CONFIGS = (
    ("flat-a1", dict(m=2, a=1, c=1, C2=-1, kappa=0, b=1, sign_phi=-1),
     (FLAT, 1), (0.35, 0.95)),
    ("flat-a2", dict(m=2, a=2, c=1, C2=1, kappa=0, b=1, sign_phi=-1),
     (FLAT, 1), (0.35, 0.95)),
    ("fs-a1", dict(m=3, a=1, c=1, C2=Fraction(1, 100), kappa=3,
                   b=Fraction(-1, 2), sign_phi=1), (FUBINI_STUDY, 2), (1.3, 1.9)),
    ("fs-a2", dict(m=3, a=2, c=1, C2=Fraction(-1, 100), kappa=3,
                   b=Fraction(-1, 2), sign_phi=1), (FUBINI_STUDY, 2), (1.3, 1.9)),
)


@pytest.fixture(scope="module")
def verified_charts():
    out = []
    for label, kw, (kind, dim_c), interval in CONFIGS:
        params = SKRParams.section6(**kw)
        base = BaseModel(kind=kind, dim_c=dim_c, s=1)
        skr, _ = end_to_end(params, base, interval=interval)
        t0 = time.perf_counter()
        report = run_suite(skr, samples=200, seed=0)
        elapsed = time.perf_counter() - t0
        out.append((label, skr, report, elapsed))
    return out


PINNED = {
    "kahler": 1e-8,
    "killing": 1e-8,
    "skr-eigenstructure": 1e-8,
    "ricci-hessian": 1e-7,
    "quasi-einstein": 1e-6,
}


def test_criterion_5_end_to_end_charts(verified_charts):
    ok = True
    details = []
    for label, _, report, elapsed in verified_charts:
        by_name = {r.name: r for r in report.records}
        worst_rel = 0.0
        for name, tol in PINNED.items():
            rec = by_name[name]
            ok = ok and rec.samples == 200 and rec.max_abs < tol
            worst_rel = max(worst_rel, rec.max_abs / tol)
        ok = ok and elapsed < 120.0
        details.append(f"{label} {elapsed:.0f}s worst={worst_rel:.1e}*tol")
    _line(5, "four charts (flat m=2, fubini-study m=3; a=1,2) pass all five "
             "checks at 200 samples [" + "; ".join(details) + "]", ok)
    assert ok


def test_criterion_6_fiber_constant(verified_charts):
    ok = True
    spreads = []
    for label, _, report, _ in verified_charts:
        rec = next(r for r in report.records if r.name == "warped-einstein-constant")
        ok = ok and rec.status == "pass" and rec.max_abs < 1e-6
        spreads.append(f"{label}={rec.max_abs:.1e}")
    _line(6, "warped Einstein constant is pointwise constant to 1e-6 "
             "(raw spread: " + ", ".join(spreads) + ")", ok)
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: conformal expansion identities on three fixtures
# ---------------------------------------------------------------------------


def _constant_tau_fixture():
    chart = MetricChart(dim=4, components=lambda c: np.eye(4).tolist(), name="flat4")
    tau = lambda c: 2.0
    f = lambda c: exp_(c[0]) + c[1] * c[1] + 1.0
    return SimpleNamespace(
        chart=chart,
        fields=lambda c: (chart.components(c), tau(c), f(c), None),
        dim=4,
    ), [np.array([0.2, -0.4, 0.7, 0.1]), np.array([-0.3, 0.5, 0.0, 0.9]),
        np.array([0.8, 0.1, -0.6, -0.2])]


def _hyperbolic_from_flat_fixture():
    chart = MetricChart(dim=2, components=lambda c: np.eye(2).tolist(),
                        domain=lambda p: p[1] > 0.05, name="flat2")
    tau = lambda c: c[1]
    f = lambda c: 1.0 / c[1] + 0.3
    return SimpleNamespace(
        chart=chart,
        fields=lambda c: (chart.components(c), tau(c), f(c), None),
        dim=2,
    ), [np.array([0.0, 1.0]), np.array([0.6, 0.4]), np.array([-1.2, 2.5])]


def test_criterion_7_conformal_expansions(verified_charts):
    recs = []
    for ns, pts in (_constant_tau_fixture(), _hyperbolic_from_flat_fixture()):
        geos = PointGeometry(ns, np.array(pts))
        recs.append(check_conformal_formulas(ns, geos))
    _, skr, _, _ = verified_charts[0]
    pts, _ = gather_points(skr, 20, seed=5)
    recs.append(check_conformal_formulas(skr, pts))
    ok = all(r.passed and r.max_abs < 1e-8 for r in recs)
    worst = max(r.max_abs for r in recs)
    _line(7, f"conformal Ricci/Hessian expansions match direct computation "
             f"on 3 fixtures (max {worst:.1e})", ok)
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: curvature core sanity
# ---------------------------------------------------------------------------


def _fd_ricci(chart, p, h=1e-5):
    n = chart.dim

    def gamma_at(q):
        g = jets_at(chart, q)[0]
        dg = np.zeros((n, n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            dg[k] = (jets_at(chart, q + e)[0] - jets_at(chart, q - e)[0]) / (2 * h)
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
    R = np.zeros((n, n, n, n))
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    R[l, k, i, j] = dgam[i, l, j, k] - dgam[j, l, i, k]
    R += np.einsum("lia,ajk->lkij", gam, gam) - np.einsum("lja,aik->lkij", gam, gam)
    return np.einsum("lklj->kj", R)


def test_criterion_8_curvature_core():
    ok = True
    flat = MetricChart(dim=3, components=lambda c: np.eye(3).tolist(), name="flat")
    ok = ok and np.max(np.abs(curvature_at(flat, np.array([0.3, -1.0, 2.0])).ricci)) < 1e-12

    sphere = MetricChart(
        dim=2,
        components=lambda c: [[1.0, 0.0], [0.0, sin_(c[0]) * sin_(c[0])]],
        domain=lambda p: 0.05 < p[0] < math.pi - 0.05, name="sphere",
    )
    for th in (0.6, 1.2, 2.4):
        p = np.array([th, 0.5])
        ok = ok and np.max(np.abs(curvature_at(sphere, p).ricci - jets_at(sphere, p)[0])) < 1e-9

    hyp = MetricChart(
        dim=2,
        components=lambda c: [[1.0 / (c[1] * c[1]), 0.0], [0.0, 1.0 / (c[1] * c[1])]],
        domain=lambda p: p[1] > 1e-3, name="hyperbolic",
    )
    for y in (0.5, 1.0, 3.0):
        p = np.array([0.2, y])
        ok = ok and np.max(np.abs(curvature_at(hyp, p).ricci + jets_at(hyp, p)[0])) < 1e-9

    # random polynomial metrics: first Bianchi identity and AD-vs-FD Ricci
    bianchi_worst = 0.0
    fd_worst = 0.0
    rng = np.random.RandomState(88)
    for seed in (0, 1):
        coef = np.random.RandomState(seed).uniform(-1.0, 1.0, size=(3, 3, 3))

        def comps(c, coef=coef):
            rows = [[None] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    acc = 2.0 if i == j else 0.0
                    for k in range(3):
                        acc = acc + 0.08 * coef[i, j, k] * c[k] * c[(k + 1) % 3]
                        acc = acc + 0.08 * coef[j, i, k] * c[k] * c[k]
                    rows[i][j] = acc
                    rows[j][i] = acc
            return rows

        ch = MetricChart(dim=3, components=comps, name=f"poly{seed}")
        for _ in range(3):
            p = rng.uniform(-0.5, 0.5, size=3)
            R = riemann(ch, p)
            cyc = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
            bianchi_worst = max(bianchi_worst, float(np.max(np.abs(cyc))))
            r_ad = curvature_at(ch, p).ricci
            rel = np.max(np.abs(r_ad - _fd_ricci(ch, p))) / max(1.0, np.max(np.abs(r_ad)))
            fd_worst = max(fd_worst, float(rel))
    ok = ok and bianchi_worst < 1e-9 and fd_worst < 1e-5
    _line(8, f"curvature core: flat/sphere/hyperbolic pinned, Bianchi "
             f"{bianchi_worst:.1e}, AD-vs-FD {fd_worst:.1e}", ok)
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: determinism of the construct-verify pipeline
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    ini = """\
[params]
m = 2
a = 2
c = 1
c2 = 1
b = 1
sign_phi = -1

[base]
kind = flat
s = 1

[interval]
lo = 0.35
hi = 0.95

[run]
seed = 7
samples = 20
"""
    cfg = tmp_path / "det.ini"
    cfg.write_text(ini)
    digests = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        rc = cli.main(["construct-verify", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        digests.append(hashlib.sha256((out / "report.json").read_bytes()).hexdigest())
    ok = digests[0] == digests[1]
    _line(9, f"identical config + seed give identical reports "
             f"(sha256 {digests[0][:16]}...)", ok)
    assert ok
