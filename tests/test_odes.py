"""Exact reduction of the scalar problem: parameter validation, the
polynomial system pair, its first-order reduction, the compatibility
obstruction, and the closed-form solution with its exact certificates."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kahlerqe.odes import (
    CONSTANTS_ADMITTED,
    FORCED_ZERO,
    ScalarProfile,
    SKRParams,
    alpha_degeneracy_roots,
    alpha_profile,
    appendix_system,
    closed_form_certificate,
    closed_form_log_derivative,
    first_order_reduction,
    gamma_from_phi,
    lemma_quantities,
    nonexistence_decision,
    phi_closed_form,
    solsys_system,
    system_12,
)
from kahlerqe.rational import ExactParameterError, Polynomial, RationalFunction, as_fraction
from oracles import (
    appendix_system_formula,
    closed_form_certificate_rf,
    derivative_rf,
    lemma_quantities_rf,
    log_derivative_rf,
    solsys_system_formula,
    system_12_formula,
)


def test_params_validation():
    p = SKRParams(m=2, a=1, c=1, k="-1/2")
    assert p.k == Fraction(-1, 2) and p.m == 2
    assert SKRParams(m=3, a="7/2", c=-2, k=0).a == Fraction(7, 2)
    with pytest.raises(ExactParameterError):
        SKRParams(m=2, a=0.5, c=1, k=0)  # float contaminates the exact path
    with pytest.raises(ValueError):
        SKRParams(m=2, a=-1, c=1, k=0)
    with pytest.raises(ValueError):
        SKRParams(m=2, a=1, c=1, k=0, b=0)
    with pytest.raises(ValueError):
        SKRParams(m=1, a=1, c=1, k=0)
    with pytest.raises(ValueError):
        SKRParams(m=2, a=1, c=1, k=0, sign_phi=2)
    with pytest.raises(ExactParameterError):
        as_fraction(0.1)


def test_distinguished_branch_constructor():
    p = SKRParams.section6(m=2, a=1, c=1, C2=3, kappa=4)
    assert p.k == Fraction(-1, 2)
    assert p.C1 == Fraction(4, 2 * 2) == 1
    assert p.lam == 2 * 1 * (1 + 4 - 1) * 1 == 8
    assert p.on_distinguished_branch()
    assert not SKRParams(m=2, a=1, c=1, k=0).on_distinguished_branch()
    with pytest.raises(ValueError):
        SKRParams.section6(m=2, a=1, c=0, C2=1)
    with pytest.raises(ValueError):
        SKRParams.section6(m=2, a=1, c=1, C2=1, kappa=2, sign_phi=-1)


def test_alpha_profile_values():
    # near-zero a leaves (n-2)/tau: n = 6, tau = 1 gives 4
    p = SKRParams(m=3, a=Fraction(1, 10**9), c=1, k=Fraction(-1, 2))
    assert abs(float(alpha_profile(p)(Fraction(1))) - 4.0) < 1e-8
    # n = 4, a = 2, k = 0, tau = 1: (2 + 2)/1 = 4 exactly
    q = SKRParams(m=2, a=2, c=1, k=0)
    assert alpha_profile(q)(Fraction(1)) == 4


# -- independent pointwise oracles of the paper's identities ---------------


def rh_coefficients(params, tau, Q, lap_tau):
    """(alpha, gamma) of the Ricci-Hessian equation alpha*Hess(tau) + r = gamma*g.

    Exact when all inputs are exact; float otherwise.
    """
    m, a, k, lam = params.m, params.a, params.k, params.lam
    w = a / (1 + k * tau)
    alpha = (2 * m - 2 + w) / tau
    gamma = lam / (tau * tau) - lap_tau / tau + (w + 2 * m - 1) * Q / (tau * tau)
    return alpha, gamma


def dtau_dtau_coefficient(fprofile, tau, a):
    """Coefficient of dtau (x) dtau in the conformally expanded equation.

    Equals (a/f)(f'' + 2 f'/tau); identically zero iff f is affine in
    1/tau, which is what singles out f = 1/tau + k.
    """
    f, d1, d2 = fprofile.taylor(tau)
    return (a / f) * (d2 + 2.0 * d1 / tau)


def mek_residual(params, phi, alpha, tau):
    """Residual of the fiber-constancy ODE for the warped Einstein constant.

    (tau-c)^2 phi'' + (tau-c)(m - (tau-c) alpha) phi' - m phi + sgn(phi) kappa/2,
    with alpha a callable profile.
    """
    c = float(params.c)
    m = params.m
    al = alpha(tau)
    p0, p1, p2 = phi.taylor(tau)
    return (
        (tau - c) ** 2 * p2
        + (tau - c) * (m - (tau - c) * al) * p1
        - m * p0
        + params.sign_phi * float(params.kappa) / 2.0
    )


def test_rh_coefficients_consistency():
    """gamma assembled from (lambda, Q, lap) agrees with the phi-based formula
    on an actual solution profile."""
    p = SKRParams.section6(m=3, a=2, c=1, C2=Fraction(-1, 100), kappa=3)
    phi = phi_closed_form(p)
    aprof = alpha_profile(p)
    alpha = lambda t: float(aprof(t))
    cf = float(p.c)
    for tau in (1.31, 1.5, 1.87):
        p0, p1, _ = phi.taylor(tau)
        q = 2.0 * (tau - cf) * p0
        lap = 2 * p.m * p0 + 2.0 * (tau - cf) * p1
        al, ga = rh_coefficients(p, tau, q, lap)
        assert abs(al - alpha(tau)) < 1e-12
        assert abs(ga - gamma_from_phi(p, phi, alpha, tau)) < 1e-8


def _profile(v, d1, d2):
    return ScalarProfile(value=v, taylor=lambda t: (v(t), d1(t), d2(t)))


def test_dtau_coefficient_examples():
    k = 0.7
    recip = _profile(lambda t: 1.0 / t + k, lambda t: -1.0 / t**2, lambda t: 2.0 / t**3)
    for tau in (0.5, 1.0, 2.3):
        assert abs(dtau_dtau_coefficient(recip, tau, 2.0)) < 1e-14
    ident = _profile(lambda t: t, lambda t: 1.0, lambda t: 0.0)
    for a, tau in ((1.0, 1.7), (3.0, 0.4)):
        assert abs(dtau_dtau_coefficient(ident, tau, a) - 2 * a / tau**2) < 1e-12
    square = _profile(lambda t: t * t, lambda t: 2 * t, lambda t: 2.0)
    assert abs(dtau_dtau_coefficient(square, 1.0, 1.0) - 6.0) < 1e-14


def test_alpha_degeneracy_roots():
    roots = alpha_degeneracy_roots(SKRParams(m=3, a=1, c=1, k=Fraction(-1, 2)))
    assert any(abs(r - 2.5) < 1e-12 for r in roots)
    roots = alpha_degeneracy_roots(SKRParams(m=2, a=2, c=1, k=1))
    expected = sorted([-2.0, -2.0 + math.sqrt(2.0), -2.0 - math.sqrt(2.0)])
    npt.assert_allclose(roots, expected, atol=1e-12)
    assert alpha_degeneracy_roots(SKRParams(m=2, a=1, c=1, k=0)) == []


def test_mek_residual_examples():
    p = SKRParams(m=2, a=1, c=1, k=Fraction(-1, 2), kappa=6, sign_phi=1)
    aprof = alpha_profile(p)
    alpha = lambda t: float(aprof(t))
    const = _profile(lambda t: float(p.kappa) / (2 * p.m), lambda t: 0.0, lambda t: 0.0)
    for tau in (0.3, 0.8, 3.1):
        assert abs(mek_residual(p, const, alpha, tau)) < 1e-14

    p0 = SKRParams(m=2, a=1, c=1, k=Fraction(-1, 2), kappa=0)
    one = _profile(lambda t: 1.0, lambda t: 0.0, lambda t: 0.0)
    assert abs(mek_residual(p0, one, alpha, 0.7) - (-2.0)) < 1e-14

    solved = SKRParams.section6(m=2, a=2, c=1, C2=1, kappa=4)
    phi = phi_closed_form(solved)
    aprof2 = alpha_profile(solved)
    alpha2 = lambda t: float(aprof2(t))
    for tau in (2.5, 3.0, 4.2):
        assert abs(mek_residual(solved, phi, alpha2, tau)) < 1e-9


def test_gamma_from_phi_examples():
    p = SKRParams(m=2, a=1, c=1, k=Fraction(-1, 2))
    aprof = alpha_profile(p)
    alpha = lambda t: float(aprof(t))
    const = _profile(lambda t: 5.0, lambda t: 0.0, lambda t: 0.0)
    for tau in (0.4, 1.6):
        assert abs(gamma_from_phi(p, const, alpha, tau) - 5.0 * alpha(tau)) < 1e-12
    ident = _profile(lambda t: t, lambda t: 1.0, lambda t: 0.0)
    zero_alpha = lambda t: 0.0
    assert abs(gamma_from_phi(p, ident, zero_alpha, 0.9) - (-3.0)) < 1e-14


def test_system_coefficient_literals():
    p = SKRParams(m=2, a=Fraction(7, 2), c=-3, k=Fraction(1, 5), kappa=2, lam=11)
    eq1, eq2 = system_12(p)
    t = Polynomial.variable()
    m, a, c, k = p.m, p.a, p.c, p.k
    assert eq1.C == RationalFunction(-(m * t + m * k * t * t))
    assert eq2.C == RationalFunction(
        Polynomial((-2 * c * (a + 2 * m - 1), a - 2 * c * (2 * m - 1) * k))
    )
    assert eq1.A == RationalFunction(t * (t - c) ** 2 * (Polynomial((1,)) + k * t))
    assert eq2.D == RationalFunction(-p.lam * (Polynomial((1,)) + k * t))


def _alpha_exact(m, a, k, tau):
    return (Fraction(2 * m - 2) * (1 + k * tau) + a) / (tau * (1 + k * tau))


def _mek_exact(p, tau, phi, dphi, ddphi):
    al = _alpha_exact(p.m, p.a, p.k, tau)
    return (
        (tau - p.c) ** 2 * ddphi
        + (tau - p.c) * (p.m - (tau - p.c) * al) * dphi
        - p.m * phi
        + Fraction(p.sign_phi) * p.kappa / 2
    )


def _qe_exact(p, tau, phi, dphi, ddphi):
    al = _alpha_exact(p.m, p.a, p.k, tau)
    gamma = al * phi + (al * (tau - p.c) - (p.m + 1)) * dphi - (tau - p.c) * ddphi
    q = 2 * (tau - p.c) * phi
    lap = 2 * p.m * phi + 2 * (tau - p.c) * dphi
    w = p.a / (1 + p.k * tau)
    return -(1 + p.k * tau) * (gamma * tau**2 + tau * lap - (w + 2 * p.m - 1) * q - p.lam)


def ode_residual(ode, profile, x):
    """A phi'' + B phi' + C phi - D of one system member at x."""
    f, d1, d2 = profile.taylor(x)
    return ode.A(x) * d2 + ode.B(x) * d1 + ode.C(x) * f - ode.D(x)


def test_system_rederived_from_scalar_formulas():
    """The quoted polynomial coefficients reproduce, exactly, the residuals
    assembled independently here from the defining scalar formulas
    (fiber-constancy and agreement of the two gamma expressions)."""
    rng = random.Random(5)
    probe = _profile(lambda x: x * x, lambda x: 2 * x, lambda x: 2 * x**0)
    checked = 0
    while checked < 12:
        m = rng.randint(2, 5)
        a = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
        c = Fraction(rng.randint(-5, 5), rng.choice((1, 2)))
        k = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        kap = Fraction(rng.randint(-3, 3))
        lam = Fraction(rng.randint(-3, 3))
        if c == 0:
            continue
        p = SKRParams(m=m, a=a, c=c, k=k, kappa=kap, lam=lam,
                      sign_phi=rng.choice((1, -1)))
        eq1, eq2 = system_12(p)
        for _ in range(3):
            tau = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
            if tau == 0 or tau == c or 1 + k * tau == 0:
                continue
            phi, dphi, ddphi = tau * tau, 2 * tau, Fraction(2)
            assert ode_residual(eq1, probe, tau) == tau * (1 + k * tau) * _mek_exact(
                p, tau, phi, dphi, ddphi
            )
            assert ode_residual(eq2, probe, tau) == _qe_exact(p, tau, phi, dphi, ddphi)
        checked += 1


def test_reduction_literals_and_example_value():
    p = SKRParams(m=2, a=1, c=1, k=Fraction(-1, 2))
    eq1, eq2 = system_12(p)
    t = Polynomial.variable()
    # the phi'' coefficients cancel under tau*(first) - (tau-c)*(second)
    assert (t * eq1.A - (t - p.c) * eq2.A).is_zero
    poly = t * eq1.C - (t - p.c) * eq2.C
    m, a, c, k = p.m, p.a, p.c, p.k
    assert poly.coeffs[3] == -m * k
    assert poly.coeffs[2] == -(m + a - 2 * c * (2 * m - 1) * k)
    red = first_order_reduction((eq1, eq2), t, -(t - p.c))
    assert red.p(Fraction(3)) == Fraction(-1, 3)


def _tau_pair(p):
    t = Polynomial.variable()
    return system_12(p), t, -(t - p.c)


def _f_pair(p):
    mek_f, qe2_f, _ = appendix_system(p)
    return (mek_f, qe2_f), 1, Polynomial.variable() - p.c


@pytest.mark.parametrize("pair", [_tau_pair, _f_pair], ids=["tau", "f"])
def test_elimination_guards(pair):
    """The elimination refuses multipliers that leave a phi'' term, and a
    pair whose phi' terms cancel together with the phi'' terms."""
    p = SKRParams(m=3, a=Fraction(5, 2), c=2, k=Fraction(1, 3), kappa=6, lam=1)
    (eq1, eq2), m1, m2 = pair(p)
    assert not first_order_reduction((eq1, eq2), m1, m2).p.is_zero
    with pytest.raises(ValueError, match="phi'' terms did not cancel"):
        first_order_reduction((eq1, eq2), m1, -m2)
    with pytest.raises(ValueError, match="reduction degenerated"):
        first_order_reduction((eq1, eq1), m1, -m1)


def test_reduction_partial_fractions_on_branch():
    """On the distinguished branch p splits as
    (a-1)/(t-2c) + m/(t-c) + (1-a-2m)/t."""
    for (m, a, c) in ((2, Fraction(1), Fraction(1)), (3, Fraction(7, 2), Fraction(-2))):
        p = SKRParams.section6(m=m, a=a, c=c, C2=1)
        t, tp = RationalFunction.variable(), Polynomial.variable()
        red = first_order_reduction(system_12(p), tp, -(tp - c))
        split = (
            RationalFunction.constant(a - 1) / (t - 2 * c)
            + RationalFunction.constant(m) / (t - c)
            + RationalFunction.constant(1 - a - 2 * m) / t
        )
        assert red.p == split
        assert red.p == -closed_form_log_derivative(p)


def test_lemma_quantities_closed_forms():
    """Closed forms: E1 = a (t-c)^2 (2ck+1) / ((t-2c)(tk+1)), E2 = 0."""
    rng = random.Random(11)
    t, tp = RationalFunction.variable(), Polynomial.variable()
    for _ in range(10):
        m = rng.randint(2, 5)
        a = Fraction(rng.randint(1, 8), rng.choice((1, 2)))
        c = Fraction(rng.choice([x for x in range(-4, 5) if x]), rng.choice((1, 2)))
        k = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        p = SKRParams(m=m, a=a, c=c, k=k, kappa=Fraction(rng.randint(-2, 2)),
                      lam=Fraction(rng.randint(-2, 2)))
        eq1, eq2 = system_12(p)
        e1, e2 = lemma_quantities(first_order_reduction((eq1, eq2), tp, -(tp - c)), eq1)
        expected = (a * (t - c) ** 2 * (2 * c * k + 1)) / ((t - 2 * c) * (t * k + 1))
        assert e1 == expected
        assert e2.is_zero
        assert e1.is_zero == (nonexistence_decision(p) == CONSTANTS_ADMITTED)


def test_decision_examples():
    assert nonexistence_decision(SKRParams(m=2, a=1, c=1, k=0)) == FORCED_ZERO
    assert (
        nonexistence_decision(SKRParams(m=2, a=1, c=1, k=Fraction(-1, 2)))
        == CONSTANTS_ADMITTED
    )
    assert (
        nonexistence_decision(SKRParams(m=2, a=2, c=-3, k=Fraction(1, 6)))
        == CONSTANTS_ADMITTED
    )


def test_solsys_is_scaled_branch_system():
    p = SKRParams.section6(m=3, a=Fraction(7, 2), c=-2, C2=1, kappa=0)
    s1, s2 = solsys_system(p)
    g1, g2 = system_12(p)
    two_c = 2 * p.c
    for s, g in ((s1, g1), (s2, g2)):
        assert s.A == two_c * g.A
        assert s.B == two_c * g.B
        assert s.C == two_c * g.C
        assert s.D == two_c * g.D
    t = Polynomial.variable()
    assert s1.A == RationalFunction(
        t * (t - p.c) ** 2 * (Polynomial((2 * p.c,)) - t)
    )
    with pytest.raises(ValueError):
        solsys_system(SKRParams(m=2, a=1, c=1, k=0))


def test_constant_solutions_satisfy_both_members():
    """phi = kappa/(2m) with lambda = 2c(a+2m-1) kappa/(2m) solves the pair
    exactly (rational-function identity, not numerics)."""
    for (m, a, c, kap) in (
        (2, Fraction(1), Fraction(1), Fraction(4)),
        (3, Fraction(2), Fraction(-1), Fraction(6)),
        (4, Fraction(7, 2), Fraction(3), Fraction(1, 2)),
    ):
        p = SKRParams.section6(m=m, a=a, c=c, C2=0, kappa=kap)
        for eq in (*solsys_system(p), *system_12(p)):
            assert (eq.C * p.C1 - eq.D).is_zero


def test_phi_closed_form_examples():
    flat = SKRParams.section6(m=2, a=1, c=1, C2=0, kappa=6)
    phi = phi_closed_form(flat)
    for tau in (0.4, 0.9, 5.0):
        assert phi.value(tau) == float(flat.C1)
        assert phi.taylor(tau) == (float(flat.C1), 0.0, 0.0)

    p = SKRParams.section6(m=2, a=1, c=1, C2=1, kappa=0)
    assert abs(phi_closed_form(p).value(2.0) - 16.0) < 1e-12


def test_phi_log_derivative_matches_reduction():
    for (m, a, c) in ((2, Fraction(1), Fraction(1)), (3, Fraction(7, 2), Fraction(1))):
        p = SKRParams.section6(m=m, a=a, c=c, C2=1, kappa=0)
        phi = phi_closed_form(p)
        dlog = closed_form_log_derivative(p)
        for tau in (2.2, 2.9, 4.0):  # beyond 2c so fractional powers evaluate
            f, d1, _ = phi.taylor(tau)
            got = d1 / f
            assert abs(got - float(dlog(Fraction(tau).limit_denominator(10**6)))) < 1e-9


def test_phi_closed_form_exclusions():
    frac = SKRParams.section6(m=2, a=Fraction(7, 2), c=1, C2=1)
    with pytest.raises(ValueError):
        phi_closed_form(frac).value(1.5)  # below 2c
    with pytest.raises(ValueError):
        phi_closed_form(frac).value(-1.0)
    intp = SKRParams.section6(m=2, a=2, c=1, C2=1)
    with pytest.raises(ValueError):
        phi_closed_form(intp).value(2.0)  # tau = 2c is a pole for a = 2
    # a = 1 drops the (tau-2c) factor entirely, so tau = 2c is fine
    a1 = SKRParams.section6(m=2, a=1, c=1, C2=1)
    assert phi_closed_form(a1).value(2.0) == 16.0


def test_phi_closed_form_on_arrays():
    """An array of tau evaluates elementwise, and one excluded value inside
    it refuses the whole array, naming that value."""
    intp = SKRParams.section6(m=2, a=2, c=1, C2=1)
    phi = phi_closed_form(intp)
    taus = np.array([0.5, 1.5, 2.5, 3.0])
    for k, prof in enumerate((phi.value, lambda t: phi.taylor(t)[0],
                              lambda t: phi.taylor(t)[1], lambda t: phi.taylor(t)[2])):
        got = prof(taus)
        assert got.shape == taus.shape, k
        npt.assert_allclose(got, [prof(float(t)) for t in taus], rtol=1e-14)
    with pytest.raises(ValueError, match=r"excluded value tau=2\.0$"):
        phi.value(np.array([0.5, 1.5, 2.0, 3.0]))
    frac = SKRParams.section6(m=2, a=Fraction(7, 2), c=1, C2=1)
    with pytest.raises(ValueError, match=r"got tau=1\.5$"):
        phi_closed_form(frac).taylor(np.array([2.5, 3.0, 1.5, 1.0]))
    # alpha and gamma take the same arrays
    alpha = alpha_profile(intp)
    npt.assert_allclose(alpha(taus), [alpha(float(t)) for t in taus], rtol=0)
    gam = gamma_from_phi(intp, phi, alpha, taus)
    npt.assert_allclose(gam, [gamma_from_phi(intp, phi, alpha, float(t)) for t in taus],
                        rtol=1e-14)


def _certified(params):
    return all(
        part.is_zero
        for eq in solsys_system(params)
        for part in closed_form_certificate(params, eq, closed_form_log_derivative(params))
    )


def test_certificates_vanish_and_detect_tampering():
    for (m, a, c, C2, kap) in (
        (2, Fraction(2), Fraction(1), Fraction(5), Fraction(4)),
        (3, Fraction(7, 2), Fraction(-1), Fraction(1), Fraction(0)),
        (4, Fraction(1), Fraction(3), Fraction(-2), Fraction(8)),
    ):
        p = SKRParams.section6(m=m, a=a, c=c, C2=C2, kappa=kap)
        for eq in solsys_system(p):
            r0, r1 = closed_form_certificate(p, eq, closed_form_log_derivative(p))
            assert r0.is_zero and r1.is_zero

    good = SKRParams.section6(m=2, a=2, c=1, C2=1, kappa=4)
    bad = replace(good, lam=good.lam + 1)
    _, eq2 = solsys_system(bad)
    r0, r1 = closed_form_certificate(bad, eq2, closed_form_log_derivative(bad))
    assert not (r0.is_zero and r1.is_zero)

    # a = 1/3 has no radical expansion, but the log-derivative certificate
    # still decides it: matched constants pass, a mismatched lambda fails
    third = SKRParams.section6(m=2, a=Fraction(1, 3), c=1, C2=1, kappa=4)
    assert _certified(third)
    assert not _certified(replace(third, lam=third.lam + 1))


def test_certificates_for_any_rational_a():
    for (m, a, c) in (
        (2, Fraction(7, 3), Fraction(1)),
        (3, Fraction(5, 7), Fraction(-1)),
        (12, Fraction(21, 2), Fraction(2)),
    ):
        p = SKRParams.section6(m=m, a=a, c=c, C2=3, kappa=2 * m)
        assert _certified(p)
        assert not _certified(replace(p, lam=p.lam + Fraction(1, 5)))
        assert not _certified(replace(p, C1=p.C1 - 1))


def _expansion_residual(params, ode):
    """Residual of the closed form expanded through psi itself (oracle).

    psi = u * sqrt(tau (tau - 2c))^h with u rational and h = 0 for integer
    a, h = 1 for half-integer a.  Returns (R0, R1, u) with residual
    R0 + R1 * sqrt(tau (tau - 2c)); for integer a, R1 = 0.
    """
    a, c, m = params.a, params.c, params.m
    t = RationalFunction.variable()
    rat_part = ode.C * params.C1 - ode.D
    if a.denominator == 1:
        u = (t - 2 * c) ** int(1 - a) * (t - c) ** (-m) * t ** int(2 * m - 1 + a)
        psi1 = derivative_rf(u)
        full = params.C2 * (ode.A * derivative_rf(psi1) + ode.B * psi1 + ode.C * u)
        return full + rat_part, RationalFunction.constant(0), u
    assert a.denominator == 2
    half = Fraction(1, 2)
    u = (
        (t - 2 * c) ** int(1 - a - half)
        * (t - c) ** (-m)
        * t ** int(2 * m - 1 + a - half)
    )
    s = (t - 2 * c) * t
    half_dlog_s = derivative_rf(s) / (2 * s)
    w1 = derivative_rf(u) + u * half_dlog_s
    w2 = derivative_rf(w1) + w1 * half_dlog_s
    return rat_part, params.C2 * (ode.A * w2 + ode.B * w1 + ode.C * u), u


def test_certificate_matches_radical_expansion():
    for (m, a, c) in (
        (2, Fraction(1), Fraction(1)),
        (3, Fraction(2), Fraction(-1)),
        (2, Fraction(3), Fraction(2)),
        (2, Fraction(1, 2), Fraction(1)),
        (3, Fraction(3, 2), Fraction(-1)),
        (2, Fraction(7, 2), Fraction(3)),
    ):
        good = SKRParams.section6(m=m, a=a, c=c, C2=-2, kappa=2 * m)
        for p in (good, replace(good, lam=good.lam + 1), replace(good, C1=good.C1 + 1)):
            for eq in solsys_system(p):
                psi_part, rat_part = closed_form_certificate(p, eq, closed_form_log_derivative(p))
                r0, r1, u = _expansion_residual(p, eq)
                if a.denominator == 1:
                    # psi = u is rational: the two parts recombine exactly
                    assert r0 == u * psi_part + rat_part and r1.is_zero
                else:
                    # C2 psi E = (C2 E u) sqrt(tau (tau - 2c))
                    assert r0 == rat_part and r1 == u * psi_part
                assert (r0.is_zero and r1.is_zero) == (
                    psi_part.is_zero and rat_part.is_zero
                )
            assert _certified(p) == (p is good)


def test_appendix_system_structure():
    rng = random.Random(23)
    t = RationalFunction.variable()
    for _ in range(8):
        m = rng.randint(2, 5)
        a = Fraction(rng.randint(1, 7), rng.choice((1, 2)))
        c = Fraction(rng.choice([x for x in range(-4, 5) if x]), rng.choice((1, 2)))
        mek_f, qe2_f, red = appendix_system(SKRParams(
            m=m, a=a, c=c, k=0, kappa=Fraction(rng.randint(-2, 2)),
            lam=Fraction(rng.randint(-2, 2))))
        tp = Polynomial.variable()
        assert mek_f.A == RationalFunction(tp * (tp - c) ** 2)
        e1, e2 = lemma_quantities(red, qe2_f)
        assert e1 == (-a * (t - c)) / t  # never the zero function for a > 0
        assert e2.is_zero
        assert not e1.is_zero


_fracs = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3)))


@st.composite
def _certify_cells(draw):
    """Parameters on or off the branch k = -1/(2c), with integer or
    fractional a, either sign_phi, and constants matched to the closed form
    (as ``SKRParams.section6`` matches them) or drawn freely."""
    m = draw(st.integers(2, 6))
    a = draw(st.one_of(
        st.integers(1, 8).map(Fraction),
        st.builds(Fraction, st.integers(1, 15), st.sampled_from((2, 3, 7)))
        .filter(lambda x: x.denominator != 1)))
    c = draw(_fracs.filter(bool))
    branch = Fraction(-1) / (2 * c)
    k = draw(st.one_of(st.just(branch), _fracs.filter(lambda x: x != branch)))
    sign_phi = draw(st.sampled_from((1, -1)))
    kappa = Fraction(0) if sign_phi == -1 else draw(_fracs)
    C2 = draw(_fracs)
    if draw(st.booleans()):
        C1 = kappa / (2 * m)
        lam = 2 * c * (a + 2 * m - 1) * C1
    else:
        C1, lam = draw(_fracs), draw(_fracs)
    return SKRParams(m=m, a=a, c=c, k=k, kappa=kappa, lam=lam, C1=C1, C2=C2,
                     sign_phi=sign_phi)


@settings(max_examples=60, deadline=None)
@given(_certify_cells(), _fracs.filter(bool))
@example(SKRParams.section6(m=2, a=1, c=-1, C2=-3, kappa=4), Fraction(1))
@example(SKRParams(m=3, a=Fraction(5, 2), c=2, k=Fraction(1, 3), kappa=6, lam=1,
                   C1=Fraction(1, 2), C2=3, sign_phi=-1), Fraction(-1, 2))
def test_one_reduction_matches_rational_function_formulas(params, tamper):
    """Each compatibility quantity and closed-form residual, formed as one
    numerator over its known denominator, equals the plain rational-function
    formula for every member of system_12, solsys_system and
    appendix_system; on the branch with matched constants the residuals
    vanish, and a tampered lambda leaves a nonzero one."""
    t = Polynomial.variable()
    L = closed_form_log_derivative(params)
    assert L == log_derivative_rf(params)
    sys12 = system_12(params)
    red = first_order_reduction(sys12, t, -(t - params.c))
    mek_f, qe2_f, red_f = appendix_system(params)
    families = [(red, sys12), (red_f, (mek_f, qe2_f))]
    if params.on_distinguished_branch():
        families.append((red, solsys_system(params)))
    for reduced, members in families:
        for member in members:
            assert lemma_quantities(reduced, member) == lemma_quantities_rf(
                reduced.p, reduced.q, member)
            assert closed_form_certificate(params, member, L) == closed_form_certificate_rf(
                params, member, L)

    matched = params.lam == 2 * params.c * (params.a + 2 * params.m - 1) * params.C1
    if params.on_distinguished_branch() and matched and params.C1 * 2 * params.m == params.kappa:
        assert _certified(params)
        bad = replace(params, lam=params.lam + tamper)
        _, eq2 = solsys_system(bad)
        residual = closed_form_certificate(bad, eq2, L)
        assert residual == closed_form_certificate_rf(bad, eq2, L)
        assert not residual[1].is_zero


_ratios = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def _builder_params(draw):
    """m from 2 to 12; a > 0, c != 0 and kappa, lambda, C1, C2 rationals with
    denominators; k on the branch -1/(2c) or drawn off it likewise."""
    m = draw(st.integers(2, 12))
    a = draw(st.builds(Fraction, st.integers(1, 40), st.integers(1, 12)))
    c = draw(_ratios.filter(bool))
    branch = Fraction(-1) / (2 * c)
    k = draw(st.one_of(st.just(branch), _ratios.filter(lambda x: x != branch)))
    kappa, lam, C1, C2 = (draw(_ratios) for _ in range(4))
    return SKRParams(m=m, a=a, c=c, k=k, kappa=kappa, lam=lam, C1=C1, C2=C2,
                     sign_phi=draw(st.sampled_from((1, -1))))


@settings(max_examples=200, deadline=None)
@given(_builder_params())
@example(SKRParams.section6(m=3, a=Fraction(5, 2), c=Fraction(-2, 3), C2=Fraction(3, 4),
                            kappa=Fraction(-9, 2)))
@example(SKRParams(m=12, a=Fraction(21, 2), c=Fraction(-7, 12), k=Fraction(5, 11),
                   kappa=Fraction(-13, 6), lam=Fraction(9, 10), C1=Fraction(1, 7),
                   C2=Fraction(-3, 8), sign_phi=-1))
def test_integer_builders_equal_their_formula_forms(params):
    """Each member written in ints over the parameters' common denominator,
    and the log-derivative summed over t(t-c)(t-2c) in ints, equals the
    formula form: Fraction-coefficient polynomial products, and the sum of
    e/(t - root) term by term."""
    assert system_12(params) == system_12_formula(params)
    assert appendix_system(params) == appendix_system_formula(params)
    assert closed_form_log_derivative(params) == log_derivative_rf(params)
    if params.on_distinguished_branch():
        assert solsys_system(params) == solsys_system_formula(params)
    else:
        with pytest.raises(ValueError, match="requires"):
            solsys_system(params)


def test_members_are_built_without_fraction_arithmetic_or_polynomial_products(monkeypatch):
    """The members of system_12 and solsys_system, those of appendix_system
    up to its reduction, and the log-derivative take no Fraction operator
    and no product of two polynomials."""
    params = SKRParams.section6(m=3, a=Fraction(5, 2), c=Fraction(-2, 3), C2=Fraction(3, 4),
                                kappa=Fraction(-9, 2))
    calls = []

    def counting(cls, name):
        op = getattr(cls, name)

        def counted(x, y=None):
            if cls is Fraction or isinstance(y, Polynomial):
                calls.append((cls.__name__, name))
            return op(x) if y is None else op(x, y)
        monkeypatch.setattr(cls, name, counted)

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
        counting(Fraction, name)
    counting(Polynomial, "__mul__")
    # the f pair's reduction multiplies polynomials by design
    monkeypatch.setattr("kahlerqe.odes.first_order_reduction", lambda system, m1, m2: None)
    system_12(params)
    solsys_system(params)
    appendix_system(params)
    closed_form_log_derivative(params)
    assert calls == []
