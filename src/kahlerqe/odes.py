"""Ricci-Hessian / quasi-Einstein ODE systems in exact rational arithmetic.

The scalar tau is the conformal factor; phi(tau) is the common eigenvalue
of the Hessian of tau on the distribution orthogonal to {grad tau, J grad
tau}.  Everything symbolic here is a polynomial or rational function in
tau with Fraction coefficients, so identities are decided exactly, not to
a tolerance.

Parameter conventions: n = 2m is the real dimension, a > 0 the warped
Einstein exponent, f = 1/tau + k the warping-related profile, c the value
with Q(tau) = 2*(tau - c)*phi(tau).  The distinguished branch k = -1/(2c)
admits the two-constant closed-form solution produced by
``phi_closed_form``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from kahlerqe.rational import Polynomial, RationalFunction


class ExactParameterError(TypeError):
    """A parameter that feeds the symbolic path was not an exact rational."""


def as_fraction(x, name="value"):
    """Coerce int/Fraction/decimal-or-ratio string to Fraction; reject float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ExactParameterError(f"{name}: bool is not a number")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ExactParameterError(f"{name}: cannot parse {x!r} as a rational") from exc
    raise ExactParameterError(
        f"{name} must be exact (int, Fraction, or string), got {type(x).__name__}"
    )


_EXACT_FIELDS = ("a", "c", "k", "kappa", "lam", "C1", "C2", "b")


@dataclass(frozen=True)
class SKRParams:
    """Parameters of one metric candidate; all rationals kept exact."""

    m: int
    a: Fraction
    c: Fraction
    k: Fraction
    kappa: Fraction = Fraction(0)
    lam: Fraction = Fraction(0)
    C1: Fraction = Fraction(0)
    C2: Fraction = Fraction(0)
    b: Fraction = Fraction(1)
    sign_phi: int = 1

    def __post_init__(self):
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 2:
            raise ValueError(f"m must be an integer >= 2, got {self.m!r}")
        for name in _EXACT_FIELDS:
            object.__setattr__(self, name, as_fraction(getattr(self, name), name))
        if self.a <= 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.b == 0:
            raise ValueError("b must be nonzero")
        if self.sign_phi not in (1, -1):
            raise ValueError(f"sign_phi must be +1 or -1, got {self.sign_phi!r}")

    @property
    def n(self):
        """Real dimension."""
        return 2 * self.m

    @classmethod
    def section6(cls, m, a, c, C2, kappa=0, b=1, sign_phi=1):
        """Parameters on the k = -1/(2c) branch with matched constants.

        C1 = kappa/(2m) and lambda = 2c(a+2m-1)C1 are forced, so the
        closed-form phi solves both members of the reduced system.  A
        nonzero kappa requires the positive-phi branch.
        """
        a = as_fraction(a, "a")
        c = as_fraction(c, "c")
        kappa = as_fraction(kappa, "kappa")
        if c == 0:
            raise ValueError("the distinguished branch needs c != 0")
        if kappa != 0 and sign_phi != 1:
            raise ValueError("nonzero base Einstein constant requires sign_phi=+1")
        C1 = kappa / (2 * m)
        lam = 2 * c * (a + 2 * m - 1) * C1
        return cls(
            m=m, a=a, c=c, k=Fraction(-1, 1) / (2 * c), kappa=kappa, lam=lam,
            C1=C1, C2=as_fraction(C2, "C2"), b=b, sign_phi=sign_phi,
        )

    def on_distinguished_branch(self):
        return self.c != 0 and self.k == Fraction(-1, 1) / (2 * self.c)


@dataclass(frozen=True)
class ScalarProfile:
    """A scalar function of one variable with two derivatives."""

    value: Callable
    d1: Callable
    d2: Callable


@dataclass(frozen=True)
class LinearODE2:
    """A phi'' + B phi' + C phi = D with rational-function coefficients."""

    A: RationalFunction
    B: RationalFunction
    C: RationalFunction
    D: RationalFunction

    def render(self, var="t"):
        return (
            f"({self.A.render(var)})*phi'' + ({self.B.render(var)})*phi' "
            f"+ ({self.C.render(var)})*phi = {self.D.render(var)}"
        )


@dataclass(frozen=True)
class LinearODE1:
    """phi' + p phi = q with rational-function coefficients."""

    p: RationalFunction
    q: RationalFunction


# -- pointwise coefficient formulas ----------------------------------------


def alpha_profile(params):
    """alpha(tau) = (n - 2 + a/(1 + k tau)) / tau as an exact rational function."""
    t = RationalFunction.variable()
    return ((2 * params.m - 2) * (1 + params.k * t) + params.a) / (
        t * (1 + params.k * t)
    )


def alpha_degeneracy_roots(params):
    """Real tau values where the alpha-based change of variables degenerates.

    Roots of alpha and of its derivative away from poles; empty when k = 0
    (no degeneracy in the affine-in-1/tau family there).
    """
    n, a, k = 2 * params.m, params.a, params.k
    if k == 0:
        return []
    r1 = float(Fraction(2 - n, 1) - a) / float((n - 2) * k)
    disc = float(a * (n + a - 2))
    root = math.sqrt(disc)
    base = -float(n - 2 + a)
    denom = float((n - 2) * k)
    out = [r1, (base + root) / denom, (base - root) / denom]
    return sorted(out)


def gamma_from_phi(params, phi, alpha, tau):
    """gamma = alpha phi + (alpha (tau-c) - (m+1)) phi' - (tau-c) phi''."""
    c = float(params.c)
    al = alpha(tau)
    return (
        al * phi.value(tau)
        + (al * (tau - c) - (params.m + 1)) * phi.d1(tau)
        - (tau - c) * phi.d2(tau)
    )


# -- the polynomial systems -------------------------------------------------


def system_12(params):
    """The two second-order members governing phi(tau) with polynomial coefficients.

    The first clears denominators of the fiber-constancy equation; the second
    encodes agreement of the two gamma expressions.
    """
    m, a, c, k = params.m, params.a, params.c, params.k
    kap, lam, sg = params.kappa, params.lam, params.sign_phi
    t = Polynomial.variable()
    one = Polynomial((1,))

    A1 = t * (t - c) ** 2 * (one + k * t)
    B1 = Polynomial((
        -(2 * m - 2 + a) * c * c,
        (2 * a + 3 * m - 4) * c - 2 * (m - 1) * k * c * c,
        Fraction(2 - m) - a + (3 * m - 4) * k * c,
        (2 - m) * k,
    ))
    C1 = -(m * t + m * k * t * t)
    D1 = Fraction(-sg) * kap / 2 * t * (one + k * t)
    eq1 = LinearODE2(
        RationalFunction(A1), RationalFunction(B1),
        RationalFunction(C1), RationalFunction(D1),
    )

    A2 = t * t * (t - c) * (one + k * t)
    B2 = Polynomial((
        0,
        c * (a + 2 * m),
        Fraction(1 - m) - a + 2 * m * k * c,
        (1 - m) * k,
    ))
    C2 = Polynomial((-2 * c * (a + 2 * m - 1), a - 2 * c * (2 * m - 1) * k))
    D2 = -lam * (one + k * t)
    eq2 = LinearODE2(
        RationalFunction(A2), RationalFunction(B2),
        RationalFunction(C2), RationalFunction(D2),
    )
    return eq1, eq2


def first_order_reduction(system, params):
    """Eliminate phi'' from the pair by the combination tau*(first) - (tau-c)*(second).

    Returns phi' + p phi = q normalized by the eliminated system's leading
    coefficient tau (tau-c)(tau-2c)(1+k tau).
    """
    eq1, eq2 = system
    t = RationalFunction.variable()
    m1 = t
    m2 = -(t - params.c)
    A = m1 * eq1.A + m2 * eq2.A
    if not A.is_zero:
        raise ValueError("phi'' terms did not cancel; not a reducible pair")
    W = m1 * eq1.B + m2 * eq2.B
    if W.is_zero:
        raise ValueError("reduction degenerated: phi' coefficient vanished identically")
    p = (m1 * eq1.C + m2 * eq2.C) / W
    q = (m1 * eq1.D + m2 * eq2.D) / W
    return LinearODE1(p, q)


def lemma_quantities(reduced, ode2):
    """Compatibility pair for (phi' + p phi = q, A phi'' + B phi' + C phi = D).

    Substituting the first into the second leaves E1*phi = E2 with
    E1 = A(p^2 - p') - Bp + C and E2 = D - A(q' - pq) - Bq; if E1 is not
    identically zero the system forces phi = E2/E1.
    """
    p, q = reduced.p, reduced.q
    E1 = ode2.A * (p * p - p.derivative()) - ode2.B * p + ode2.C
    E2 = ode2.D - ode2.A * (q.derivative() - p * q) - ode2.B * q
    return E1, E2


FORCED_ZERO = "forced-zero"
CONSTANTS_ADMITTED = "constants-admitted"


def nonexistence_decision(params):
    """Exact verdict of the compatibility obstruction a(2ck + 1).

    "forced-zero": the pair admits only phi with E1*phi = 0, i.e. no
    nontrivial solution; "constants-admitted": the obstruction vanishes
    (k = -1/(2c)), the branch on which solutions exist.
    """
    return FORCED_ZERO if params.a * (2 * params.c * params.k + 1) != 0 else CONSTANTS_ADMITTED


def solsys_system(params):
    """The distinguished-branch pair (k = -1/(2c)), cleared of denominators.

    Equals 2c times ``system_12`` at k = -1/(2c); coefficients depend only
    on (m, a, c, kappa, lambda, sign phi).
    """
    if not params.on_distinguished_branch():
        raise ValueError("solsys_system requires c != 0 and k = -1/(2c)")
    m, a, c = params.m, params.a, params.c
    kap, lam, sg = params.kappa, params.lam, params.sign_phi
    t = Polynomial.variable()
    one = Polynomial((1,))

    A1 = t * (t - c) ** 2 * (2 * c * one - t)
    B1 = Polynomial((
        -2 * c**3 * (2 * m - 2 + a),
        2 * c * c * (2 * a + 4 * m - 5),
        c * (Fraction(8) - 5 * m - 2 * a),
        Fraction(m - 2),
    ))
    C1 = m * t * (t - 2 * c)
    D1 = Fraction(sg) * kap / 2 * t * (t - 2 * c)
    eq1 = LinearODE2(
        RationalFunction(A1), RationalFunction(B1),
        RationalFunction(C1), RationalFunction(D1),
    )

    A2 = t * t * (t - c) * (2 * c * one - t)
    B2 = Polynomial((0, 2 * c * c * (a + 2 * m), 2 * c * (Fraction(1) - 2 * m - a), Fraction(m - 1)))
    C2 = 2 * c * (a + 2 * m - 1) * (t - 2 * c)
    D2 = lam * (t - 2 * c)
    eq2 = LinearODE2(
        RationalFunction(A2), RationalFunction(B2),
        RationalFunction(C2), RationalFunction(D2),
    )
    return eq1, eq2


def closed_form_log_derivative(params):
    """d/dtau log psi for the nonconstant closed-form mode, exactly.

    psi = (tau-2c)^(1-a) (tau-c)^(-m) tau^(2m-1+a); the log-derivative is
    rational for every rational a and equals -p of the first-order
    reduction on the distinguished branch.
    """
    a, c, m = params.a, params.c, params.m
    t = RationalFunction.variable()
    return (
        RationalFunction.constant(1 - a) / (t - 2 * c)
        + RationalFunction.constant(-m) / (t - c)
        + RationalFunction.constant(2 * m - 1 + a) / t
    )


def phi_closed_form(params):
    """Closed-form phi = C1 + C2 (tau-2c)^(1-a) (tau-c)^(-m) tau^(2m-1+a).

    Integer a evaluates wherever no retained factor has a zero base (for
    a = 1 the first factor drops out entirely); fractional a additionally
    requires tau > 0 and tau > 2c so fractional powers have positive bases.
    """
    m = params.m
    a, c = params.a, params.c
    C1f, C2f = float(params.C1), float(params.C2)
    cf = float(c)
    a_int = a.denominator == 1
    # factors psi = prod (tau - root)^e, zero exponents dropped; a float
    # power with an integral exponent is bitwise the int power
    factors = [
        (float(e), root)
        for e, root in ((1 - a, 2 * cf), (Fraction(-m), cf), (2 * m - 1 + a, 0.0))
        if e != 0
    ]

    def _check(tau):
        if not a_int and (tau <= 0.0 or tau - 2 * cf <= 0.0):
            raise ValueError(
                f"fractional exponent (a={a}) needs tau > 0 and tau > 2c, got tau={tau}"
            )
        for _, root in factors:
            if tau == root:
                raise ValueError(f"closed form evaluated at excluded value tau={tau}")

    def psi(tau):
        out = 1.0
        for e, root in factors:
            out *= (tau - root) ** e
        return out

    # psi'/psi = sum e/(tau-root) = -p
    def pterm(tau):
        return -sum(e / (tau - root) for e, root in factors)

    def pterm_d(tau):
        return sum(e / (tau - root) ** 2 for e, root in factors)

    def val(tau):
        _check(tau)
        return C1f + C2f * psi(tau)

    def d1(tau):
        _check(tau)
        return -C2f * pterm(tau) * psi(tau)

    def d2(tau):
        _check(tau)
        pt = pterm(tau)
        return C2f * (pt * pt - pterm_d(tau)) * psi(tau)

    return ScalarProfile(value=val, d1=d1, d2=d2)


def closed_form_certificate(params, ode):
    """Exact residual of the closed-form phi in a second-order member.

    With psi the nonconstant mode and L = psi'/psi (rational for every
    rational a), the residual of phi = C1 + C2 psi is C2 psi E + (C C1 - D)
    where E = A(L' + L^2) + B L + C.  Returns the rational functions
    (C2 E, C C1 - D); the closed form solves the member when both are
    identically zero.  For integer a, psi is itself rational, so the test
    is sufficient but not necessary: it can only fail closed.
    """
    L = closed_form_log_derivative(params)
    E, _ = lemma_quantities(LinearODE1(-L, RationalFunction.constant(0)), ode)
    return params.C2 * E, ode.C * params.C1 - ode.D


def appendix_system(m, a, c, kappa, lam, sign_phi=1):
    """The analogous pair in the variable f (with tau-free coefficients).

    Returns (fiber-constancy member, gamma member, first-order reduction by
    the combination first + (f-c)*second).
    """
    a = as_fraction(a, "a")
    c = as_fraction(c, "c")
    kappa = as_fraction(kappa, "kappa")
    lam = as_fraction(lam, "lam")
    f = Polynomial.variable()
    one = Polynomial((1,))

    IA = f * (f - c) ** 2
    IB = (f - c) * (m * f + (f - c) * a)
    IC = -m * f
    ID = Fraction(-sign_phi) * kappa / 2 * f
    mek_f = LinearODE2(
        RationalFunction(IA), RationalFunction(IB),
        RationalFunction(IC), RationalFunction(ID),
    )

    IIA = -(f * (f - c))
    IIB = -(a * (f - c)) - (m + 1) * f
    IIC = Polynomial((-a,))
    IID = lam * f
    qe2_f = LinearODE2(
        RationalFunction(IIA), RationalFunction(IIB),
        RationalFunction(IIC), RationalFunction(IID),
    )

    rv = RationalFunction.variable()
    mult = rv - c
    A = mek_f.A + mult * qe2_f.A
    if not A.is_zero:
        raise ValueError("phi'' terms did not cancel in the f-variable reduction")
    W = mek_f.B + mult * qe2_f.B
    p = (mek_f.C + mult * qe2_f.C) / W
    q = (mek_f.D + mult * qe2_f.D) / W
    return mek_f, qe2_f, LinearODE1(p, q)
