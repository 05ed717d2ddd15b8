"""Ricci-Hessian / quasi-Einstein ODE systems in exact rational arithmetic.

The scalar tau is the conformal factor; phi(tau) is the common eigenvalue
of the Hessian of tau on the distribution orthogonal to {grad tau, J grad
tau}.  Everything symbolic here is a polynomial or rational function in
tau with rational coefficients, so identities are decided exactly, not to
a tolerance.  ``LinearODE2`` holds polynomials, and each compatibility
quantity and closed-form residual is one numerator over its known
denominator, reduced once by the ``RationalFunction`` constructor.

The members of the three systems, and the log-derivative of the closed
form, are formed in integer arithmetic over one parameter denominator:
``SKRParams.cleared`` gives the least common denominator d of a, c, k,
kappa and lambda with those five times d as ints, each coefficient is an
int expression in them over a power of d, and ``rational.from_ints``
reduces it to lowest terms.  No Fraction arithmetic and no polynomial
product builds a member; canonical form makes the result that of the
expanded formulas, which are the reference in ``tests/oracles.py``.

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

from kahlerqe.rational import Polynomial, RationalFunction, as_fraction, from_ints


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
        # k = -1/(2c), i.e. 2ck = -1, on numerators and denominators
        c, k = self.c, self.k
        return c != 0 and 2 * c.numerator * k.numerator == -c.denominator * k.denominator

    def cleared(self):
        """(d, a d, c d, k d, kappa d, lambda d): the least common
        denominator d of a, c, k, kappa and lambda, and those five as ints
        over it."""
        vals = (self.a, self.c, self.k, self.kappa, self.lam)
        d = math.lcm(*(v.denominator for v in vals))
        return (d, *(v.numerator * (d // v.denominator) for v in vals))


@dataclass(frozen=True)
class ScalarProfile:
    """A scalar function of one variable: ``value(t)``, and ``taylor(t)``,
    which returns (f, f', f'') from one evaluation.  The profiles built
    here take a float or an array of arguments."""

    value: Callable
    taylor: Callable


@dataclass(frozen=True)
class LinearODE2:
    """A phi'' + B phi' + C phi = D with polynomial coefficients."""

    A: Polynomial
    B: Polynomial
    C: Polynomial
    D: Polynomial

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
    """alpha(tau) = (n - 2 + a/(1 + k tau)) / tau as an exact rational function
    (which evaluates at a float or an array of tau values as well)."""
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
    """gamma = alpha phi + (alpha (tau-c) - (m+1)) phi' - (tau-c) phi'', at a
    float or an array of tau values."""
    c = float(params.c)
    al = alpha(tau)
    p0, p1, p2 = phi.taylor(tau)
    return al * p0 + (al * (tau - c) - (params.m + 1)) * p1 - (tau - c) * p2


# -- the polynomial systems -------------------------------------------------


def system_12(params):
    """The two second-order members governing phi(tau) with polynomial coefficients.

    The first clears denominators of the fiber-constancy equation,
    t(t-c)^2(1+kt) phi'' + B1 phi' - m t(1+kt) phi = -sign_phi (kappa/2) t(1+kt);
    the second encodes agreement of the two gamma expressions,
    t^2(t-c)(1+kt) phi'' + B2 phi' + C2 phi = -lambda(1+kt).  Each
    coefficient is written in ints over a power of the parameters' common
    denominator d (A = a d, C = c d, ...); the expanded formulas are the
    reference in the tests.
    """
    m, sg = params.m, params.sign_phi
    d, A, C, K, Kap, Lam = params.cleared()
    dd, CC, CK = d * d, C * C, C * K
    ddd = dd * d

    eq1 = LinearODE2(
        from_ints([0, CC * d, CC * K - 2 * C * dd, ddd - 2 * CK * d, K * dd], ddd),
        from_ints([
            -((2 * m - 2) * d + A) * CC,
            ((2 * A + (3 * m - 4) * d) * d - 2 * (m - 1) * CK) * C,
            ((2 - m) * d - A) * dd + (3 * m - 4) * CK * d,
            (2 - m) * K * dd,
        ], ddd),
        from_ints([0, -m * d, -m * K], d),
        from_ints([0, -sg * Kap * d, -sg * Kap * K], 2 * dd),
    )
    eq2 = LinearODE2(
        from_ints([0, 0, -C * d, dd - CK, K * d], dd),
        from_ints([0, C * (A + 2 * m * d), ((1 - m) * d - A) * d + 2 * m * CK, (1 - m) * K * d],
                  dd),
        from_ints([-2 * C * (A + (2 * m - 1) * d), A * d - 2 * (2 * m - 1) * CK], dd),
        from_ints([-Lam * d, -Lam * K], dd),
    )
    return eq1, eq2


def first_order_reduction(system, m1, m2):
    """Eliminate phi'' from the pair by the combination m1*(first) + m2*(second).

    The multipliers are polynomials or numbers.  Returns phi' + p phi = q
    normalized by the combination's phi' coefficient.  ``system_12`` takes
    (tau, -(tau - c)), whose phi' coefficient is
    tau (tau-c)(tau-2c)(1+k tau); the f-variable pair of
    ``appendix_system`` takes (1, f - c).  Multipliers that leave a phi''
    term, or no phi' term, are refused.
    """
    eq1, eq2 = system
    A = m1 * eq1.A + m2 * eq2.A
    if not A.is_zero:
        raise ValueError("phi'' terms did not cancel; not a reducible pair")
    W = m1 * eq1.B + m2 * eq2.B
    if W.is_zero:
        raise ValueError("reduction degenerated: phi' coefficient vanished identically")
    p = RationalFunction(m1 * eq1.C + m2 * eq2.C, W)
    q = RationalFunction(m1 * eq1.D + m2 * eq2.D, W)
    return LinearODE1(p, q)


def lemma_quantities(reduced, ode2):
    """Compatibility pair for (phi' + p phi = q, A phi'' + B phi' + C phi = D).

    Substituting the first into the second leaves E1*phi = E2 with
    E1 = A(p^2 - p') - Bp + C and E2 = D - A(q' - pq) - Bq; if E1 is not
    identically zero the system forces phi = E2/E1.  With p = P/U, q = V/W:
    E1 = [A(P^2 - P'U + PU') - BPU + CU^2] / U^2 and
    E2 = [DUW^2 - A((V'W - VW')U - PVW) - BVUW] / (UW^2).
    """
    A, B, C, D = ode2.A, ode2.B, ode2.C, ode2.D
    P, U, V, W = reduced.p.num, reduced.p.den, reduced.q.num, reduced.q.den
    UU, UW = U * U, U * W
    UWW = UW * W
    E1 = A * (P * P - P.derivative() * U + P * U.derivative()) - B * P * U + C * UU
    E2 = D * UWW - A * ((V.derivative() * W - V * W.derivative()) * U - P * V * W) - B * V * UW
    return RationalFunction(E1, UU), RationalFunction(E2, UWW)


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
    on (m, a, c, kappa, lambda, sign phi), written in ints over a power of
    the parameters' common denominator as in ``system_12``.
    """
    if not params.on_distinguished_branch():
        raise ValueError("solsys_system requires c != 0 and k = -1/(2c)")
    m, sg = params.m, params.sign_phi
    d, A, C, _, Kap, Lam = params.cleared()
    dd, CC = d * d, C * C
    ddd = dd * d
    E = A + (2 * m - 1) * d  # (a + 2m - 1) d

    eq1 = LinearODE2(
        from_ints([0, 2 * CC * C, -5 * CC * d, 4 * C * dd, -ddd], ddd),
        from_ints([
            -2 * CC * C * (A + (2 * m - 2) * d),
            2 * CC * (2 * A + (4 * m - 5) * d) * d,
            C * ((8 - 5 * m) * d - 2 * A) * dd,
            (m - 2) * dd * dd,
        ], dd * dd),
        from_ints([0, -2 * m * C, m * d], d),
        from_ints([0, -2 * sg * Kap * C, sg * Kap * d], 2 * dd),
    )
    eq2 = LinearODE2(
        from_ints([0, 0, -2 * CC, 3 * C * d, -dd], dd),
        from_ints([0, 2 * CC * (A + 2 * m * d), 2 * C * ((1 - 2 * m) * d - A) * d, (m - 1) * ddd],
                  ddd),
        from_ints([-4 * CC * E, 2 * C * E * d], ddd),
        from_ints([-2 * Lam * C, Lam * d], dd),
    )
    return eq1, eq2


def psi_factors(params):
    """The factors of the closed form's nonconstant mode
    psi = (tau-2c)^(1-a) (tau-c)^(-m) tau^(2m-1+a), as exact (exponent,
    root) pairs in that order; a zero exponent (a = 1) is kept."""
    a, c, m = params.a, params.c, params.m
    return ((1 - a, 2 * c), (Fraction(-m), c), (2 * m - 1 + a, Fraction(0)))


def real_floor(params):
    """The float tau that phi must exceed to be real: the largest root of a
    factor of psi with a fractional exponent, i.e. max(0, 2c) for fractional
    a; None for integer a, where every power is real."""
    roots = [root for e, root in psi_factors(params) if e.denominator != 1]
    return float(max(roots)) if roots else None


def closed_form_log_derivative(params):
    """d/dtau log psi = sum e/(tau - root) over ``psi_factors``, exactly.

    Rational for every rational a; equals -p of the first-order reduction
    on the distinguished branch.  Over tau(tau-c)(tau-2c) the sum's
    numerator is m tau^2 - 2c(2m-1+a) tau + 2c^2(2m-1+a) (the exponents sum
    to m); both are formed in ints over the parameters' common denominator
    and reduced once.
    """
    m = params.m
    d, A, C = params.cleared()[:3]
    dd = d * d
    E = A + (2 * m - 1) * d  # (2m - 1 + a) d
    num = from_ints([2 * C * C * E, -2 * C * E * d, m * dd * d], dd * d)
    return RationalFunction(num, from_ints([0, 2 * C * C, -3 * C * d, dd], dd))


def phi_closed_form(params):
    """Closed-form phi = C1 + C2 psi, with psi the product of ``psi_factors``.

    Integer a evaluates wherever no retained factor has a zero base (for
    a = 1 the first factor drops out entirely); fractional a additionally
    requires tau > ``real_floor`` so fractional powers have positive bases.
    The profile takes a float or an array of tau values; an array with
    an excluded value is refused, naming the first one.
    """
    import numpy as np  # only the float closed form needs it

    C1f, C2f = float(params.C1), float(params.C2)
    floor = real_floor(params)
    # factors psi = prod (tau - root)^e, zero exponents dropped, with
    # whether e is an odd integer
    factors = [
        (float(e), float(root), e.denominator == 1 and e.numerator % 2 == 1)
        for e, root in psi_factors(params)
        if e != 0
    ]

    def _first(tau, bad):
        return float(np.ravel(tau)[np.argmax(np.ravel(bad))])

    def _check(tau):
        real = True if floor is None else tau > floor
        ok = real
        for _, root, _ in factors:
            ok = ok & (tau != root)
        if np.all(ok):
            return
        if not np.all(real):
            raise ValueError(
                f"fractional exponent (a={params.a}) needs tau > 0 and tau > 2c, "
                f"got tau={_first(tau, np.logical_not(real))}"
            )
        raise ValueError(
            f"closed form evaluated at excluded value tau={_first(tau, np.logical_not(ok))}")

    def psi(tau):
        # numpy's array power leaves its vector fast path for a negative
        # base, about 30 times slower per element, so each power is taken
        # of |tau - root| and an odd one gets the sign back (libm pow is
        # sign-symmetric).  A fractional power's base is positive already
        # (the domain check).
        out = 1.0
        for e, root, odd in factors:
            base = tau - root
            p = abs(base) ** e
            out = out * (np.copysign(p, base) if odd else p)
        return out

    def val(tau):
        _check(tau)
        return C1f + C2f * psi(tau)

    def taylor(tau):
        _check(tau)
        ps = psi(tau)
        # psi'/psi = sum e/(tau-root) = -p
        pt = -sum(e / (tau - root) for e, root, _ in factors)
        pt_d = sum(e / (tau - root) ** 2 for e, root, _ in factors)
        return C1f + C2f * ps, -C2f * pt * ps, C2f * (pt * pt - pt_d) * ps

    return ScalarProfile(value=val, taylor=taylor)


def closed_form_certificate(params, ode, L):
    """Exact residual of the closed-form phi in a second-order member.

    With psi the nonconstant mode and L = psi'/psi = N/D (rational for every
    rational a; ``closed_form_log_derivative``), the residual of
    phi = C1 + C2 psi is C2 psi E + (C C1 - D), where E = A(L' + L^2) + BL + C
    = [A(N'D - ND' + N^2) + BND + CD^2] / D^2.  Returns the rational functions
    (C2 E, C C1 - D); the closed form solves the member when both are
    identically zero.  For integer a, psi is itself rational, so the test
    is sufficient but not necessary: it can only fail closed.
    """
    N, D = L.num, L.den
    DD = D * D
    E = ode.A * (N.derivative() * D - N * D.derivative() + N * N) + ode.B * N * D + ode.C * DD
    return (RationalFunction(params.C2 * E, DD),
            RationalFunction(ode.C * params.C1 - ode.D))


def appendix_system(params):
    """The analogous pair in the variable f (with tau-free coefficients).

    Returns (fiber-constancy member
    f(f-c)^2 phi'' + (f-c)(m f + a(f-c)) phi' - m f phi = -sign_phi (kappa/2) f,
    gamma member
    -f(f-c) phi'' - (a(f-c) + (m+1) f) phi' - a phi = lambda f,
    first-order reduction by the combination first + (f-c)*second), the
    members written in ints over powers of the parameters' common
    denominator as in ``system_12``.
    """
    m, sg = params.m, params.sign_phi
    d, A, C, _, Kap, Lam = params.cleared()
    dd, CC = d * d, C * C

    mek_f = LinearODE2(
        from_ints([0, CC, -2 * C * d, dd], dd),
        from_ints([A * CC, -C * (2 * A + m * d) * d, (A + m * d) * dd], dd * d),
        from_ints([0, -m], 1),
        from_ints([0, -sg * Kap], 2 * d),
    )
    qe2_f = LinearODE2(
        from_ints([0, C, -d], d),
        from_ints([A * C, -(A + (m + 1) * d) * d], dd),
        from_ints([-A], d),
        from_ints([0, Lam], d),
    )
    return mek_f, qe2_f, first_order_reduction((mek_f, qe2_f), 1, from_ints([-C, d], d))
