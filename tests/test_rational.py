"""Exact polynomial / rational-function arithmetic."""

import ast
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kahlerqe.rational import PoleError, Polynomial, RationalFunction
from oracles import derivative_rf


# -- an independent reader of rendered expressions, the oracle of render() --


class RationalParseError(ValueError):
    """Raised when a rational-function expression cannot be parsed."""


def parse_rational(text, var="t"):
    """Parse expressions like ``(3*t^2 - 1)/(t - 2)`` into a RationalFunction.

    Grammar: integer literals, the variable, parentheses, ``+ - * /`` and
    ``^`` (or ``**``) with integer exponents.
    """
    try:
        tree = ast.parse(text.replace("^", "**").strip(), mode="eval")
    except SyntaxError as exc:
        raise RationalParseError(f"unparseable expression: {text!r}") from exc
    return _from_node(tree.body, var, text)


def _from_node(node, var, text):
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int) and not isinstance(node.value, bool):
            return RationalFunction.constant(node.value)
        raise RationalParseError(
            f"only integer literals allowed, got {node.value!r} in {text!r}"
        )
    if isinstance(node, ast.Name):
        if node.id == var:
            return RationalFunction.variable()
        raise RationalParseError(f"unknown symbol {node.id!r} in {text!r}")
    if isinstance(node, ast.UnaryOp):
        inner = _from_node(node.operand, var, text)
        if isinstance(node.op, ast.USub):
            return -inner
        if isinstance(node.op, ast.UAdd):
            return inner
        raise RationalParseError(f"unsupported unary operator in {text!r}")
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            base = _from_node(node.left, var, text)
            exp = _int_exponent(node.right, text)
            return base**exp
        left = _from_node(node.left, var, text)
        right = _from_node(node.right, var, text)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            return left / right
        raise RationalParseError(f"unsupported operator in {text!r}")
    raise RationalParseError(f"unsupported syntax in {text!r}")


def _int_exponent(node, text):
    sign = 1
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        if isinstance(node.op, ast.USub):
            sign = -sign
        node = node.operand
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return sign * node.value
    raise RationalParseError(f"exponents must be integer literals in {text!r}")


# -- term-by-term division and Euclid, the oracle of the in-place kernel --


def oracle_divmod(a, b):
    """Long division that builds a term polynomial for every quotient term."""
    q, r = Polynomial(), a
    d, lc = b.degree, b.coeffs[-1]
    while not r.is_zero and r.degree >= d:
        term = Polynomial([0] * (r.degree - d) + [r.coeffs[-1] / lc])
        q = q + term
        r = r - term * b
    return q, r


def oracle_gcd(a, b):
    """Monic gcd by Euclid over oracle_divmod, with no constant short cut."""
    while not b.is_zero:
        a, b = b, oracle_divmod(a, b)[1]
    return a.monic()


# -- the Fraction-tuple kernel, the oracle of the fraction-free one --
#
# Polynomials as tuples of Fractions, ascending, no trailing zeros: the
# representation and arithmetic the package used before it stored integer
# numerators over one denominator.


def _trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def frac_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def frac_neg(a):
    return tuple(-c for c in a)


def frac_scale(a, x):
    return _trim([c * x for c in a])


def frac_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        for j, cj in enumerate(b):
            out[i + j] += ci * cj
    return _trim(out)


def frac_divmod(a, b):
    """Long division in place on one list of Fractions."""
    r, d, lc = list(a), len(b) - 1, b[-1]
    q = [Fraction(0)] * max(len(r) - d, 0)
    for shift in range(len(q) - 1, -1, -1):
        coef = q[shift] = r[shift + d] / lc
        if coef:
            for j in range(d):
                r[shift + j] -= coef * b[j]
    return _trim(q), _trim(r[:d])


def frac_monic(a):
    return frac_scale(a, 1 / a[-1]) if a else a


def frac_gcd(a, b):
    """Monic gcd by Euclid over frac_divmod, with no constant short cut."""
    while b:
        a, b = b, frac_divmod(a, b)[1]
    return frac_monic(a)


def frac_derivative(a):
    return _trim([i * c for i, c in enumerate(a)][1:])


def frac_horner(a, x):
    acc = 0.0
    for c in reversed([float(c) for c in a]):
        acc = acc * x + c
    return acc


_polys = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=6
).map(Polynomial)
_nonzero_polys = _polys.filter(bool)


def _random_poly(rng, max_deg=5, span=6):
    coeffs = [
        Fraction(rng.randint(-span, span), rng.randint(1, 4))
        for _ in range(rng.randint(0, max_deg) + 1)
    ]
    return Polynomial(tuple(coeffs))


def test_zero_polynomial_canonical():
    assert Polynomial(()).is_zero
    assert Polynomial((0, 0, 0)).is_zero
    assert Polynomial((0, 0, 0)).degree == -1
    assert Polynomial((1, 0, 0)) == Polynomial((1,))


def test_degree_of_product_adds():
    rng = random.Random(11)
    for _ in range(50):
        p, q = _random_poly(rng), _random_poly(rng)
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
        else:
            assert (p * q).degree == p.degree + q.degree


def test_binomial_power():
    t = Polynomial.variable()
    p = (t + 1) ** 5
    assert p.coeffs == (1, 5, 10, 10, 5, 1)


def test_divmod_reconstructs():
    rng = random.Random(5)
    for _ in range(60):
        a = _random_poly(rng, max_deg=7)
        b = _random_poly(rng, max_deg=4)
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_gcd_monic_common_factor():
    t = Polynomial.variable()
    g = Polynomial.gcd(2 * ((t - 1) * (t + 2)), 3 * ((t - 1) * (t + 3)))
    assert g == t - 1
    assert Polynomial.gcd(t + 1, t + 2) == Polynomial((1,))


@settings(max_examples=100, deadline=None)
@given(_polys, _nonzero_polys)
def test_divmod_property(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    assert (q, r) == oracle_divmod(a, b)


@settings(max_examples=100, deadline=None)
@given(_polys, _polys, _polys)
def test_gcd_matches_euclid_oracle(p, q, h):
    a, b = p * h, q * h
    assert a.gcd(b) == oracle_gcd(a, b)
    zero = Polynomial()
    assert zero.gcd(zero).is_zero
    assert p.gcd(zero) == p.monic() == oracle_gcd(p, zero)
    for c in (Fraction(-3, 2), Fraction(1)):
        assert Polynomial((c,)).gcd(p) == 1 == p.gcd(Polynomial((c,)))


@settings(max_examples=100, deadline=None)
@given(_polys, _nonzero_polys, _nonzero_polys)
def test_rational_canonical_form_property(n, d, h):
    r = RationalFunction(n * h, d * h)
    assert r == RationalFunction(n, d)
    assert r.den.coeffs[-1] == 1
    assert oracle_gcd(r.num, r.den) == 1


_wide_polys = st.lists(
    st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**6), max_size=6
).map(Polynomial)
_any_polys = st.one_of(_polys, _wide_polys)
_scalars = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)
# divisors whose leading coefficient is negative, and negative constants
_divisors = st.one_of(
    _any_polys.filter(bool),
    _any_polys.filter(bool).map(lambda p: -p),
    st.fractions(min_value=-9, max_value=-1, max_denominator=7).map(
        lambda c: Polynomial((c,))),
)


@settings(max_examples=200, deadline=None)
@given(_any_polys, _any_polys, _scalars)
def test_ring_operations_match_fraction_oracle(p, q, x):
    a, b = p.coeffs, q.coeffs
    assert (p + q).coeffs == frac_add(a, b)
    assert (p - q).coeffs == frac_add(a, frac_neg(b))
    assert (-p).coeffs == frac_neg(a)
    assert (p * q).coeffs == frac_mul(a, b)
    assert (p * x).coeffs == (x * p).coeffs == frac_scale(a, Fraction(x))
    assert (p + x).coeffs == frac_add(a, (Fraction(x),) if x else ())
    assert p.derivative().coeffs == frac_derivative(a)
    assert p.monic().coeffs == frac_monic(a)


@settings(max_examples=200, deadline=None)
@given(_any_polys, _divisors)
@example(Polynomial((1, 2, 3)), Polynomial((Fraction(-2, 3),)))
@example(Polynomial((5, Fraction(1, 2), -7, 4)), Polynomial((1, Fraction(-3, 2))))
@example(Polynomial((0, 0, 0, 1)), Polynomial((2, 0, -6)))
def test_divmod_matches_fraction_oracle(a, b):
    q, r = divmod(a, b)
    assert (q.coeffs, r.coeffs) == frac_divmod(a.coeffs, b.coeffs)
    assert (a // b, a % b) == (q, r)


@settings(max_examples=200, deadline=None)
@given(_any_polys, _any_polys, _any_polys, st.booleans())
@example(Polynomial((1, 1)), Polynomial((-1, 1)), Polynomial((Fraction(2, 3), -6)), True)
def test_gcd_matches_fraction_oracle(p, q, h, negate):
    a, b = p * h, q * h
    if negate:
        b = -b
    g = a.gcd(b)
    assert g == b.gcd(a)
    assert g.coeffs == frac_gcd(a.coeffs, b.coeffs)


@settings(max_examples=200, deadline=None)
@given(_any_polys, _any_polys, st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=8))
def test_kernel_invariants(p, q, xs):
    # one value, one representation: equal coeffs and equal hashes
    for x, y in ((p * q, q * p), ((p + q) - q, p), (Polynomial(p.coeffs), p),
                 (Polynomial([str(c) for c in p.coeffs]), p)):
        assert x == y and x.coeffs == y.coeffs and hash(x) == hash(y)
    assert all(type(c) is Fraction for c in (p * q).coeffs + p.coeffs)
    # float Horner with numerator / denominator is bitwise float(Fraction)
    arr = np.array(xs)
    for poly in (p, p * q):
        assert np.asarray(poly(arr)).tobytes() == np.asarray(frac_horner(poly.coeffs, arr)).tobytes()
        for x in xs:
            got, want = poly(x), frac_horner(poly.coeffs, x)
            assert type(got) is float and got.hex() == want.hex()
    # exact evaluation agrees with the Fractions
    for x in (3, Fraction(-5, 7)):
        assert p(x) == sum(c * Fraction(x) ** i for i, c in enumerate(p.coeffs))
        assert type(p(x)) is Fraction


def test_constant_denominators_and_products_skip_gcd(monkeypatch):
    calls = []
    real_gcd = Polynomial.gcd

    def counting_gcd(self, other):
        calls.append((self, other))
        return real_gcd(self, other)

    monkeypatch.setattr(Polynomial, "gcd", counting_gcd)
    t = Polynomial.variable()
    p, q = 3 * t * t - 1, t + Fraction(1, 2)
    assert (p * q).degree == 3 and (p * Fraction(2, 3)).degree == 2
    RationalFunction(p, Polynomial((4,)))
    RationalFunction(p, Fraction(-5, 2))
    RationalFunction.constant(7) * RationalFunction(q)
    assert calls == []
    RationalFunction(p, q)
    assert len(calls) == 1


def _canonical_parts(r):
    return r.num._num, r.num._den, r.den._num, r.den._den


@settings(max_examples=150, deadline=None)
@given(_polys, _nonzero_polys, st.integers(0, 2), _polys, _nonzero_polys, _nonzero_polys,
       st.integers(-5, 5), st.fractions(min_value=-9, max_value=9, max_denominator=5))
@example(Polynomial((1,)), Polynomial((0, 1)), 1, Polynomial((-1,)), Polynomial((0, 1)),
         Polynomial((1, 1)), 0, Fraction(0))  # x + (-x) = 0 over equal denominators
@example(Polynomial((0, 1)), Polynomial((0, 0, 1)), 0, Polynomial((1,)),
         Polynomial((0, 0, 1)), Polynomial((0, 1)), 1, Fraction(1))  # t/t^2 + 1/t^3
@example(Polynomial((1,)), Polynomial((1, 1)), 1, Polynomial((1,)), Polynomial((-1, 1)),
         Polynomial((0, 1)), 2, Fraction(1, 2))  # 1/(t(t+1)) + 1/(t(t-1)) = 2/(t^2 - 1)
@example(Polynomial((3,)), Polynomial((2,)), 0, Polynomial((Fraction(-1, 2),)),
         Polynomial((5,)), Polynomial((1,)), 7, Fraction(-2, 3))  # constant operands
def test_operators_match_the_reducing_constructor(n1, d1, j, n2, d2, h, k, f):
    # x = n1/(d1 h^j) and y = n2/(d2 h) share the factor h, repeated for
    # j = 2; each operator's result, and the derivative's, must have the
    # representation the reducing constructor gives the unreduced result
    x, y = RationalFunction(n1, d1 * h ** j), RationalFunction(n2, d2 * h)
    a, b, c, d = x.num, x.den, y.num, y.den
    cases = [
        (x + y, RationalFunction(a * d + c * b, b * d)),
        (x - y, RationalFunction(a * d - c * b, b * d)),
        (x * y, RationalFunction(a * c, b * d)),
        (-x, RationalFunction(-a, b)),
        (x ** 3, RationalFunction(a ** 3, b ** 3)),
        (derivative_rf(x), RationalFunction(a.derivative() * b - a * b.derivative(), b * b)),
    ]
    if not y.is_zero:
        cases.append((x / y, RationalFunction(a * d, b * c)))
    for s in (k, f):
        cases.append((x * s, RationalFunction(a * s, b)))
        cases.append((s * x, RationalFunction(a * s, b)))
        cases.append((x + s, RationalFunction(a + s * b, b)))
        cases.append((s - x, RationalFunction(s * b - a, b)))
    for got, want in cases:
        assert _canonical_parts(got) == _canonical_parts(want)


def test_negation_powers_and_coprime_sums_pay_no_extra_gcd(monkeypatch):
    t = Polynomial.variable()
    x = RationalFunction(t * t - 3, (t - 1) * (t + 2))
    y = RationalFunction(2 * t + 1, t * t + 5)
    calls = []
    real_gcd = Polynomial.gcd

    def counting_gcd(self, other):
        calls.append((self, other))
        return real_gcd(self, other)

    monkeypatch.setattr(Polynomial, "gcd", counting_gcd)
    -x
    x ** 2
    assert calls == []
    x + y
    assert calls == [(x.den, y.den)]


def test_bool_is_not_a_coefficient_operand():
    # == against a bool is False, as against a float; arithmetic refuses it
    t, r = Polynomial.variable(), RationalFunction.variable()
    one, rone = Polynomial((1,)), RationalFunction.constant(1)
    for x in (t, r, one, rone):
        assert (x == True) is False and (x == False) is False  # noqa: E712
        assert (x != True) is True  # noqa: E712
        for op in (lambda: x + True, lambda: True + x, lambda: x - False,
                   lambda: x * True, lambda: True * x):
            with pytest.raises(TypeError, match="unsupported operand"):
                op()
    with pytest.raises(TypeError, match="unsupported operand"):
        r / True


def test_equal_values_hash_equal():
    three = [
        3, Fraction(3), Polynomial((3,)), RationalFunction.constant(3),
        RationalFunction(Polynomial((6,)), Polynomial((2,))),
    ]
    half = [Fraction(1, 2), Polynomial((Fraction(1, 2),)), RationalFunction(1, 2)]
    zero = [0, Fraction(0), Polynomial(), RationalFunction(Polynomial())]
    for forms in (three, half, zero):
        for x in forms:
            assert all(x == y and hash(x) == hash(y) for y in forms)
        assert len(set(forms)) == 1
    t = Polynomial.variable()
    p = t * t - 1
    r = RationalFunction(p * (t + 2), t + 2)
    assert p == r and r == p and hash(p) == hash(r)
    assert len({p, r}) == 1


def test_derivative_product_rule():
    rng = random.Random(7)
    for _ in range(40):
        f, g = _random_poly(rng), _random_poly(rng)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_constant_and_square_derivatives():
    t = Polynomial.variable()
    assert Polynomial((5,)).derivative().is_zero
    assert (t * t).derivative() == 2 * t


def test_evaluation_stays_exact():
    t = Polynomial.variable()
    p = 3 * t ** 2 - 1
    v = p(Fraction(1, 3))
    assert isinstance(v, Fraction)
    assert v == Fraction(-2, 3)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Polynomial((0.5,))


def test_rational_cancellation():
    t = RationalFunction.variable()
    r = (t * t - 1) / (t + 1)
    assert r.is_polynomial
    assert r == t - 1


def test_denominator_monic():
    t = RationalFunction.variable()
    r = RationalFunction(Polynomial((1,)), Polynomial((2, 2)))  # 1 / (2t + 2)
    assert r.den.coeffs[-1] == 1
    assert r == RationalFunction(Polynomial((Fraction(1, 2),)), Polynomial((1, 1)))


def test_additive_and_multiplicative_inverses():
    t = RationalFunction.variable()
    r = t / (t - 1)
    assert (r - r).is_zero
    assert ((1 / t) * t) == RationalFunction.constant(1)


def test_field_identities_random():
    rng = random.Random(31)
    for _ in range(40):
        nums = [_random_poly(rng, max_deg=3) for _ in range(4)]
        dens = []
        for _ in range(4):
            d = _random_poly(rng, max_deg=2)
            dens.append(d if not d.is_zero else Polynomial((1,)))
        x = RationalFunction(nums[0], dens[0])
        y = RationalFunction(nums[1], dens[1])
        z = RationalFunction(nums[2], dens[2])
        assert (x + y) - y == x
        assert x * (y + z) == x * y + x * z
        if not y.is_zero:
            assert (x * y) / y == x


def test_cross_multiplication_equality():
    t = RationalFunction.variable()
    a = (t + 2) / (t * t)
    b = (t * t + 2 * t) / (t ** 3)
    assert a == b
    assert a.num * b.den == b.num * a.den


def test_negative_power_inverts():
    t = RationalFunction.variable()
    r = t / (t + 1)
    assert r ** -2 == ((t + 1) / t) ** 2


def test_quotient_rule_derivative():
    t = RationalFunction.variable()
    assert derivative_rf(1 / t) == -1 / (t * t)
    rng = random.Random(13)
    for _ in range(25):
        n, d = _random_poly(rng, 3), _random_poly(rng, 3)
        if d.is_zero:
            continue
        r = RationalFunction(n, d)
        expect = RationalFunction(
            n.derivative() * d - n * d.derivative(), d * d
        )
        assert derivative_rf(r) == expect


def test_evaluation_and_pole():
    t = RationalFunction.variable()
    r = (t * t) / (t - 1)
    assert r(Fraction(2)) == 4
    assert r(2.0) == 4.0
    with pytest.raises(PoleError):
        (1 / t)(0)
    # arrays are checked elementwise and the message names the first pole
    xs = np.array([[0.5, 1.0], [3.0, 1.0]])
    with pytest.raises(PoleError, match=r"x=1\.0$"):
        r(xs)
    with pytest.raises(PoleError, match=r"x=0\.0$"):
        (1 / t)(0.0)
    xs = np.array([0.5, 3.0])
    assert r(xs).tobytes() == (r.num(xs) / r.den(xs)).tobytes()


def test_parse_render_roundtrip():
    rng = random.Random(3)
    for _ in range(30):
        n, d = _random_poly(rng, 4), _random_poly(rng, 3)
        if d.is_zero:
            d = Polynomial((1,))
        r = RationalFunction(n, d)
        assert parse_rational(r.render()) == r


def test_parse_forms():
    t = RationalFunction.variable()
    assert parse_rational("(3*t^2 - 1)/(t - 2)") == (3 * t ** 2 - 1) / (t - 2)
    assert parse_rational("t**2") == t * t
    assert parse_rational("1/2", var="t") == RationalFunction.constant(Fraction(1, 2))
    assert parse_rational("(x+1)*(x-1)", var="x") == t * t - 1


def test_parse_rejects_floats_and_unknown_names():
    with pytest.raises(RationalParseError):
        parse_rational("1.5*t")
    with pytest.raises(RationalParseError):
        parse_rational("y + 1", var="t")
    with pytest.raises(RationalParseError):
        parse_rational("t ** t")


def test_immutability():
    p = Polynomial((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
