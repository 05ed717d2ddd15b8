"""Exact univariate polynomial and rational-function arithmetic over Q.

A polynomial is stored fraction-free: a tuple of Python ``int`` numerators in
ascending degree order, with no trailing zeros, over one positive ``int``
denominator, in lowest terms (the gcd of the numerators' content and the
denominator is 1).  The zero polynomial is the empty tuple over 1.  That
form is canonical, so ``==`` and ``hash`` are exact equality; ``.coeffs``
gives the coefficients as ``fractions.Fraction`` on demand.
``from_ints(nums, den)`` builds that form from int numerators over one int
denominator, reduced to lowest terms.  ``Polynomial(coeffs)`` and every
operator go through it, and the exact ODE layer forms its system members
with it in integer arithmetic.

Sums, products and derivatives run on ints and pay one content gcd per
result.  Division is pseudo-division in place on one integer list, scaled
only by the factor each step needs and rescaled once at the end; ``gcd`` is
Euclid on primitive integer parts (Geddes, Czapor & Labahn, *Algorithms for
Computer Algebra*, 1992, ch. 2 and 7; Knuth, *TAOCP* vol. 2, §4.6.1).  A gcd
against a nonzero constant is 1 at once.  Rational functions are kept in
canonical form: numerator and denominator coprime, denominator monic.  Two
rational functions are equal iff their canonical representations coincide.

The public ``RationalFunction`` constructor reduces by a full gcd of
numerator and denominator.  The operators instead build their results
canonical from canonical operands, with gcds of the parts only (Henrici's
method: Knuth, *TAOCP* vol. 2, §4.5.1; P. Henrici, "A subroutine for
computations with rational numbers", *J. ACM* 3 (1956) 6-9).  A sum a/b + c/d
pays gcd(b, d), 1 at once for a constant b or d, and a second gcd against it
only when it is not 1; a product pays gcd(a, d) and gcd(c, b), each skipped
when one of its operands is constant; division multiplies by the inverse,
which is coprime already and only made monic.  Negation, powers, and int or
Fraction operands run no Euclid at all.  There is no rational-function
derivative: the package differentiates polynomials only.

Coefficients must be exact (int, Fraction, or a string Fraction() accepts);
floats and bools are rejected to preserve exactness end to end.  Only the
``Polynomial`` constructor checks them, with ``as_fraction``, the one
exactness rule that parameters and configuration values go through too;
``from_ints`` trusts its caller to pass ints (a float numerator fails in
its gcd).  Float evaluation uses each coefficient's numerator /
denominator, which equals ``float`` of its Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a denominator root."""


class ExactParameterError(TypeError):
    """A value that feeds exact arithmetic was not an exact rational."""


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


def from_ints(nums, den):
    """The Polynomial with coefficients nums[i]/den, ascending, in lowest terms.

    ``nums`` is a list of ints, which this may modify; ``den`` a nonzero
    int.  Every polynomial is made here: callers that know their
    coefficients over one denominator build it without Fraction arithmetic.
    """
    if not den:
        raise ZeroDivisionError("polynomial with denominator 0")
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _ZERO
    if den < 0:
        nums, den = [-n for n in nums], -den
    g = gcd(den, *nums)
    if g != 1:
        nums, den = [n // g for n in nums], den // g
    p = object.__new__(Polynomial)
    object.__setattr__(p, "_num", tuple(nums))
    object.__setattr__(p, "_den", den)
    return p


def _as_poly(x):
    """``x`` as a Polynomial if it is one, an int or a Fraction; else
    NotImplemented (a bool too, as for a float)."""
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return from_ints([x.numerator], x.denominator)
    return NotImplemented


def _pdiv(r, b, q):
    """Pseudo-divide the ints ``r`` by ``b`` in place; return the scale s.

    ``b`` is a tuple of ints with len(b) <= len(r) and a positive leading
    coefficient lc, so that every scale factor is positive too.  Afterwards
    s*R = Q*B + r[:len(b) - 1], where R was ``r`` on entry and Q the list
    ``q`` (len(r) - len(b) + 1 zeros on entry, or None when only the
    remainder is wanted).  A step whose leading term ``top`` lc does not
    divide first multiplies everything by lc / gcd(top, lc).
    """
    d, lc, s = len(b) - 1, b[-1], 1
    for shift in range(len(r) - 1 - d, -1, -1):
        top = r[shift + d]
        if not top:
            continue
        g = gcd(top, lc)
        if g != lc:
            f = lc // g
            s *= f
            for i in range(shift + d):
                r[i] *= f
            if q is not None:
                for i in range(shift + 1, len(q)):
                    q[i] *= f
        coef = top // g
        if q is not None:
            q[shift] = coef
        for j in range(d):
            r[shift + j] -= coef * b[j]
    return s


def _primitive(nums):
    """The primitive part of nonzero ints ``nums``: content 1, leading > 0."""
    g = gcd(*nums)
    if nums[-1] < 0:
        g = -g
    return [n // g for n in nums] if g != 1 else list(nums)


class Polynomial:
    """Univariate polynomial over Q: int numerators, ascending, over one int."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=()):
        cs = [as_fraction(c, "coefficient") for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs]
        p = from_ints(nums, den)
        object.__setattr__(self, "_num", p._num)
        object.__setattr__(self, "_den", p._den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def variable(cls):
        return cls((0, 1))

    @property
    def coeffs(self):
        """The coefficients, ascending, as Fractions."""
        den = self._den
        return tuple(Fraction(n, den) for n in self._num)

    @property
    def degree(self):
        """Degree, with the convention deg 0 = -1."""
        return len(self._num) - 1

    @property
    def is_zero(self):
        return not self._num

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # a constant hashes like its value: equal numbers hash equal
        if self.degree > 0:
            return hash((self._num, self._den))
        return hash(Fraction(self._num[0], self._den) if self._num else 0)

    def __bool__(self):
        return not self.is_zero

    def __neg__(self):
        return from_ints([-n for n in self._num], self._den)

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, da, db = self._num, other._num, self._den, other._den
        if da != db:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            a, b, da = [n * fa for n in a], [n * fb for n in b], da * fa
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, n in enumerate(b):
            out[i] += n
        return from_ints(out, da)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, int) and not isinstance(other, bool):
                return from_ints([n * other for n in self._num], self._den)
            if isinstance(other, Fraction):
                num = other.numerator
                return from_ints([n * num for n in self._num], self._den * other.denominator)
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return _ZERO
        # a factor 1 (its one numerator equal to its denominator) leaves the other
        if len(a) == 1 and a[0] == self._den:
            return other
        if len(b) == 1 and b[0] == other._den:
            return self
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return from_ints(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power wants a nonnegative integer")
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        """(q, r) with self = q*other + r and deg r < deg other.

        Pseudo-division in place on the integer numerators (``_pdiv``), then
        one rescale of the quotient and one of the remainder.
        """
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        b, db = other._num, other._den
        if b[-1] < 0:
            # the same divisor as (-b)/(-db), with a positive leading term
            b, db = tuple(-n for n in b), -db
        r, d = list(self._num), len(b) - 1
        if len(r) <= d:
            return _ZERO, self
        q = [0] * (len(r) - d)
        # s*A = Q*B + R, so A/da = (Q*db / (s*da)) * (B/db) + R / (s*da)
        sd = _pdiv(r, b, q) * self._den
        return from_ints([n * db for n in q], sd), from_ints(r[:d], sd)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero:
            return self
        return from_ints(list(self._num), self._num[-1])

    def gcd(self, other):
        """Monic greatest common divisor (Euclid); gcd(0, 0) = 0.

        Euclid runs on primitive integer parts, each remainder a
        pseudo-remainder made primitive.  A nonzero constant operand, or a
        nonzero constant remainder, makes it 1 at once.
        """
        if self.degree == 0 or other.degree == 0:
            return _ONE
        if other.is_zero:
            return self.monic()
        if self.is_zero:
            return other.monic()
        a, b = _primitive(self._num), _primitive(other._num)
        if len(a) < len(b):
            a, b = b, a
        while True:
            d = len(b) - 1
            _pdiv(a, b, None)
            r = a[:d]
            while r and not r[-1]:
                r.pop()
            if not r:
                return from_ints(b, b[-1])
            if len(r) == 1:
                return _ONE
            a, b = b, _primitive(r)

    def derivative(self):
        return from_ints([i * n for i, n in enumerate(self._num)][1:], self._den)

    def __call__(self, x):
        # Horner; exact for int or Fraction input, else in floats (elementwise
        # for an array), with the float of each coefficient.
        nums, den = self._num, self._den
        if isinstance(x, int):
            acc = 0
            for n in reversed(nums):
                acc = acc * x + n
            return Fraction(acc, den)
        if isinstance(x, Fraction):
            p, q = x.numerator, x.denominator
            acc, scale = 0, 1
            for n in reversed(nums):
                acc, scale = acc * p + n * scale, scale * q
            return Fraction(acc * q, den * scale)
        acc = 0.0
        for c in [n / den for n in reversed(nums)]:
            acc = acc * x + c
        return acc

    def render(self, var="t"):
        # each |coefficient| n/den in lowest terms, printed as Fraction prints it
        if self.is_zero:
            return "0"
        den = self._den
        parts = []
        for d in range(self.degree, -1, -1):
            n = self._num[d]
            if not n:
                continue
            a = abs(n)
            g = gcd(a, den)
            a, q = a // g, den // g
            c = str(a) if q == 1 else f"{a}/{q}"
            if d == 0:
                body = c
            else:
                tp = var if d == 1 else f"{var}^{d}"
                body = tp if a == q == 1 else f"{c}*{tp}"
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if n > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self):
        return f"Polynomial({self.render()!r})"


_ZERO = object.__new__(Polynomial)
object.__setattr__(_ZERO, "_num", ())
object.__setattr__(_ZERO, "_den", 1)
_ONE = from_ints([1], 1)


def _monic_pair(num, den):
    """(num, den) both divided by the leading coefficient of den.

    den = D/dd is monic iff lc(D) == dd; else both are divided by lc(D)/dd.
    """
    lc, dd = den._num[-1], den._den
    if lc == dd:
        return num, den
    return from_ints([n * dd for n in num._num], num._den * lc), from_ints(list(den._num), lc)


def _rf(num, den):
    """The RationalFunction num/den, trusted to be canonical already: num and
    den coprime, den monic.  A zero num gives the canonical 0."""
    r = object.__new__(RationalFunction)
    if not num._num:
        num, den = _ZERO, _ONE
    object.__setattr__(r, "num", num)
    object.__setattr__(r, "den", den)
    return r


class RationalFunction:
    """Quotient of polynomials in canonical (coprime, monic-denominator) form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Polynomial):
            num = Polynomial((num,)) if not isinstance(num, (list, tuple)) else Polynomial(num)
        if den is None:
            den = _ONE
        elif not isinstance(den, Polynomial):
            den = Polynomial((den,)) if not isinstance(den, (list, tuple)) else Polynomial(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = _ZERO, _ONE
        else:
            if den.degree > 0 and (g := num.gcd(den)).degree > 0:
                num, den = num // g, den // g
            num, den = _monic_pair(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def variable(cls):
        return cls(Polynomial.variable())

    @classmethod
    def constant(cls, value):
        return cls(Polynomial((value,)))

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_polynomial(self):
        return self.den.degree == 0

    def __eq__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(self.num if self.is_polynomial else (self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def __neg__(self):
        return _rf(-self.num, self.den)

    def __add__(self, other):
        # a/b + c/d with g = gcd(b, d): t = a(d/g) + c(b/g) is coprime to
        # (b/g)(d/g), so only gcd(t, g) can cancel (Knuth, TAOCP 4.5.1)
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        g = b.gcd(d)
        if g.degree == 0:
            return _rf(a * d + c * b, b * d)
        b, d = b // g, d // g
        t = a * d + c * b
        if t.degree > 0 and (g2 := t.gcd(g)).degree > 0:
            t, g = t // g2, g // g2
        return _rf(t, b * d * g)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # (a/b)(c/d): a is coprime to b and c to d, so only gcd(a, d) and
        # gcd(c, b) can cancel
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a or not c:
            return _rf(_ZERO, _ONE)
        if a.degree > 0 and d.degree > 0 and (g := a.gcd(d)).degree > 0:
            a, d = a // g, d // g
        if c.degree > 0 and b.degree > 0 and (g := c.gcd(b)).degree > 0:
            c, b = c // g, b // g
        return _rf(a * c, b * d)

    __rmul__ = __mul__

    def _inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return _rf(*_monic_pair(self.den, self.num))

    def __truediv__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self._inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("rational-function power wants an integer")
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return self._inverse() ** (-n)
        return _rf(self.num**n, self.den**n)

    def __call__(self, x):
        # an array (or numpy scalar) is checked elementwise, a number as is
        dv = self.den(x)
        pole = dv == 0
        if hasattr(pole, "ravel"):
            pole = pole.ravel()
            if pole.any():
                raise PoleError(f"evaluation at pole x={x.ravel()[pole.argmax()]}")
        elif pole:
            raise PoleError(f"evaluation at pole x={x}")
        return self.num(x) / dv

    def render(self, var="t"):
        if self.is_polynomial:
            return self.num.render(var)
        return f"({self.num.render(var)})/({self.den.render(var)})"

    def __repr__(self):
        return f"RationalFunction({self.render()!r})"


def _as_rational(x):
    if isinstance(x, RationalFunction):
        return x
    x = _as_poly(x)
    return x if x is NotImplemented else _rf(x, _ONE)
