"""Exact univariate polynomial and rational-function arithmetic over Q.

Polynomials are stored as tuples of ``fractions.Fraction`` coefficients in
ascending degree order with no trailing zeros; the zero polynomial is the
empty tuple.  Rational functions are kept in canonical form: numerator and
denominator coprime, denominator monic.  Two rational functions are equal
iff their canonical representations coincide, so ``==`` is exact equality
of functions.

Coefficients must be exact (int, Fraction, or a string Fraction() accepts);
floats are rejected to preserve exactness end to end.  Only the public
constructor checks them; arithmetic builds results from its own Fractions.
Long division works in place on one coefficient list.  A gcd against a
nonzero constant is 1 at once, so over a constant denominator scaling to a
monic one alone reaches the same canonical form.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a denominator root."""


def _coeff(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a valid coefficient")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(
        f"exact coefficient required (int, Fraction, or string), got {type(x).__name__}"
    )


def _poly(cs):
    """A Polynomial on the list of Fractions ``cs``, trailing zeros stripped."""
    while cs and not cs[-1]:
        cs.pop()
    p = object.__new__(Polynomial)
    object.__setattr__(p, "coeffs", tuple(cs))
    return p


class Polynomial:
    """Univariate polynomial over Q, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def variable(cls):
        return cls((0, 1))

    @classmethod
    def constant(cls, value):
        return cls((value,))

    @property
    def degree(self):
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        # a constant hashes like its value: equal numbers hash equal
        return hash(self.coeffs if self.degree > 0 else sum(self.coeffs))

    def __bool__(self):
        return not self.is_zero

    def __neg__(self):
        return _poly([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _poly([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return _poly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return _poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power wants a nonnegative integer")
        out = Polynomial((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        """(q, r) with self = q*other + r and deg r < deg other.

        Long division in place on one coefficient list: each quotient term
        costs one division and deg(other) multiply-subtracts.
        """
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        r, b = list(self.coeffs), other.coeffs
        d, lc = len(b) - 1, b[-1]
        q = [Fraction(0)] * max(len(r) - d, 0)
        for shift in range(len(q) - 1, -1, -1):
            coef = q[shift] = r[shift + d] / lc
            if coef:
                for j in range(d):
                    r[shift + j] -= coef * b[j]
        return _poly(q), _poly(r[:d])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero:
            return self
        return self * (1 / self.leading)

    def gcd(self, other):
        """Monic greatest common divisor (Euclid); gcd(0, 0) = 0.

        A nonzero constant operand makes it 1 at once, with no division.
        """
        if self.degree == 0 or other.degree == 0:
            return _poly([Fraction(1)])
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def derivative(self):
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __call__(self, x):
        # Horner; exact for int or Fraction input, else in floats (elementwise
        # for an array), with the float of each coefficient.
        if isinstance(x, (int, Fraction)):
            acc, coeffs = Fraction(0), self.coeffs
        else:
            acc, coeffs = 0.0, [float(c) for c in self.coeffs]
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def render(self, var="t"):
        if self.is_zero:
            return "0"
        parts = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            if d == 0:
                body = str(abs(c))
            else:
                tp = var if d == 1 else f"{var}^{d}"
                body = tp if abs(c) == 1 else f"{abs(c)}*{tp}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self):
        return f"Polynomial({self.render()!r})"


class RationalFunction:
    """Quotient of polynomials in canonical (coprime, monic-denominator) form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Polynomial):
            num = Polynomial((num,)) if not isinstance(num, (list, tuple)) else Polynomial(num)
        if den is None:
            den = Polynomial((1,))
        elif not isinstance(den, Polynomial):
            den = Polynomial((den,)) if not isinstance(den, (list, tuple)) else Polynomial(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = Polynomial(), Polynomial((1,))
        else:
            if den.degree > 0 and (g := num.gcd(den)).degree > 0:
                num, den = num // g, den // g
            lc = den.leading
            if lc != 1:
                num, den = num * (1 / lc), den * (1 / lc)
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
        return hash(self.num if self.is_polynomial else (self.num.coeffs, self.den.coeffs))

    def __bool__(self):
        return not self.is_zero

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __add__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("rational-function power wants an integer")
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def derivative(self):
        n, d = self.num, self.den
        return RationalFunction(
            n.derivative() * d - n * d.derivative(), d * d
        )

    def __call__(self, x):
        dv = self.den(x)
        pole = np.ravel(dv == 0)
        if pole.any():
            raise PoleError(f"evaluation at pole x={np.ravel(x)[pole.argmax()]}")
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
    if isinstance(x, Polynomial):
        return RationalFunction(x)
    if isinstance(x, (int, Fraction)):
        return RationalFunction(Polynomial((x,)))
    return NotImplemented

