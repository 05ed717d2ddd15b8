"""Second-order forward-mode differentiation scalars.

A Jet carries a value together with its gradient and Hessian with respect
to a fixed set of n chart coordinates, i.e. a truncated second-order Taylor
expansion.  Arithmetic propagates all three levels exactly (product and
chain rules), so metric components written with these operations yield
machine-precision first and second derivatives -- no finite differencing.

The helper functions (exp_, log_, sqrt_, ...) accept plain floats as well,
so the same component code can be evaluated value-only.
"""

from __future__ import annotations

import math

import numpy as np


class Jet:
    """Value, gradient and Hessian of a scalar at a point."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val = float(val)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @property
    def nvars(self):
        return self.grad.shape[0]

    @classmethod
    def constant(cls, value, nvars):
        return cls(value, np.zeros(nvars), np.zeros((nvars, nvars)))

    @classmethod
    def seed(cls, coords):
        """Independent-variable jets for a coordinate tuple."""
        coords = np.asarray(coords, dtype=float)
        n = coords.shape[0]
        eye = np.eye(n)
        zero = np.zeros((n, n))
        return [cls(coords[i], eye[i], zero) for i in range(n)]

    # -- arithmetic ------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Jet):
            return other
        if isinstance(other, (int, float)):
            return Jet.constant(other, self.nvars)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Jet(self.val + o.val, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Jet(self.val - o.val, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        cross = np.outer(self.grad, o.grad)
        return Jet(
            self.val * o.val,
            self.grad * o.val + o.grad * self.val,
            self.hess * o.val + o.hess * self.val + cross + cross.T,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self._reciprocal()

    def _reciprocal(self):
        v = self.val
        return self.compose(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))

    def __pow__(self, e):
        if isinstance(e, int):
            v = self.val
            if e == 0:
                return Jet.constant(1.0, self.nvars)
            d1 = e * v ** (e - 1)
            d2 = e * (e - 1) * v ** (e - 2) if e != 1 else 0.0
            return self.compose(v**e, d1, d2)
        if isinstance(e, float):
            v = self.val
            if v <= 0.0:
                raise ValueError("fractional power of a nonpositive jet value")
            return self.compose(v**e, e * v ** (e - 1.0), e * (e - 1.0) * v ** (e - 2.0))
        return NotImplemented

    def compose(self, f0, f1, f2):
        """Chain rule: apply a scalar function given (f, f', f'') at self.val."""
        gg = np.outer(self.grad, self.grad)
        return Jet(f0, f1 * self.grad, f1 * self.hess + f2 * gg)

    def __repr__(self):
        return f"Jet({self.val!r})"


def value(x):
    """Plain float value of a float or Jet."""
    return x.val if isinstance(x, Jet) else float(x)


def exp_(x):
    if isinstance(x, Jet):
        e = math.exp(x.val)
        return x.compose(e, e, e)
    return math.exp(x)


def log_(x):
    if isinstance(x, Jet):
        v = x.val
        if v <= 0.0:
            raise ValueError("log of a nonpositive jet value")
        return x.compose(math.log(v), 1.0 / v, -1.0 / (v * v))
    return math.log(x)


def sqrt_(x):
    if isinstance(x, Jet):
        v = x.val
        if v <= 0.0:
            raise ValueError("sqrt of a nonpositive jet value")
        r = math.sqrt(v)
        return x.compose(r, 0.5 / r, -0.25 / (r * v))
    return math.sqrt(x)


def sin_(x):
    if isinstance(x, Jet):
        s, c = math.sin(x.val), math.cos(x.val)
        return x.compose(s, c, -s)
    return math.sin(x)


def cos_(x):
    if isinstance(x, Jet):
        s, c = math.sin(x.val), math.cos(x.val)
        return x.compose(c, -s, -c)
    return math.cos(x)


class CJet:
    """Complex scalar whose real and imaginary parts are floats or Jets.

    Only the small algebra needed for Hermitian metric components is
    provided: +, -, *, conjugation and multiplication by i.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __add__(self, other):
        return CJet(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return CJet(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, CJet):
            return CJet(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return CJet(self.re * other, self.im * other)

    __rmul__ = __mul__

    def conj(self):
        return CJet(self.re, -1.0 * self.im)

    def times_i(self):
        return CJet(-1.0 * self.im, self.re)
