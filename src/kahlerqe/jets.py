"""Second-order forward-mode differentiation on a batch of points.

A Jet carries, at each of B points, a value together with its gradient and
Hessian with respect to a fixed set of n chart coordinates, i.e. a
truncated second-order Taylor expansion: ``val`` has shape (B,), ``grad``
(n, B) and ``hess`` (n, n, B).  One point is the batch B = 1.  Arithmetic
propagates all three levels exactly (product and chain rules), so metric
components written with these operations yield machine-precision first and
second derivatives -- no finite differencing.  This is vector forward mode
(Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 3
and 13): one evaluation of a component carries every point of the batch.

The point axis is the last axis of every array, so a per-point scalar
broadcasts against a gradient or Hessian as it is, and numpy's inner loop
runs over the contiguous batch, not over a tensor axis of length n.  Every
operation is elementwise along the point axis, so the jet of a point does
not depend on the batch it is evaluated in, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


_CONSTANT = (int, float, np.ndarray)


class Jet:
    """Values, gradients and Hessians of a scalar at a batch of points."""

    __slots__ = ("val", "grad", "hess")
    # numpy scalars and arrays on the left defer to the reflected operators
    __array_ufunc__ = None

    def __init__(self, val, grad, hess):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @classmethod
    def seed(cls, coords):
        """Independent-variable jets for coordinates of shape (n, B), or (n,)
        for one point (B = 1)."""
        coords = np.asarray(coords, dtype=float).reshape(len(coords), -1)
        n, B = coords.shape
        eye = np.eye(n)[:, :, None]
        zero = np.zeros((n, n, B))
        return [cls(coords[i], np.broadcast_to(eye[i], (n, B)), zero) for i in range(n)]

    # -- arithmetic ------------------------------------------------------
    # A float operand, or an array (B,) of one float per point, is a
    # constant: it scales or shifts the value only, elementwise.

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        if isinstance(other, _CONSTANT):
            return Jet(self.val + other, self.grad, self.hess)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.grad - other.grad, self.hess - other.hess)
        if isinstance(other, _CONSTANT):
            return Jet(self.val - other, self.grad, self.hess)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            cross = self.grad[:, None] * other.grad[None, :]
            return Jet(
                self.val * other.val,
                self.grad * other.val + other.grad * self.val,
                self.hess * other.val + other.hess * self.val + cross + cross.transpose(1, 0, 2),
            )
        if isinstance(other, _CONSTANT):
            return Jet(self.val * other, self.grad * other, self.hess * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if isinstance(other, _CONSTANT):
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _CONSTANT):
            return self._reciprocal() * other
        return NotImplemented

    def _reciprocal(self):
        v = self.val
        return self.compose(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))

    def compose(self, f0, f1, f2):
        """Chain rule: apply a scalar function given arrays (f, f', f'') at self.val."""
        g = self.grad
        gg = g[:, None] * g[None, :]
        return Jet(f0, f1 * g, f1 * self.hess + f2 * gg)

    def __repr__(self):
        return f"Jet({self.val!r})"


def log_(x):
    """log of a jet, or of a float through ``math.log``."""
    if isinstance(x, float):
        return math.log(x)
    v = x.val
    if np.any(v <= 0.0):
        raise ValueError("log of a nonpositive jet value")
    return x.compose(np.log(v), 1.0 / v, -1.0 / (v * v))
