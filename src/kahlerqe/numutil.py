"""Small deterministic numerical helpers for the metric construction.

The warp integral needs a cumulative antiderivative that is smooth to
machine precision in its upper limit (its second derivative feeds curvature
through jet composition), so we integrate on a frozen panel decomposition
with fixed-order Gauss-Legendre rules instead of an adaptive black box:
panels are refined once while building and never change afterwards, making
every evaluation reproducible bit for bit.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ConvergenceError(ArithmeticError):
    """An iteration stopped at its step limit before meeting its tolerance."""


_GL7 = np.polynomial.legendre.leggauss(7)
_GL15 = np.polynomial.legendre.leggauss(15)


def _gl(fn, lo, hi, rule):
    nodes, weights = rule
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half * sum(w * fn(mid + half * x) for x, w in zip(nodes, weights))


@dataclass(frozen=True)
class PanelAntiderivative:
    """F(x) = integral of fn from anchor to x on a frozen panel decomposition."""

    fn: Callable
    edges: tuple
    cumulative: tuple  # integral from edges[0] to each edge
    anchor_value: float

    @classmethod
    def build(cls, fn, lo, hi, anchor, rtol=1e-13, max_depth=40):
        """Panelize [lo, hi] until GL7 and GL15 agree per panel, then freeze.

        Raises ConvergenceError when a panel still disagrees after
        ``max_depth`` halvings.
        """
        if not lo < hi:
            raise ValueError(f"empty integration range [{lo}, {hi}]")
        if not lo <= anchor <= hi:
            raise ValueError(f"anchor {anchor} outside [{lo}, {hi}]")
        panels = []
        stack = [(lo, hi, 0)]
        while stack:
            a, b, depth = stack.pop()
            coarse = _gl(fn, a, b, _GL7)
            fine = _gl(fn, a, b, _GL15)
            scale = abs(fine) + 1e-30
            if abs(fine - coarse) <= rtol * scale:
                panels.append((a, b, fine))
            elif depth >= max_depth:
                raise ConvergenceError(
                    f"panel [{a}, {b}] at depth {depth}: GL7 and GL15 differ by "
                    f"{abs(fine - coarse):.3g}, above rtol {rtol:g}"
                )
            else:
                mid = 0.5 * (a + b)
                stack.append((a, mid, depth + 1))
                stack.append((mid, b, depth + 1))
        panels.sort()
        edges = [panels[0][0]] + [p[1] for p in panels]
        cum = [0.0]
        for _, _, v in panels:
            cum.append(cum[-1] + v)
        out = cls(
            fn=fn, edges=tuple(edges), cumulative=tuple(cum), anchor_value=0.0
        )
        object.__setattr__(out, "anchor_value", out._raw(anchor))
        return out

    def _raw(self, x):
        i = bisect.bisect_right(self.edges, x) - 1
        i = min(max(i, 0), len(self.edges) - 2)
        return self.cumulative[i] + _gl(self.fn, self.edges[i], x, _GL15)

    def __call__(self, x):
        if not self.edges[0] <= x <= self.edges[-1]:
            raise ValueError(
                f"evaluation at {x} outside integration range "
                f"[{self.edges[0]}, {self.edges[-1]}]"
            )
        return self._raw(x) - self.anchor_value


def invert_monotone(fn, dfn, target, lo, hi, bisect_steps=80, newton_steps=2):
    """Solve fn(x) = target for strictly monotone fn on [lo, hi].

    Plain bisection to ~1e-12 of the bracket, then a couple of Newton
    polishing steps with the supplied derivative.  Raises ConvergenceError
    when ``bisect_steps`` halvings leave the bracket wider than that.
    """
    flo, fhi = fn(lo) - target, fn(hi) - target
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"target {target} not bracketed on [{lo}, {hi}]")
    a, b = lo, hi
    for _ in range(bisect_steps):
        mid = 0.5 * (a + b)
        fm = fn(mid) - target
        if fm == 0.0:
            a = b = mid
            break
        if flo * fm <= 0.0:
            b = mid
        else:
            a, flo = mid, fm
        if b - a <= 1e-13 * (abs(a) + abs(b) + 1.0):
            break
    else:
        raise ConvergenceError(
            f"bisection for target {target} on [{lo}, {hi}] left the bracket "
            f"[{a}, {b}] after {bisect_steps} steps"
        )
    x = 0.5 * (a + b)
    for _ in range(newton_steps):
        d = dfn(x)
        if d == 0.0:
            break
        step = (fn(x) - target) / d
        y = x - step
        if lo <= y <= hi:
            x = y
    return x


def _first_primes(count):
    primes = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


def halton_points(dim, count, seed=0, skip=64):
    """Deterministic low-discrepancy points in [0,1)^dim.

    ``seed`` selects a disjoint stretch of the (unscrambled) Halton
    sequence, so runs with equal seeds coincide exactly and different
    seeds decorrelate.  Coordinate j is the radical inverse in the j-th
    prime of the indices skip + seed*100003 + i, computed directly at
    those indices; the digits are summed least significant first, so the
    points equal scipy's ``qmc.Halton(scramble=False)`` bit for bit.
    """
    start = skip + seed * 100003
    out = np.zeros((count, dim))
    for j, base in enumerate(_first_primes(dim)):
        index = np.arange(start, start + count, dtype=np.int64)
        weight = 1.0 / base
        while index.any():
            index, digit = np.divmod(index, base)
            out[:, j] += digit * weight
            weight /= base
    return out
