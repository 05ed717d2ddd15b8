"""Small deterministic numerical helpers for the metric construction.

The warp integral needs a cumulative antiderivative that is smooth to
machine precision in its upper limit (its second derivative feeds curvature
through jet composition), so we integrate on a frozen panel decomposition
with fixed-order Gauss-Legendre rules instead of an adaptive black box:
panels are refined once while building and never change afterwards, making
every evaluation reproducible bit for bit.

One root finder, ``invert_monotone`` (safeguarded Newton), inverts the warp
integral and finds the ends of Q's positivity intervals.  Like the panel
build, it raises ConvergenceError instead of returning a best effort.
Both the antiderivative and the root finder take arrays: a batch of sample
points is inverted in one call, with every element's arithmetic the same
as in a call with that element alone.

Each step evaluates its integrand once: a Newton step takes the value and
the slope from one callable, F and F' = fn come from one integrand call,
and so does a refinement level of both rules.  Which nodes share a call
changes no bit of any result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ConvergenceError(ArithmeticError):
    """An iteration stopped at its step limit before meeting its tolerance."""


_GL7 = np.polynomial.legendre.leggauss(7)
_GL15 = np.polynomial.legendre.leggauss(15)
PANEL_RTOL = 1e-13


def _gl_rules(fn, lo, hi, rules, slope=False):
    """Each Gauss-Legendre rule of ``rules`` on [lo, hi], or on each
    [lo[i], hi[i]] of arrays, from one call of ``fn`` on the nodes of every
    rule of every interval; with ``slope``, also fn(hi) from that call.

    The weighted values w_k f(x_k) of a rule are formed in one product and
    summed node by node in order, 0.0 + t_0 + t_1 + ..., by one
    ``np.add.accumulate`` along the node axis, which adds sequentially by
    definition (a reduce would sum pairwise where the node axis is
    contiguous).  Each interval's result is therefore the same in any batch,
    and the same bits as a loop over the nodes; the leading 0.0 turns a
    first term of -0.0 into 0.0, as that loop's ``acc = 0.0`` does.
    """
    mid, half = np.asarray(0.5 * (lo + hi)), np.asarray(0.5 * (hi - lo))
    parts = [mid[..., None] + half[..., None] * nodes for nodes, _ in rules]
    if slope:
        parts.append(np.asarray(hi, dtype=float)[..., None])
    at = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    vals = np.broadcast_to(fn(at), at.shape)
    out, start = [], 0
    for nodes, weights in rules:
        terms = weights * vals[..., start:start + len(nodes)]
        terms[..., 0] += 0.0
        out.append(half * np.add.accumulate(terms, axis=-1)[..., -1])
        start += len(nodes)
    if slope:
        out.append(vals[..., -1])
    return out


def _gl(fn, lo, hi, rule):
    """One Gauss-Legendre rule on [lo, hi], or on each [lo[i], hi[i]], as
    ``_gl_rules`` gives it."""
    return _gl_rules(fn, lo, hi, (rule,))[0]


@dataclass(frozen=True)
class PanelAntiderivative:
    """F(x) = integral of fn from anchor to x on a frozen panel decomposition.

    ``cumulative`` holds F at each edge, summed outward from the anchor, and
    F(x) integrates to x from the end of x's panel nearer the anchor (from
    the anchor itself in its own panel).  Both terms then have the sign of
    F(x), so F keeps full relative precision even where the panels far
    from the anchor, near a zero of the integrand's denominator, carry
    integrals many orders of magnitude larger than F(x).  ``with_slope``
    gives F and F' = fn from one integrand call, which is what a Newton
    step of the inversion needs; calling F is its first part, so F has one
    quadrature path.
    """

    fn: Callable
    edges: tuple
    cumulative: tuple  # integral from anchor to each edge
    anchor: float

    @classmethod
    def build(cls, fn, lo, hi, anchor, max_depth=40):
        """Panelize [lo, hi] until GL7 and GL15 agree to ``PANEL_RTOL`` per
        panel, then freeze.

        Refines level by level: all unresolved panels of a level go through
        one integrand call on the nodes of both rules, the panels where the
        rules agree are kept, and the others are halved for the next level;
        one more call gives the two integrals from the anchor.  ``_gl_rules``
        gives each panel the same result in any batch, so the panels are
        those of refining one panel at a time.  Raises ConvergenceError when
        panels still disagree after ``max_depth`` halvings; it names the
        leftmost of them, which need not be the one a depth-first refinement
        would meet first.
        """
        if not lo < hi:
            raise ValueError(f"empty integration range [{lo}, {hi}]")
        if not lo <= anchor <= hi:
            raise ValueError(f"anchor {anchor} outside [{lo}, {hi}]")
        kept = []  # (left ends, right ends, GL15 integrals) of the accepted panels
        a, b = np.array([lo], dtype=float), np.array([hi], dtype=float)
        for depth in range(max_depth + 1):
            coarse, fine = _gl_rules(fn, a, b, (_GL7, _GL15))
            ok = np.abs(fine - coarse) <= PANEL_RTOL * (np.abs(fine) + 1e-30)
            kept.append((a[ok], b[ok], fine[ok]))
            if ok.all():
                break
            a, b = a[~ok], b[~ok]
            if depth == max_depth:
                gap = np.abs(fine - coarse)[~ok][0]
                raise ConvergenceError(
                    f"panel [{a[0]}, {b[0]}] at depth {depth}: GL7 and GL15 differ by "
                    f"{gap:.3g}, above rtol {PANEL_RTOL:g}"
                )
            # halves, kept in order from left to right
            mid = 0.5 * (a + b)
            a, b = np.column_stack((a, mid)).ravel(), np.column_stack((mid, b)).ravel()
        left, right, panel = (np.concatenate(x) for x in zip(*kept))
        order = np.argsort(left)
        panel = panel[order].tolist()
        edges = [lo] + right[order].tolist()
        p = min(int(np.searchsorted(edges, anchor, side="right")) - 1, len(panel) - 1)
        cum = [0.0] * len(edges)
        cum[p:p + 2] = _gl(fn, np.full(2, anchor), np.array(edges[p:p + 2]), _GL15).tolist()
        for j in range(p + 1, len(panel)):
            cum[j + 1] = cum[j] + panel[j]
        for j in range(p - 1, -1, -1):
            cum[j] = cum[j + 1] - panel[j]
        return cls(fn=fn, edges=tuple(edges), cumulative=tuple(cum), anchor=anchor)

    def __post_init__(self):
        # per panel: where its integration starts, and F there
        edges = np.array(self.edges)
        cum = np.array(self.cumulative)
        left, right = edges[:-1] >= self.anchor, edges[1:] <= self.anchor
        start = np.where(left, edges[:-1], np.where(right, edges[1:], self.anchor))
        base = np.where(left, cum[:-1], np.where(right, cum[1:], 0.0))
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_start", start)
        object.__setattr__(self, "_base", base)

    def __call__(self, x):
        """F at x, a float or an array of points in the integration range."""
        out = self.with_slope(np.atleast_1d(np.asarray(x, dtype=float)))[0]
        return float(out[0]) if np.ndim(x) == 0 else out

    def with_slope(self, xs):
        """(F, F' = fn) at an array of points in the integration range, from
        one integrand call on the GL15 nodes of each point's integral and on
        the point itself."""
        outside = (xs < self._edges[0]) | (xs > self._edges[-1])
        if np.any(outside):
            raise ValueError(
                f"evaluation at {float(xs[np.argmax(outside)])} outside integration "
                f"range [{self.edges[0]}, {self.edges[-1]}]"
            )
        i = np.searchsorted(self._edges, xs, side="right") - 1
        i = np.clip(i, 0, len(self.edges) - 2)
        integral, slope = _gl_rules(self.fn, self._start[i], xs, (_GL15,), slope=True)
        return self._base[i] + integral, slope


def invert_monotone(fdf, target, lo, hi, steps=100):
    """Solve f(x) = target on [lo, hi], where f - target changes sign;
    ``fdf(x)`` returns (f(x), f'(x)) from one evaluation.

    ``target`` (and ``lo``, ``hi``) may be arrays: every element runs its
    own iteration, with its own stop, and fdf is called once on both ends
    of every bracket (on just the two ends when ``lo`` and ``hi`` are
    scalars, one bracket for all targets), then once per iteration on the
    elements still running.  With fdf elementwise, each element's result
    is bit for bit that of a call with it alone; a float target gives a
    float.

    Safeguarded Newton (rtsafe; Press et al., Numerical Recipes, 3rd ed.,
    9.4), from the secant point of the bracket.  Each iteration narrows the
    bracket by the sign of f - target and takes a Newton step; the
    bracket's midpoint replaces a step that would leave the bracket or
    exceed half the step before last (Newton creeps where rounding makes f
    a staircase), or that divides by a zero slope.  It stops when a step
    moves x by at most 1e-14 (|x| + 1), or the bracket is that narrow.
    Only the sign change is needed, not monotonicity.  Raises
    ConvergenceError naming the targets still running after ``steps``
    iterations, ValueError naming the targets that are not bracketed.
    """
    scalar = np.ndim(target) == 0
    target = np.atleast_1d(np.asarray(target, dtype=float))
    # scalar ends are one bracket shared by every target: evaluate them once
    n = target.size if np.ndim(lo) or np.ndim(hi) else min(target.size, 1)
    lo, hi = (np.broadcast_to(np.asarray(e, dtype=float), target.shape) for e in (lo, hi))
    ends = np.broadcast_to(fdf(np.concatenate((lo[:n], hi[:n])))[0], (2 * n,))
    flo, fhi = ends[:n] - target, ends[n:] - target
    out = np.where(flo == 0.0, lo, hi)
    run = (flo != 0.0) & (fhi != 0.0)
    unbracketed = run & (flo * fhi > 0.0)
    if np.any(unbracketed):
        k = np.nonzero(unbracketed)[0]
        raise ValueError(f"target(s) {target[k].tolist()} not bracketed on "
                         f"[{lo[k].tolist()}, {hi[k].tolist()}]")
    k = np.nonzero(run)[0]
    t, flo, a, b = target[k], flo[k], lo[k], hi[k]
    x = np.minimum(b, a + (b - a) * (flo / (flo - fhi[k])))
    last = before = b - a
    up = flo > 0.0  # the sign of f - target at a
    for _ in range(steps):
        if not k.size:
            break
        fx, d = fdf(x)
        fx = fx - t
        lower = (fx > 0.0) == up
        a, b = np.where(lower, x, a), np.where(lower, b, x)
        y = x - np.divide(fx, d, out=np.full(x.shape, np.nan), where=d != 0.0)
        ok = (a <= y) & (y <= b) & (np.abs(y - x) <= 0.5 * before)  # False on a NaN step
        y = np.where(ok, y, 0.5 * (a + b))
        before, last = last, np.abs(y - x)
        tol = 1e-14 * (np.abs(y) + 1.0)
        hit = fx == 0.0
        stop = hit | (last <= tol) | (b - a <= tol)
        if stop.any():
            out[k[stop]] = np.where(hit, x, y)[stop]
            keep = ~stop
            k, t, up, a, b, y = k[keep], t[keep], up[keep], a[keep], b[keep], y[keep]
            last, before = last[keep], before[keep]
        x = y
    if k.size:
        raise ConvergenceError(
            f"Newton for target(s) {target[k].tolist()} left the brackets "
            f"[{a.tolist()}, {b.tolist()}] after {steps} steps")
    return float(out[0]) if scalar else out


def _first_primes(count):
    primes = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


@functools.cache
def halton_points(dim, count, seed=0, skip=64):
    """Deterministic low-discrepancy points in [0,1)^dim.

    ``seed`` selects a disjoint stretch of the (unscrambled) Halton
    sequence, so runs with equal seeds coincide exactly and different
    seeds decorrelate.  Coordinate j is the radical inverse in the j-th
    prime of the indices skip + seed*100003 + i, computed directly at
    those indices; the digits are summed least significant first, so the
    points equal scipy's ``qmc.Halton(scramble=False)`` bit for bit.
    Each table is computed once per arguments and returned read-only.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    start = skip + seed * 100003
    if start + count - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"seed {seed} puts the sample indices past int64")
    out = np.zeros((count, dim))
    for j, base in enumerate(_first_primes(dim)):
        index = np.arange(start, start + count, dtype=np.int64)
        weight = 1.0 / base
        while index.any():
            index, digit = np.divmod(index, base)
            out[:, j] += digit * weight
            weight /= base
    out.flags.writeable = False
    return out
