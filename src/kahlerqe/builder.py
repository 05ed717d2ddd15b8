"""Explicit coordinate construction of the candidate metrics.

The total space is a complex line bundle over a fixed Kahler-Einstein base
(flat C^d or Fubini-Study in an affine chart), with bundle metric
e^(-2 rho).  Real coordinates are (x_0..x_{2d-1}, u, v); z_j = x_{2j} +
i x_{2j+1} on the base and w = u + i v on the punctured fiber.  The scalar
tau is pulled back through log r = log|w| - rho(x) by inverting the warp
integral dl/dtau = b/Q(tau), and the metric is

    g = 2|tau - c| h   on Chern-horizontal vectors,
    g = Q/(b |w|)^2 * Re<.,.>   on vertical vectors,

where Q = 2 (tau - c) phi.  With the real covectors alpha, beta of
alpha + i beta = 2 d'rho - dw/w (up to sign, the Chern connection form of
e^(-2 rho), so it vanishes exactly on Chern-horizontal vectors), this is
the one formula

    g = 2|tau - c| h + (Q/b^2)(alpha (x) alpha + beta (x) beta),

with h the base metric, zero on the fiber rows and columns.  Everything is
written with jet-friendly arithmetic so curvature comes out of automatic
differentiation, and one call of ``fields`` evaluates a whole batch of
points: one warp inversion and one pass of jet arithmetic for all of them.
The fields of several charts of one base stack into one such pass
(``ChartFields.stack``), with one warp inversion per chart.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable

import numpy as np

from kahlerqe.charts import MetricChart
from kahlerqe.jets import log_
from kahlerqe.numutil import (
    ConvergenceError,
    PanelAntiderivative,
    halton_points,
    invert_monotone,
)
from kahlerqe.odes import (
    CONSTANTS_ADMITTED,
    ScalarProfile,
    SKRParams,
    nonexistence_decision,
    phi_closed_form,
    psi_factors,
    real_floor,
)

FLAT = "flat"
FUBINI_STUDY = "fubini-study"

SCAN_POINTS = 4096
WORK_MARGIN = 0.04
SAMPLE_MARGIN = 0.05
ROUNDTRIP_POINTS = 512


class ConstructionError(RuntimeError):
    """The requested parameters do not yield a usable chart."""


BaseRow = namedtuple("BaseRow", "kappa sigma z2_max x_bound")
BASES = {FLAT: BaseRow(0, 2, math.inf, 0.8), FUBINI_STUDY: BaseRow(1, 1, 4.0, 0.6)}
KINDS = " or ".join(BASES)


@dataclass(frozen=True)
class BaseModel:
    """Kahler-Einstein base in a fixed normalization, plus the bundle scale s.

    The one place that knows what a base kind means.  Its ``BASES`` row
    holds the Einstein constant / (d + 1), sigma / s, the |z|^2 bound of
    the chart and the half-width of the box the base coordinates are
    sampled in; ``rho`` and ``h_block`` hold the two formulas that differ.
    flat: C^d Euclidean, rho = (s/2)|z|^2.  fubini-study: affine chart of
    CP^d with h_jk = dd-bar log(1+|z|^2), rho = (s/2) log(1+|z|^2).
    """

    kind: str
    dim_c: int
    s: Fraction = Fraction(1)

    def __post_init__(self):
        if self.kind not in BASES:
            raise ValueError(f"unknown base kind {self.kind!r} ({KINDS})")
        if not isinstance(self.dim_c, int) or self.dim_c < 1:
            raise ValueError(f"dim_c must be a positive integer, got {self.dim_c!r}")
        if not isinstance(self.s, Fraction):
            object.__setattr__(self, "s", Fraction(self.s))
        if self.s == 0:
            raise ValueError("s must be nonzero: a flat connection gives no "
                             "tau-dependence in the fiber direction")

    @property
    def row(self):
        return BASES[self.kind]

    @property
    def kappa(self):
        """Einstein constant of the base metric."""
        return Fraction(self.row.kappa * (self.dim_c + 1))

    @property
    def sigma(self):
        """Chern curvature multiple of e^(-2 rho): 2s (flat), s (Fubini-Study)."""
        return self.row.sigma * self.s

    def kahler_b(self, side):
        """The b that closes the two-form of g on the side = sgn(tau - c) of
        tau = c: sigma = -2 b side."""
        return -side * self.sigma / 2

    @cached_property
    def _s_float(self):
        """float(s), converted once: ``rho`` runs at every sample point."""
        return float(self.s)

    def rho(self, x2):
        """(rho, k) of the bundle metric e^(-2 rho) at |x|^2 = x2, a float or a
        jet: d rho = k x.dx, with k = s (flat) or s/(1+|x|^2) (Fubini-Study)."""
        s = self._s_float
        if self.kind == FLAT:
            return 0.5 * s * x2, s
        denom = 1.0 + x2
        return 0.5 * s * log_(denom), s / denom

    def h_block(self, k, hfac, vcoef):
        """(I, alpha alpha + beta beta) coefficients of hfac h + vcoef (alpha alpha +
        beta beta) on the base: h = I flat, (2k/s) I - (2/s^2)(alpha alpha + beta beta) FS."""
        if self.kind == FLAT:
            return hfac, vcoef
        s = self._s_float
        return (2.0 / s) * k * hfac, vcoef - (2.0 / (s * s)) * hfac


def tau_side(interval, c):
    """sgn(tau - c) on an interval that avoids tau = c."""
    return 1 if 0.5 * (float(interval[0]) + float(interval[1])) > float(c) else -1


def q_from_phi(params, phi):
    """Profile Q = 2 (tau - c) phi; its Taylor triple comes from one of phi's."""
    c = float(params.c)

    def val(t):
        return 2.0 * (t - c) * phi.value(t)

    def taylor(t):
        p0, p1, p2 = phi.taylor(t)
        return (2.0 * (t - c) * p0, 2.0 * p0 + 2.0 * (t - c) * p1,
                4.0 * p1 + 2.0 * (t - c) * p2)

    return ScalarProfile(value=val, taylor=taylor)


def positivity_intervals(profile, lo, hi, exclude=()):
    """Maximal open subintervals of (lo, hi) where the profile is positive,
    yielded in order from left to right.

    The range is split at the excluded points and scanned on a uniform
    grid of ``SCAN_POINTS`` per segment, one segment at a time as the
    intervals are taken, with one call of the profile on the segment's
    grid; the runs of positive values (a NaN is not positive) are found
    with array operations, and each sign change is solved by
    ``invert_monotone`` on the profile's ``taylor``, which gives the value
    and the slope of each Newton step from one evaluation.  Fully
    deterministic.
    """
    fn = profile.value

    def fdf(t):
        return profile.taylor(t)[:2]

    edges = [lo, *sorted(x for x in set(float(e) for e in exclude) if lo < x < hi), hi]
    for a, b in zip(edges, edges[1:]):
        if b - a <= 0:
            continue
        pad = 1e-9 * (b - a)
        xs = np.linspace(a + pad, b - pad, SCAN_POINTS)
        vals = np.broadcast_to(fn(xs), xs.shape)  # a constant profile gives a float
        # runs of positive values [start, end): where the padded sign flips
        pos = np.concatenate(([False], vals > 0.0, [False]))
        flips = np.flatnonzero(pos[1:] != pos[:-1]).tolist()
        for start, end in zip(flips[0::2], flips[1::2]):
            left_edge = a if start == 0 else invert_monotone(
                fdf, 0.0, xs[start - 1], xs[start])
            right_edge = b if end == len(xs) else invert_monotone(
                fdf, 0.0, xs[end - 1], xs[end])
            yield float(left_edge), float(right_edge)


@dataclass
class WarpProfile:
    """tau <-> log r correspondence over one positivity interval of Q."""

    params: SKRParams
    phi: ScalarProfile
    q: ScalarProfile
    interval: tuple
    work_interval: tuple
    antiderivative: PanelAntiderivative
    ell_range: tuple  # (min, max) of log r over the working interval

    @classmethod
    def build(cls, params, phi, interval):
        """Freeze the antiderivative of b/Q on the interval less a share
        ``WORK_MARGIN`` of its width at each end.

        Q vanishes at interval endpoints in general, so the working range
        stays strictly inside.
        """
        lo, hi = float(interval[0]), float(interval[1])
        if not lo < hi:
            raise ConstructionError(f"empty interval {interval}")
        q = q_from_phi(params, phi)
        width = hi - lo
        wlo, whi = lo + WORK_MARGIN * width, hi - WORK_MARGIN * width
        ts = np.linspace(wlo, whi, 257)
        bad = q.value(ts) <= 0.0
        if np.any(bad):
            raise ConstructionError(
                f"Q is not positive at tau={float(ts[np.argmax(bad)])} inside {interval}"
            )
        bf = float(params.b)
        try:
            anti = PanelAntiderivative.build(
                lambda t: bf / q.value(t), wlo, whi, anchor=0.5 * (wlo + whi)
            )
        except ConvergenceError as exc:
            raise ConstructionError(
                f"the warp integral of b/Q did not converge on {interval}: {exc}"
            ) from exc
        ends = anti(np.array([wlo, whi])).tolist()
        return cls(
            params=params, phi=phi, q=q, interval=(lo, hi),
            work_interval=(wlo, whi), antiderivative=anti,
            ell_range=(min(ends), max(ends)),
        )

    def tau_of_logr(self, ell):
        """Invert log r = l(tau), for a float or an array of log r values in
        one call; dl/dtau = b/Q is the integrand of the panels, so each
        Newton step takes l and its slope from one integrand call."""
        return invert_monotone(self.antiderivative.with_slope, ell, *self.work_interval)

    def roundtrip_error(self):
        """Largest |tau(log r(tau)) - tau| over ``ROUNDTRIP_POINTS`` points."""
        ts = np.linspace(self.work_interval[0], self.work_interval[1], ROUNDTRIP_POINTS)
        return float(np.max(np.abs(self.tau_of_logr(self.antiderivative(ts)) - ts)))

    def csv_rows(self, n=200):
        """Rows (tau, log_r, Q) sampled uniformly over the working interval."""
        ts = np.linspace(self.work_interval[0], self.work_interval[1], n)
        return list(zip(ts, self.antiderivative(ts), self.q.value(ts)))


def warp_jets(warps, ell):
    """(tau, Q(tau)) as jets of the jet log r, with dtau/dl = Q/b.

    ``warps`` pairs each WarpProfile with the slice of the batch it
    serves: each inverts its own points' log r in one call and evaluates
    Q's Taylor triple there once for both chain rules.  The per-point
    coefficients are joined and composed once, elementwise, so a point's
    jets are those of its warp evaluated alone.
    """
    cols = []
    for warp, rows in warps:
        t0 = warp.tau_of_logr(ell.val[rows])
        bf = float(warp.params.b)
        q0, q1, q2 = warp.q.taylor(t0)
        cols.append((t0, q0 / bf, q0 * q1 / (bf * bf), q0, q1, q2))
    t0, d1, d2, q0, q1, q2 = cols[0] if len(cols) == 1 else map(np.concatenate, zip(*cols))
    tau = ell.compose(t0, d1, d2)
    return tau, tau.compose(q0, q1, q2)


def _standard_J(n):
    rows = [[0.0] * n for _ in range(n)]
    for j in range(n // 2):
        rows[2 * j + 1][2 * j] = 1.0
        rows[2 * j][2 * j + 1] = -1.0
    return rows


@dataclass(frozen=True)
class ChartFields:
    """The ``fields`` of a chart: called on the seeded jets of a batch of
    points, it returns the metric rows g, the scalar tau, the profile f and
    the complex structure J together, from one pass of jet arithmetic.

    The chart's constants c, 2 sgn(tau - c), 1/b^2 and k are floats for one
    chart.  ``stack`` joins the fields of several charts of one base into
    one pass over their points, block after block: the constants become
    arrays of one value per point, and each chart's warp inverts its own
    slice of log r (``warp_jets``).  Every operation that takes a constant
    is elementwise along the point axis, so a point's fields are bit for
    bit those of its own chart's.
    """

    base: BaseModel
    warps: tuple  # (WarpProfile, slice of the batch it serves) per chart
    c: object
    two_sgn: object
    inv_b2: object
    k: object

    @classmethod
    def stack(cls, members, counts):
        """One pass over ``counts[i]`` points of chart i, in that order."""
        base = members[0].base
        if any(m.base != base or len(m.warps) != 1 for m in members):
            raise ValueError("only single charts of one base stack")
        ends = np.cumsum([0, *counts]).tolist()
        warps = tuple((m.warps[0][0], slice(lo, hi))
                      for m, lo, hi in zip(members, ends, ends[1:]))
        consts = (np.repeat([getattr(m, key) for m in members], counts)
                  for key in ("c", "two_sgn", "inv_b2", "k"))
        return cls(base, warps, *consts)

    def __call__(self, coords):
        base = self.base
        d = base.dim_c
        n = 2 * d + 2
        xs = list(coords[: 2 * d])
        u, v = coords[2 * d], coords[2 * d + 1]
        rho, k = base.rho(sum((x * x for x in xs[1:]), xs[0] * xs[0]))
        wsq = u * u + v * v
        tau, q = warp_jets(self.warps, 0.5 * log_(wsq) - rho)
        hfac = self.two_sgn * (tau - self.c)
        vcoef = q * self.inv_b2
        # alpha + i beta = 2 d'rho - dw/w
        alpha, beta = [], []
        for j in range(d):
            kx, ky = k * xs[2 * j], k * xs[2 * j + 1]
            alpha += [kx, ky]
            beta += [-ky, kx]
        au, av = -u / wsq, -v / wsq
        alpha += [au, av]
        beta += [-av, au]
        hdiag, hcoef = base.h_block(k, hfac, vcoef)
        g = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                coef = hcoef if j < 2 * d else vcoef
                gij = coef * (alpha[i] * alpha[j] + beta[i] * beta[j])
                g[i][j] = g[j][i] = gij + hdiag if i == j < 2 * d else gij
        # f = K / tau + L with K = 1, L = k: affine in 1/tau, from the same jet
        return g, tau, 1.0 / tau + self.k, _standard_J(n)


@dataclass
class SKRChart:
    """Assembled chart bundle: the metric chart, and ``fields`` (a
    ``ChartFields``), which evaluates g, tau, f and J at a batch of points
    in one pass."""

    chart: MetricChart
    fields: Callable
    params: SKRParams
    base: BaseModel
    warp: WarpProfile

    @property
    def dim(self):
        return self.chart.dim

    def sample_points(self, count, seed=0):
        """Deterministic low-discrepancy points inside the chart domain, with
        log r a share ``SAMPLE_MARGIN`` of its range clear of each end.

        The rows are formed together; |x|^2 is a stacked ``matmul``, which
        gives ``np.dot``'s bits, and log r to R = |w| and the angle to u, v
        go through ``math`` one point at a time, since numpy's exp, cos and
        sin differ from libm's in the last bit.
        """
        d = self.base.dim_c
        raw = halton_points(2 * d + 2, count, seed=seed)
        lo, hi = self.warp.ell_range
        span = hi - lo
        elo = lo + SAMPLE_MARGIN * span
        ehi = hi - SAMPLE_MARGIN * span
        xs = self.base.row.x_bound * (2.0 * raw[:, :2 * d] - 1.0)
        x2 = np.matmul(xs[:, None, :], xs[:, :, None]).ravel()
        ell = elo + (ehi - elo) * raw[:, 2 * d]
        theta = 2.0 * math.pi * raw[:, 2 * d + 1]
        radii = [math.exp(e + self.base.rho(q)[0]) for e, q in zip(ell.tolist(), x2.tolist())]
        w = [(R * math.cos(t), R * math.sin(t)) for R, t in zip(radii, theta.tolist())]
        return np.concatenate((xs, np.reshape(w, (count, 2))), axis=1)


def assemble_chart(base, warp):
    """MetricChart + fields from a base model and a frozen warp profile."""
    params = warp.params
    d = base.dim_c
    if d != params.m - 1:
        raise ConstructionError(f"base complex dimension {d} incompatible with m={params.m}")
    n = 2 * d + 2
    bf = float(params.b)
    cf = float(params.c)
    sign_tc = tau_side(warp.work_interval, cf)
    if not (warp.work_interval[0] > cf or warp.work_interval[1] < cf):
        raise ConstructionError("working interval must avoid tau = c")
    fields = ChartFields(base, ((warp, slice(None)),), cf, 2.0 * sign_tc,
                         1.0 / (bf * bf), float(params.k))

    lo_ell, hi_ell = warp.ell_range
    guard = 1e-9 * (hi_ell - lo_ell)
    z2max = base.row.z2_max
    rho = base.rho

    def domain(p):
        """Whether each row of ``p`` (R, n) lies in the chart, as a mask
        (R,); for one point (n,), a bool.  |x|^2 is a stacked ``matmul``,
        which gives ``np.dot``'s bits, and log r goes through ``math.log``
        one value at a time, as in ``sample_points``."""
        rows = np.atleast_2d(p)
        xs = rows[:, :2 * d]
        u, v = rows[:, 2 * d], rows[:, 2 * d + 1]
        wsq = u * u + v * v
        x2 = np.matmul(xs[:, None, :], xs[:, :, None]).ravel()
        near = np.flatnonzero((wsq > 1e-30) & (x2 < z2max))
        ell = np.array([0.5 * math.log(w) - rho(x)[0]
                        for w, x in zip(wsq[near].tolist(), x2[near].tolist())])
        inside = np.zeros(len(rows), dtype=bool)
        inside[near] = (lo_ell + guard <= ell) & (ell <= hi_ell - guard)
        return inside if np.ndim(p) == 2 else bool(inside[0])

    chart = MetricChart(
        dim=n, components=lambda c: fields(c)[0], domain=domain,
        name=f"{base.kind}-bundle-m{params.m}",
    )
    return SKRChart(chart=chart, fields=fields, params=params, base=base, warp=warp)


def build_warp(params, phi, interval):
    return WarpProfile.build(params, phi, interval)


def expected_kahler(base, params, interval):
    """Whether the two-form of g closes: b is ``base.kahler_b`` on the interval's side."""
    return params.b == base.kahler_b(tau_side(interval, params.c))


def _check_base(params, base):
    """Refuse a parameter/base pair whose dimensions or Einstein constants
    disagree."""
    if base.dim_c != params.m - 1:
        raise ConstructionError(
            f"base dim_c={base.dim_c} requires m={base.dim_c + 1}, got m={params.m}"
        )
    if base.kappa != params.kappa:
        raise ConstructionError(
            f"base Einstein constant {base.kappa} != params kappa {params.kappa}"
        )


def admitted_phi(params, base):
    """phi of a parameter set the construction admits on this base.

    Refuses parameter sets that the exact first-order obstruction forces to
    phi = 0, and parameter/base combinations whose dimensions or Einstein
    constants disagree.
    """
    _check_base(params, base)
    verdict = nonexistence_decision(params)
    if verdict != CONSTANTS_ADMITTED:
        raise ConstructionError(
            "construction refused: the exact compatibility obstruction "
            f"a(2ck+1) = {params.a * (2 * params.c * params.k + 1)} is nonzero, "
            "so the only solution of the reduced system is phi = 0 "
            f"(verdict: {verdict}); use k = -1/(2c)"
        )
    return phi_closed_form(params)


def end_to_end(params, base, interval, warp=None):
    """Build the warp on a tau-window and assemble the chart; ``warp``, if
    given, is one already built for ``params`` on ``interval`` (the one
    ``cli.select_window`` returns, after the refusals of ``admitted_phi``),
    and the chart uses it and its phi as they are.

    After the refusals of ``admitted_phi`` (with a warp, only its base
    refusals), refuses a window off the sgn(tau - c) = sign_phi side, where
    Q = 2 (tau - c) phi cannot be positive; for fractional a, a window that
    reaches below ``real_floor``, where phi is not real; and a window with
    the root of a factor of psi (0, c, or 2c when a != 1) strictly inside,
    where phi or f = 1/tau + k is singular.
    """
    if warp is None:
        phi = admitted_phi(params, base)
    else:
        _check_base(params, base)
        phi = warp.phi
    interval = (float(interval[0]), float(interval[1]))
    sgn = tau_side(interval, params.c)
    if sgn != params.sign_phi:
        raise ConstructionError(
            f"interval {interval} lies on the sgn(tau - c) = {sgn} side, "
            f"inconsistent with sign_phi = {params.sign_phi}"
        )
    floor = real_floor(params)
    if floor is not None and interval[0] < floor:
        raise ConstructionError(
            f"fractional a = {params.a} needs tau > max(0, 2c) = {floor:g} across "
            f"the whole window, but interval {interval} starts below it"
        )
    for e, root in psi_factors(params):
        if e != 0 and interval[0] < root < interval[1]:
            raise ConstructionError(
                f"interval {interval} contains tau = {float(root):g}, a root of a "
                "factor of psi, where phi or f = 1/tau + k is singular"
            )
    if warp is None:
        warp = build_warp(params, phi, interval)
    elif warp.params != params or warp.interval != interval:
        raise ValueError(f"the warp was built on {warp.interval} or for other "
                         f"parameters, not on {interval}")
    skr = assemble_chart(base, warp)
    return skr, phi
