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
differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from kahlerqe.charts import MetricChart
from kahlerqe.jets import Jet, log_
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
)

FLAT = "flat"
FUBINI_STUDY = "fubini-study"


class ConstructionError(RuntimeError):
    """The requested parameters do not yield a usable chart."""


@dataclass(frozen=True)
class BaseModel:
    """Kahler-Einstein base in a fixed normalization, plus the bundle scale s.

    flat: C^d Euclidean, Einstein constant 0, rho = (s/2)|z|^2.
    fubini-study: affine chart of CP^d with h_jk = dd-bar log(1+|z|^2),
    Einstein constant d+1, rho = (s/2) log(1+|z|^2).
    """

    kind: str
    dim_c: int
    s: Fraction = Fraction(1)

    def __post_init__(self):
        if self.kind not in (FLAT, FUBINI_STUDY):
            raise ValueError(f"unknown base kind {self.kind!r}")
        if not isinstance(self.dim_c, int) or self.dim_c < 1:
            raise ValueError(f"dim_c must be a positive integer, got {self.dim_c!r}")
        if not isinstance(self.s, Fraction):
            object.__setattr__(self, "s", Fraction(self.s))
        if self.s == 0:
            raise ValueError("s must be nonzero: a flat connection gives no "
                             "tau-dependence in the fiber direction")

    @property
    def kappa(self):
        """Einstein constant of the base metric."""
        return Fraction(0) if self.kind == FLAT else Fraction(self.dim_c + 1)

    @property
    def sigma(self):
        """Chern curvature multiple of e^(-2 rho): 2s (flat), s (Fubini-Study)."""
        return 2 * self.s if self.kind == FLAT else self.s

    def kahler_b(self, side):
        """The b that closes the two-form of g on the side = sgn(tau - c) of
        tau = c: sigma = -2 b side."""
        return -side * self.sigma / 2

    def rho(self, x2):
        """rho as a plain float at a base point with |x|^2 = x2."""
        s = float(self.s)
        if self.kind == FLAT:
            return 0.5 * s * x2
        return 0.5 * s * math.log(1.0 + x2)


def tau_side(interval, c):
    """sgn(tau - c) on an interval that avoids tau = c."""
    return 1 if 0.5 * (float(interval[0]) + float(interval[1])) > float(c) else -1


def q_from_phi(params, phi):
    """Profile Q = 2 (tau - c) phi with two derivatives."""
    c = float(params.c)

    def val(t):
        return 2.0 * (t - c) * phi.value(t)

    def d1(t):
        return 2.0 * phi.value(t) + 2.0 * (t - c) * phi.d1(t)

    def d2(t):
        return 4.0 * phi.d1(t) + 2.0 * (t - c) * phi.d2(t)

    return ScalarProfile(value=val, d1=d1, d2=d2)


def positivity_intervals(profile, lo, hi, exclude=(), grid=4096):
    """Maximal open subintervals of (lo, hi) where the profile is positive.

    The range is split at the excluded points, scanned on a uniform grid,
    and sign-change brackets are sharpened by bisection; fully
    deterministic.
    """
    fn = profile.value
    cuts = sorted(x for x in set(float(e) for e in exclude) if lo < x < hi)
    segments = []
    left = lo
    for x in cuts:
        segments.append((left, x))
        left = x
    segments.append((left, hi))

    out = []
    for a, b in segments:
        if b - a <= 0:
            continue
        pad = 1e-9 * (b - a)
        xs = np.linspace(a + pad, b - pad, grid)
        vals = np.array([fn(x) for x in xs])
        run_start = None
        for i, v in enumerate(vals):
            if v > 0.0 and run_start is None:
                run_start = i
            if (v <= 0.0 or i == len(vals) - 1) and run_start is not None:
                i_end = i if v <= 0.0 else i + 1
                left_edge = a if run_start == 0 else _root(fn, xs[run_start - 1], xs[run_start])
                right_edge = b if i_end == len(vals) else _root(fn, xs[i_end - 1], xs[i_end])
                out.append((float(left_edge), float(right_edge)))
                run_start = None
    return out


def _root(fn, a, b):
    fa = fn(a)
    for _ in range(80):
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fa > 0.0) == (fm > 0.0):
            a, fa = mid, fm
        else:
            b = mid
        if b - a <= 1e-14 * (abs(a) + abs(b) + 1.0):
            break
    return 0.5 * (a + b)


@dataclass
class WarpProfile:
    """tau <-> log r correspondence over one positivity interval of Q."""

    params: SKRParams
    phi: ScalarProfile
    q: ScalarProfile
    interval: tuple
    work_interval: tuple
    tau0: float
    antiderivative: PanelAntiderivative
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, params, phi, interval, margin=0.04):
        """Freeze the antiderivative of b/Q on a margin-trimmed interval.

        Q vanishes at interval endpoints in general, so the working range
        stays strictly inside.
        """
        lo, hi = float(interval[0]), float(interval[1])
        if not lo < hi:
            raise ConstructionError(f"empty interval {interval}")
        q = q_from_phi(params, phi)
        width = hi - lo
        wlo, whi = lo + margin * width, hi - margin * width
        for t in np.linspace(wlo, whi, 257):
            if q.value(t) <= 0.0:
                raise ConstructionError(
                    f"Q is not positive at tau={t} inside {interval}"
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
        return cls(
            params=params, phi=phi, q=q, interval=(lo, hi),
            work_interval=(wlo, whi), tau0=0.5 * (wlo + whi), antiderivative=anti,
        )

    def logr_of_tau(self, tau):
        return self.antiderivative(tau)

    @property
    def ell_range(self):
        """(min, max) of log r over the working interval."""
        a = self.antiderivative(self.work_interval[0])
        b = self.antiderivative(self.work_interval[1])
        return (a, b) if a < b else (b, a)

    def tau_of_logr(self, ell):
        hit = self._cache.get(ell)
        if hit is not None:
            return hit
        bf = float(self.params.b)
        out = invert_monotone(
            self.antiderivative,
            lambda t: bf / self.q.value(t),
            ell,
            self.work_interval[0],
            self.work_interval[1],
        )
        if len(self._cache) < 65536:
            self._cache[ell] = out
        return out

    def tau_jet(self, ell):
        """tau as a function of log r, with dtau/dl = Q/b propagated to jets."""
        if isinstance(ell, Jet):
            t0 = self.tau_of_logr(ell.val)
            bf = float(self.params.b)
            qv = self.q.value(t0)
            return ell.compose(t0, qv / bf, qv * self.q.d1(t0) / (bf * bf))
        return self.tau_of_logr(ell)

    def q_jet(self, tau):
        if isinstance(tau, Jet):
            t0 = tau.val
            return tau.compose(self.q.value(t0), self.q.d1(t0), self.q.d2(t0))
        return self.q.value(tau)

    def roundtrip_error(self, n=512):
        ts = np.linspace(self.work_interval[0], self.work_interval[1], n)
        return max(abs(self.tau_of_logr(self.logr_of_tau(t)) - t) for t in ts)

    def csv_rows(self, n=200):
        """Rows (tau, log_r, Q) sampled uniformly over the working interval."""
        ts = np.linspace(self.work_interval[0], self.work_interval[1], n)
        return [(t, self.logr_of_tau(t), self.q.value(t)) for t in ts]


def _rho_terms(base, xs, s):
    """(rho, k) for the bundle metric e^(-2 rho): d rho = k x.dx, with k = s
    (flat) or s/(1+|x|^2) (Fubini-Study)."""
    sum_sq = None
    for x in xs:
        sum_sq = x * x if sum_sq is None else sum_sq + x * x
    if base.kind == FLAT:
        return 0.5 * s * sum_sq, s
    denom = 1.0 + sum_sq
    return 0.5 * s * log_(denom), s / denom


def _standard_J(n):
    rows = [[0.0] * n for _ in range(n)]
    for j in range(n // 2):
        rows[2 * j + 1][2 * j] = 1.0
        rows[2 * j][2 * j + 1] = -1.0
    return rows


@dataclass
class SKRChart:
    """Assembled chart bundle: metric, scalar tau, profile f, and J, each
    a callable on coordinates."""

    chart: MetricChart
    tau: Callable
    f: Callable
    J: Callable
    params: SKRParams
    base: BaseModel
    warp: WarpProfile
    x_bound: float
    sample_margin: float = 0.05

    @property
    def dim(self):
        return self.chart.dim

    def sample_points(self, count, seed=0):
        """Deterministic low-discrepancy points inside the chart domain."""
        d = self.base.dim_c
        raw = halton_points(2 * d + 2, count, seed=seed)
        lo, hi = self.warp.ell_range
        span = hi - lo
        elo = lo + self.sample_margin * span
        ehi = hi - self.sample_margin * span
        pts = np.empty((count, 2 * d + 2))
        for r, row in enumerate(raw):
            xs = self.x_bound * (2.0 * row[:2 * d] - 1.0)
            ell = elo + (ehi - elo) * row[2 * d]
            theta = 2.0 * math.pi * row[2 * d + 1]
            R = math.exp(ell + self.base.rho(float(np.dot(xs, xs))))
            pts[r, :2 * d] = xs
            pts[r, 2 * d] = R * math.cos(theta)
            pts[r, 2 * d + 1] = R * math.sin(theta)
        return pts


def assemble_chart(base, warp):
    """MetricChart + fields from a base model and a frozen warp profile."""
    params = warp.params
    d = base.dim_c
    if d != params.m - 1:
        raise ConstructionError(
            f"base complex dimension {d} incompatible with m={params.m}"
        )
    n = 2 * d + 2
    s = float(base.s)
    bf = float(params.b)
    cf = float(params.c)
    mid = warp.tau0
    sign_tc = 1.0 if mid > cf else -1.0
    if not (warp.work_interval[0] > cf or warp.work_interval[1] < cf):
        raise ConstructionError("working interval must avoid tau = c")
    inv_b2 = 1.0 / (bf * bf)

    def components(coords):
        xs = list(coords[: 2 * d])
        u, v = coords[2 * d], coords[2 * d + 1]
        rho, k = _rho_terms(base, xs, s)
        wsq = u * u + v * v
        tau = warp.tau_jet(0.5 * log_(wsq) - rho)
        hfac = 2.0 * sign_tc * (tau - cf)
        vcoef = warp.q_jet(tau) * inv_b2
        # alpha + i beta = 2 d'rho - dw/w
        alpha, beta = [], []
        for j in range(d):
            kx, ky = k * xs[2 * j], k * xs[2 * j + 1]
            alpha += [kx, ky]
            beta += [-ky, kx]
        au, av = -u / wsq, -v / wsq
        alpha += [au, av]
        beta += [-av, au]
        # base block of h: I (flat), (2k/s) I - (2/s^2)(alpha alpha + beta beta) (FS)
        if base.kind == FLAT:
            hdiag, hcoef = hfac, vcoef
        else:
            hdiag, hcoef = (2.0 / s) * k * hfac, vcoef - (2.0 / (s * s)) * hfac
        g = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                coef = hcoef if j < 2 * d else vcoef
                gij = coef * (alpha[i] * alpha[j] + beta[i] * beta[j])
                g[i][j] = g[j][i] = gij + hdiag if i == j < 2 * d else gij
        return g

    lo_ell, hi_ell = warp.ell_range
    guard = 1e-9 * (hi_ell - lo_ell)
    z2max = 4.0 if base.kind == FUBINI_STUDY else float("inf")

    def domain(p):
        xs = p[: 2 * d]
        u, v = p[2 * d], p[2 * d + 1]
        wsq = u * u + v * v
        if wsq <= 1e-30:
            return False
        x2 = float(np.dot(xs, xs))
        if x2 >= z2max:
            return False
        ell = 0.5 * math.log(wsq) - base.rho(x2)
        return lo_ell + guard <= ell <= hi_ell - guard

    def tau_fn(coords):
        xs = list(coords[: 2 * d])
        u, v = coords[2 * d], coords[2 * d + 1]
        rho, _ = _rho_terms(base, xs, s)
        return warp.tau_jet(0.5 * log_(u * u + v * v) - rho)

    kf = float(params.k)

    def f_fn(coords):
        return 1.0 / tau_fn(coords) + kf

    chart = MetricChart(
        dim=n, components=components, domain=domain,
        name=f"{base.kind}-bundle-m{params.m}",
    )
    xb = 0.8 if base.kind == FLAT else 0.6
    return SKRChart(
        chart=chart,
        tau=tau_fn,
        f=f_fn,
        J=lambda coords: _standard_J(n),
        params=params,
        base=base,
        warp=warp,
        x_bound=xb,
    )


def build_warp(params, phi, interval):
    return WarpProfile.build(params, phi, interval)


def expected_kahler(base, params, interval):
    """Whether the two-form of g closes: b is ``base.kahler_b`` on the interval's side."""
    return params.b == base.kahler_b(tau_side(interval, params.c))


def admitted_phi(params, base):
    """phi of a parameter set the construction admits on this base.

    Refuses parameter sets that the exact first-order obstruction forces to
    phi = 0, and parameter/base combinations whose dimensions or Einstein
    constants disagree.
    """
    if base.dim_c != params.m - 1:
        raise ConstructionError(
            f"base dim_c={base.dim_c} requires m={base.dim_c + 1}, got m={params.m}"
        )
    if base.kappa != params.kappa:
        raise ConstructionError(
            f"base Einstein constant {base.kappa} != params kappa {params.kappa}"
        )
    verdict = nonexistence_decision(params)
    if verdict != CONSTANTS_ADMITTED:
        raise ConstructionError(
            "construction refused: the exact compatibility obstruction "
            f"a(2ck+1) = {params.a * (2 * params.c * params.k + 1)} is nonzero, "
            "so the only solution of the reduced system is phi = 0 "
            f"(verdict: {verdict}); use k = -1/(2c)"
        )
    return phi_closed_form(params)


def end_to_end(params, base, interval):
    """Build the warp on a tau-window and assemble the chart.

    After the refusals of ``admitted_phi``, refuses a window off the
    sgn(tau - c) = sign_phi side, where Q = 2 (tau - c) phi cannot be positive.
    """
    phi = admitted_phi(params, base)
    interval = (float(interval[0]), float(interval[1]))
    sgn = tau_side(interval, params.c)
    if sgn != params.sign_phi:
        raise ConstructionError(
            f"interval {interval} lies on the sgn(tau - c) = {sgn} side, "
            f"inconsistent with sign_phi = {params.sign_phi}"
        )
    warp = build_warp(params, phi, interval)
    skr = assemble_chart(base, warp)
    return skr, phi
