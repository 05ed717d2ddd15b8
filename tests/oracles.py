"""Test-only jet functions, curvature oracles and reference loops.

``sin_``, ``cos_``, ``exp_`` and ``sqrt_`` extend ``kahlerqe.jets`` for the
sphere, hyperbolic and product fixtures; they act on batched jets (numpy,
elementwise along the point axis, which is the last axis) and on plain
floats, and ``value`` reads the values of either.

``jets_at`` and ``curvature_at`` evaluate a chart at one point: the
package's batch kernels on the batch B = 1, behind the checks that the
point has the chart's shape, is finite and lies in the chart's domain, and
return the arrays without their trailing point axis.  ``point`` and
``points`` view one point, or each point, of a ``PointGeometry`` batch the
same way.

``riemann`` is the full curvature tensor at one point, built the long way:
dGamma from the jets of g, then R from dGamma and Gamma with ``np.einsum``.
The package forms Ricci from contracted second derivatives of g without
either, so the trace of this tensor is an independent check of it.

``esum_loop``, ``panel_build_depth_first``, ``gl_loop``,
``horizontal_frame_left_looking`` and ``sample_points_loop`` are the
package's earlier loop forms of ``charts._esum``,
``PanelAntiderivative.build``, ``numutil._gl``,
``charts._horizontal_frame`` and ``SKRChart.sample_points``; the
vectorized forms must reproduce them bit for bit.  ``invert_two_calls``
is ``numutil.invert_monotone`` as it was with separate callables for the
value and the slope, each evaluated on its own; the one-callable form
must give the same bits.  ``conformal_scale`` is
the chart of g / tau^2, against which ``charts.conformal_jets`` is checked.

``log_derivative_rf``, ``lemma_quantities_rf`` and
``closed_form_certificate_rf`` are the exact ODE layer's earlier forms:
the plain rational-function formulas, one operator (and one reduction) at a
time.  The package forms each quantity as one numerator over its known
denominator and reduces it once; canonical form makes the two equal.
``derivative_rf`` differentiates a ``RationalFunction``, which only these
forms and the tests do; the package differentiates polynomials only.

``system_12_formula``, ``solsys_system_formula`` and
``appendix_system_formula`` build the three systems as the package did
before it wrote their members in ints over the parameters' common
denominator: products of the polynomials t, t - c, 1 + k t with Fraction
coefficients.  ``log_derivative_rf`` is the same kind of reference for
``closed_form_log_derivative``.  Canonical form makes each pair equal.
"""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from kahlerqe import charts
from kahlerqe.builder import SAMPLE_MARGIN
from kahlerqe.charts import MetricChart
from kahlerqe.jets import Jet
from kahlerqe.numutil import _GL7, _GL15, ConvergenceError, _gl, halton_points
from kahlerqe.odes import LinearODE2, first_order_reduction, psi_factors
from kahlerqe.rational import Polynomial, RationalFunction, _rf


def value(x):
    """Values of a Jet, or a plain float."""
    return x.val if isinstance(x, Jet) else float(x)


def _apply(x, f0, f1, f2):
    if isinstance(x, Jet):
        v = x.val
        return x.compose(f0(v), f1(v), f2(v))
    return f0(x)


def sin_(x):
    return _apply(x, np.sin, np.cos, lambda v: -np.sin(v))


def cos_(x):
    return _apply(x, np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v))


def exp_(x):
    return _apply(x, np.exp, np.exp, np.exp)


def sqrt_(x):
    if isinstance(x, Jet) and np.any(x.val <= 0.0):
        raise ValueError("sqrt of a nonpositive jet value")
    return _apply(x, np.sqrt, lambda v: 0.5 / np.sqrt(v), lambda v: -0.25 / (np.sqrt(v) * v))


class ChartDomainError(ValueError):
    """Point outside the declared chart domain."""


def jets_at(chart, p):
    """Metric jets (g[i,j], dg[k,i,j] = d_k g_ij, d2g[k,l,i,j]) of ``chart``
    at the one point ``p``, from ``charts.metric_jets`` on the batch B = 1."""
    p = np.asarray(p, dtype=float)
    if p.shape != (chart.dim,):
        raise ChartDomainError(f"expected {chart.dim} coordinates, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ChartDomainError(f"non-finite coordinates {p}")
    if not chart.domain(p):
        raise ChartDomainError(f"point {p} outside domain of chart {chart.name!r}")
    rows = chart.components(Jet.seed(p))
    return tuple(a[..., 0] for a in charts.metric_jets(rows, chart.dim, 1))


def curvature_at(chart, p, fn=None):
    """Geometry of ``chart`` at the one point ``p`` from the batch kernels at
    B = 1, without the point axis: the jets ``g``, ``dg``, ``d2g``,
    ``gamma`` (Gamma[k,i,j] = Gamma^k_ij) and ``ricci``; with a scalar
    field ``fn`` also its jet ``v``, ``dv``, ``d2v`` and its covariant
    Hessian ``hess``."""
    g, dg, d2g = (a[..., None] for a in jets_at(chart, p))
    ginv, T, gamma = charts.christoffel(g, dg)
    out = dict(g=g, dg=dg, d2g=d2g, gamma=gamma, ricci=charts.ricci(ginv, T, gamma, dg, d2g))
    if fn is not None:
        v, dv, d2v = charts.scalar_jet(fn(Jet.seed(p)), chart.dim, 1)
        out.update(v=v, dv=dv, d2v=d2v, hess=charts.hessian(gamma, dv, d2v))
    return SimpleNamespace(**{key: a[..., 0] for key, a in out.items()})


def point(geos, i):
    """Point i of a ``charts.PointGeometry`` batch: its arrays without the
    (last) point axis, its scalars as plain floats (index as int)."""
    out = SimpleNamespace()
    for key, val in vars(geos).items():
        if isinstance(val, np.ndarray):
            val = val[..., i]
            val = val.item() if val.ndim == 0 else val
        setattr(out, key, val)
    return out


def points(geos):
    """Every point of a ``charts.PointGeometry`` batch, in order, as ``point``
    gives it."""
    return [point(geos, i) for i in range(len(geos))]


def riemann(chart, p):
    """Curvature R[l,k,i,j] = R^l_{k i j}, i.e. R(e_i,e_j)e_k = R^l_{kij} e_l."""
    g, dg, d2g = jets_at(chart, p)
    ginv = np.linalg.inv(g)
    # T[a,i,j] = d_i g_aj + d_j g_ai - d_a g_ij, and its derivative
    T = np.einsum("iaj->aij", dg) + np.einsum("jai->aij", dg) - dg
    dT = np.einsum("miaj->maij", d2g) + np.einsum("mjai->maij", d2g) - d2g
    gamma = 0.5 * np.einsum("ka,aij->kij", ginv, T)
    dginv = -np.einsum("mab,ka,bl->mkl", dg, ginv, ginv)
    dgamma = 0.5 * np.einsum("mka,aij->mkij", dginv, T) + 0.5 * np.einsum(
        "ka,maij->mkij", ginv, dT)
    R = np.einsum("iljk->lkij", dgamma) - np.einsum("jlik->lkij", dgamma)
    R += np.einsum("lia,ajk->lkij", gamma, gamma) - np.einsum("lja,aik->lkij", gamma, gamma)
    return R


def esum_loop(spec, *ops):
    """``charts._esum`` as a loop over the summed index tuples: each term is
    the left-to-right product of its operands' slices, and the terms are
    added in lexicographic order of the tuples.  The point axis is the last
    axis of every operand and of the result."""
    ins, out = spec.split("->")
    ins = ins.split(",")
    dims = {}
    for letters, op in zip(ins, ops):
        dims.update(zip(letters, op.shape[:-1]))
    summed = sorted(set("".join(ins)) - set(out))
    plans = []
    for letters in ins:
        free = [c for c in letters if c not in summed]
        perm = tuple(sorted(range(len(free)), key=lambda t: out.index(free[t]))) + (len(free),)
        expand = tuple(slice(None) if c in free else None for c in out) + (slice(None),)
        plans.append((letters, perm, expand))
    acc = None
    for values in itertools.product(*(range(dims[c]) for c in summed)):
        fix = dict(zip(summed, values))
        term = None
        for (letters, perm, expand), op in zip(plans, ops):
            v = op[tuple(fix.get(c, slice(None)) for c in letters) + (slice(None),)]
            v = v.transpose(perm)[expand]
            term = v if term is None else term * v
        acc = term if acc is None else acc + term
    return acc


def panel_build_depth_first(fn, lo, hi, anchor, rtol=1e-13, max_depth=40):
    """(edges, cumulative) of ``PanelAntiderivative.build``, refining one
    panel at a time from a stack, with one GL7 and one GL15 call per panel."""
    panels = []
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        coarse = float(_gl(fn, a, b, _GL7))
        fine = float(_gl(fn, a, b, _GL15))
        scale = abs(fine) + 1e-30
        if abs(fine - coarse) <= rtol * scale:
            panels.append((a, b, fine))
        elif depth >= max_depth:
            raise ConvergenceError(f"panel [{a}, {b}] at depth {depth}")
        else:
            mid = 0.5 * (a + b)
            stack.append((a, mid, depth + 1))
            stack.append((mid, b, depth + 1))
    panels.sort()
    edges = [panels[0][0]] + [p[1] for p in panels]
    p = min(int(np.searchsorted(edges, anchor, side="right")) - 1, len(panels) - 1)
    cum = [0.0] * len(edges)
    cum[p] = float(_gl(fn, anchor, edges[p], _GL15))
    cum[p + 1] = float(_gl(fn, anchor, edges[p + 1], _GL15))
    for j in range(p + 1, len(panels)):
        cum[j + 1] = cum[j] + panels[j][2]
    for j in range(p - 1, -1, -1):
        cum[j] = cum[j + 1] - panels[j][2]
    return tuple(edges), tuple(cum)


def gl_loop(fn, lo, hi, rule):
    """``numutil._gl`` with the weighted node values added one node at a
    time onto 0.0, first node to last."""
    nodes, weights = rule
    mid, half = np.asarray(0.5 * (lo + hi)), np.asarray(0.5 * (hi - lo))
    at = mid[..., None] + half[..., None] * nodes
    vals = np.broadcast_to(fn(at), at.shape)
    acc = 0.0
    for k, w in enumerate(weights):
        acc = acc + w * vals[..., k]
    return half * acc


def invert_two_calls(fn, dfn, target, lo, hi, steps=100):
    """``numutil.invert_monotone`` with the value ``fn`` and the slope
    ``dfn`` as two callables: fn on each bracket end, then fn and dfn once
    each per Newton step."""
    scalar = np.ndim(target) == 0
    target = np.atleast_1d(np.asarray(target, dtype=float))
    lo, hi = (np.broadcast_to(np.asarray(e, dtype=float), target.shape) for e in (lo, hi))
    flo, fhi = fn(lo) - target, fn(hi) - target
    out = np.where(flo == 0.0, lo, hi)
    run = (flo != 0.0) & (fhi != 0.0)
    if np.any(run & (flo * fhi > 0.0)):
        raise ValueError("not bracketed")
    k = np.nonzero(run)[0]
    t, flo, a, b = target[k], flo[k], lo[k], hi[k]
    x = np.minimum(b, a + (b - a) * (flo / (flo - fhi[k])))
    last = before = b - a
    for _ in range(steps):
        if not k.size:
            break
        fx = fn(x) - t
        hit = fx == 0.0
        out[k[hit]] = x[hit]
        lower = (fx > 0.0) == (flo > 0.0)
        a, b = np.where(lower, x, a), np.where(lower, b, x)
        d = dfn(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.where(d != 0.0, x - fx / d, np.nan)
        ok = (a <= y) & (y <= b) & (np.abs(y - x) <= 0.5 * before)
        y = np.where(ok, y, 0.5 * (a + b))
        before, last = last, np.abs(y - x)
        tol = 1e-14 * (np.abs(y) + 1.0)
        done = (last <= tol) | (b - a <= tol)
        out[k[done & ~hit]] = y[done & ~hit]
        keep = ~(done | hit)
        k, t, flo, a, b, x = k[keep], t[keep], flo[keep], a[keep], b[keep], y[keep]
        last, before = last[keep], before[keep]
    if k.size:
        raise ConvergenceError(f"Newton left the brackets after {steps} steps")
    return float(out[0]) if scalar else out


def sample_points_loop(skr, count, seed=0):
    """``SKRChart.sample_points`` one row at a time: |x|^2 by ``np.dot``,
    and log r, exp, cos and sin by ``math`` on the row's floats."""
    d = skr.base.dim_c
    raw = halton_points(2 * d + 2, count, seed=seed)
    lo, hi = skr.warp.ell_range
    span = hi - lo
    elo = lo + SAMPLE_MARGIN * span
    ehi = hi - SAMPLE_MARGIN * span
    pts = np.empty((count, 2 * d + 2))
    for r, row in enumerate(raw):
        xs = skr.base.row.x_bound * (2.0 * row[:2 * d] - 1.0)
        ell = elo + (ehi - elo) * row[2 * d]
        theta = 2.0 * math.pi * row[2 * d + 1]
        R = math.exp(ell + skr.base.rho(float(np.dot(xs, xs)))[0])
        pts[r, :2 * d] = xs
        pts[r, 2 * d] = R * math.cos(theta)
        pts[r, 2 * d + 1] = R * math.sin(theta)
    return pts


def domain_loop(skr, rows):
    """The chart domain of ``assemble_chart`` one row at a time: w away from
    0, |x|^2 by ``np.dot`` below the base's bound, and log r by
    ``math.log`` inside the warp's log r range less its guard."""
    d = skr.base.dim_c
    lo, hi = skr.warp.ell_range
    guard = 1e-9 * (hi - lo)
    out = []
    for p in rows:
        xs = p[:2 * d]
        u, v = p[2 * d], p[2 * d + 1]
        wsq = u * u + v * v
        x2 = float(np.dot(xs, xs))
        if wsq <= 1e-30 or x2 >= skr.base.row.z2_max:
            out.append(False)
            continue
        ell = 0.5 * math.log(wsq) - skr.base.rho(x2)[0]
        out.append(lo + guard <= ell <= hi - guard)
    return np.array(out, dtype=bool)


def horizontal_frame_left_looking(G, v1, v2):
    """``charts._horizontal_frame`` as left-looking modified Gram-Schmidt:
    coordinate vector i is projected on the G-units of v1 and v2, then on
    each frame vector accepted so far, one projection at a time, before it
    is normalised and taken where it does not collapse."""
    quad, unit = charts._quad, charts._unit
    dim, B = v1.shape
    frame = [unit(v, G) for v in (v1, v2)]
    out = np.zeros((dim - 2, dim, B))
    count = np.zeros(B, dtype=int)
    for i in range(dim):
        w = np.zeros((dim, B))
        w[i] = 1.0
        for u in frame:
            w = w - quad(w, G, u) * u
        for s in range(dim - 2):
            u = out[s]
            w = np.where(s < count, w - quad(w, G, u) * u, w)
        nw = quad(w, G, w)
        take = (nw > charts.DROP_TOL) & (count < dim - 2)
        cols = np.nonzero(take)[0]
        out[count[cols], :, cols] = (w[:, cols] / np.sqrt(nw[cols])).T
        count += take
    if np.any(count != dim - 2):
        raise RuntimeError("failed to build a frame for the horizontal complement")
    return out


def conformal_scale(chart, fn):
    """Chart for g-hat = g / tau^2; domain excludes zeros of tau."""

    def components(coords):
        rows = chart.components(coords)
        t = fn(coords)
        w = 1.0 / (t * t)
        return [[rows[i][j] * w for j in range(chart.dim)] for i in range(chart.dim)]

    def domain(coords):
        return chart.domain(coords) and np.all(value(fn(Jet.seed(coords))) != 0.0)

    return MetricChart(
        dim=chart.dim,
        components=components,
        domain=domain,
        name=f"{chart.name}/tau^2" if chart.name else "conformal",
    )


# -- the exact ODE layer by plain rational-function formulas ---------------


def derivative_rf(r):
    """(n/d)' of a RationalFunction, canonical without a full reduction.

    With g = gcd(d, d') and e = d/g, (n/d)' = (n'e - n (d'/g)) / (d e) is
    already coprime: e is the squarefree part of d, so each prime factor of
    d e divides n'e but not n (d'/g) (Yun, SYMSAC 1976); g is monic, so e
    and d e are too.
    """
    n, d = r.num, r.den
    if d.degree == 0:
        return _rf(n.derivative(), d)
    dd = d.derivative()
    g = d.gcd(dd)
    e, dg = (d, dd) if g.degree == 0 else (d // g, dd // g)
    return _rf(n.derivative() * e - n * dg, d * e)


def log_derivative_rf(params):
    """L = psi'/psi as the sum of e/(tau - root) over ``psi_factors``."""
    terms = [RationalFunction(e, Polynomial((-root, 1))) for e, root in psi_factors(params)]
    return sum(terms[1:], terms[0])


def lemma_quantities_rf(p, q, ode2):
    """E1 = A(p^2 - p') - Bp + C and E2 = D - A(q' - pq) - Bq for
    phi' + p phi = q and the member A phi'' + B phi' + C phi = D."""
    A, B, C, D = (RationalFunction(x) for x in (ode2.A, ode2.B, ode2.C, ode2.D))
    E1 = A * (p * p - derivative_rf(p)) - B * p + C
    E2 = D - A * (derivative_rf(q) - p * q) - B * q
    return E1, E2


def closed_form_certificate_rf(params, ode2, L):
    """(C2 E, C C1 - D) with E = A(L' + L^2) + BL + C, the E1 of the
    reduction phi' - L phi = 0."""
    E, _ = lemma_quantities_rf(-L, RationalFunction.constant(0), ode2)
    return params.C2 * E, RationalFunction(ode2.C * params.C1 - ode2.D)


# -- the exact ODE systems by their formulas -------------------------------


def system_12_formula(params):
    """``odes.system_12`` by its formulas: polynomial products of t, t - c
    and 1 + k t with Fraction coefficients."""
    m, a, c, k = params.m, params.a, params.c, params.k
    kap, lam, sg = params.kappa, params.lam, params.sign_phi
    t = Polynomial.variable()
    one = Polynomial((1,))

    A1 = t * (t - c) ** 2 * (one + k * t)
    B1 = Polynomial((
        -(2 * m - 2 + a) * c * c,
        (2 * a + 3 * m - 4) * c - 2 * (m - 1) * k * c * c,
        Fraction(2 - m) - a + (3 * m - 4) * k * c,
        (2 - m) * k,
    ))
    C1 = -(m * t + m * k * t * t)
    D1 = Fraction(-sg) * kap / 2 * t * (one + k * t)
    eq1 = LinearODE2(A1, B1, C1, D1)

    A2 = t * t * (t - c) * (one + k * t)
    B2 = Polynomial((
        0,
        c * (a + 2 * m),
        Fraction(1 - m) - a + 2 * m * k * c,
        (1 - m) * k,
    ))
    C2 = Polynomial((-2 * c * (a + 2 * m - 1), a - 2 * c * (2 * m - 1) * k))
    D2 = -lam * (one + k * t)
    eq2 = LinearODE2(A2, B2, C2, D2)
    return eq1, eq2


def solsys_system_formula(params):
    """``odes.solsys_system`` by its formulas, as ``system_12_formula``."""
    if not params.on_distinguished_branch():
        raise ValueError("solsys_system requires c != 0 and k = -1/(2c)")
    m, a, c = params.m, params.a, params.c
    kap, lam, sg = params.kappa, params.lam, params.sign_phi
    t = Polynomial.variable()
    one = Polynomial((1,))

    A1 = t * (t - c) ** 2 * (2 * c * one - t)
    B1 = Polynomial((
        -2 * c**3 * (2 * m - 2 + a),
        2 * c * c * (2 * a + 4 * m - 5),
        c * (Fraction(8) - 5 * m - 2 * a),
        Fraction(m - 2),
    ))
    C1 = m * t * (t - 2 * c)
    D1 = Fraction(sg) * kap / 2 * t * (t - 2 * c)
    eq1 = LinearODE2(A1, B1, C1, D1)

    A2 = t * t * (t - c) * (2 * c * one - t)
    B2 = Polynomial((0, 2 * c * c * (a + 2 * m), 2 * c * (Fraction(1) - 2 * m - a), Fraction(m - 1)))
    C2 = 2 * c * (a + 2 * m - 1) * (t - 2 * c)
    D2 = lam * (t - 2 * c)
    eq2 = LinearODE2(A2, B2, C2, D2)
    return eq1, eq2


def appendix_system_formula(params):
    """``odes.appendix_system`` by its formulas, as ``system_12_formula``."""
    m, a, c = params.m, params.a, params.c
    kap, lam, sg = params.kappa, params.lam, params.sign_phi
    f = Polynomial.variable()

    IA = f * (f - c) ** 2
    IB = (f - c) * (m * f + (f - c) * a)
    IC = -m * f
    ID = Fraction(-sg) * kap / 2 * f
    mek_f = LinearODE2(IA, IB, IC, ID)

    IIA = -(f * (f - c))
    IIB = -(a * (f - c)) - (m + 1) * f
    IIC = Polynomial((-a,))
    IID = lam * f
    qe2_f = LinearODE2(IIA, IIB, IIC, IID)
    return mek_f, qe2_f, first_order_reduction((mek_f, qe2_f), 1, f - c)
