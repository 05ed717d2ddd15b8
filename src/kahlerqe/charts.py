"""Coordinate-chart tensor calculus from second-order jets, on batches of points.

A MetricChart names a chart's dimension and domain; its metric components,
and the fields tau, f and J, must be written with jet-friendly arithmetic
(see kahlerqe.jets) so that evaluating them on seeded jets yields exact
first and second derivatives.  All curvature kernels below consume those
derivative arrays; nothing here uses finite differences.

Every array carries the point axis last: a metric is (n, n, B), its
derivatives (n, n, n, B) and (n, n, n, n, B), a scalar (B,).  The tensor
indices of a point come first, so per-point scalars broadcast as they are
and numpy's inner loops run over the batch, contiguous and of length B,
instead of over a tensor axis of length n.  ``PointGeometry`` evaluates a
``fields`` callable, which returns the metric's rows together with tau, f
and J, once on a whole batch of points, and derives everything the
verification suite needs from that one evaluation with the batch kernels
``metric_jets`` and ``scalar_jet`` (jet arrays), ``christoffel``,
``ricci`` and ``hessian``.  These are the only curvature path; a single
point is the batch B = 1.

Contractions sum in a fixed order with elementwise operations only
(``_esum``): one C-ordered broadcast product of the operands, laid out as
(summed indices, output indices, point), holds every term, and the terms
are added one summed index tuple at a time, in lexicographic order.  A
numpy reduce would sum pairwise wherever the reduced run is contiguous,
which depends on the batch size; the sequential sum does not, so a point's
geometry is bit for bit the same whichever batch it is evaluated in.  The
same holds where a kernel is batched over a tensor index instead of looped
over it: ``conformal_jets`` adds its three product-rule terms to each
(k, l) entry in the same order from one (n, n, n, B) block per k, and the
horizontal frame (``_horizontal_frame``) is modified Gram-Schmidt applied
right-looking, so that every coordinate vector sees the projections on
grad tau, J grad tau and the frame vectors accepted before it, in that
order, as in the left-looking loop, each projection one ``_esum``
contraction for all remaining vectors at once.  ``np.linalg``
takes stacks point-first, so the inverse and the solve for grad tau are
handed ``np.moveaxis(x, -1, 0)``.  Ricci is formed from contractions of
the second derivatives of g; neither dGamma nor the Riemann tensor is
materialised.

Sign conventions: Ricci of the unit round sphere is +g, of the hyperbolic
plane -g.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from kahlerqe.jets import Jet


class SingularMetricError(ValueError):
    """Metric not invertible (or not positive definite) at a point."""


def _always(coords):
    return True


@dataclass(frozen=True)
class MetricChart:
    """Riemannian metric in a single coordinate chart."""

    dim: int
    components: Callable  # not called here; perfbench's _count_components re-wraps it
    domain: Callable = _always
    name: str = ""


@functools.cache
def _esum_plan(spec):
    """Per operand of ``spec``: the no-summation einsum that lays it out as
    (its summed axes, its output axes, point), or None where the operand is
    in that order already, and the index that inserts length-1 axes for the
    summed and output letters it lacks, or None where it lacks none."""
    ins, out = spec.split("->")
    summed = sorted(set(ins) - set(out) - {","})
    axes, plans = summed + list(out), []
    for letters in ins.split(","):
        have = "".join(c for c in axes if c in letters)
        expand = tuple(slice(None) if c in letters else None for c in axes)
        plans.append((None if have == letters else f"{letters}...->{have}...",
                      expand if None in expand else None))
    return len(summed), tuple(plans)


def _esum(spec, *ops):
    """``np.einsum(spec)`` over a trailing point axis, in a fixed order.

    ``spec`` names the axes before the point axis, e.g. ``"ka,aij->kij"``;
    a summed index may repeat within an operand (a trace).  Each operand is
    laid out as (summed..., out..., point) by an einsum that only takes
    diagonals and transposes, so its entries are copied exactly; an operand
    already in that order is used as it is.  The operands are multiplied
    left to right into a C-ordered product of shape (S, out..., B), whose
    first axis runs over the S tuples of summed values in lexicographic
    order, and the terms are added one tuple at a time, first to last.
    That is the same products and the same sequential sum as a loop over
    the tuples.  The point axis is last, so every multiply and add runs its
    inner loop over the B points, contiguous in the product.  A reduce
    (``np.sum``, ``einsum``) is not used: where the reduced run is
    contiguous (one point, scalar output) numpy sums it pairwise, and the
    result would depend on the batch size.
    """
    k, plans = _esum_plan(spec)
    views = []
    for (sub, expand), op in zip(plans, ops):
        v = op if sub is None else np.einsum(sub, op)
        views.append(v if expand is None else v[expand])
    t = views[0]
    for v in views[1:]:
        t = np.multiply(t, v, order="C")
    t = t.reshape((-1,) + t.shape[k:])
    acc = t[0].copy()
    for term in t[1:]:
        acc += term
    return acc


def scalar_jet(e, n, B):
    """(value, gradient, Hessian) arrays of a Jet, or of a constant with zero derivatives."""
    if isinstance(e, Jet):
        return e.val, e.grad, e.hess
    return np.full(B, float(e)), np.zeros((n, B)), np.zeros((n, n, B))


def metric_jets(rows, n, B, order=2):
    """Arrays (M[i,j,b], dM[k,i,j,b], d2M[k,l,i,j,b]) of n x n rows of Jets
    and constants, at B points; the first ``order`` derivatives only."""
    out = [np.empty((n,) * (2 + d) + (B,)) for d in range(order + 1)]
    for i in range(n):
        for j in range(n):
            e = rows[i][j]
            parts = (e.val, e.grad, e.hess) if isinstance(e, Jet) else (float(e), 0.0, 0.0)
            for d in range(order + 1):
                out[d][(slice(None),) * d + (i, j)] = parts[d]
    return tuple(out)


def inverse_metric(g):
    """Inverses of the metrics (n, n, B) at B points."""
    try:
        ginv = np.moveaxis(np.linalg.inv(np.moveaxis(g, -1, 0)), 0, -1)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError(f"metric not invertible: {exc}") from exc
    if not np.all(np.isfinite(ginv)):
        raise SingularMetricError("metric inverse overflowed")
    return ginv


def is_positive_definite(g):
    """Cholesky-based positive definiteness test for a symmetric matrix, or
    for a stack (B, n, n) of them: True only if every one is."""
    try:
        np.linalg.cholesky(g)
        return True
    except np.linalg.LinAlgError:
        return False


def christoffel(g, dg):
    """(ginv, T, Gamma) with T[a,i,j] = d_i g_aj + d_j g_ai - d_a g_ij and
    Gamma[k,i,j] = Gamma^k_ij = ginv[k,a] T[a,i,j] / 2."""
    ginv = inverse_metric(g)
    T = dg.transpose(1, 0, 2, 3) + dg.transpose(1, 2, 0, 3) - dg
    return ginv, T, 0.5 * _esum("ka,aij->kij", ginv, T)


def ricci(ginv, T, gamma, dg, d2g):
    """r_kj = d_l Gamma^l_jk - d_j Gamma^l_lk + Gamma^l_la Gamma^a_jk
    - Gamma^l_ja Gamma^a_lk, with both derivative terms contracted from d2g:

        d_l Gamma^l_jk = (d_l g^la) T_ajk / 2 + g^la d_l T_ajk / 2,
        d_j Gamma^l_lk = d_j d_k log sqrt(det g)
                       = (d_j g^la) d_k g_al / 2 + g^la d_j d_k g_al / 2,

    where d_j g^la = -(A_j)^l_q g^qa for A_j = g^-1 d_j g."""
    A = _esum("lp,jpq->jlq", ginv, dg)
    div_ginv = -_esum("llq,qa->a", A, ginv)  # d_l g^la
    # g^la d_l T_ajk = g^la (d_l d_j g_ak + d_l d_k g_aj - d_l d_a g_jk); the
    # second term is the first with j and k swapped
    M = _esum("la,ljak->kj", ginv, d2g)
    d_gamma = 0.5 * _esum("a,ajk->kj", div_ginv, T) + 0.5 * (
        M + M.transpose(1, 0, 2) - _esum("la,lajk->kj", ginv, d2g))
    d_log_det = 0.5 * (_esum("la,jkal->kj", ginv, d2g) - _esum("jlq,kql->kj", A, A))
    return (d_gamma - d_log_det + _esum("lla,ajk->kj", gamma, gamma)
            - _esum("lja,alk->kj", gamma, gamma))


def hessian(gamma, dv, d2v):
    """Covariant Hessian (nabla d v)_ij of a scalar from its coordinate jets."""
    return d2v - _esum("kij,k->ij", gamma, dv)


def conformal_jets(g, dg, d2g, tau_jet):
    """Jets of g / tau^2 from the jets of g and of tau, by the product rule.

    w = 1/tau^2 is formed with Jet arithmetic and each entry is multiplied
    in the order of ``Jet.__mul__``, so the result equals the metric jets
    of the chart whose components are g_ij * w (``conformal_scale`` in
    ``tests/oracles.py``) bit for bit without evaluating the components
    again.

    Consumes ``d2g``: the Hessian of g / tau^2 is built in place over it,
    so that only one array of n^4 entries per point exists.  A caller that
    still needs d2g passes a copy.
    """
    t = Jet(*tau_jet)
    w = 1.0 / (t * t)
    wv = w.val
    # the Hessians are summed in place over d2g, one (n, n, n, B) block per k
    # so that no second array of n^4 entries per point exists, in the order
    # of ``Jet.__mul__``: w's Hessian times g, then the cross term
    # dg (x) dw and its transpose; each entry [k, l] receives the same three
    # terms in the same order as in a loop over (k, l)
    d2 = d2g
    d2 *= wv
    grad = w.grad[:, None, None]
    for k in range(g.shape[0]):
        d2[k] += w.hess[k][:, None, None] * g
        d2[k] += dg[k] * grad
        d2[k] += dg * w.grad[k]
    return g * wv, dg * wv + grad * g, d2


def _quad(a, S, b):
    """a_i S_ij b_j at each point, as (a S) b."""
    return _esum("j,j->", _esum("i,ij->j", a, S), b)


def _unit(v, G):
    """v / |v|_G at each point."""
    return v / np.sqrt(_quad(v, G, v))


def _killing_residual(g, dg, ginv, gamma, dv, d2v, J, dJ):
    """Lie derivative (L_K g)_ij for K = J grad(tau); zero iff K is Killing."""
    dginv = -_esum("ia,mab->mib", ginv, _esum("mab,bj->maj", dg, ginv))
    grad_up = _esum("ij,j->i", ginv, dv)
    K_up = _esum("ij,j->i", J, grad_up)
    # coordinate derivative of K^i
    dK_up = (
        _esum("mil,l->mi", dJ, grad_up)
        + _esum("il,ml->mi", J, _esum("mls,s->ml", dginv, dv))
        + _esum("il,ml->mi", J, _esum("ls,ms->ml", ginv, d2v))
    )
    K_low = _esum("ij,j->i", g, K_up)
    dK_low = _esum("mji,i->mj", dg, K_up) + _esum("ji,mi->mj", g, dK_up)
    return dK_low + dK_low.transpose(1, 0, 2) - 2.0 * _esum("lmj,l->mj", gamma, K_low)


def _max_entry(x):
    """Largest |entry| of each point's tensor."""
    return np.max(np.abs(x).reshape(-1, x.shape[-1]), axis=0)


DROP_TOL = 1e-8


def _project_out(W, G, u):
    """Each vector W[r] of a stack (R, dim, B) less its G-projection on the
    G-unit u, at each point: w - (w G u) u, the contraction of ``_quad``
    for all R vectors at once."""
    return W - _esum("rj,j->r", _esum("ri,ij->rj", W, G), u)[:, None] * u


def _horizontal_frame(G, units):
    """G-orthonormal frames (dim-2, dim, B) of the complements of span{units}.

    Deterministic: modified Gram-Schmidt on the coordinate basis in index
    order, skipping directions that collapse (squared G-norm at most
    ``DROP_TOL``), at every point at once.  Coordinate vector i sees, in
    order, the projections on the G-units units[0] and units[1], then on each
    frame vector accepted before it at that point, in the order they were
    accepted; then it is normalised, and taken where it does not collapse.
    The projections are applied right-looking: the two fixed directions
    are projected out of all dim vectors in one batched contraction each,
    and a frame vector accepted at some points is projected out of every
    later coordinate vector in one, masked to those points.  Each vector
    thus sees the same projections in the same order as in the
    left-looking loop over vectors (Bjorck, Linear Algebra Appl. 197-198
    (1994) 297-316), and each projection is the same products and sums of
    ``_esum``, so the frame is bit for bit that loop's.  Where G is not
    positive definite a point can run out of directions; its frame then
    keeps zero vectors in the places it could not fill.
    """
    dim, B = units.shape[1:]
    W = np.zeros((dim, dim, B))
    W[np.arange(dim), np.arange(dim)] = 1.0
    for u in units:
        W = _project_out(W, G, u)
    out = np.zeros((dim - 2, dim, B))
    count = np.zeros(B, dtype=int)
    for i in range(dim):
        w = W[i]
        nw = _quad(w, G, w)
        take = (nw > DROP_TOL) & (count < dim - 2)
        cols = np.nonzero(take)[0]
        if not cols.size:
            continue
        u = np.zeros((dim, B))
        u[:, cols] = w[:, cols] / np.sqrt(nw[cols])
        out[count[cols], :, cols] = u[:, cols].T
        count += take
        if i + 1 == dim or np.all(count == dim - 2):
            break
        rest = W[i + 1:]
        W[i + 1:] = np.where(take, _project_out(rest, G, u), rest)
    return out


class PointGeometry:
    """Everything the verification suite reads, at a batch of points.

    Built from one call of ``skr.fields`` on the seeded jets of all the
    points (an array (B, n), one point per row, or (n,) for one point),
    which returns the metric's rows together with tau, f and J; every
    derived quantity is formed once, here, as an array whose last axis is
    the point axis, ``p`` (n, B) included.
    The jets of ghat = g / tau^2 come from those of g and tau by the
    product rule (``conformal_jets``), and ghat's curvature is computed
    from them directly, not from its expansion in g-terms.  Arrays with
    n^4 entries per point (second derivatives of the metrics) are
    contracted to Ricci during construction and not kept.

    ``skr`` needs ``chart`` and ``fields``; ``fields(coords)`` returns
    ``(g, tau, f, J)`` with None for an absent tau, f or J, and the
    quantities that need a missing field are not set.  ``index`` holds
    each point's position in the sample stream it came from (default
    0..B-1).  ``select`` and ``join`` take and merge sub-batches.

    Several charts of one dimension make one batch: ``skr`` a list of
    them, ``points`` and ``index`` lists of each chart's arrays.  Their
    fields are joined by ``fields.stack`` into one call over all the
    points, chart after chart, and everything here is elementwise along
    the point axis, so each chart's block of the batch is bit for bit
    that chart's own batch, cached quantities included.

    Attributes: ``p``, ``g``, ``ginv``, ``ricci``; with tau: ``tau`` (its
    values, else None), ``dtau``, ``grad_tau`` (contravariant),
    ``grad_tau_sq``, ``hess_tau``, ``lap_tau``, ``g_hat``, ``ricci_hat``;
    with f: ``f``, ``df``, ``hess_f`` and, with tau too, ``hess_f_hat``,
    ``lap_f_hat``, ``grad_f_hat_sq``; with J: ``J`` (its values),
    ``kahler_residual`` (max |nabla J| entry) and, with tau too,
    ``killing_residual`` (max |L_K g| entry for K = J grad tau).
    ``tau_units``, ``horizontal``, ``frameless``, ``hess_tau_horizontal``,
    ``phi_hat``, ``skr_residual`` and ``indefinite`` are formed on first
    use and kept; ``select`` carries those already formed, and ``join``
    needs its parts to have formed the same ones.
    """

    def __init__(self, skr, points, index=None):
        if isinstance(skr, list):
            fields = skr[0].fields.stack([one.fields for one in skr],
                                         [len(pts) for pts in points])
            skr, points = skr[0], np.concatenate(points)
            index = None if index is None else np.concatenate(index)
        else:
            fields = skr.fields
        n = skr.chart.dim
        self.p = np.atleast_2d(np.asarray(points, dtype=float)).T
        B = self.p.shape[1]
        self.index = np.arange(B) if index is None else np.asarray(index)
        rows, tau, f, J = fields(Jet.seed(self.p))
        g, dg, d2g = metric_jets(rows, n, B)
        del rows
        self.g = g
        self.ginv, T, gamma = christoffel(g, dg)
        self.ricci = ricci(self.ginv, T, gamma, dg, d2g)
        del T
        self.tau = None
        if tau is not None:
            tau_jet = scalar_jet(tau, n, B)
            self.tau, self.dtau, d2tau = tau_jet
            grad_tau = np.linalg.solve(np.moveaxis(g, -1, 0), self.dtau.T[..., None])
            self.grad_tau = grad_tau[..., 0].T
            self.grad_tau_sq = _quad(self.dtau, self.ginv, self.dtau)
            self.hess_tau = hessian(gamma, self.dtau, d2tau)
            self.lap_tau = _esum("ij,ij->", self.ginv, self.hess_tau)
            g_hat, dg_hat, d2g_hat = conformal_jets(g, dg, d2g, tau_jet)
            del d2g
            self.g_hat = g_hat
            ginv_hat, T_hat, gamma_hat = christoffel(g_hat, dg_hat)
            self.ricci_hat = ricci(ginv_hat, T_hat, gamma_hat, dg_hat, d2g_hat)
            del T_hat, dg_hat, d2g_hat
        if f is not None:
            self.f, self.df, d2f = scalar_jet(f, n, B)
            self.hess_f = hessian(gamma, self.df, d2f)
            if tau is not None:
                self.hess_f_hat = hessian(gamma_hat, self.df, d2f)
                self.lap_f_hat = _esum("ij,ij->", ginv_hat, self.hess_f_hat)
                self.grad_f_hat_sq = _quad(self.df, ginv_hat, self.df)
        if J is not None:
            self.J, dJ = metric_jets(J, n, B, order=1)
            nabla_J = (
                dJ
                + _esum("jil,lk->ijk", gamma, self.J)
                - _esum("lik,jl->ijk", gamma, self.J)
            )
            self.kahler_residual = _max_entry(nabla_J)
            if tau is not None:
                self.killing_residual = _max_entry(_killing_residual(
                    g, dg, self.ginv, gamma, self.dtau, d2tau, self.J, dJ))

    def __len__(self):
        return self.p.shape[1]

    def select(self, rows):
        """The sub-batch at ``rows`` (indices or a boolean mask)."""
        out = object.__new__(PointGeometry)
        for key, val in vars(self).items():
            setattr(out, key, val[..., rows] if isinstance(val, np.ndarray) else val)
        return out

    @staticmethod
    def join(parts):
        """One batch from sub-batches, in the order given."""
        out = object.__new__(PointGeometry)
        for key, val in vars(parts[0]).items():
            if isinstance(val, np.ndarray):
                val = np.concatenate([vars(part)[key] for part in parts], axis=-1)
            setattr(out, key, val)
        return out

    @cached_property
    def tau_units(self):
        """G-units (2, n, B) of grad tau and J grad tau, J taken at each point."""
        v = self.grad_tau
        return np.stack([_unit(w, self.g) for w in (v, _esum("ij,j->i", self.J, v))])

    @cached_property
    def horizontal(self):
        """G-orthonormal frames (n-2, n, B) of the complements of ``tau_units``."""
        return _horizontal_frame(self.g, self.tau_units)

    @cached_property
    def frameless(self):
        """Whether each point lacks a full ``horizontal`` frame: its last
        vector is zero only there, since every vector the frame takes is a
        G-unit."""
        return ~np.any(self.horizontal[-1] != 0.0, axis=0)

    def horizontal_block(self, S):
        """The (n-2)x(n-2) blocks of a 2-tensor S on the ``horizontal`` frames."""
        hs = self.horizontal
        return _esum("sj,tj->st", _esum("si,ij->sj", hs, S), hs)

    @cached_property
    def hess_tau_horizontal(self):
        """Hess tau on the ``horizontal`` frames, built once for every check."""
        return self.horizontal_block(self.hess_tau)

    @cached_property
    def phi_hat(self):
        """The horizontal eigenvalue of Hess tau, tr(``hess_tau_horizontal``)
        / (n - 2), built once for every check."""
        return _esum("ii->", self.hess_tau_horizontal) / (self.g.shape[0] - 2)

    @cached_property
    def skr_residual(self):
        """Largest entry, at each point, of the departures from the SKR
        eigenstructure: Hess tau and Ricci on the ``horizontal`` frames less
        their traces / (n - 2) times the identity, and their mixed terms
        between the frames and ``tau_units``."""
        n = self.g.shape[0]
        ricci_block = self.horizontal_block(self.ricci)
        worst = np.zeros(len(self))
        for S, block, lam in ((self.hess_tau, self.hess_tau_horizontal, self.phi_hat),
                              (self.ricci, ricci_block, _esum("ii->", ricci_block) / (n - 2))):
            worst = np.maximum(worst, _max_entry(block - lam * np.eye(n - 2)[:, :, None]))
            hS = _esum("si,ij->sj", self.horizontal, S)
            for vn in self.tau_units:
                worst = np.maximum(worst, _max_entry(_esum("sj,j->s", hS, vn)))
        return worst

    @cached_property
    def indefinite(self):
        """Whether each point's metric is not positive definite: one
        Cholesky call on the whole batch, and only if it fails one per
        point."""
        gs = np.moveaxis(self.g, -1, 0)
        if is_positive_definite(gs):
            return np.zeros(len(gs), dtype=bool)
        return np.array([not is_positive_definite(g) for g in gs])
