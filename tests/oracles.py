"""Test-only jet functions and curvature oracles.

``sin_``, ``cos_``, ``exp_`` and ``sqrt_`` extend ``kahlerqe.jets`` for the
sphere, hyperbolic and product fixtures; like ``log_`` they act on batched
jets (numpy, elementwise along the point axis) and on plain floats.

``riemann`` is the full curvature tensor at one point, built the long way:
dGamma from the jets of g, then R from dGamma and Gamma with ``np.einsum``.
The package forms Ricci from contracted second derivatives of g without
either, so the trace of this tensor is an independent check of it.
"""

import numpy as np

from kahlerqe.charts import metric_jets
from kahlerqe.jets import Jet


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


def riemann(chart, p):
    """Curvature R[l,k,i,j] = R^l_{k i j}, i.e. R(e_i,e_j)e_k = R^l_{kij} e_l."""
    g, dg, d2g = metric_jets(chart, p)
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
