"""Numerical helpers: the Halton sample points against an independent
reference, loud failure of the quadrature and the root finder, the root
finder on a bracket where Newton alone fails, the level-wise panel build
against the depth-first one, and the import cost of the package."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import kahlerqe
from kahlerqe.numutil import (
    _GL7,
    _GL15,
    ConvergenceError,
    PanelAntiderivative,
    _gl,
    halton_points,
    invert_monotone,
)
from oracles import gl_loop, invert_two_calls, panel_build_depth_first


def test_halton_points_match_scipy_bit_for_bit():
    qmc = pytest.importorskip("scipy.stats.qmc")
    skip = 64
    for seed in (0, 1, 31):
        # unscrambled Halton columns depend only on their prime, so one
        # 24-dimensional reference covers every smaller dimension
        ref = qmc.Halton(d=24, scramble=False)
        left = skip + seed * 100003
        while left:  # fast-forward materialises points; keep chunks small
            step = min(left, 100003)
            ref.fast_forward(step)
            left -= step
        expected = ref.random(400)
        for dim in range(1, 25):
            for count in (1, 50, 400):
                got = halton_points(dim, count, seed=seed, skip=skip)
                assert got.shape == (count, dim)
                assert np.array_equal(got, expected[:count, :dim])
    for dim in (1, 6, 14):
        direct = qmc.Halton(d=dim, scramble=False)
        direct.fast_forward(skip)
        assert np.array_equal(halton_points(dim, 50), direct.random(50))


def test_halton_points_reject_negative_seed():
    # a negative start index would never reach 0 under floor division
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        halton_points(2, 3, seed=-1)


def test_halton_points_reject_indices_past_int64():
    # the last index of the stretch must fit the int64 digit arithmetic
    with pytest.raises(ValueError, match="past int64"):
        halton_points(2, 3, seed=10**20)
    top = (np.iinfo(np.int64).max - 64 - 2) // 100003
    assert np.all(np.isfinite(halton_points(2, 3, seed=top)))


def _loaded_by_import(module, target="kahlerqe.cli"):
    """Whether ``import target`` in a fresh interpreter loads ``module``."""
    src = os.path.dirname(os.path.dirname(kahlerqe.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    probe = f"import sys, {target}; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    answer = out.stdout.strip()
    assert answer in ("True", "False"), answer
    return answer == "True"


def test_cli_import_does_not_load_scipy():
    assert not _loaded_by_import("scipy")


def test_cli_import_does_not_load_concurrent_futures():
    # the sweep decides its cells in the calling thread, with no executor
    assert not _loaded_by_import("concurrent.futures")


def test_package_import_loads_no_submodule():
    # the package namespace re-exports nothing: numpy and the numerical
    # modules load only when a submodule is imported
    for module in ("numpy", "kahlerqe.builder"):
        assert not _loaded_by_import(module, target="kahlerqe")


def test_rational_import_does_not_load_numpy():
    # exact arithmetic needs no numpy: the pole check uses the value's own
    # methods
    assert not _loaded_by_import("numpy", target="kahlerqe.rational")


def test_odes_import_does_not_load_numpy():
    # the exact ODE layer takes numpy only when a float closed form is built
    assert not _loaded_by_import("numpy", target="kahlerqe.odes")


def test_panel_build_raises_at_max_depth():
    fn = lambda t: 1.0 / t  # needs refinement near the left end
    with pytest.raises(ConvergenceError, match="depth 2"):
        PanelAntiderivative.build(fn, 0.01, 1.0, anchor=0.5, max_depth=2)
    anti = PanelAntiderivative.build(fn, 0.01, 1.0, anchor=0.5)
    assert abs(anti(1.0) - np.log(2.0)) < 1e-13


def test_invert_monotone_raises_when_bisection_stops_early():
    fdf = lambda x: (x ** 3, 3 * x * x)
    with pytest.raises(ConvergenceError, match="after 5 steps"):
        invert_monotone(fdf, 0.2, 0.0, 1.0, steps=5)
    assert abs(invert_monotone(fdf, 0.2, 0.0, 1.0) - 0.2 ** (1 / 3)) < 1e-14


def test_invert_monotone_needs_only_a_sign_change():
    # x^3 - x changes sign on [0.5, 2], but its derivative vanishes at
    # 1/sqrt(3) inside the bracket: Newton steps from there leave it
    fdf = lambda x: (x ** 3 - x, 3 * x * x - 1)
    assert abs(invert_monotone(fdf, 0.0, 0.5, 2.0) - 1.0) < 1e-15


def test_invert_monotone_bisects_where_newton_creeps():
    # rounding makes fn a staircase of step q = 2^-12; on the stair just
    # below the target, Newton steps of 1e-9 would creep across it
    fdf = lambda x: ((x + 2.0 ** 40) - 2.0 ** 40, 1.0)
    q, level = 2.0 ** -12, 1229 * 2.0 ** -12
    x = invert_monotone(fdf, level + 1e-9, 0.0, 1.0)
    assert abs(x - (level + 0.5 * q)) < 1e-13


def test_invert_monotone_ignores_noise_the_derivative_misses():
    fdf = lambda x: (x + 1e-12 * np.sin(1e9 * x), 1.0)
    assert abs(invert_monotone(fdf, 0.3, 0.0, 1.0) - 0.3) < 1e-11


def _acceptance_warps():
    from fractions import Fraction

    from kahlerqe.builder import build_warp
    from kahlerqe.odes import SKRParams, phi_closed_form

    flat = SKRParams.section6(m=2, a=1, c=1, C2=-1, kappa=0, b=1, sign_phi=-1)
    fs = SKRParams.section6(m=3, a=2, c=1, C2=Fraction(-1, 100), kappa=3,
                            b=Fraction(-1, 2), sign_phi=1)
    # near_q_zero: the work interval of (0, 1) runs up to where Q = 0.012, as in
    # test_builder::test_log_r_keeps_full_precision_near_a_zero_of_q
    near = SKRParams.section6(m=2, a=2, c=1, C2=1, kappa=0, b=1, sign_phi=-1)
    return {"flat-a1": build_warp(flat, phi_closed_form(flat), (0.35, 0.95)),
            "fs-a2": build_warp(fs, phi_closed_form(fs), (1.3, 1.9)),
            "near_q_zero": build_warp(near, phi_closed_form(near), (0.0, 1.0))}


def _bits(xs):
    return np.array(xs, dtype=float).view(np.int64)


@pytest.mark.parametrize("label", ("flat-a1", "fs-a2", "near_q_zero"))
def test_panel_build_equals_depth_first_oracle_bit_for_bit(label):
    anti = _acceptance_warps()[label].antiderivative
    lo, hi = anti.edges[0], anti.edges[-1]
    edges, cumulative = panel_build_depth_first(anti.fn, lo, hi, anti.anchor)
    assert np.array_equal(_bits(anti.edges), _bits(edges))
    assert np.array_equal(_bits(anti.cumulative), _bits(cumulative))
    if label == "near_q_zero":
        assert len(edges) > 10  # the panels refine towards the zero of Q


@pytest.mark.parametrize("label", ("flat-a1", "fs-a2", "near_q_zero"))
def test_panel_build_calls_the_integrand_once_per_level(label):
    warp = _acceptance_warps()[label]
    lo, hi = warp.work_interval
    calls = []

    def fn(t):
        calls.append(np.shape(t))
        return warp.antiderivative.fn(t)

    anti = PanelAntiderivative.build(fn, lo, hi, anchor=warp.antiderivative.anchor)
    widths = np.diff(anti.edges)
    levels = 1 + int(np.max(np.round(np.log2((hi - lo) / widths))))
    assert len(calls) == levels + 1  # GL7 and GL15 together per level, then the anchor's
    assert calls[0] == (1, 7 + 15)
    assert all(shape[1:] == (7 + 15,) for shape in calls[:-1])
    assert calls[-1] == (2, 15)


@pytest.mark.parametrize("label", ("flat-a1", "fs-a2", "near_q_zero"))
def test_inversion_calls_the_integrand_once_per_newton_step(label):
    """``tau_of_logr`` evaluates the integrand once on the two ends of the
    bracket that every target shares, then once per Newton iteration on the
    GL15 nodes of the points still running and on the points themselves,
    for F and F' together."""
    warp = _acceptance_warps()[label]
    anti = warp.antiderivative
    steps, calls = [], []

    def fn(t):
        calls.append(np.shape(t))
        return anti.fn(t)

    counted = dataclasses.replace(anti, fn=fn)

    def with_slope(x):
        steps.append(np.shape(x))
        return counted.with_slope(x)

    ells = np.linspace(*warp.ell_range, 41)[1:-1]
    got = invert_monotone(with_slope, ells, *warp.work_interval)
    assert got.tobytes() == warp.tau_of_logr(ells).tobytes()
    assert steps[0] == (2,)  # the two ends of the one bracket
    assert len(steps) > 2 and all(s[0] <= ells.size for s in steps[1:])
    assert calls == [s + (15 + 1,) for s in steps]


@pytest.mark.parametrize("label", ("flat-a1", "fs-a2", "near_q_zero"))
def test_invert_monotone_equals_the_two_callable_newton_bit_for_bit(label):
    """One callable for F and F' gives the bits of separate callables for
    the antiderivative and its integrand, on batches of log r targets and
    on each target alone."""
    warp = _acceptance_warps()[label]
    anti = warp.antiderivative
    lo, hi = warp.work_interval
    ells = np.random.RandomState(7).permutation(np.linspace(*warp.ell_range, 65)[1:-1])
    want = invert_two_calls(anti, anti.fn, ells, lo, hi)
    assert warp.tau_of_logr(ells).tobytes() == want.tobytes()
    for ell in ells[:8]:
        assert warp.tau_of_logr(float(ell)) == invert_two_calls(anti, anti.fn, float(ell), lo, hi)
    # the bracket ends themselves, and targets at them
    assert warp.tau_of_logr(np.array(warp.ell_range)).tobytes() == invert_two_calls(
        anti, anti.fn, np.array(warp.ell_range), lo, hi).tobytes()


def test_shared_bracket_ends_give_the_bits_of_per_target_ends():
    """fs-a2's inversion of 200 targets with the two scalar ends of its work
    interval, evaluated once, gives the bits of the same ends repeated for
    every target, which evaluates them once per target."""
    warp = _acceptance_warps()["fs-a2"]
    lo, hi = warp.work_interval
    ells = np.random.RandomState(3).uniform(*warp.ell_range, 200)
    ells[:2] = warp.ell_range  # targets at the bracket ends themselves
    per_target = invert_monotone(warp.antiderivative.with_slope, ells,
                                 np.full(ells.size, lo), np.full(ells.size, hi))
    assert warp.tau_of_logr(ells).tobytes() == per_target.tobytes()


def test_positivity_newton_equals_the_two_callable_newton_bit_for_bit():
    """The ends of the positivity intervals of fs-a2's Q, solved from
    ``taylor`` alone, are those of ``value`` with the slope of ``taylor``."""
    from kahlerqe.builder import positivity_intervals

    q = _acceptance_warps()["fs-a2"].q
    ends = [e for iv in positivity_intervals(q, -5.0, 7.0, (0.0, 1.0, 2.0)) for e in iv]
    roots = [e for e in ends if e not in (-5.0, 0.0, 1.0, 2.0, 7.0)]
    assert roots
    for root in roots:
        for lo, hi in ((root - 1e-3, root + 1e-3), (root - 0.2, root + 1e-9)):
            got = invert_monotone(lambda t: q.taylor(t)[:2], 0.0, lo, hi)
            assert got == invert_two_calls(q.value, lambda t: q.taylor(t)[1], 0.0, lo, hi)


@pytest.mark.parametrize("label", ("flat-a1", "fs-a2"))
def test_invert_monotone_batch_equals_scalar_calls_bit_for_bit(label):
    warp = _acceptance_warps()[label]
    lo, hi = warp.ell_range
    ells = np.random.RandomState(4).permutation(np.linspace(lo, hi, 41)[1:-1])
    batch = warp.tau_of_logr(ells)
    assert batch.shape == ells.shape
    for ell, tau in zip(ells, batch):
        one = warp.tau_of_logr(float(ell))
        assert type(one) is float
        assert one == tau
    # the antiderivative too: an array evaluates as its elements alone
    taus = np.linspace(*warp.work_interval, 33)
    anti = warp.antiderivative
    assert [anti(float(t)) for t in taus] == list(anti(taus))


def test_invert_monotone_names_the_element_that_does_not_converge():
    # on the staircase of test_invert_monotone_bisects_where_newton_creeps
    # the middle target needs more than 3 steps; the others are hit at once
    fdf = lambda x: ((x + 2.0 ** 40) - 2.0 ** 40, 1.0)
    slow = 1229 * 2.0 ** -12 + 1e-9
    targets = np.array([0.25, slow, 0.5])
    with pytest.raises(ConvergenceError, match="after 3 steps") as info:
        invert_monotone(fdf, targets, 0.0, 1.0, steps=3)
    message = str(info.value)
    assert f"[{slow!r}]" in message
    assert "0.25" not in message
    got = invert_monotone(fdf, targets, 0.0, 1.0)
    assert list(got) == [invert_monotone(fdf, t, 0.0, 1.0) for t in targets]
    with pytest.raises(ValueError, match=r"target\(s\) \[2\.0\] not bracketed"):
        invert_monotone(fdf, np.array([0.5, 2.0]), 0.0, 1.0)


def test_gl_matches_the_per_node_loop_bit_for_bit():
    """``_gl`` sums the weighted node values with one sequential accumulate,
    onto a first term plus 0.0: the same bits as adding them one node at a
    time onto 0.0, for scalar and array bounds, at B = 1, reversed bounds,
    and with a first term of -0.0."""
    rng = np.random.default_rng(3)
    lo = rng.uniform(-3.0, 0.0, 40)
    hi = lo + 10.0 ** rng.uniform(-6.0, 0.5, 40)

    def smooth(t):
        return np.exp(t) / (1.0 + t * t)

    def neg_zero(t):
        return np.full(np.shape(t), -0.0)

    def neg_zero_first(t):
        return np.where(t == t[..., :1], -0.0, smooth(t))

    for rule in (_GL7, _GL15):
        for fn in (smooth, neg_zero, neg_zero_first):
            for a, b in ((0.25, 1.75), (lo, hi), (lo[:1], hi[:1]), (hi, lo)):
                got, want = _gl(fn, a, b, rule), gl_loop(fn, a, b, rule)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        # a sum of -0.0 terms is 0.0, as 0.0 + (-0.0) is
        assert not np.signbit(_gl(neg_zero, 0.25, 1.75, rule))
        assert not np.any(np.signbit(_gl(neg_zero, lo, hi, rule)))

