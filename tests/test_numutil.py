"""Numerical helpers: the Halton sample points against an independent
reference, loud failure of the quadrature and the monotone inversion, and
the import cost of the package."""

import os
import subprocess
import sys

import numpy as np
import pytest

import kahlerqe
from kahlerqe.numutil import (
    ConvergenceError,
    PanelAntiderivative,
    halton_points,
    invert_monotone,
)


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


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(kahlerqe.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, kahlerqe.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_panel_build_raises_at_max_depth():
    fn = lambda t: 1.0 / t  # needs refinement near the left end
    with pytest.raises(ConvergenceError, match="depth 2"):
        PanelAntiderivative.build(fn, 0.01, 1.0, anchor=0.5, max_depth=2)
    anti = PanelAntiderivative.build(fn, 0.01, 1.0, anchor=0.5)
    assert abs(anti(1.0) - np.log(2.0)) < 1e-13


def test_invert_monotone_raises_when_bisection_stops_early():
    fn, dfn = (lambda x: x ** 3), (lambda x: 3 * x * x)
    with pytest.raises(ConvergenceError, match="after 5 steps"):
        invert_monotone(fn, dfn, 0.2, 0.0, 1.0, bisect_steps=5)
    assert abs(invert_monotone(fn, dfn, 0.2, 0.0, 1.0) - 0.2 ** (1 / 3)) < 1e-14
