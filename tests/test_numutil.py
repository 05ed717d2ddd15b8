"""Numerical helpers: the Halton sample points against an independent
reference, and the import cost of the package."""

import os
import subprocess
import sys

import numpy as np
import pytest

import kahlerqe
from kahlerqe.numutil import halton_points


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
