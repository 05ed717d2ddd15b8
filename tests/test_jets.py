"""Second-order forward-mode jets against closed forms and finite differences."""

import math

import numpy as np
import numpy.testing as npt

from kahlerqe.jets import Jet, cos_, exp_, log_, sin_, sqrt_, value


def _fd_grad_hess(fn, x, h=1e-5):
    """Central finite differences of a scalar function of a vector."""
    n = len(x)
    g = np.zeros(n)
    H = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
        H[i, i] = (fn(x + e) - 2 * fn(x) + fn(x - e)) / h ** 2
        for j in range(i + 1, n):
            f = np.zeros(n)
            f[j] = h
            H[i, j] = H[j, i] = (
                fn(x + e + f) - fn(x + e - f) - fn(x - e + f) + fn(x - e - f)
            ) / (4 * h ** 2)
    return g, H


def test_seed_structure():
    xs = Jet.seed(np.array([2.0, 3.0]))
    assert xs[0].val == 2.0
    npt.assert_array_equal(xs[0].grad, [1.0, 0.0])
    npt.assert_array_equal(xs[1].grad, [0.0, 1.0])
    npt.assert_array_equal(xs[0].hess, np.zeros((2, 2)))


def test_polynomial_jet_exact():
    x, y = Jet.seed(np.array([1.5, -0.5]))
    f = x * x * y + 3.0 * x - y
    # f = x^2 y + 3x - y: grad = (2xy + 3, x^2 - 1), hess = [[2y, 2x], [2x, 0]]
    assert math.isclose(f.val, 1.5 ** 2 * (-0.5) + 4.5 + 0.5)
    npt.assert_allclose(f.grad, [2 * 1.5 * -0.5 + 3, 1.5 ** 2 - 1], atol=1e-14)
    npt.assert_allclose(f.hess, [[-1.0, 3.0], [3.0, 0.0]], atol=1e-14)


def test_reciprocal_and_division():
    (x,) = Jet.seed(np.array([2.0]))
    r = 1.0 / x
    npt.assert_allclose([r.val, r.grad[0], r.hess[0, 0]], [0.5, -0.25, 0.25],
                        atol=1e-15)
    s = (x * x) / (x + 1.0)
    # s(2) = 4/3; s' = (x^2 + 2x)/(x+1)^2 = 8/9; s'' = 2/(x+1)^3 = 2/27
    npt.assert_allclose([s.val, s.grad[0], s.hess[0, 0]],
                        [4 / 3, 8 / 9, 2 / 27], atol=1e-14)


def test_transcendental_closed_form():
    x, y, z = Jet.seed(np.array([0.7, 1.3, 2.0]))
    f = exp_(sin_(x) * y) + x * x * log_(z)

    def plain(v):
        return math.exp(math.sin(v[0]) * v[1]) + v[0] ** 2 * math.log(v[2])

    e = math.exp(math.sin(0.7) * 1.3)
    expect_gx = e * math.cos(0.7) * 1.3 + 2 * 0.7 * math.log(2.0)
    expect_gy = e * math.sin(0.7)
    expect_gz = 0.7 ** 2 / 2.0
    npt.assert_allclose(f.grad, [expect_gx, expect_gy, expect_gz], rtol=1e-13)
    g_fd, H_fd = _fd_grad_hess(plain, np.array([0.7, 1.3, 2.0]))
    npt.assert_allclose(f.grad, g_fd, rtol=1e-7)
    npt.assert_allclose(f.hess, H_fd, rtol=2e-4, atol=1e-6)


def test_mixed_composition_vs_fd():
    rng = np.random.RandomState(42)

    def jet_fn(coords):
        x, y, z = coords
        return sqrt_(1.0 + x * x) * cos_(y) / (2.0 + sin_(z))

    def plain(v):
        return math.sqrt(1 + v[0] ** 2) * math.cos(v[1]) / (2 + math.sin(v[2]))

    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, size=3)
        f = jet_fn(Jet.seed(p))
        assert math.isclose(f.val, plain(p), rel_tol=1e-14)
        g_fd, H_fd = _fd_grad_hess(plain, p)
        npt.assert_allclose(f.grad, g_fd, rtol=1e-6, atol=1e-9)
        npt.assert_allclose(f.hess, H_fd, rtol=1e-3, atol=1e-5)


def test_float_power():
    (x,) = Jet.seed(np.array([3.0]))
    f = x ** 0.5
    g = sqrt_(x)
    npt.assert_allclose([f.val, f.grad[0], f.hess[0, 0]],
                        [g.val, g.grad[0], g.hess[0, 0]], rtol=1e-15)
    h = x ** -2
    npt.assert_allclose([h.val, h.grad[0], h.hess[0, 0]],
                        [1 / 9, -2 / 27, 6 / 81], rtol=1e-14)


def test_compose_is_chain_rule():
    (x,) = Jet.seed(np.array([0.4]))
    inner = x * x + 1.0
    v = inner.val
    f = inner.compose(math.log(v), 1.0 / v, -1.0 / v ** 2)
    g = log_(inner)
    npt.assert_allclose([f.val, f.grad[0], f.hess[0, 0]],
                        [g.val, g.grad[0], g.hess[0, 0]], rtol=1e-15)


def test_value_passthrough():
    assert value(3.5) == 3.5
    (x,) = Jet.seed(np.array([1.25]))
    assert value(x) == 1.25

