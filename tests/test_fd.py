"""Finite-difference helpers: accuracy, order of convergence, validation,
and the stacked stencil against a per-point oracle."""

import numpy as np
import pytest

from stretchlab.fd import fd_hessian
from stretchlab.materials import make_material, sample_params

from fd_oracle import fd_gradient


def cubic(s):
    s = np.asarray(s)
    x, y, z = s[..., 0], s[..., 1], s[..., 2]
    return x**3 + 2.0 * y**2 * z + np.sin(x * z)


def cubic_grad(s):
    c = np.cos(s[0] * s[2])
    return np.array(
        [3 * s[0] ** 2 + s[2] * c, 4 * s[1] * s[2], 2 * s[1] ** 2 + s[0] * c]
    )


def loop_gradient(f, s, step):
    """Oracle: one call of f per stencil point."""
    h = step * np.maximum(1.0, np.abs(s))
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h[i]
        g[i] = (f(s + e) - f(s - e)) / (2.0 * h[i])
    return g


def loop_hessian(f, s, step):
    """Oracle: one call of f per stencil point."""
    h = step * np.maximum(1.0, np.abs(s))
    H = np.zeros((3, 3))
    f0 = f(s)
    for i in range(3):
        ei = np.zeros(3)
        ei[i] = h[i]
        H[i, i] = (f(s + ei) - 2.0 * f0 + f(s - ei)) / h[i] ** 2
        for j in range(i + 1, 3):
            ej = np.zeros(3)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                f(s + ei + ej) - f(s + ei - ej) - f(s - ei + ej) + f(s - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return H


def test_gradient_accuracy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = rng.uniform(0.5, 2.0, size=3)
        assert np.max(np.abs(fd_gradient(cubic, s, 1e-6) - cubic_grad(s))) < 1e-8


def test_hessian_accuracy():
    s = np.array([1.2, 0.8, 1.5])
    H = fd_hessian(cubic, s, 1e-4)
    c = np.cos(s[0] * s[2])
    n = np.sin(s[0] * s[2])
    exact = np.array(
        [
            [6 * s[0] - s[2] ** 2 * n, 0.0, c - s[0] * s[2] * n],
            [0.0, 4 * s[2], 4 * s[1]],
            [c - s[0] * s[2] * n, 4 * s[1], -s[0] ** 2 * n],
        ]
    )
    assert np.max(np.abs(H - exact)) < 1e-6


def test_second_order_convergence():
    # halving the step should shrink the error by at least 3x while the
    # truncation term dominates
    s = np.array([1.1, 0.9, 1.3])
    exact = cubic_grad(s)
    errs = []
    for step in (8e-3, 4e-3, 2e-3):
        g = fd_gradient(cubic, s, step)
        errs.append(np.max(np.abs(g - exact)))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


@pytest.mark.parametrize("fd", (fd_gradient, fd_hessian))
@pytest.mark.parametrize("step", (0.5, 1e-2, 1e-9, 1e-12))
def test_step_validation(fd, step):
    with pytest.raises(ValueError):
        fd(cubic, np.ones(3), step)


@pytest.mark.parametrize("fd, points", ((fd_gradient, 6), (fd_hessian, 19)))
def test_stencil_is_one_call(fd, points):
    shapes = []

    def f(s):
        shapes.append(np.shape(s))
        return cubic(s)

    fd(f, np.array([1.1, 0.9, 1.3]))
    assert shapes == [(points, 3)]


def _models():
    rng = np.random.default_rng(7)
    return {
        "stable_neo_hookean": make_material("stable_neo_hookean", {"mu": 1.3, "lam": 2.1}),
        "ogden": make_material("ogden", sample_params("ogden", rng)),
    }


@pytest.mark.parametrize("family", ("stable_neo_hookean", "ogden"))
@pytest.mark.parametrize("at", ("rest", "random"))
@pytest.mark.parametrize("step", (1e-5, 1e-4, 2e-4))
def test_stacked_stencil_matches_per_point_loop(family, at, step):
    model = _models()[family]
    s = np.ones(3) if at == "rest" else np.random.default_rng(8).uniform(0.5, 2.0, size=3)
    g = fd_gradient(model.energy, s, step)
    g_ref = loop_gradient(model.energy, s, step)
    assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
    H = fd_hessian(model.energy, s, step)
    H_ref = loop_hessian(model.energy, s, step)
    assert np.max(np.abs(H - H_ref)) <= 1e-12 * np.max(np.abs(H_ref))
