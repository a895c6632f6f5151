"""Rotation-variant SVD: reconstruction, sign convention, equivariance."""

import numpy as np
import pytest

from stretchlab.materials import make_material
from stretchlab.stretch_core import assemble_pk1, decompose


def reconstruct(svd):
    """U diag(sigma) V^T."""
    return (svd.U * svd.sigma[..., None, :]) @ np.swapaxes(svd.V, -1, -2)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_reconstruction_and_rotation_determinants():
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        F = rng.uniform(-2.0, 2.0, size=(3, 3))
        svd = decompose(F)
        assert np.linalg.det(svd.U) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.det(svd.V) == pytest.approx(1.0, abs=1e-10)
        # only the last stretch may carry the sign of det F
        assert svd.sigma[0] >= svd.sigma[1] >= abs(svd.sigma[2]) - 1e-12
        assert np.sign(np.prod(svd.sigma)) == np.sign(np.linalg.det(F)) or (
            abs(np.linalg.det(F)) < 1e-12
        )
        assert np.max(np.abs(reconstruct(svd) - F)) < 1e-12 * max(
            1.0, np.max(np.abs(F))
        )


def test_identity_decomposition():
    svd = decompose(np.eye(3))
    assert np.allclose(svd.sigma, 1.0)
    assert np.allclose(reconstruct(svd), np.eye(3))


def test_stretch_rotation_equivariance():
    # sigma(R F) = sigma(F) for any rotation R
    rng = np.random.default_rng(99)
    for _ in range(100):
        F = np.eye(3) + 0.5 * rng.uniform(-1, 1, size=(3, 3))
        R = random_rotation(rng)
        s0 = decompose(F).sigma
        s1 = decompose(R @ F).sigma
        assert np.max(np.abs(np.sort(s0) - np.sort(s1))) < 1e-8


def test_energy_rotation_invariance():
    rng = np.random.default_rng(7)
    model = make_material("stable_neo_hookean", {"mu": 1.0, "lam": 2.0})
    for _ in range(50):
        F = np.eye(3) + 0.4 * rng.uniform(-1, 1, size=(3, 3))
        if np.linalg.det(F) < 0.1:
            continue
        R = random_rotation(rng)
        e0 = model.energy(decompose(F).sigma)
        e1 = model.energy(decompose(R @ F).sigma)
        assert abs(e0 - e1) < 1e-10 * max(1.0, abs(e0))


def test_pk1_assembly_matches_matrix_derivative():
    # for psi = sum sigma_i^2 / 2 the PK1 stress is F itself
    rng = np.random.default_rng(3)
    for _ in range(50):
        F = rng.uniform(-2.0, 2.0, size=(3, 3))
        svd = decompose(F)
        P = assemble_pk1(svd, svd.sigma)
        assert np.max(np.abs(P - F)) < 1e-12 * max(1.0, np.max(np.abs(F)))


def test_decompose_rejects_bad_shapes():
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 2)))
