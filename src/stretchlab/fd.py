"""Central finite-difference oracle over stretch triples.

Used by the test suite as the independent reference for analytic
gradients and Hessians, and by the Lame extraction as the authoritative
path. ``f`` maps a (..., 3) stack of triples to a (...) array of values,
as every ``MaterialModel.energy`` does: each function builds its whole
stencil as one (k, 3) array and calls ``f`` on it once. Steps are
relative, scaled per coordinate by max(1, |s_i|), which keeps
conditioning uniform near rest and at large stretch.
"""

import numpy as np

__all__ = ["fd_gradient", "fd_hessian"]

_E = np.eye(3)
_PAIRS = np.array([(0, 1), (0, 2), (1, 2)])
_CROSS = np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])
# unit offsets: +e_i, -e_i (6 points)
_GRAD_STENCIL = np.concatenate([_E, -_E])
# unit offsets: 0, +e_i, -e_i, then (+-e_i +-e_j) per pair i < j (19 points)
_HESS_STENCIL = np.vstack(
    [np.zeros(3), _E, -_E]
    + [a * _E[i] + b * _E[j] for i, j in _PAIRS for a, b in _CROSS]
)


def _steps(s, step):
    if not 1e-9 < step < 1e-2:
        raise ValueError(f"fd step {step} outside (1e-9, 1e-2)")
    return step * np.maximum(1.0, np.abs(s))


def fd_gradient(f, s, step=1e-5):
    """Central-difference gradient of a scalar field over stretch triples."""
    s = np.asarray(s, dtype=float)
    h = _steps(s, step)
    v = np.asarray(f(s + _GRAD_STENCIL * h), dtype=float)
    return (v[:3] - v[3:]) / (2.0 * h)


def fd_hessian(f, s, step=1e-5):
    """Central-difference Hessian; off-diagonals via the 4-point cross stencil."""
    s = np.asarray(s, dtype=float)
    h = _steps(s, step)
    v = np.asarray(f(s + _HESS_STENCIL * h), dtype=float)
    H = np.diag((v[1:4] - 2.0 * v[0] + v[4:7]) / h**2)
    c = v[7:].reshape(3, 4)
    i, j = _PAIRS.T
    H[i, j] = H[j, i] = (c[:, 0] - c[:, 1] - c[:, 2] + c[:, 3]) / (4.0 * h[i] * h[j])
    return H
