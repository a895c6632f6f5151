"""Central finite-difference oracle over stretch triples.

Used by the test suite as the independent reference for analytic
gradients and Hessians, and by the Lame extraction as the authoritative
path. ``f`` maps a (..., 3) stack of triples to a (...) array of values,
as every ``MaterialModel.energy`` does: each function builds its whole
stencil as one (k, 3) array and calls ``f`` on it once. Steps are
relative, scaled per coordinate by max(1, |s_i|), which keeps
conditioning uniform near rest and at large stretch.

The Hessian formula, ``_hessian``, is linear in the 19 stencil values, so
``hessian_stencil`` gets its weights by applying it to unit vectors.
``fd_hessian`` applies it to the values, differences first: a weighted
sum rounds each f / h^2 alone, which costs eps |f| / h^2 unless f is near
zero, as the energy is at rest.
"""

import numpy as np

__all__ = ["fd_gradient", "fd_hessian", "hessian_stencil"]

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
# where the diagonal (0, 1, 2) and the pairs (3, 4, 5) sit in the Hessian
_LAYOUT = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])


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


def _hessian(v, h):
    """The Hessian (3, 3, ...) from the stencil values v (19, ...) and steps h (3, ...)."""
    c = v[7:].reshape((3, 4) + v.shape[1:])
    i, j = _PAIRS.T
    diag = (v[1:4] - 2.0 * v[:1] + v[4:7]) / h**2
    cross = (c[:, 0] - c[:, 1] - c[:, 2] + c[:, 3]) / (4.0 * h[i] * h[j])
    return np.concatenate([diag, cross])[_LAYOUT]


def hessian_stencil(s, step=1e-5):
    """The 19 Hessian stencil points around s (19, 3) and their weights (3, 3, 19).

    ``weights @ f(points)`` is the central-difference Hessian of f at s.
    """
    s = np.asarray(s, dtype=float)
    h = _steps(s, step)
    return s + _HESS_STENCIL * h, _hessian(np.eye(len(_HESS_STENCIL)), h[:, None])


def fd_hessian(f, s, step=1e-5):
    """Central-difference Hessian; off-diagonals via the 4-point cross stencil."""
    s = np.asarray(s, dtype=float)
    h = _steps(s, step)
    return _hessian(np.asarray(f(s + _HESS_STENCIL * h), dtype=float), h)
