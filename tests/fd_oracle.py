"""The central-difference gradient oracle for analytic material gradients.

It lives with the tests because only tests use it; ``stretchlab.fd``
keeps the Hessian stencil that the library's Lame extraction uses, and
this oracle shares its step rule.
"""

import numpy as np

from stretchlab.fd import _steps

_E = np.eye(3)
# unit offsets: +e_i, -e_i (6 points)
_GRAD_STENCIL = np.concatenate([_E, -_E])


def fd_gradient(f, s, step=1e-5):
    """Central-difference gradient of a scalar field over stretch triples."""
    s = np.asarray(s, dtype=float)
    h = _steps(s, step)
    v = np.asarray(f(s + _GRAD_STENCIL * h), dtype=float)
    return (v[:3] - v[3:]) / (2.0 * h)
