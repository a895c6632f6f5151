"""Deformation-gradient decomposition and PK1 stress assembly.

A deformation gradient F is factored as F = U diag(s) V^T where U and V are
proper rotations and s holds the principal stretches, sorted descending.
Keeping det(U) = det(V) = +1 pushes any reflection into the sign of the
smallest stretch, so at most one entry of s can be negative. Among exactly
equal stretches, columns are ordered lexicographically by their V column.
Exchanging two columns of U and V makes both reflections, so the exchange
also negates the second column of each; U diag(s) V^T is unchanged.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RotationVariantSVD", "decompose", "assemble_pk1"]

# the column orders that exchange columns 0 and 1, and columns 1 and 2
_EXCHANGE = ([1, 0, 2], [0, 2, 1])


@dataclass(frozen=True)
class RotationVariantSVD:
    """F = U diag(sigma) V^T with U, V proper rotations.

    Attributes
    ----------
    U, V : (3, 3) ndarray
        Proper rotations (determinant +1).
    sigma : (3,) ndarray
        Principal stretches, sorted descending; only sigma[2] may be
        negative.

    The assembly stacks the decompositions of all elements into one
    instance with a leading element axis on every field.
    """

    U: np.ndarray
    V: np.ndarray
    sigma: np.ndarray


def decompose(F):
    """Rotation-variant SVD of a 3x3 deformation gradient.

    Computes a standard SVD and flips the sign of the last column of U
    (resp. row of V^T) together with the smallest singular value whenever
    the factor has determinant -1, so that both factors are rotations.

    Parameters
    ----------
    F : (3, 3) array_like
        Deformation gradient; finite entries, no rank requirement.

    Returns
    -------
    RotationVariantSVD
    """
    F = np.asarray(F, dtype=float)
    if F.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {F.shape}")
    if not all(map(math.isfinite, F.ravel().tolist())):
        raise ValueError("deformation gradient has non-finite entries")

    # svd returns fresh arrays, so the sign flips may write into them
    U, s, Vt = np.linalg.svd(F)
    if _is_reflection(U):
        U[:, 2] = -U[:, 2]
        s[2] = -s[2]
    if _is_reflection(Vt):
        Vt[2, :] = -Vt[2, :]
        s[2] = -s[2]
    V = Vt.T

    # the tie rule of the module docstring, for exactly equal stretches
    for i in range(2):
        if s[i] == s[i + 1] and tuple(V[:, i]) < tuple(V[:, i + 1]):
            U, V = U[:, _EXCHANGE[i]], V[:, _EXCHANGE[i]]
            U[:, i + 1] = -U[:, i + 1]
            V[:, i + 1] = -V[:, i + 1]

    return RotationVariantSVD(U=U, V=V, sigma=s)


def _is_reflection(Q):
    """True when an orthogonal 3x3 Q has determinant -1 (triple product sign)."""
    (a, b, c), (d, e, f), (g, h, i) = Q.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) < 0.0


def assemble_pk1(svd, p):
    """Assemble the PK1 stress U diag(p) V^T from principal stresses.

    Parameters
    ----------
    svd : RotationVariantSVD
        Decomposition of the deformation gradient, or a stack of them
        (U, V of shape (..., 3, 3), sigma of shape (..., 3)).
    p : (3,) or (..., 3) array_like
        Principal PK1 stresses, evaluated at ``svd.sigma``.
    """
    p = np.asarray(p, dtype=float)
    return (svd.U * p[..., None, :]) @ np.swapaxes(svd.V, -1, -2)
