"""Linear vibrational modes about the rest shape.

Solves the constrained generalized symmetric eigenproblem
K phi = omega^2 M phi on the free coordinates. With the lumped (diagonal)
mass M it is the standard problem A psi = omega^2 psi for
A = M^-1/2 K M^-1/2, which keeps the sparsity of K. The block-sparse K
of ``assemble`` goes to scipy as a BSR matrix and on to CSR, with its
explicit zeros dropped, so the free block holds exactly the nonzero
entries of K. The free block of A is factored once by SuperLU, and the k
lowest eigenvalues come from ARPACK's Lanczos method in shift-invert mode
about 0 (``eigsh`` with ``sigma=0``), whose only use of A is a solve with
that factorization. A fixed start vector makes repeated calls
bit-identical.

The rest stiffness on the free coordinates must be positive definite.
SuperLU factors A in symmetric mode without off-diagonal pivoting, so
P A P^T = L D L^T with D the diagonal of U, and A is positive definite
exactly when every pivot is positive. A pivot at or below the LAPACK
rank tolerance n * eps * max diag(A) counts as zero: rigid motions left
free by the clamp give pivots of roundoff size and either sign. An
indefinite material at rest or such a clamp raises RestInstabilityError.

scipy is imported inside ``modal_frequencies``: a module-level import
would load scipy.sparse, about 30 MB of resident memory and its import
time, into every command, and only ``modes`` uses it.
"""

import numpy as np

from ..errors import RestInstabilityError
from .assembly import assemble, free_dof_indices

__all__ = ["modal_frequencies"]


def modal_frequencies(mesh, material, bc, k, basis=None):
    """The k lowest vibration frequencies in Hz, sorted ascending.

    The stiffness is assembled in the rest configuration; ``bc`` selects
    the clamped vertices (positions are ignored, the rest shape is used).
    ``basis`` is the mesh's ``ElementBasis``, built here when omitted.

    Raises
    ------
    ValueError
        Unless 1 <= k < number of free coordinates.
    RestInstabilityError
        When the rest stiffness on the free coordinates is not positive
        definite.
    """
    from scipy import sparse
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    free = free_dof_indices(mesh, bc)
    n = len(free)
    if not 1 <= k < n:
        raise ValueError(f"requested {k} modes; need 1 <= k < {n} free coordinates")
    sys = assemble(mesh, material, basis=basis)
    S = sys.stiffness
    K = sparse.bsr_matrix((S.data, S.indices, S.indptr), shape=S.shape).tocsr()
    K.eliminate_zeros()
    K = K[free][:, free]
    inv_sqrt_m = sparse.diags(1.0 / np.sqrt(sys.mass[free]))
    A = (inv_sqrt_m @ K @ inv_sqrt_m).tocsc()
    tol = n * np.finfo(float).eps * A.diagonal().max()
    try:
        lu = splu(A, diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError:  # an exactly singular factor
        lu = None
    if lu is None or not (
        np.array_equal(lu.perm_r, lu.perm_c) and lu.U.diagonal().min() > tol
    ):
        raise RestInstabilityError(
            "rest stiffness on the free coordinates is not positive definite: "
            "the material is indefinite at rest or the clamp leaves rigid motions free"
        )
    solve = LinearOperator(A.shape, matvec=lu.solve, dtype=float)
    w = eigsh(
        A, k, sigma=0.0, which="LM", OPinv=solve, v0=np.ones(n), return_eigenvectors=False
    )
    return np.sqrt(np.sort(w)) / (2.0 * np.pi)
