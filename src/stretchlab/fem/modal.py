"""Linear vibrational modes about the rest shape.

Solves the constrained generalized symmetric eigenproblem
K phi = omega^2 M phi on the free coordinates. With the lumped (diagonal)
mass M it is the standard problem A psi = omega^2 psi for
A = M^-1/2 K M^-1/2, which keeps the sparsity of K. The block-sparse K
of ``assemble`` goes to scipy as a BSR matrix and on to CSR, with its
explicit zeros dropped, so the free block holds exactly the nonzero
entries of K. The k lowest eigenvalues come from ARPACK's Lanczos method
in shift-invert mode about 0 (``eigsh`` with ``sigma=0``), whose only use
of A is a solve with one factorization of it. A fixed start vector makes
repeated calls bit-identical.

The factorization is the envelope method for sparse positive definite
systems (George & Liu, *Computer Solution of Large Sparse Positive
Definite Systems*, 1981): the reverse Cuthill-McKee ordering P gathers
the entries of P A P^T into a narrow band about the diagonal, whose upper
half LAPACK's band Cholesky ``dpbtrf`` factors as U^T U in place, and a
solve is the two triangular band sweeps of ``dpbtrs``. The band of a mesh
is much narrower than its coordinate count (114 of 2,160 on the beam at
n=5), so factor and solve cost O(n b^2) and O(n b) with no fill outside
the band. ARPACK works on P A P^T throughout: the permutation leaves the
eigenvalues unchanged, and the start vector of ones is the same in every
order.

The rest stiffness on the free coordinates must be positive definite.
``dpbtrf`` is the first check: it stops at the first leading minor that
is not positive definite, which an indefinite material at rest reaches.
A rigid motion left free by the clamp makes A singular, and its zero
pivot is zero only in exact arithmetic. In floating point it is
roundoff of either sign, and a positive one can stand well above the
LAPACK rank tolerance n * eps * max diag(A): the beam at n=2 clamped at
two vertices, free to rotate about the line through them, factors with a
smallest squared pivot of 2.9e-8 against a tolerance of 8.1e-9. So the
lowest eigenvalue must clear that tolerance as well; it is the bound the
tolerance is defined for, and it holds every case a pivot test catches,
since no squared pivot is smaller than the lowest eigenvalue. Either
failure raises RestInstabilityError, which names the vertex and axis of
the pivot ``dpbtrf`` rejected, or else of the smallest pivot.

scipy is imported inside ``modal_frequencies``: a module-level import
would load scipy.sparse, about 30 MB of resident memory and its import
time, into every command, and only ``modes`` uses it.

numpy and scipy each load their own OpenBLAS with its own thread pool,
and a pool that has threaded a call keeps its threads spinning for a
while after it. ``modes`` makes no numpy BLAS call large enough to
thread (its stiffness difference is ``rel_frobenius_diff``), so scipy's
band Cholesky ``dpbtrf`` has the cores to itself. The numpy BLAS calls
of the CLI workloads are:

- the dense Newton ``np.linalg.solve`` of ``stretch-test``, which is
  needed and threads;
- ``svd``, ``eigh``, ``inv`` and ``det`` on stacks of 3x3 matrices,
  the 2x2 solves of ``compose`` and the batched element products of
  ``assemble``, none of which threads.
"""

import math

import numpy as np

from ..errors import RestInstabilityError
from .assembly import assemble, free_dof_indices

__all__ = ["modal_frequencies", "rel_frobenius_diff"]


def modal_frequencies(mesh, material, bc, k):
    """The k lowest vibration frequencies in Hz, sorted ascending.

    The stiffness is assembled in the rest configuration; ``bc`` selects
    the clamped vertices (positions are ignored, the rest shape is used).

    Raises
    ------
    ValueError
        Unless 1 <= k < number of free coordinates.
    RestInstabilityError
        When the rest stiffness on the free coordinates is not positive
        definite.
    """
    from scipy import sparse
    from scipy.linalg.lapack import dpbtrf, dpbtrs
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    from scipy.sparse.linalg import LinearOperator, eigsh

    free = free_dof_indices(mesh, bc)
    n = len(free)
    if not 1 <= k < n:
        raise ValueError(f"requested {k} modes; need 1 <= k < {n} free coordinates")
    S = assemble(mesh, material).stiffness
    K = sparse.bsr_matrix((S.data, S.indices, S.indptr), shape=S.shape).tocsr()
    K.eliminate_zeros()
    K = K[free][:, free]
    perm = reverse_cuthill_mckee(K, symmetric_mode=True)
    inv_sqrt_m = sparse.diags(1.0 / np.sqrt(mesh.basis.mass[free[perm]]))
    A = inv_sqrt_m @ K[perm][:, perm] @ inv_sqrt_m  # P A P^T
    upper = sparse.triu(A, format="coo")
    b = int((upper.col - upper.row).max(initial=0))  # 0 for an all-zero stiffness
    band = np.zeros((b + 1, n))
    band[b + upper.row - upper.col, upper.col] = upper.data
    tol = n * np.finfo(float).eps * band[b].max()
    factor, info = dpbtrf(band)
    if info == 0 and np.isfinite(factor).all():
        solve = LinearOperator(A.shape, matvec=lambda x: dpbtrs(factor, x)[0], dtype=float)
        w = np.sort(eigsh(
            A, k, sigma=0.0, which="LM", OPinv=solve, v0=np.ones(n), return_eigenvectors=False
        ))
        if w[0] > tol:
            return np.sqrt(w) / (2.0 * np.pi)
    dof = free[perm[info - 1 if info > 0 else np.argmin(factor[b])]]
    raise RestInstabilityError(
        "rest stiffness on the free coordinates is not positive definite: "
        "the material is indefinite at rest or the clamp leaves rigid motions free "
        f"(failing pivot at vertex {dof // 3}, axis {'xyz'[dof % 3]})"
    )


@np.errstate(all="ignore")  # overflow gives inf or NaN; the callers reject it
def rel_frobenius_diff(a, b):
    """||a - b|| / ||a|| in the Frobenius norm, with 1 in place of a zero ||a||.

    The squares are summed by ``np.sum``, pairwise in numpy's own loops,
    not by ``np.linalg.norm``, ``np.dot``, ``np.vdot`` or ``@`` on
    vectors: those are OpenBLAS ``ddot`` calls, which thread above 10,000
    values and leave numpy's BLAS threads spinning (see the module docstring).
    """
    a = np.ravel(a)
    d = a - np.ravel(b)
    return math.sqrt(np.sum(d * d)) / (math.sqrt(np.sum(a * a)) or 1.0)
