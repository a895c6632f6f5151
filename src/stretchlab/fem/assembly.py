"""Linear-tet assembly: forces, tangent stiffness, lumped mass.

Per element the deformation gradient is F = Ds Bm with Ds the deformed
edge matrix and Bm the inverse rest edge matrix. The PK1 stress comes
from the material's stretch gradient through the rotation-variant SVD;
its derivative dP/dF is built analytically in the SVD eigenbasis: the
3x3 stretch Hessian couples the scaling modes, and each index pair adds
a twist mode with eigenvalue (g_i + g_j)/(s_i + s_j) and a flip mode
with eigenvalue (g_i - g_j)/(s_i - s_j), the latter replaced by its
l'Hopital limit (H_ii + H_jj)/2 - H_ij when stretches coincide. The
rest shape hits the fully degenerate case and reduces to the linear
elasticity tensor of the material's extracted Lame parameters.

Clamping those eigenvalues at zero gives the positive semidefinite
projection the Newton solver uses.

``assemble`` and ``total_energy`` work in one array pass over all tets:
F for every element from one batched product with the precomputed Bm,
one ``decompose`` per element, then one material evaluation on the
(m, 3) stack of stretches and one (m, 9, 9) dP/dF build. With the
shape-function gradients w of F_ab = sum_n x_na w_nb (Sifakis & Barbic
2012), vertex n of a tet gets the force -vol P w_n, and its stiffness
block (n, k) is vol sum_bd w_nb dP/dF[ab, cd] w_kd.

Without positions the configuration is the rest shape, where F = I for
every element. Its decomposition is then exact, U = V = I and
sigma = (1, 1, 1), not the SVD of Ds Bm, which is I only up to roundoff.
It is a stack of one that broadcasts over the elements: the material and
dP/dF are evaluated once, and only the products with w and the scatter
run per element.

The global stiffness is never dense. It is a ``BlockSparseMatrix`` of
3x3 blocks in BSR layout, one block per pair of vertices that share a
tet, found once per mesh by ``ElementBasis``, the mesh's ``basis``. For
each entry (p, q) of a block, one product gives that entry of the 16
blocks of every element, and one ``np.bincount`` adds them into the block
values. dP/dF is symmetrized first, and every block is then added to the
transpose of its mirror block, so K[i, j] and K[j, i] are one sum of the
same two numbers: K is exactly symmetric. The container is numpy only:
``modes`` hands its arrays to ``scipy.sparse``, and the Newton solve
densifies it, without importing scipy on the ``stretch-test`` path.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainViolationError, InvertedElementError
from ..stretch_core import RotationVariantSVD, assemble_pk1, decompose
from .mesh import edge_matrices

__all__ = [
    "BlockSparseMatrix",
    "SystemMatrices",
    "stress_jacobian_from_svd",
    "assemble",
    "total_energy",
    "ElementBasis",
]

# the index pairs i < j of the twist and flip modes
_PAIR_I, _PAIR_J = np.array([0, 0, 1]), np.array([1, 2, 2])
_EQUAL_STRETCH_RTOL = 1e-6
_SQRT2 = math.sqrt(2.0)


@dataclass
class BlockSparseMatrix:
    """A sparse matrix of 3x3 blocks in BSR layout.

    Block row r holds the blocks ``data[indptr[r]:indptr[r + 1]]`` at the
    block columns ``indices[indptr[r]:indptr[r + 1]]``, sorted ascending;
    ``shape`` is the shape in entries. The arrays are those of
    ``scipy.sparse.bsr_matrix((data, indices, indptr), shape)``.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def toarray(self):
        """The dense matrix."""
        nrows = len(self.indptr) - 1
        rows = np.repeat(np.arange(nrows), np.diff(self.indptr))
        out = np.zeros(self.shape)
        out.reshape(nrows, 3, -1, 3)[rows, :, self.indices, :] = self.data
        return out


@dataclass
class SystemMatrices:
    """Assembled internal force (N), tangent stiffness (N/m) and energy (J).

    ``force`` is -grad of the total elastic energy over all coordinates;
    ``stiffness`` is the full symmetric (3n, 3n) Hessian as a
    ``BlockSparseMatrix`` with one 3x3 block per pair of vertices that
    share a tet. The lumped mass is rest geometry: ``mesh.basis.mass``.
    """

    force: np.ndarray
    stiffness: BlockSparseMatrix
    energy: float


class ElementBasis:
    """Precomputed rest-shape arrays for one mesh, read as ``mesh.basis``.

    It keeps the mesh's ``tets``, not the mesh: a mesh -> basis -> mesh
    cycle would keep both alive until the cyclic garbage collector runs.

    Attributes
    ----------
    tets : (m, 4) ndarray
        The mesh's tet vertex indices.
    Bm : (m, 3, 3) ndarray
        Inverse rest edge matrices.
    w : (m, 4, 3) ndarray
        Shape-function gradients: w[e, n, b] = dF_ab / dx_na for every a,
        with n the element's vertices in order.
    indices, indptr : ndarray
        Block pattern of the stiffness in BSR layout: one 3x3 block per
        pair of vertices that share a tet, block columns sorted per row.
    block : (m, 16) ndarray
        The block of each vertex pair (n, k) of each element, at 4n + k.
    mirror : (nb,) ndarray
        For the block of vertices (a, b), the block of (b, a).
    volumes : (m,) ndarray
        Rest volumes.
    mass : (3n,) ndarray
        Lumped mass diagonal.
    """

    def __init__(self, mesh):
        self.tets = tets = mesh.tets
        nv = mesh.num_vertices
        self.volumes = mesh.rest_volumes
        self.Bm = np.linalg.inv(edge_matrices(mesh.vertices, tets))
        # F_ab = sum_n x_{n,a} w_{n,b}: vertex 0 weighs minus the column sums of Bm
        self.w = np.concatenate([-self.Bm.sum(axis=1, keepdims=True), self.Bm], axis=1)
        # the vertex pairs (a, b) of every tet, as row-major keys a * nv + b;
        # sorted unique keys are the blocks in BSR order
        keys, block = np.unique(
            (tets[:, :, None] * nv + tets[:, None, :]).ravel(), return_inverse=True
        )
        self.block = block.reshape(-1, 16)
        rows, self.indices = np.divmod(keys, nv)
        self.indptr = np.searchsorted(rows, np.arange(nv + 1))
        self.mirror = np.searchsorted(keys, self.indices * nv + rows)
        self.mass = lumped_mass(mesh)

    def element_svds(self, positions):
        """Rotation-variant SVDs of every element, stacked along a leading axis.

        With ``positions`` None it is the exact rest decomposition of F = I,
        a stack of one that broadcasts over the elements.
        """
        if positions is None:
            eye = np.eye(3)[None]
            return RotationVariantSVD(U=eye, V=eye, sigma=np.ones((1, 3)))
        Ds = edge_matrices(np.asarray(positions, dtype=float), self.tets)
        parts = [decompose(F) for F in Ds @ self.Bm]
        return RotationVariantSVD(
            U=np.stack([p.U for p in parts]),
            V=np.stack([p.V for p in parts]),
            sigma=np.stack([p.sigma for p in parts]),
        )


def stress_jacobian_from_svd(svd, grad, hess, project=False):
    """dP/dF (row-major vec) from an SVD and stretch derivatives.

    For one element (U, V (3, 3), sigma and grad (3,), hess (3, 3)) it
    returns the (9, 9) matrix; with a leading element axis on every input
    it returns (m, 9, 9). The twist denominator clamp, the flip-mode
    switch to the l'Hopital limit and the projection apply per element,
    scaled by that element's largest stretch.
    """
    U, V, s = svd.U, svd.V, svd.sigma
    grad, hess = np.asarray(grad, dtype=float), np.asarray(hess, dtype=float)
    A = hess
    if project:
        w, Q = np.linalg.eigh(A)
        A = (Q * np.maximum(w, 0.0)[..., None, :]) @ np.swapaxes(Q, -1, -2)
    batch = s.shape[:-1]
    # scaling modes vec(u_i v_i^T), coupled by A
    D = np.einsum("...ai,...bi->...iab", U, V).reshape(batch + (3, 9))
    M = np.swapaxes(D, -1, -2) @ A @ D

    # twist and flip modes vec(u_i v_j^T -/+ u_j v_i^T) / sqrt 2 of each pair i < j
    I, J = _PAIR_I, _PAIR_J
    Wij = np.einsum("...ak,...bk->...kab", U[..., I], V[..., J]).reshape(batch + (3, 9))
    Wji = np.einsum("...ak,...bk->...kab", U[..., J], V[..., I]).reshape(batch + (3, 9))
    modes = np.concatenate([Wij - Wji, Wij + Wji], axis=-2) / _SQRT2

    si, sj, gi, gj = s[..., I], s[..., J], grad[..., I], grad[..., J]
    scale = np.maximum(1.0, np.max(np.abs(s), axis=-1, keepdims=True))
    tiny = 1e-12 * scale
    den_t = si + sj
    den_t = np.where(
        np.abs(den_t) < tiny, np.copysign(tiny, np.where(den_t == 0.0, 1.0, den_t)), den_t
    )
    gap = si - sj
    apart = np.abs(gap) > _EQUAL_STRETCH_RTOL * scale
    flip = np.where(
        apart,
        (gi - gj) / np.where(apart, gap, 1.0),
        0.5 * (hess[..., I, I] + hess[..., J, J]) - hess[..., I, J],
    )
    eig = np.concatenate([(gi + gj) / den_t, flip], axis=-1)
    if project:
        eig = np.maximum(eig, 0.0)
    return M + (np.swapaxes(modes, -1, -2) * eig[..., None, :]) @ modes


def _element_values(mesh, material, positions, order):
    """The element SVDs at the positions, and the energy and its first ``order``
    stretch derivatives on their stretches; InvertedElementError out of domain."""
    svd = mesh.basis.element_svds(positions)
    evaluate = (material.energy, material.gradient, material.hessian)[: order + 1]
    try:
        return svd, [f(svd.sigma) for f in evaluate]
    except DomainViolationError as err:
        raise InvertedElementError(err.index, str(err)) from err


@np.errstate(all="ignore")  # overflow gives inf or NaN; the callers reject it
def total_energy(mesh, material, positions):
    """Total elastic energy; raises InvertedElementError out of domain."""
    _, (psi,) = _element_values(mesh, material, positions, 0)
    return float(mesh.basis.volumes @ psi)


def lumped_mass(mesh):
    """Diagonal lumped mass: element mass split equally over its vertices."""
    share = np.repeat(mesh.density * mesh.rest_volumes / 4.0, 4)
    per_vertex = np.bincount(mesh.tets.ravel(), weights=share, minlength=mesh.num_vertices)
    return np.repeat(per_vertex, 3)


def free_dof_indices(mesh, bc):
    """Indices of unconstrained coordinates."""
    mask = np.ones(3 * mesh.num_vertices, dtype=bool)
    rows, cols = np.nonzero(bc.coords)
    mask[3 * bc.vertices[rows] + cols] = False
    return np.nonzero(mask)[0]


@np.errstate(all="ignore")  # overflow gives inf or NaN; the callers reject it
def assemble(mesh, material, positions=None, project=False):
    """Assemble force, tangent stiffness and energy over all coordinates.

    Parameters
    ----------
    mesh : TetMesh
    material : MaterialModel
    positions : (n, 3) ndarray, optional
        Deformed vertex positions. When omitted the mesh is at rest: every
        element has the exact decomposition F = I, and the material and
        dP/dF are evaluated once for all of them, with no SVD.
    project : bool
        Clamp each element Hessian positive semidefinite (Newton use).

    Raises
    ------
    InvertedElementError
        When an element leaves the material's validity domain or the float
        range of its stress; carries the lowest such element index.
    """
    basis = mesh.basis
    ndof = 3 * mesh.num_vertices
    svd, (psi, g, H) = _element_values(mesh, material, positions, 2)
    ok = np.isfinite(g).all(axis=-1) & np.isfinite(H).all(axis=(-2, -1))
    if not ok.all():
        raise InvertedElementError(int(np.argmin(ok)), f"{material.family}: stress not finite")
    vol, w = basis.volumes, basis.w
    A = stress_jacobian_from_svd(svd, g, H, project=project)
    # not in place: an add into its own transpose makes numpy copy the input first
    A = A + A.swapaxes(1, 2)
    # Y[e, p, b, q, k] = sum_d A[e, 3p + b, 3q + d] w[e, k, d]
    Y = (A.reshape(-1, 27, 3) @ w.swapaxes(1, 2)).reshape(-1, 3, 3, 3, 4)
    # A + A^T and the mirror sum each double K; vol scales the products, so
    # an entry of w A w^T out of float range stays inf
    scale = 0.25 * vol[:, None, None]
    K = np.empty((len(basis.indices), 3, 3))
    for p, q in np.ndindex(3, 3):
        Ke = w @ Y[:, p, :, q, :]  # entry (p, q) of the 16 blocks of every element
        Ke *= scale
        K[:, p, q] = np.bincount(basis.block.ravel(), weights=Ke.ravel(), minlength=len(K))
    K += K[basis.mirror].swapaxes(1, 2)
    K = BlockSparseMatrix(K, basis.indices, basis.indptr, (ndof, ndof))
    fe = -vol[:, None, None] * (w @ assemble_pk1(svd, g).swapaxes(1, 2))
    dofs = 3 * basis.tets[:, :, None] + np.arange(3)
    force = np.bincount(dofs.ravel(), weights=fe.ravel(), minlength=ndof)
    return SystemMatrices(
        force=force, stiffness=K, energy=float(vol @ np.broadcast_to(psi, vol.shape))
    )
