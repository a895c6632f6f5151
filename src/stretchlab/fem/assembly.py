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
(m, 3) stack of stretches, one (m, 9, 9) dP/dF build, the element forces
-vol G^T vec(P) and stiffnesses vol G^T dPdF G as batched products, and a
scatter into the dense global arrays with ``np.bincount`` over index
tables that ``ElementBasis`` computes once per mesh.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainViolationError, InvertedElementError
from ..stretch_core import RotationVariantSVD, assemble_pk1, decompose

__all__ = [
    "SystemMatrices",
    "element_pk1",
    "element_stress_jacobian",
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
class SystemMatrices:
    """Assembled internal force (N), tangent stiffness (N/m), lumped mass (kg).

    ``force`` is -grad of the total elastic energy over all coordinates;
    ``stiffness`` is the full symmetric (3n, 3n) Hessian; ``mass`` is the
    diagonal of the lumped mass matrix, one entry per coordinate.
    """

    force: np.ndarray
    stiffness: np.ndarray
    mass: np.ndarray
    energy: float
    free_dofs: np.ndarray = None

    def reduced(self):
        """(force, stiffness, mass) restricted to the free coordinates."""
        if self.free_dofs is None:
            return self.force, self.stiffness, self.mass
        f = self.free_dofs
        return self.force[f], self.stiffness[np.ix_(f, f)], self.mass[f]


def _edge_matrices(x, tets):
    """(m, 3, 3) matrices whose column c is x[tet[c + 1]] - x[tet[0]]."""
    return np.swapaxes(x[tets[:, 1:]] - x[tets[:, :1]], 1, 2)


class ElementBasis:
    """Precomputed rest-shape arrays for one mesh.

    Attributes
    ----------
    Bm : (m, 3, 3) ndarray
        Inverse rest edge matrices.
    G : (m, 9, 12) ndarray
        d vec(F) / d(element coordinates), row-major vec, coordinates in
        the order of the element's vertices.
    dofs : (m, 12) ndarray
        Global coordinate index of each element coordinate.
    volumes : (m,) ndarray
        Rest volumes.
    mass : (3n,) ndarray
        Lumped mass diagonal.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        tets = mesh.tets
        m = mesh.num_tets
        ndof = 3 * mesh.num_vertices
        self.volumes = mesh.rest_volumes
        self.Bm = np.linalg.inv(_edge_matrices(mesh.vertices, tets))
        # F_ab = sum_n x_{n,a} w_{n,b}: vertex 0 weighs minus the column sums of Bm
        w = np.concatenate([-self.Bm.sum(axis=1, keepdims=True), self.Bm], axis=1)
        self.G = np.einsum("enb,ac->eabnc", w, np.eye(3)).reshape(m, 9, 12)
        self.dofs = (3 * tets[:, :, None] + np.arange(3)).reshape(m, 12)
        # flat (row, column) positions of every element stiffness entry in K
        self._stiffness_index = (self.dofs[:, :, None] * ndof + self.dofs[:, None, :]).ravel()
        self.mass = lumped_mass(mesh)

    def deformation_gradients(self, positions):
        """F = Ds Bm of every element, (m, 3, 3), at vertex positions (n, 3)."""
        positions = np.asarray(positions, dtype=float)
        return _edge_matrices(positions, self.mesh.tets) @ self.Bm

    def element_svds(self, positions):
        """Rotation-variant SVDs of every element, stacked along a leading axis."""
        parts = [decompose(F) for F in self.deformation_gradients(positions)]
        return RotationVariantSVD(
            U=np.stack([p.U for p in parts]),
            V=np.stack([p.V for p in parts]),
            sigma=np.stack([p.sigma for p in parts]),
        )


def element_pk1(material, F):
    """PK1 stress of a material at a deformation gradient.

    Decomposes F, evaluates the principal stresses from the stretch
    gradient, and rotates them back.
    """
    svd = decompose(F)
    p = material.gradient(svd.sigma)
    return assemble_pk1(svd, p)


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


def element_stress_jacobian(material, F, method="analytic", project=False, fd_step=1e-6):
    """dP/dF as a 9x9 matrix acting on row-major vec(dF).

    ``method="fd"`` differentiates :func:`element_pk1` centrally per
    F-entry and is the test oracle; projection is only available on the
    analytic path.
    """
    if method == "fd":
        if project:
            raise ValueError("projection requires the analytic path")
        F = np.asarray(F, dtype=float)
        M = np.zeros((9, 9))
        for a in range(3):
            for b in range(3):
                dF = np.zeros((3, 3))
                dF[a, b] = fd_step
                Pp = element_pk1(material, F + dF)
                Pm = element_pk1(material, F - dF)
                M[:, 3 * a + b] = ((Pp - Pm) / (2.0 * fd_step)).reshape(9)
        return M
    if method != "analytic":
        raise ValueError(f"unknown method '{method}'")
    svd = decompose(F)
    g = material.gradient(svd.sigma)
    H = material.hessian(svd.sigma)
    return stress_jacobian_from_svd(svd, g, H, project=project)


def total_energy(mesh, material, positions, basis=None):
    """Total elastic energy; raises InvertedElementError out of domain."""
    basis = basis or ElementBasis(mesh)
    svd = basis.element_svds(positions)
    try:
        psi = material.energy(svd.sigma)
    except DomainViolationError as err:
        raise InvertedElementError(err.index, str(err)) from err
    return float(basis.volumes @ psi)


def lumped_mass(mesh):
    """Diagonal lumped mass: element mass split equally over its vertices."""
    share = np.repeat(mesh.density * mesh.rest_volumes / 4.0, 4)
    per_vertex = np.bincount(mesh.tets.ravel(), weights=share, minlength=mesh.num_vertices)
    return np.repeat(per_vertex, 3)


def free_dof_indices(mesh, bc):
    """Indices of unconstrained coordinates."""
    mask = np.ones(3 * mesh.num_vertices, dtype=bool)
    if bc is not None:
        for v, cm in zip(bc.vertices, bc.coords):
            mask[3 * v : 3 * v + 3] &= ~cm
    return np.nonzero(mask)[0]


def assemble(mesh, material, positions=None, bc=None, project=False, basis=None):
    """Assemble force, tangent stiffness and lumped mass.

    Matrices cover all coordinates; when ``bc`` is given the result also
    carries the free-coordinate index set (see ``SystemMatrices.reduced``).

    Parameters
    ----------
    mesh : TetMesh
    material : MaterialModel
    positions : (n, 3) ndarray, optional
        Deformed vertex positions; rest positions when omitted.
    bc : BoundaryCondition, optional
    project : bool
        Clamp each element Hessian positive semidefinite (Newton use).

    Raises
    ------
    InvertedElementError
        When an element leaves the material's validity domain; carries
        the lowest such element index.
    """
    if positions is None:
        positions = mesh.vertices
    basis = basis or ElementBasis(mesh)
    ndof = 3 * mesh.num_vertices
    svd = basis.element_svds(positions)
    try:
        psi = material.energy(svd.sigma)
        g = material.gradient(svd.sigma)
        H = material.hessian(svd.sigma)
    except DomainViolationError as err:
        raise InvertedElementError(err.index, str(err)) from err
    vol = basis.volumes
    G = basis.G
    Gt = G.swapaxes(1, 2)
    P = assemble_pk1(svd, g).reshape(-1, 9, 1)
    fe = -vol[:, None] * (Gt @ P)[..., 0]
    Ke = Gt @ stress_jacobian_from_svd(svd, g, H, project=project) @ G
    # symmetric element matrices give an exactly symmetric K: bincount adds
    # K[i, j] and K[j, i] from the same values in the same element order
    Ke += Ke.swapaxes(1, 2)
    Ke *= 0.5 * vol[:, None, None]
    force = np.bincount(basis.dofs.ravel(), weights=fe.ravel(), minlength=ndof)
    K = np.bincount(basis._stiffness_index, weights=Ke.ravel(), minlength=ndof * ndof)
    return SystemMatrices(
        force=force,
        stiffness=K.reshape(ndof, ndof),
        mass=basis.mass.copy(),
        energy=float(vol @ psi),
        free_dofs=None if bc is None else free_dof_indices(mesh, bc),
    )
