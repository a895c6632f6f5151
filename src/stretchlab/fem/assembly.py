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
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainViolationError, InvertedElementError
from ..stretch_core import assemble_pk1, decompose

__all__ = [
    "SystemMatrices",
    "element_pk1",
    "element_stress_jacobian",
    "stress_jacobian_from_svd",
    "assemble",
    "total_energy",
    "ElementBasis",
]

_PAIRS = ((0, 1), (0, 2), (1, 2))
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


class ElementBasis:
    """Precomputed rest-shape quantities for one mesh."""

    def __init__(self, mesh):
        self.mesh = mesh
        v, t = mesh.vertices, mesh.tets
        m = mesh.num_tets
        self.Bm = np.zeros((m, 3, 3))
        self.G = np.zeros((m, 9, 12))
        self.volumes = mesh.rest_volumes
        for e in range(m):
            Dm = np.stack([v[t[e, c + 1]] - v[t[e, 0]] for c in range(3)], axis=1)
            Bm = np.linalg.inv(Dm)
            self.Bm[e] = Bm
            G = np.zeros((9, 12))
            colsum = Bm.sum(axis=0)
            for a in range(3):
                for b in range(3):
                    row = 3 * a + b
                    G[row, a] = -colsum[b]
                    for j in range(3):
                        G[row, 3 * (j + 1) + a] = Bm[j, b]
            self.G[e] = G

    def deformation_gradient(self, positions, e):
        t = self.mesh.tets[e]
        Ds = np.stack([positions[t[c + 1]] - positions[t[0]] for c in range(3)], axis=1)
        return Ds @ self.Bm[e]


def element_pk1(material, F):
    """PK1 stress of a material at a deformation gradient.

    Decomposes F, evaluates the principal stresses from the stretch
    gradient, and rotates them back.
    """
    svd = decompose(F)
    p = material.gradient(svd.sigma)
    return assemble_pk1(svd, p)


def stress_jacobian_from_svd(svd, grad, hess, project=False):
    """The 9x9 dP/dF (row-major vec) from an SVD and stretch derivatives."""
    U, V, s = svd.U, svd.V, svd.sigma
    A = hess
    if project:
        w, Q = np.linalg.eigh(A)
        A = (Q * np.maximum(w, 0.0)) @ Q.T
    vecD = [np.outer(U[:, i], V[:, i]).reshape(9) for i in range(3)]
    M = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            M += A[i, j] * np.outer(vecD[i], vecD[j])
    scale = max(1.0, float(np.max(np.abs(s))))
    for i, j in _PAIRS:
        Wij = np.outer(U[:, i], V[:, j])
        Wji = np.outer(U[:, j], V[:, i])
        vecT = ((Wij - Wji) / _SQRT2).reshape(9)
        vecL = ((Wij + Wji) / _SQRT2).reshape(9)
        den_t = s[i] + s[j]
        if abs(den_t) < 1e-12 * scale:
            den_t = math.copysign(1e-12 * scale, den_t if den_t != 0.0 else 1.0)
        t = (grad[i] + grad[j]) / den_t
        if abs(s[i] - s[j]) > _EQUAL_STRETCH_RTOL * scale:
            l = (grad[i] - grad[j]) / (s[i] - s[j])
        else:
            l = 0.5 * (hess[i, i] + hess[j, j]) - hess[i, j]
        if project:
            t = max(t, 0.0)
            l = max(l, 0.0)
        M += t * np.outer(vecT, vecT) + l * np.outer(vecL, vecL)
    return M


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
    e_total = 0.0
    for e in range(mesh.num_tets):
        F = basis.deformation_gradient(positions, e)
        svd = decompose(F)
        try:
            e_total += basis.volumes[e] * material.energy(svd.sigma)
        except DomainViolationError as err:
            raise InvertedElementError(e, str(err)) from err
    return e_total


def lumped_mass(mesh):
    """Diagonal lumped mass: element mass split equally over its vertices."""
    mass = np.zeros(3 * mesh.num_vertices)
    for e, tet in enumerate(mesh.tets):
        share = mesh.density * mesh.rest_volumes[e] / 4.0
        for v in tet:
            mass[3 * v : 3 * v + 3] += share
    return mass


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
        the element index.
    """
    if positions is None:
        positions = mesh.vertices
    positions = np.asarray(positions, dtype=float)
    basis = basis or ElementBasis(mesh)
    ndof = 3 * mesh.num_vertices
    force = np.zeros(ndof)
    K = np.zeros((ndof, ndof))
    energy = 0.0

    for e in range(mesh.num_tets):
        F = basis.deformation_gradient(positions, e)
        svd = decompose(F)
        vol = basis.volumes[e]
        try:
            energy += vol * material.energy(svd.sigma)
            g = material.gradient(svd.sigma)
            H = material.hessian(svd.sigma)
        except DomainViolationError as err:
            raise InvertedElementError(e, str(err)) from err
        P = assemble_pk1(svd, g)
        G = basis.G[e]
        dPdF = stress_jacobian_from_svd(svd, g, H, project=project)
        fe = -vol * (G.T @ P.reshape(9))
        Ke = vol * (G.T @ dPdF @ G)
        dofs = np.concatenate([3 * v + np.arange(3) for v in mesh.tets[e]])
        force[dofs] += fe
        K[np.ix_(dofs, dofs)] += Ke

    K = 0.5 * (K + K.T)
    return SystemMatrices(
        force=force,
        stiffness=K,
        mass=lumped_mass(mesh),
        energy=energy,
        free_dofs=None if bc is None else free_dof_indices(mesh, bc),
    )
