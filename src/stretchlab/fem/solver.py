"""Quasi-static equilibrium by projected Newton with backtracking.

Each iteration assembles the force and the positive-semidefinite
projected stiffness on the free coordinates, solves for a Newton step,
and backtracks by halving whenever the step raises the energy or drives
an element out of the material's domain. Convergence is declared when
the largest free-coordinate force drops below
``RTOL * max(1, modulus_scale) * volume^(2/3)``, a tolerance that scales
with the material stiffness and the mesh size, keeping the criterion
machine independent. A solve takes at most ``MAX_ITERS`` Newton
iterations of at most ``MAX_HALVINGS`` step halvings each.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceError, InvertedElementError
from .assembly import assemble, free_dof_indices, total_energy
from .mesh import BoundaryCondition, face_vertices, generate_mesh

__all__ = ["QuasiStaticResult", "solve_quasistatic", "reaction_force", "stretch_curve"]

RTOL = 1e-8
MAX_ITERS = 100
MAX_HALVINGS = 40


@dataclass
class QuasiStaticResult:
    """Equilibrium positions, internal forces and iteration diagnostics."""

    positions: np.ndarray
    force: np.ndarray
    energy: float
    iterations: int
    residuals: list = field(default_factory=list)


def reaction_force(result, vertex_set):
    """Sum of internal forces over a constrained vertex set (3-vector)."""
    return result.force.reshape(-1, 3)[vertex_set].sum(axis=0)


def solve_quasistatic(mesh, material, bc, x0=None):
    """Find static equilibrium under prescribed boundary positions.

    Parameters
    ----------
    mesh : TetMesh
    material : MaterialModel
    bc : BoundaryCondition
        Nonempty constrained set; the coordinates its ``coords`` mask
        selects are prescribed.
    x0 : (n, 3) ndarray, optional
        Warm-start positions (the prescribed values are re-applied).

    Raises
    ------
    ConvergenceError
        After ``MAX_ITERS`` Newton iterations without meeting the
        tolerance, or when ``MAX_HALVINGS`` halvings find no step that
        lowers the energy; carries the residual history.
    """
    free = free_dof_indices(mesh, bc)
    tol = RTOL * max(1.0, material.modulus_scale) * mesh.total_volume() ** (2.0 / 3.0)

    x = np.array(mesh.vertices if x0 is None else x0, dtype=float)
    bc.apply(x)

    residuals = []
    energy = total_energy(mesh, material, x)
    for it in range(MAX_ITERS):
        sys = assemble(mesh, material, x, project=True)
        r = sys.force[free]
        res = float(np.max(np.abs(r))) if len(r) else 0.0
        residuals.append(res)
        if res <= tol:
            full = assemble(mesh, material, x)
            return QuasiStaticResult(
                positions=x, force=full.force, energy=full.energy, iterations=it, residuals=residuals
            )

        Kff = sys.stiffness.toarray()[np.ix_(free, free)]
        try:
            step = np.linalg.solve(Kff, r)
        except np.linalg.LinAlgError:
            reg = 1e-10 * np.trace(Kff) / max(1, len(free))
            step = np.linalg.solve(Kff + reg * np.eye(len(free)), r)

        t = 1.0
        for _ in range(MAX_HALVINGS):
            x_new = x.reshape(-1).copy()
            x_new[free] += t * step
            x_new = x_new.reshape(-1, 3)
            try:
                e_new = total_energy(mesh, material, x_new)
            except InvertedElementError:
                t *= 0.5
                continue
            if e_new <= energy + 1e-12 * max(1.0, abs(energy)):
                x, energy = x_new, e_new
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                f"line search failed at iteration {it} (residual {res:.3e}, tol {tol:.3e})",
                residual_history=residuals,
            )

    raise ConvergenceError(
        f"no convergence after {MAX_ITERS} iterations "
        f"(last residual {residuals[-1]:.3e}, tol {tol:.3e})",
        residual_history=residuals,
    )


@np.errstate(all="ignore")  # a far distance overflows to inf or NaN, which the solve rejects
def _initial_guess(tets, path, d):
    """Start of the solve at distance ``d`` from the converged ``path``.

    The secant predictor extrapolates the last two converged points
    linearly in the distance. With a single point, two points at one
    distance, or an extrapolation that gives any tet a non-positive
    edge-matrix determinant, the last point is scaled along x by
    d / d_prev instead, a map that inverts no element.
    """
    d1, x1 = path[-1]
    if len(path) > 1 and path[-2][0] != d1:
        d0, x0 = path[-2]
        guess = x1 + (d - d1) / (d1 - d0) * (x1 - x0)
        edges = guess[tets[:, 1:]] - guess[tets[:, :1]]
        if np.all(np.linalg.det(edges) > 0.0):
            return guess
    guess = x1.copy()
    guess[:, 0] *= d / d1
    return guess


def stretch_curve(model, n, distances, slide=False):
    """Pull a unit cube apart along x; signed tension force per distance.

    Both x-faces are clamped (all coordinates unless ``slide``); the left
    face stays at x = 0 and the right face is prescribed at x = d for
    each d of ``distances``, in order. Each solve starts from a
    continuation predictor over the converged path, which begins at the
    rest shape (d = 1), and all solves share the mesh's one ``basis``.

    Returns ``(rows, skipped)``: rows are (d, force) for the distances
    that converged, the force the x-reaction on the right face, positive
    in tension; skipped are (d, error) for those that did not, the error a
    ConvergenceError or the InvertedElementError that stopped the solve.
    """
    mesh = generate_mesh("cube", n, size=1.0)
    left = face_vertices(mesh, 0, 0.0)
    right = face_vertices(mesh, 0, 1.0)
    verts = np.concatenate([left, right])
    coords = None
    if slide:
        coords = np.zeros((len(verts), 3), dtype=bool)
        coords[:, 0] = True
    rows, skipped = [], []
    path = [(1.0, mesh.vertices)]
    for d in distances:
        d = float(d)
        pos = mesh.vertices[verts].copy()
        pos[len(left):, 0] += d - 1.0
        bc = BoundaryCondition(vertices=verts, positions=pos, coords=coords)
        x0 = _initial_guess(mesh.tets, path, d)
        try:
            result = solve_quasistatic(mesh, model, bc, x0=x0)
        except (ConvergenceError, InvertedElementError) as err:
            skipped.append((d, err))
            continue
        path = [path[-1], (d, result.positions)]
        # 0.0 - f rather than -f, so that a zero reaction is 0, not -0
        rows.append((d, 0.0 - float(reaction_force(result, right)[0])))
    return rows, skipped
