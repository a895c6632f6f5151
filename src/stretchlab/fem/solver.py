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

``stretch_curve`` follows a force curve by Euler-Newton continuation
(Allgower & Georg 1990, ch. 2). The unprojected stiffness K that each
converged solve returns gives the path tangent dx/dd: K_ff t_f = -K_fp 1
over the free coordinates, with the moving x-coordinates p of the right
face at t_p = 1. The next solve starts from the cubic Hermite polynomial
through the last two converged positions and tangents; without tangents
it starts from their secant, and with a single point from the last
point scaled along x.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceError, InvertedElementError
from .assembly import BlockSparseMatrix, assemble, free_dof_indices, total_energy
from .mesh import BoundaryCondition, edge_matrices, face_vertices, generate_mesh

__all__ = ["QuasiStaticResult", "solve_quasistatic", "reaction_force", "stretch_curve"]

RTOL = 1e-8
MAX_ITERS = 100
MAX_HALVINGS = 40


@dataclass
class QuasiStaticResult:
    """Equilibrium positions, internal forces and iteration diagnostics.

    ``stiffness`` is the unprojected stiffness at ``positions``, from the
    assembly that gives ``force`` and ``energy``.
    """

    positions: np.ndarray
    force: np.ndarray
    energy: float
    iterations: int
    residuals: list = field(default_factory=list)
    stiffness: BlockSparseMatrix = None


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
                positions=x,
                force=full.force,
                energy=full.energy,
                iterations=it,
                residuals=residuals,
                stiffness=full.stiffness,
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


def _tangent(result, free, moving):
    """Path tangent dx/dd at a converged state, or None when K_ff is singular.

    ``moving`` are the constrained coordinates that move with d at unit
    rate; every other constrained coordinate stays fixed. The free part
    solves K_ff t_f = -K_fp 1 with the result's unprojected stiffness,
    densely, as the Newton step does.
    """
    K = result.stiffness.toarray()
    t = np.zeros(len(K))
    t[moving] = 1.0
    try:
        t[free] = np.linalg.solve(K[np.ix_(free, free)], -K[np.ix_(free, moving)].sum(axis=1))
    except np.linalg.LinAlgError:
        return None
    return t.reshape(-1, 3)


@np.errstate(all="ignore")  # a far distance overflows to inf or NaN, which the solve rejects
def _initial_guess(tets, path, d):
    """Start of the solve at distance ``d`` from the converged ``path``.

    ``path`` holds (distance, positions, tangent) entries, the tangent
    dx/dd or None. Of the last two points, at distinct distances, the
    cubic Hermite polynomial through both positions and both tangents is
    tried first, when both carry a tangent, then the secant through the
    two positions. A candidate that gives any tet a non-positive
    edge-matrix determinant is passed over. With a single point, two
    points at one distance, or no candidate left, the last point is
    scaled along x by d / d_prev instead, a map that inverts no element.
    """
    d1, x1, t1 = path[-1]
    candidates = []
    if len(path) > 1 and path[-2][0] != d1:
        d0, x0, t0 = path[-2]
        h = d1 - d0
        s = (d - d0) / h
        if t0 is not None and t1 is not None:
            candidates.append(
                (2 * s**3 - 3 * s**2 + 1) * x0
                + (s**3 - 2 * s**2 + s) * h * t0
                + (3 * s**2 - 2 * s**3) * x1
                + (s**3 - s**2) * h * t1
            )
        candidates.append(x1 + (d - d1) / h * (x1 - x0))
    for guess in candidates:
        if np.all(np.linalg.det(edge_matrices(guess, tets)) > 0.0):
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
    A clamped curve records the tangent dx/dd of every converged state
    (``_tangent``), so that ``_initial_guess`` can take its Hermite
    predictor. A sliding curve records none and keeps the secant: the
    three rigid modes that ``slide`` leaves free make K_ff singular, and
    tangents taken from it cost converged rows.

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
    free = free_dof_indices(mesh, BoundaryCondition(verts, mesh.vertices[verts], coords))
    rows, skipped = [], []
    path = [(1.0, mesh.vertices, None)]
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
        tangent = None if slide else _tangent(result, free, 3 * right)
        path = [path[-1], (d, result.positions, tangent)]
        # 0.0 - f rather than -f, so that a zero reaction is 0, not -0
        rows.append((d, 0.0 - float(reaction_force(result, right)[0])))
    return rows, skipped
