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

__all__ = ["QuasiStaticResult", "solve_quasistatic", "reaction_force"]

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
    out = np.zeros(3)
    for v in vertex_set:
        out += result.force[3 * v : 3 * v + 3]
    return out


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
