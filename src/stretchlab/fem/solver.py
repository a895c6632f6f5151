"""Quasi-static equilibrium by projected Newton with backtracking.

Each iteration assembles the force and the positive-semidefinite
projected stiffness on the free coordinates, solves for a Newton step,
and backtracks by halving whenever the step raises the energy or drives
an element out of the material's domain. Convergence is declared when
the free-coordinate force residual drops below a tolerance that scales
with the material stiffness and the mesh size, keeping the criterion
machine independent.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceError, InvertedElementError
from .assembly import ElementBasis, assemble, free_dof_indices, total_energy

__all__ = ["SolveConfig", "QuasiStaticResult", "solve_quasistatic", "reaction_force"]


@dataclass(frozen=True)
class SolveConfig:
    """Newton settings.

    ``tol`` is an absolute force tolerance in N when given; otherwise it
    is ``rtol * modulus_scale * volume^(2/3)``.
    """

    tol: float = None
    rtol: float = 1e-8
    max_iters: int = 100
    max_halvings: int = 40


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


def _force_tolerance(mesh, material, config):
    if config.tol is not None:
        return config.tol
    return config.rtol * max(1.0, material.modulus_scale) * mesh.total_volume() ** (2.0 / 3.0)


def solve_quasistatic(mesh, material, bc, config=None, x0=None, basis=None):
    """Find static equilibrium under prescribed boundary positions.

    Parameters
    ----------
    mesh : TetMesh
    material : MaterialModel
    bc : BoundaryCondition
        Nonempty constrained set; all three coordinates of each listed
        vertex are prescribed.
    config : SolveConfig, optional
    x0 : (n, 3) ndarray, optional
        Warm-start positions (the prescribed values are re-applied).
    basis : ElementBasis, optional
        The mesh's basis, built here when omitted.

    Raises
    ------
    ConvergenceError
        After ``max_iters`` Newton iterations without meeting the
        tolerance; carries the residual history.
    """
    config = config or SolveConfig()
    basis = basis or ElementBasis(mesh)
    free = free_dof_indices(mesh, bc)
    tol = _force_tolerance(mesh, material, config)

    x = np.array(mesh.vertices if x0 is None else x0, dtype=float)
    bc.apply(x)

    residuals = []
    energy = total_energy(mesh, material, x, basis=basis)
    for it in range(config.max_iters):
        sys = assemble(mesh, material, x, project=True, basis=basis)
        r = sys.force[free]
        res = float(np.max(np.abs(r))) if len(r) else 0.0
        residuals.append(res)
        if res <= tol:
            full = assemble(mesh, material, x, basis=basis)
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
        for _ in range(config.max_halvings):
            x_new = x.reshape(-1).copy()
            x_new[free] += t * step
            x_new = x_new.reshape(-1, 3)
            try:
                e_new = total_energy(mesh, material, x_new, basis=basis)
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
        f"no convergence after {config.max_iters} iterations "
        f"(last residual {residuals[-1]:.3e}, tol {tol:.3e})",
        residual_history=residuals,
    )
