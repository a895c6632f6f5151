"""Desk-scale tetrahedral FEM for material experiments."""

from .mesh import BoundaryCondition, TetMesh, generate_mesh, read_mesh, write_mesh
from .assembly import BlockSparseMatrix, ElementBasis, SystemMatrices, assemble
from .solver import QuasiStaticResult, reaction_force, solve_quasistatic
from .modal import modal_frequencies

__all__ = [
    "TetMesh",
    "BoundaryCondition",
    "generate_mesh",
    "read_mesh",
    "write_mesh",
    "BlockSparseMatrix",
    "ElementBasis",
    "SystemMatrices",
    "assemble",
    "QuasiStaticResult",
    "solve_quasistatic",
    "reaction_force",
    "modal_frequencies",
]
