"""Desk-scale tetrahedral FEM for material experiments."""

from .mesh import BoundaryCondition, TetMesh, face_vertices, generate_mesh, read_mesh, write_mesh
from .assembly import BlockSparseMatrix, ElementBasis, SystemMatrices, assemble
from .solver import QuasiStaticResult, reaction_force, solve_quasistatic, stretch_curve
from .modal import modal_frequencies, rel_frobenius_diff

__all__ = [
    "TetMesh",
    "BoundaryCondition",
    "face_vertices",
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
    "stretch_curve",
    "modal_frequencies",
    "rel_frobenius_diff",
]
