"""Tetrahedral rest geometry: generation, validation, ASCII file format.

Generated meshes are axis-aligned grids with each hexahedral cell split
into the six tetrahedra along a main diagonal, so total volume is exact
and all elements are positively oriented.

File format (bit-exact, line oriented):

    tetmesh v1
    vertices N
    x y z            (N lines, decimal floats)
    tets M
    i0 i1 i2 i3      (M lines, 0-based)

Lines starting with ``#`` are ignored.
"""

import functools
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

__all__ = ["TetMesh", "BoundaryCondition", "face_vertices", "generate_mesh", "read_mesh",
           "write_mesh"]


@dataclass(frozen=True)
class TetMesh:
    """Rest vertices (m), tet index quadruples (0-based) and density (kg/m^3).

    ``generate_mesh`` and ``read_mesh`` give the default density; another
    is set here, as in ``TetMesh(mesh.vertices, mesh.tets, density)``. The
    mesh is rest geometry, frozen once built, so ``basis``, the
    ``ElementBasis`` of every assembly on it, is built on first read and
    kept.
    """

    vertices: np.ndarray
    tets: np.ndarray
    density: float = 1000.0
    rest_volumes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "tets", np.asarray(self.tets, dtype=int))
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (n, 3), got {self.vertices.shape}")
        if self.tets.ndim != 2 or self.tets.shape[1] != 4:
            raise ValueError(f"tets must be (m, 4), got {self.tets.shape}")
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"vertex {bad} has a non-finite coordinate: {self.vertices[bad]}")
        if self.density <= 0.0:
            raise ValueError(f"density must be positive, got {self.density}")
        n = len(self.vertices)
        if self.tets.size and (self.tets.min() < 0 or self.tets.max() >= n):
            raise ValueError("tet indices out of range")
        volumes = np.linalg.det(edge_matrices(self.vertices, self.tets)) / 6.0
        object.__setattr__(self, "rest_volumes", volumes)
        if np.any(self.rest_volumes <= 0.0):
            bad = int(np.argmin(self.rest_volumes))
            raise ValueError(f"non-positive rest volume in element {bad}")
        if not _connected(n, self.tets):
            raise ValueError("mesh is not connected")

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_tets(self):
        return len(self.tets)

    def total_volume(self):
        return float(np.sum(self.rest_volumes))

    @functools.cached_property
    def basis(self):
        # imported here: assembly imports this module
        from .assembly import ElementBasis

        return ElementBasis(self)


@dataclass(frozen=True)
class BoundaryCondition:
    """Constrained vertex indices with prescribed positions.

    ``coords`` optionally restricts the constraint to a subset of the
    three coordinates per vertex (True = constrained); by default all
    three are clamped.
    """

    vertices: np.ndarray
    positions: np.ndarray
    coords: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=int))
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        if len(self.vertices) == 0:
            raise ValueError("constrained vertex set must be nonempty")
        if self.positions.shape != (len(self.vertices), 3):
            raise ValueError("prescribed positions must be (k, 3) matching the vertex set")
        coords = np.ones((len(self.vertices), 3)) if self.coords is None else self.coords
        object.__setattr__(self, "coords", np.asarray(coords, dtype=bool))
        if self.coords.shape != (len(self.vertices), 3):
            raise ValueError("coords mask must be (k, 3) matching the vertex set")

    def apply(self, positions):
        """Write the prescribed coordinates into a position array."""
        rows, cols = np.nonzero(self.coords)
        positions[self.vertices[rows], cols] = self.positions[rows, cols]
        return positions


_FACE_TOL = 1e-9  # m, the largest distance of a face vertex from its plane


def face_vertices(mesh, axis, value):
    return np.nonzero(np.abs(mesh.vertices[:, axis] - value) < _FACE_TOL)[0]


def edge_matrices(x, tets):
    """(m, 3, 3) matrices whose column c is x[tet[c + 1]] - x[tet[0]]."""
    return np.swapaxes(x[tets[:, 1:]] - x[tets[:, :1]], 1, 2)


# the six Kuhn tetrahedra of a unit cell: each permutation of the axes is
# a monotone path from corner (0,0,0) to (1,1,1)
def _cell_tets():
    tets = []
    for perm in permutations(range(3)):
        path = [np.zeros(3, dtype=int)]
        for axis in perm:
            nxt = path[-1].copy()
            nxt[axis] = 1
            path.append(nxt)
        corners = [tuple(p) for p in path]
        e1, e2, e3 = (np.array(corners[i + 1]) - np.array(corners[0]) for i in range(3))
        if np.linalg.det(np.stack([e1, e2, e3], axis=1)) < 0:
            corners[1], corners[2] = corners[2], corners[1]
        tets.append(corners)
    return tets


_CELL_TETS = _cell_tets()


def _connected(n, tets):
    """Whether ``n`` vertices form one component under the tets.

    Min-label propagation with pointer jumping: each round gives every
    vertex the least label among its tets, then jumps each label to its
    own label, until nothing changes. Every component ends labelled by
    its least vertex, so the mesh is connected when all labels are 0.
    """
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, tets, labels[tets].min(axis=1, keepdims=True))
        new = new[new]
        if np.array_equal(new, labels):
            return n > 0 and not labels.any()
        labels = new


def _grid(cells, extent):
    """Vertices in (i, j, k) row-major order; six tets per cell, cells in
    the same order."""
    nx, ny, nz = cells
    xs = [np.linspace(0.0, extent[a], cells[a] + 1) for a in range(3)]
    verts = np.stack(np.meshgrid(*xs, indexing="ij"), axis=-1).reshape(-1, 3)
    ids = np.arange(verts.shape[0]).reshape(nx + 1, ny + 1, nz + 1)
    corners = np.array(_CELL_TETS)  # (6, 4, 3) cell-corner offsets
    offsets = ids[corners[..., 0], corners[..., 1], corners[..., 2]]
    tets = ids[:nx, :ny, :nz].reshape(-1, 1, 1) + offsets
    return TetMesh(vertices=verts, tets=tets.reshape(-1, 4))


def generate_mesh(kind, resolution, size=1.0):
    """Generate a cube or a 4:1:1 beam of the default density.

    Parameters
    ----------
    kind : {"cube", "beam"}
        ``cube``: size^3 box with resolution^3 cells. ``beam``: box of
        dimensions size x size/4 x size/4 with (4 resolution, resolution,
        resolution) cells.
    resolution : int
        Cells per short axis, >= 1.
    size : float
        Edge length (cube) or beam length, in meters.
    """
    resolution = int(resolution)
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if kind == "cube":
        return _grid((resolution,) * 3, (size,) * 3)
    if kind == "beam":
        return _grid((4 * resolution, resolution, resolution), (size, size / 4.0, size / 4.0))
    raise ValueError(f"unknown mesh kind '{kind}'")


def write_mesh(mesh, path):
    """Write the ASCII ``tetmesh v1`` format."""
    with open(path, "w") as fh:
        fh.write("tetmesh v1\n")
        fh.write(f"vertices {mesh.num_vertices}\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        fh.write(f"tets {mesh.num_tets}\n")
        for t in mesh.tets:
            fh.write(f"{t[0]} {t[1]} {t[2]} {t[3]}\n")


def read_mesh(path):
    """Parse the ASCII ``tetmesh v1`` format into a mesh of the default density.

    Raises ValueError naming the file for a missing header or section, a
    section cut short, a row with the wrong number of fields or a field
    that is not a number, and for a mesh that ``TetMesh`` rejects.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != "tetmesh v1":
        raise ValueError(f"{path}: missing 'tetmesh v1' header")
    verts, pos = _read_section(path, lines, 1, "vertices", 3, float)
    tets, _ = _read_section(path, lines, pos, "tets", 4, int)
    try:
        return TetMesh(vertices=np.array(verts), tets=np.array(tets, dtype=int))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _read_section(path, lines, pos, tag, width, convert):
    """The rows of the section ``<tag> N`` starting at ``lines[pos]``."""
    head = lines[pos].split() if pos < len(lines) else []
    if len(head) != 2 or head[0] != tag:
        raise ValueError(f"{path}: expected '{tag} N'")
    n = _parse(path, f"'{tag}' count", head[1], int)
    if not 0 <= n <= len(lines) - pos - 1:
        raise ValueError(f"{path}: '{tag} {n}', but {len(lines) - pos - 1} rows follow")
    rows = [lines[pos + 1 + i].split() for i in range(n)]
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: {tag} row {i} has {len(row)} fields, expected {width}")
    return [
        [_parse(path, f"{tag} row {i}", x, convert) for x in row] for i, row in enumerate(rows)
    ], pos + 1 + n


def _parse(path, where, text, convert):
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{path}: {where}: cannot read '{text}' as {convert.__name__}") from None
