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

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

__all__ = ["TetMesh", "BoundaryCondition", "generate_mesh", "read_mesh", "write_mesh"]


@dataclass
class TetMesh:
    """Rest vertices (m), tet index quadruples (0-based) and density (kg/m^3)."""

    vertices: np.ndarray
    tets: np.ndarray
    density: float = 1000.0
    rest_volumes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.tets = np.asarray(self.tets, dtype=int)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (n, 3), got {self.vertices.shape}")
        if self.tets.ndim != 2 or self.tets.shape[1] != 4:
            raise ValueError(f"tets must be (m, 4), got {self.tets.shape}")
        if self.density <= 0.0:
            raise ValueError(f"density must be positive, got {self.density}")
        n = len(self.vertices)
        if self.tets.size and (self.tets.min() < 0 or self.tets.max() >= n):
            raise ValueError("tet indices out of range")
        self.rest_volumes = self._volumes()
        if np.any(self.rest_volumes <= 0.0):
            bad = int(np.argmin(self.rest_volumes))
            raise ValueError(f"non-positive rest volume in element {bad}")
        if not self._connected():
            raise ValueError("mesh is not connected")

    def _volumes(self):
        v = self.vertices
        t = self.tets
        d = np.stack(
            [v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]], v[t[:, 3]] - v[t[:, 0]]],
            axis=2,
        )
        return np.linalg.det(d) / 6.0

    def _connected(self):
        n = len(self.vertices)
        parent = np.arange(n)

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for tet in self.tets:
            r = find(tet[0])
            for v in tet[1:]:
                parent[find(v)] = r
        roots = {find(i) for i in range(n)}
        return len(roots) == 1

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_tets(self):
        return len(self.tets)

    def total_volume(self):
        return float(np.sum(self.rest_volumes))


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
        if self.coords is None:
            object.__setattr__(
                self, "coords", np.ones((len(self.vertices), 3), dtype=bool)
            )
        else:
            object.__setattr__(self, "coords", np.asarray(self.coords, dtype=bool))
            if self.coords.shape != (len(self.vertices), 3):
                raise ValueError("coords mask must be (k, 3) matching the vertex set")

    def apply(self, positions):
        """Write the prescribed coordinates into a position array."""
        for v, p, m in zip(self.vertices, self.positions, self.coords):
            positions[v][m] = p[m]
        return positions


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


def _grid(cells, extent, density):
    nx, ny, nz = cells
    xs = [np.linspace(0.0, extent[a], cells[a] + 1) for a in range(3)]

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    verts = np.zeros(((nx + 1) * (ny + 1) * (nz + 1), 3))
    for i in range(nx + 1):
        for j in range(ny + 1):
            for k in range(nz + 1):
                verts[vid(i, j, k)] = (xs[0][i], xs[1][j], xs[2][k])

    tets = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                for corners in _CELL_TETS:
                    tets.append(
                        [vid(i + c[0], j + c[1], k + c[2]) for c in corners]
                    )
    return TetMesh(vertices=verts, tets=np.array(tets, dtype=int), density=density)


def generate_mesh(kind, resolution, size=1.0, density=1000.0):
    """Generate a cube or a 4:1:1 beam.

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
        return _grid((resolution,) * 3, (size,) * 3, density)
    if kind == "beam":
        return _grid(
            (4 * resolution, resolution, resolution),
            (size, size / 4.0, size / 4.0),
            density,
        )
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


def read_mesh(path, density=1000.0):
    """Parse the ASCII ``tetmesh v1`` format.

    Raises ValueError naming the file for a missing header or section, a
    section cut short, or a row with the wrong number of fields.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != "tetmesh v1":
        raise ValueError(f"{path}: missing 'tetmesh v1' header")
    verts, pos = _read_section(path, lines, 1, "vertices", 3, float)
    tets, _ = _read_section(path, lines, pos, "tets", 4, int)
    return TetMesh(vertices=np.array(verts), tets=np.array(tets, dtype=int), density=density)


def _read_section(path, lines, pos, tag, width, convert):
    """The rows of the section ``<tag> N`` starting at ``lines[pos]``."""
    head = lines[pos].split() if pos < len(lines) else []
    if len(head) != 2 or head[0] != tag:
        raise ValueError(f"{path}: expected '{tag} N'")
    n = int(head[1])
    if not 0 <= n <= len(lines) - pos - 1:
        raise ValueError(f"{path}: '{tag} {n}', but {len(lines) - pos - 1} rows follow")
    rows = [lines[pos + 1 + i].split() for i in range(n)]
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: {tag} row {i} has {len(row)} fields, expected {width}")
    return [[convert(x) for x in row] for row in rows], pos + 1 + n
