"""Mesh generation, validation, file round trips and the element basis."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from stretchlab.fem import (
    BoundaryCondition,
    ElementBasis,
    TetMesh,
    generate_mesh,
    read_mesh,
    write_mesh,
)
from stretchlab.fem.mesh import _CELL_TETS, _connected


def test_unit_cube_resolution_one():
    mesh = generate_mesh("cube", 1)
    assert mesh.num_vertices == 8
    assert mesh.num_tets == 6
    assert mesh.total_volume() == pytest.approx(1.0, rel=1e-14)


def test_cube_resolution_two():
    mesh = generate_mesh("cube", 2)
    assert mesh.num_vertices == 27
    assert mesh.num_tets == 48
    assert mesh.total_volume() == pytest.approx(1.0, rel=1e-14)


def test_all_elements_positively_oriented():
    for kind, n in (("cube", 3), ("beam", 2)):
        mesh = generate_mesh(kind, n)
        assert np.all(mesh.rest_volumes > 0.0)


def test_beam_dimensions():
    mesh = generate_mesh("beam", 2, size=1.0)
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    assert np.allclose(lo, 0.0)
    assert np.allclose(hi, [1.0, 0.25, 0.25])
    # 8 x 2 x 2 cells, six tets each
    assert mesh.num_tets == 8 * 2 * 2 * 6
    assert mesh.total_volume() == pytest.approx(1.0 / 16.0, rel=1e-14)


def test_scaled_cube_volume():
    mesh = generate_mesh("cube", 2, size=2.5)
    assert mesh.total_volume() == pytest.approx(2.5**3, rel=1e-13)


def test_mesh_validation():
    tet = np.array([[0, 1, 2, 3]])
    good = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    TetMesh(vertices=good, tets=tet)
    with pytest.raises(ValueError):
        TetMesh(vertices=good, tets=np.array([[0, 1, 2, 9]]))
    with pytest.raises(ValueError):
        # swapping two vertices inverts the element
        TetMesh(vertices=good, tets=np.array([[1, 0, 2, 3]]))
    with pytest.raises(ValueError):
        TetMesh(vertices=good, tets=tet, density=-1.0)
    for bad in (np.nan, np.inf):
        corrupt = good.copy()
        corrupt[2, 1] = bad
        with pytest.raises(ValueError, match="vertex 2 has a non-finite coordinate"):
            TetMesh(vertices=corrupt, tets=tet)
    disconnected = np.vstack([good, good + 10.0])
    with pytest.raises(ValueError):
        TetMesh(vertices=disconnected, tets=np.array([[0, 1, 2, 3], [4, 5, 6, 7]]))


def test_basis_is_built_on_first_read_and_kept():
    mesh = generate_mesh("cube", 1)
    assert "basis" not in vars(mesh)
    basis = mesh.basis
    assert isinstance(basis, ElementBasis) and mesh.basis is basis
    assert basis.tets is mesh.tets and np.array_equal(basis.volumes, mesh.rest_volumes)
    # the basis holds the lumped mass of this density: the mesh is frozen
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.density = 4000.0


def test_basis_keeps_no_reference_to_its_mesh():
    # a mesh -> basis -> mesh cycle would outlive ``del`` until a collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        mesh = generate_mesh("beam", 2)
        mesh_ref, basis_ref = weakref.ref(mesh), weakref.ref(mesh.basis)
        del mesh
        assert mesh_ref() is None and basis_ref() is None
    finally:
        if enabled:
            gc.enable()


def test_file_round_trip(tmp_path):
    mesh = generate_mesh("beam", 1)
    path = tmp_path / "beam.mesh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.tets, mesh.tets)


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("trimesh v1\n")
    with pytest.raises(ValueError):
        read_mesh(path)


def test_boundary_condition_masks():
    mesh = generate_mesh("cube", 1)
    verts = np.array([0, 1])
    bc = BoundaryCondition(vertices=verts, positions=mesh.vertices[verts])
    assert bc.coords.shape == (2, 3) and bc.coords.all()
    coords = np.array([[True, False, False], [True, True, True]])
    bc = BoundaryCondition(
        vertices=verts, positions=mesh.vertices[verts] + 1.0, coords=coords
    )
    x = mesh.vertices.copy()
    bc.apply(x)
    assert x[0, 0] == mesh.vertices[0, 0] + 1.0
    assert x[0, 1] == mesh.vertices[0, 1]
    assert np.all(x[1] == mesh.vertices[1] + 1.0)
    with pytest.raises(ValueError):
        BoundaryCondition(vertices=np.array([], dtype=int), positions=np.zeros((0, 3)))


# -- loop oracles for the array code of fem/mesh.py


def grid_loops(cells, extent):
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
                    tets.append([vid(i + c[0], j + c[1], k + c[2]) for c in corners])
    return verts, np.array(tets, dtype=int)


def connected_loops(n, tets):
    parent = np.arange(n)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for tet in tets:
        r = find(tet[0])
        for v in tet[1:]:
            parent[find(v)] = r
    return len({find(i) for i in range(n)}) == 1


@pytest.mark.parametrize(
    "kind, n", [*(("cube", n) for n in range(1, 5)), *(("beam", n) for n in range(1, 4))]
)
def test_generated_mesh_matches_loop_oracle(kind, n):
    # the tet order fixes the order of every element sum downstream
    mesh = generate_mesh(kind, n)
    if kind == "cube":
        verts, tets = grid_loops((n, n, n), (1.0, 1.0, 1.0))
    else:
        verts, tets = grid_loops((4 * n, n, n), (1.0, 0.25, 0.25))
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.tets, tets)
    assert mesh.tets.dtype == tets.dtype


def test_connectivity_matches_union_find_oracle():
    rng = np.random.default_rng(0)
    seen = set()
    for n in (1, 2, 5, 12, 40, 120):
        for m in (0, 1, n // 8, n // 4, n // 2, n):
            for _ in range(10):
                tets = rng.integers(0, n, size=(m, 4))
                expected = connected_loops(n, tets)
                assert _connected(n, tets) == expected, (n, tets)
                seen.add(expected)
    assert seen == {True, False}
    # a path 0 - 1 - ... - 199 listed from its far end, so that labels
    # travel against the tet order
    chain = np.array([[i, i, i + 1, i + 1] for i in reversed(range(199))])
    assert _connected(200, chain)
    assert not _connected(201, chain)
    assert not _connected(0, np.zeros((0, 4), dtype=int))


def test_mesh_with_an_unused_vertex_is_rejected():
    mesh = generate_mesh("cube", 2)
    with pytest.raises(ValueError, match="not connected"):
        TetMesh(vertices=np.vstack([mesh.vertices, [[5.0, 5.0, 5.0]]]), tets=mesh.tets)
