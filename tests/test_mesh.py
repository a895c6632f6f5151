"""Mesh generation, validation and file round trips."""

import numpy as np
import pytest

from stretchlab.fem import BoundaryCondition, TetMesh, generate_mesh, read_mesh, write_mesh


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
