"""Quasi-static solves and modal analysis."""

import json
import re

import numpy as np
import pytest

import stretchlab.fem.assembly
import stretchlab.fem.solver
from stretchlab.cli import main
from stretchlab.errors import ConvergenceError, InvertedElementError, RestInstabilityError
from stretchlab.fem import (
    BoundaryCondition,
    assemble,
    generate_mesh,
    modal_frequencies,
    reaction_force,
    solve_quasistatic,
)
from stretchlab.fem.assembly import free_dof_indices
from stretchlab.fem.mesh import TetMesh, edge_matrices
from stretchlab.materials import make_material, sample_params
from stretchlab.specs import build_material

SNH = ("stable_neo_hookean", {"mu": 1.0e5, "lam": 4.0e5})
# rest-stable specs for the dense-oracle check: the two specs of the modes
# benchmark workload at E = 2.5e5, nu = 0.3 (Stable Neo-Hookean takes
# lam = lambda_lame + mu), then Linear Corotational and SVK
MODES_SPECS = {
    "snh": {
        "family": "stable_neo_hookean",
        "params": {"mu": 2.5e5 / 2.6, "lam": 2.5e5 * 0.3 / 0.52 + 2.5e5 / 2.6},
    },
    "combine": {
        "combine": {
            "mu_part": {"family": "st_venant_kirchhoff", "params": {"mu": 1.0, "lam": 1.0}},
            "lambda_part": "j_minus_1_sq",
            "E": 2.5e5,
            "nu": 0.3,
            "alpha_mu": 2.0,
        }
    },
    **{
        family: {"family": family, "params": {"mu": 1.0e5, "lam": 2.0e5}}
        for family in ("linear_corotational", "st_venant_kirchhoff")
    },
}
# a generic Ogden draw: one term with mu_p > 0 and alpha_p = -2, whose rest
# stress makes the rest stiffness indefinite
INDEFINITE_SPEC = {"family": "ogden", "params": sample_params("ogden", np.random.default_rng(0))}


def face(mesh, axis, value):
    return np.nonzero(np.abs(mesh.vertices[:, axis] - value) < 1e-9)[0]


def clamp_both_x_faces(mesh, stretch):
    left = face(mesh, 0, 0.0)
    right = face(mesh, 0, 1.0)
    verts = np.concatenate([left, right])
    pos = mesh.vertices[verts].copy()
    pos[len(left):, 0] += stretch - 1.0
    return BoundaryCondition(vertices=verts, positions=pos), left, right


def test_rest_boundary_conditions_converge_immediately():
    mesh = generate_mesh("cube", 2)
    model = make_material(*SNH)
    bc, _, _ = clamp_both_x_faces(mesh, 1.0)
    result = solve_quasistatic(mesh, model, bc)
    assert result.iterations == 0
    assert np.max(np.abs(result.positions - mesh.vertices)) < 1e-12


def test_newton_regularizes_a_step_whose_solve_fails(monkeypatch):
    # the first Newton solve raises as on a singular stiffness; the retry on
    # K + reg I, reg = 1e-10 trace(K) / n, reaches the same equilibrium
    mesh = generate_mesh("cube", 2)
    model = make_material(*SNH)
    bc, _, _ = clamp_both_x_faces(mesh, 1.2)
    plain = solve_quasistatic(mesh, model, bc)
    solve, calls = np.linalg.solve, []

    def fail_first(a, b):
        calls.append(a.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", fail_first)
    result = solve_quasistatic(mesh, model, bc)
    assert len(calls) == plain.iterations + 1 and calls[0] == calls[1]
    assert result.iterations == plain.iterations
    assert np.max(np.abs(result.positions - plain.positions)) < 1e-9


def test_stretch_solve_equilibrium_and_reaction():
    mesh = generate_mesh("cube", 2)
    model = make_material(*SNH)
    bc, left, right = clamp_both_x_faces(mesh, 1.2)
    result = solve_quasistatic(mesh, model, bc)
    assert result.energy > 0.0
    # interior residual is converged
    assert result.residuals[-1] < 1e-2
    # action equals reaction across the two faces
    fl = reaction_force(result, left)
    fr = reaction_force(result, right)
    assert np.max(np.abs(fl + fr)) < 1e-6 * max(1.0, np.max(np.abs(fr)))
    # the right face is pulled outward, so it pulls back inward
    assert fr[0] < 0.0


def test_translation_invariance():
    mesh = generate_mesh("cube", 2)
    model = make_material(*SNH)
    bc, _, _ = clamp_both_x_faces(mesh, 1.1)
    r0 = solve_quasistatic(mesh, model, bc)
    shift = np.array([0.3, -0.2, 0.5])
    bc2 = BoundaryCondition(vertices=bc.vertices, positions=bc.positions + shift)
    r1 = solve_quasistatic(mesh, model, bc2)
    assert np.max(np.abs(r1.positions - (r0.positions + shift))) < 1e-6
    assert r1.energy == pytest.approx(r0.energy, rel=1e-6)


def test_compression_with_positive_domain_material():
    # hencky rejects inverted elements, so the line search must stay in
    # the valid region all the way to equilibrium
    mesh = generate_mesh("cube", 2)
    model = make_material("hencky", {"mu": 1.0e5, "lam": 2.0e5})
    bc, _, right = clamp_both_x_faces(mesh, 0.7)
    result = solve_quasistatic(mesh, model, bc)
    assert reaction_force(result, right)[0] > 0.0


def test_warm_start_reduces_iterations():
    mesh = generate_mesh("cube", 2)
    model = make_material(*SNH)
    bc, _, _ = clamp_both_x_faces(mesh, 1.3)
    cold = solve_quasistatic(mesh, model, bc)
    warm = solve_quasistatic(mesh, model, bc, x0=cold.positions)
    assert warm.iterations <= cold.iterations
    assert warm.iterations == 0


def test_convergence_error_carries_history(monkeypatch):
    mesh = generate_mesh("cube", 2)
    model = make_material(*SNH)
    bc, _, _ = clamp_both_x_faces(mesh, 1.8)
    monkeypatch.setattr(stretchlab.fem.solver, "MAX_ITERS", 1)
    with pytest.raises(ConvergenceError, match="no convergence after 1 iterations") as err:
        solve_quasistatic(mesh, model, bc)
    assert len(err.value.residual_history) == 1


def trial_outcomes(monkeypatch):
    """Patch the solver's ``total_energy`` to log each call: its energy, or
    "inverted" for one that raised InvertedElementError."""
    log = []
    total_energy = stretchlab.fem.solver.total_energy

    def logged(mesh, material, positions):
        try:
            log.append(total_energy(mesh, material, positions))
        except InvertedElementError:
            log.append("inverted")
            raise
        return log[-1]

    monkeypatch.setattr(stretchlab.fem.solver, "total_energy", logged)
    return log


# a pull to three times the length from rest: the first Newton steps are
# long enough that the line search must halve them
LINE_SEARCH_PARAMS = {"mu": 1.0e5, "lam": 4.0e5}


def test_line_search_halves_a_step_that_raises_the_energy(monkeypatch):
    mesh = generate_mesh("cube", 2)
    bc, _, right = clamp_both_x_faces(mesh, 3.0)
    log = trial_outcomes(monkeypatch)
    result = solve_quasistatic(mesh, make_material("hencky", LINE_SEARCH_PARAMS), bc)
    # one call at the start, one per accepted step, one per halving
    assert len(log) == 1 + result.iterations + 1
    assert "inverted" not in log
    # the rejected trial is the one call whose energy exceeds its predecessor's
    rises = [i for i in range(1, len(log)) if log[i] > log[i - 1]]
    assert len(rises) == 1
    assert reaction_force(result, right)[0] < 0.0


def test_line_search_halves_a_step_that_inverts_an_element(monkeypatch):
    mesh = generate_mesh("cube", 2)
    bc, _, right = clamp_both_x_faces(mesh, 3.0)
    log = trial_outcomes(monkeypatch)
    result = solve_quasistatic(mesh, make_material("neo_hookean", LINE_SEARCH_PARAMS), bc)
    assert len(log) == 1 + result.iterations + 1
    assert log.count("inverted") == 1
    accepted = [e for e in log if e != "inverted"]
    assert all(b <= a for a, b in zip(accepted, accepted[1:]))
    assert reaction_force(result, right)[0] < 0.0


def test_line_search_failure_raises_with_history(monkeypatch):
    mesh = generate_mesh("cube", 2)
    bc, _, _ = clamp_both_x_faces(mesh, 3.0)
    monkeypatch.setattr(stretchlab.fem.solver, "MAX_HALVINGS", 0)
    with pytest.raises(ConvergenceError, match="line search failed at iteration 0") as err:
        solve_quasistatic(mesh, make_material("hencky", LINE_SEARCH_PARAMS), bc)
    assert len(err.value.residual_history) == 1 and err.value.residual_history[0] > 0.0


@pytest.mark.parametrize("family, iterations", [("stable_neo_hookean", 5), ("linear_corotational", 6)])
def test_newton_returns_to_rest_from_an_inverted_start(family, iterations):
    # the centre of the y = 0 face pushed through to (1.25, 0, 1.25) inverts
    # 4 tets; both families are defined on inverted elements
    mesh = generate_mesh("cube", 2)
    bc, _, _ = clamp_both_x_faces(mesh, 1.0)
    x0 = mesh.vertices.copy()
    x0[10] += (0.75, 0.0, 0.75)
    assert np.count_nonzero(np.linalg.det(edge_matrices(x0, mesh.tets)) < 0.0) == 4
    result = solve_quasistatic(mesh, make_material(family, SNH[1]), bc, x0=x0)
    assert result.iterations == iterations
    assert np.max(np.abs(result.positions - mesh.vertices)) < 1e-8


def test_modal_frequencies_sorted_positive():
    mesh = generate_mesh("beam", 1)
    model = make_material(*SNH)
    bc = BoundaryCondition(vertices=face(mesh, 0, 0.0), positions=mesh.vertices[face(mesh, 0, 0.0)])
    freqs = modal_frequencies(mesh, model, bc, 6)
    assert len(freqs) == 6
    assert np.all(np.diff(freqs) >= 0.0)
    assert freqs[0] > 0.0


def test_modal_density_scaling():
    # frequencies scale as 1/sqrt(density)
    model = make_material(*SNH)
    m1 = generate_mesh("beam", 1)
    m4 = TetMesh(m1.vertices, m1.tets, 4.0 * m1.density)
    left = face(m1, 0, 0.0)
    bc = BoundaryCondition(vertices=left, positions=m1.vertices[left])
    f1 = modal_frequencies(m1, model, bc, 5)
    f4 = modal_frequencies(m4, model, bc, 5)
    assert np.max(np.abs(f4 / f1 - 0.5)) < 1e-10


def test_modal_stiffness_scaling():
    # frequencies scale as sqrt(stiffness)
    mesh = generate_mesh("beam", 1)
    left = face(mesh, 0, 0.0)
    bc = BoundaryCondition(vertices=left, positions=mesh.vertices[left])
    a = make_material("linear_corotational", {"mu": 1.0e5, "lam": 2.0e5})
    b = make_material("linear_corotational", {"mu": 4.0e5, "lam": 8.0e5})
    fa = modal_frequencies(mesh, a, bc, 5)
    fb = modal_frequencies(mesh, b, bc, 5)
    assert np.max(np.abs(fb / fa - 2.0)) < 1e-10


def test_sliding_constraint_relaxes_reaction():
    # releasing the tangential clamp lowers the stored energy
    mesh = generate_mesh("cube", 2)
    model = make_material(*SNH)
    bc, left, right = clamp_both_x_faces(mesh, 1.2)
    hard = solve_quasistatic(mesh, model, bc)
    coords = np.zeros((len(bc.vertices), 3), dtype=bool)
    coords[:, 0] = True
    slide = BoundaryCondition(vertices=bc.vertices, positions=bc.positions, coords=coords)
    soft = solve_quasistatic(mesh, model, slide)
    assert soft.energy < hard.energy


def clamp_left_face(mesh, count=None):
    left = face(mesh, 0, 0.0)[:count]
    return BoundaryCondition(vertices=left, positions=mesh.vertices[left])


def dense_frequencies(mesh, material, bc, k):
    """Oracle: a dense eigvalsh of M^-1/2 K M^-1/2 over all free coordinates."""
    free = free_dof_indices(mesh, bc)
    inv_sqrt_m = 1.0 / np.sqrt(mesh.basis.mass[free])
    K = assemble(mesh, material).stiffness.toarray()
    A = K[np.ix_(free, free)] * inv_sqrt_m[:, None] * inv_sqrt_m[None, :]
    w = np.linalg.eigvalsh(0.5 * (A + A.T))[:k]
    return np.sqrt(w) / (2.0 * np.pi)


@pytest.mark.parametrize("kind, n", [("beam", 1), ("beam", 2), ("cube", 2)])
@pytest.mark.parametrize("spec", sorted(MODES_SPECS))
def test_modal_frequencies_match_dense_oracle(kind, n, spec):
    mesh = generate_mesh(kind, n)
    model = build_material(MODES_SPECS[spec])
    bc = clamp_left_face(mesh)
    got = modal_frequencies(mesh, model, bc, 6)
    want = dense_frequencies(mesh, model, bc, 6)
    assert np.max(np.abs(got - want) / want) < 1e-9


def test_modal_frequencies_repeat_bit_identical():
    mesh = generate_mesh("beam", 2)
    model = build_material(MODES_SPECS["combine"])
    bc = clamp_left_face(mesh)
    first = modal_frequencies(mesh, model, bc, 6)
    assert np.array_equal(modal_frequencies(mesh, model, bc, 6), first)


def test_modal_frequencies_independent_of_vertex_labels():
    # relabelling the vertices changes the order that the reverse
    # Cuthill-McKee ordering starts from; the frequencies must not move
    mesh = generate_mesh("beam", 2)
    model = build_material(MODES_SPECS["snh"])
    want = modal_frequencies(mesh, model, clamp_left_face(mesh), 6)
    new_label = np.random.default_rng(0).permutation(mesh.num_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[new_label] = mesh.vertices
    relabelled = TetMesh(vertices, new_label[mesh.tets], mesh.density)
    got = modal_frequencies(relabelled, model, clamp_left_face(relabelled), 6)
    assert np.max(np.abs(got - want) / want) < 1e-12


def test_indefinite_rest_stiffness_raises():
    mesh = generate_mesh("beam", 1)
    model = build_material(INDEFINITE_SPEC)
    assert not model.rest_stable
    with pytest.raises(RestInstabilityError, match="not positive definite"):
        modal_frequencies(mesh, model, clamp_left_face(mesh), 6)


@pytest.mark.parametrize("n", [1, 2])
def test_single_vertex_clamp_raises(n):
    # rotations about the clamped vertex stay free: K is singular on the free set
    mesh = generate_mesh("beam", n)
    bc = clamp_left_face(mesh, 1)
    with pytest.raises(RestInstabilityError, match="rigid motions") as err:
        modal_frequencies(mesh, make_material(*SNH), bc, 6)
    # the message names the free vertex and axis of the failing pivot
    vertex = re.search(r"vertex (\d+), axis [xyz]", str(err.value))
    assert vertex and int(vertex[1]) < mesh.num_vertices and int(vertex[1]) not in bc.vertices


@pytest.mark.parametrize("n", [1, 2])
def test_clamp_on_a_line_raises(n):
    # two clamped vertices leave the rotation about the line through them
    # free; at n=2 every pivot of the band factor clears the tolerance, and
    # only the lowest eigenvalue shows the singular stiffness
    mesh = generate_mesh("beam", n)
    with pytest.raises(RestInstabilityError, match="rigid motions"):
        modal_frequencies(mesh, make_material(*SNH), clamp_left_face(mesh, 2), 6)


def test_mode_count_out_of_range_raises():
    mesh = generate_mesh("beam", 1)
    bc = clamp_left_face(mesh)
    n_free = len(free_dof_indices(mesh, bc))
    for k in (0, n_free):
        with pytest.raises(ValueError, match="modes"):
            modal_frequencies(mesh, make_material(*SNH), bc, k)


def test_cli_modes_runs_no_svd(capsys, tmp_path, monkeypatch):
    def no_svd(F):
        raise AssertionError("decompose called in a rest assembly")

    monkeypatch.setattr(stretchlab.fem.assembly, "decompose", no_svd)
    paths = []
    for name in ("snh", "combine"):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(MODES_SPECS[name]))
    code = main(["modes", "--spec-a", str(paths[0]), "--spec-b", str(paths[1]), "--n", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["stiffness_rel_frobenius_diff"] <= 1e-12
    assert len(out["frequencies_a_hz"]) == 6


def test_cli_modes_indefinite_spec_exits_2(capsys, tmp_path):
    spec_a, spec_b = tmp_path / "a.json", tmp_path / "b.json"
    spec_a.write_text(json.dumps(INDEFINITE_SPEC))
    spec_b.write_text(json.dumps(MODES_SPECS["snh"]))
    code = main(["modes", "--spec-a", str(spec_a), "--spec-b", str(spec_b), "--n", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not positive definite" in err and "Traceback" not in err
