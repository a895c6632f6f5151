"""The batched element pipeline against the per-element loop it replaced.

``reference_assemble`` and ``reference_total_energy`` are the element
loops the library used before assembly became one array pass: rest
quantities, material evaluation, the 9x9 dP/dF built from outer products
and the scatter, one tet at a time. ``dense_bincount_stiffness`` is the
dense scatter the library used before the block-sparse stiffness. Both
are kept here only as oracles for the library code.
"""

import math

import numpy as np
import pytest
from test_golden import ENTRIES, build

import stretchlab.fem.assembly
from stretchlab.errors import DomainViolationError, InvertedElementError
from stretchlab.fem import assemble, generate_mesh
from stretchlab.fem.assembly import stress_jacobian_from_svd, total_energy
from stretchlab.filtering import filter_nonlinearity
from stretchlab.materials import make_material, sample_params
from stretchlab.specs import build_material
from stretchlab.stretch_core import RotationVariantSVD, assemble_pk1, decompose

RTOL = 1e-12
BATCH_RTOL = 1e-13

# ---------------------------------------------------------------------------
# Oracle: the per-element loop

_PAIRS = ((0, 1), (0, 2), (1, 2))


def reference_basis(mesh):
    """Per-element (Bm, G) built entry by entry."""
    v, t = mesh.vertices, mesh.tets
    out = []
    for e in range(mesh.num_tets):
        Dm = np.stack([v[t[e, c + 1]] - v[t[e, 0]] for c in range(3)], axis=1)
        Bm = np.linalg.inv(Dm)
        G = np.zeros((9, 12))
        colsum = Bm.sum(axis=0)
        for a in range(3):
            for b in range(3):
                row = 3 * a + b
                G[row, a] = -colsum[b]
                for j in range(3):
                    G[row, 3 * (j + 1) + a] = Bm[j, b]
        out.append((Bm, G))
    return out


def reference_F(mesh, basis, positions, e):
    t = mesh.tets[e]
    Ds = np.stack([positions[t[c + 1]] - positions[t[0]] for c in range(3)], axis=1)
    return Ds @ basis[e][0]


def reference_stress_jacobian(svd, grad, hess, project=False):
    """The 9x9 dP/dF as a sum of outer products of the SVD modes."""
    U, V, s = svd.U, svd.V, svd.sigma
    A = hess
    if project:
        w, Q = np.linalg.eigh(A)
        A = (Q * np.maximum(w, 0.0)) @ Q.T
    vecD = [np.outer(U[:, i], V[:, i]).reshape(9) for i in range(3)]
    M = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            M += A[i, j] * np.outer(vecD[i], vecD[j])
    scale = max(1.0, float(np.max(np.abs(s))))
    for i, j in _PAIRS:
        Wij = np.outer(U[:, i], V[:, j])
        Wji = np.outer(U[:, j], V[:, i])
        vecT = ((Wij - Wji) / math.sqrt(2.0)).reshape(9)
        vecL = ((Wij + Wji) / math.sqrt(2.0)).reshape(9)
        den_t = s[i] + s[j]
        if abs(den_t) < 1e-12 * scale:
            den_t = math.copysign(1e-12 * scale, den_t if den_t != 0.0 else 1.0)
        t = (grad[i] + grad[j]) / den_t
        if abs(s[i] - s[j]) > 1e-6 * scale:
            l = (grad[i] - grad[j]) / (s[i] - s[j])
        else:
            l = 0.5 * (hess[i, i] + hess[j, j]) - hess[i, j]
        if project:
            t = max(t, 0.0)
            l = max(l, 0.0)
        M += t * np.outer(vecT, vecT) + l * np.outer(vecL, vecL)
    return M


def reference_total_energy(mesh, material, positions):
    basis = reference_basis(mesh)
    e_total = 0.0
    for e in range(mesh.num_tets):
        svd = decompose(reference_F(mesh, basis, positions, e))
        try:
            e_total += mesh.rest_volumes[e] * material.energy(svd.sigma)
        except DomainViolationError as err:
            raise InvertedElementError(e, str(err)) from err
    return e_total


def reference_assemble(mesh, material, positions, project=False):
    """(force, stiffness, mass, energy) by the per-element loop."""
    basis = reference_basis(mesh)
    ndof = 3 * mesh.num_vertices
    force = np.zeros(ndof)
    K = np.zeros((ndof, ndof))
    mass = np.zeros(ndof)
    energy = 0.0
    for e in range(mesh.num_tets):
        svd = decompose(reference_F(mesh, basis, positions, e))
        vol = mesh.rest_volumes[e]
        try:
            energy += vol * material.energy(svd.sigma)
            g = material.gradient(svd.sigma)
            H = material.hessian(svd.sigma)
        except DomainViolationError as err:
            raise InvertedElementError(e, str(err)) from err
        P = assemble_pk1(svd, g)
        G = basis[e][1]
        dPdF = reference_stress_jacobian(svd, g, H, project=project)
        dofs = np.concatenate([3 * v + np.arange(3) for v in mesh.tets[e]])
        force[dofs] += -vol * (G.T @ P.reshape(9))
        K[np.ix_(dofs, dofs)] += vol * (G.T @ dPdF @ G)
        mass[dofs] += mesh.density * vol / 4.0
    return force, 0.5 * (K + K.T), mass, energy


def dense_bincount_stiffness(mesh, material, positions, project=False):
    """The dense (3n, 3n) K from the library's element entries: each entry
    (p, q) of every element's 16 vertex blocks, contracted from dP/dF with
    the shape gradients read off ``reference_basis``, summed in element
    order by one ``np.bincount`` over all (3n)^2 positions and added to its
    transpose."""
    m, ndof = mesh.num_tets, 3 * mesh.num_vertices
    # w[e, n, b] = dF_ab / dx_{n,a}, for any a: G[3a + b, 3n + a]
    w = np.stack([G[:3, 0::3].T for _, G in reference_basis(mesh)])
    svd = mesh.basis.element_svds(positions)
    g, H = material.gradient(svd.sigma), material.hessian(svd.sigma)
    A = stress_jacobian_from_svd(svd, g, H, project=project)
    A = A + A.swapaxes(1, 2)
    Y = (A.reshape(-1, 27, 3) @ w.swapaxes(1, 2)).reshape(-1, 3, 3, 3, 4)
    Ke = np.empty((m, 4, 3, 4, 3))
    for p in range(3):
        for q in range(3):
            Ke[:, :, p, :, q] = (w @ Y[:, p, :, q, :]) * (0.25 * mesh.rest_volumes[:, None, None])
    dofs = (3 * mesh.tets[:, :, None] + np.arange(3)).reshape(m, 12)
    index = (dofs[:, :, None] * ndof + dofs[:, None, :]).ravel()
    K = np.bincount(index, weights=Ke.ravel(), minlength=ndof * ndof).reshape(ndof, ndof)
    return K + K.T


# ---------------------------------------------------------------------------
# Cases

_SNH = make_material("stable_neo_hookean", {"mu": 1.0e5, "lam": 4.0e5})
_HENCKY = make_material("hencky", {"mu": 1.0e5, "lam": 2.0e5})
MATERIALS = {
    "stable_neo_hookean": _SNH,
    "hencky": _HENCKY,
    "st_venant_kirchhoff": make_material("st_venant_kirchhoff", {"mu": 2.0e5, "lam": 1.0e5}),
    "arap": make_material("arap", {}),
    "ogden": make_material("ogden", {"terms": [[2.0e5, 1.5], [5.0e4, -2.0]]}),
    "mooney_rivlin": make_material("mooney_rivlin", {"c1": 1.0e5, "c2": -5.0e4}),
    "stable_neo_hookean:alpha=0.2": filter_nonlinearity(_SNH, 0.2),
    "stable_neo_hookean:alpha=4": filter_nonlinearity(_SNH, 4.0),
    "hencky:alpha=0.2": filter_nonlinearity(_HENCKY, 0.2),
    "hencky:alpha=4": filter_nonlinearity(_HENCKY, 4.0),
}

MESH = generate_mesh("cube", 2)
_CENTER = int(np.argmin(np.linalg.norm(MESH.vertices - 0.5, axis=1)))


def _state(name):
    rng = np.random.default_rng(7)
    X = MESH.vertices
    noise = rng.uniform(-1.0, 1.0, size=X.shape)
    if name == "rest":  # every stretch equal: the fully degenerate flip branch
        return X.copy()
    if name == "near_uniform":  # stretch gaps of order 1e-9
        return 1.1 * X + 1e-9 * noise
    if name == "random":
        return X + 0.08 * noise
    # the center vertex pushed through a face: several tets invert
    x = X + 0.02 * noise
    x[_CENTER] += (0.7, 0.0, 0.0)
    return x


STATES = ("rest", "near_uniform", "random", "inverted")


def _inverted_elements(positions):
    basis = reference_basis(MESH)
    dets = [np.linalg.det(reference_F(MESH, basis, positions, e)) for e in range(MESH.num_tets)]
    return [e for e, d in enumerate(dets) if d <= 0.0]


def _close(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    bound = RTOL * max(1.0, float(np.max(np.abs(ref))))
    return float(np.max(np.abs(new - ref))) <= bound


@pytest.mark.parametrize("project", (False, True))
@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("name", list(MATERIALS))
def test_batched_assembly_matches_element_loop(name, state, project):
    material = MATERIALS[name]
    x = _state(state)
    if state == "inverted":
        assert len(_inverted_elements(x)) >= 2
        if material.domain != "unrestricted":
            with pytest.raises(InvertedElementError) as ref_err:
                reference_assemble(MESH, material, x, project=project)
            with pytest.raises(InvertedElementError) as err:
                assemble(MESH, material, x, project=project)
            assert err.value.element_index == ref_err.value.element_index
            return
    force, K, mass, energy = reference_assemble(MESH, material, x, project=project)
    sys = assemble(MESH, material, x, project=project)
    assert _close(sys.force, force)
    dense = sys.stiffness.toarray()
    assert _close(dense, K)
    assert np.array_equal(dense, dense_bincount_stiffness(MESH, material, x, project=project))
    assert _close(MESH.basis.mass, mass)
    assert _close(sys.energy, energy)
    assert _close(total_energy(MESH, material, x), reference_total_energy(MESH, material, x))


@pytest.mark.parametrize("project", (False, True))
@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("name", list(MATERIALS))
def test_stiffness_is_bitwise_symmetric(name, state, project):
    material, x = MATERIALS[name], _state(state)
    if state == "inverted" and material.domain != "unrestricted":
        return  # out of domain: assemble raises
    K = assemble(MESH, material, x, project=project).stiffness.toarray()
    assert np.array_equal(K, K.T)


# the rest configuration: no positions, the exact decomposition of F = I
REST_MATERIALS = {
    "stable_neo_hookean": _SNH,
    "st_venant_kirchhoff": MATERIALS["st_venant_kirchhoff"],
    "hencky": _HENCKY,
    # a generic draw, stressed at rest
    "ogden:generic": make_material("ogden", sample_params("ogden", np.random.default_rng(0))),
    "stable_neo_hookean:alpha=0.2": MATERIALS["stable_neo_hookean:alpha=0.2"],
    "stable_neo_hookean:alpha=4": MATERIALS["stable_neo_hookean:alpha=4"],
    # spec B of the modes benchmark workload
    "combine": build_material(
        {
            "combine": {
                "mu_part": {"family": "st_venant_kirchhoff", "params": {"mu": 1.0, "lam": 1.0}},
                "lambda_part": "j_minus_1_sq",
                "E": 2.5e5,
                "nu": 0.3,
                "alpha_mu": 2.0,
            }
        }
    ),
}


def _no_svd(F):
    raise AssertionError("decompose called in a rest assembly")


@pytest.mark.parametrize("project", (False, True))
@pytest.mark.parametrize("kind, n", (("cube", 2), ("beam", 1)))
@pytest.mark.parametrize("name", list(REST_MATERIALS))
def test_rest_assembly_matches_rest_positions_without_svd(name, kind, n, project, monkeypatch):
    material = REST_MATERIALS[name]
    mesh = generate_mesh(kind, n)
    ref = assemble(mesh, material, mesh.vertices, project=project)
    monkeypatch.setattr(stretchlab.fem.assembly, "decompose", _no_svd)
    sys = assemble(mesh, material, project=project)
    assert _close(sys.force, ref.force)
    assert _close(sys.stiffness.toarray(), ref.stiffness.toarray())
    assert _close(sys.energy, ref.energy)


@pytest.mark.parametrize("name", list(REST_MATERIALS))
def test_rest_stiffness_is_bitwise_symmetric(name):
    K = assemble(MESH, REST_MATERIALS[name]).stiffness.toarray()
    assert np.array_equal(K, K.T)


@pytest.mark.parametrize("kind, n", (("cube", 2), ("beam", 1)))
def test_block_pattern(kind, n):
    mesh = generate_mesh(kind, n)
    K = assemble(mesh, _SNH).stiffness
    nv = mesh.num_vertices
    assert K.shape == (3 * nv, 3 * nv)
    assert K.data.shape == (len(K.indices), 3, 3)
    assert len(K.indptr) == nv + 1 and K.indptr[0] == 0 and K.indptr[-1] == len(K.indices)
    assert np.all(np.diff(K.indptr) >= 0)
    blocks = set()
    for r in range(nv):
        cols = K.indices[K.indptr[r] : K.indptr[r + 1]]
        assert np.all(np.diff(cols) > 0)  # sorted and unique
        blocks.update((r, int(c)) for c in cols)
    assert blocks == {(c, r) for r, c in blocks}
    assert blocks == {(int(a), int(b)) for tet in mesh.tets for a in tet for b in tet}


def test_inverted_state_has_a_negative_stretch():
    x = _state("inverted")
    svd = MESH.basis.element_svds(x)
    assert np.min(svd.sigma[:, 2]) < 0.0


@pytest.mark.parametrize("project", (False, True))
@pytest.mark.parametrize("name", ("stable_neo_hookean", "arap"))
def test_stacked_stress_jacobian_matches_single_calls(name, project):
    # equal and near-equal stretches (a gap of 2e-6 takes the l'Hopital
    # limit only when the switch scales with the largest stretch),
    # s_i + s_j = 0 and -0.0 (the twist clamp takes a positive sign), and
    # inverted stretch sets
    rng = np.random.default_rng(11)
    sigmas = [
        (1.0, 1.0, 1.0),
        (1.3, 1.3 + 1e-9, 0.8),
        (1.3, 1.3 + 2e-6, 0.8),
        (3.0 + 2e-6, 3.0, 0.5),
        (1.0, 1.0, -1.0),
        (0.5, -0.0, -0.0),
        (1.5, 0.7, -0.4),
        (2.0, 0.5, 1e-14),
    ]
    model = MATERIALS[name]
    U, V, S = [], [], []
    for s in sigmas:
        U.append(decompose(rng.standard_normal((3, 3))).U)
        V.append(decompose(rng.standard_normal((3, 3))).V)
        S.append(np.array(s))
    stack = RotationVariantSVD(U=np.stack(U), V=np.stack(V), sigma=np.stack(S))
    g, H = model.gradient(stack.sigma), model.hessian(stack.sigma)
    M = stress_jacobian_from_svd(stack, g, H, project=project)
    assert M.shape == (len(sigmas), 9, 9)
    for e in range(len(sigmas)):
        one = RotationVariantSVD(U=U[e], V=V[e], sigma=S[e])
        single = stress_jacobian_from_svd(one, g[e], H[e], project=project)
        ref = reference_stress_jacobian(one, g[e], H[e], project=project)
        assert single.shape == (9, 9)
        assert np.array_equal(M[e], single)
        assert _close(single, ref)


# ---------------------------------------------------------------------------
# Batched material evaluation and error indices


def _row_close(new, ref):
    bound = BATCH_RTOL * max(1.0, float(np.max(np.abs(ref))))
    return float(np.max(np.abs(np.asarray(new) - np.asarray(ref)))) <= bound


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_stacked_evaluation_matches_row_by_row(entry):
    model = build(entry["desc"])
    S = np.array(entry["stretches"])
    for stack in (S, np.stack([S, S[::-1]])):
        E, g, H = model.energy(stack), model.gradient(stack), model.hessian(stack)
        rows = stack.reshape(-1, 3)
        assert E.shape == stack.shape[:-1]
        assert g.shape == stack.shape
        assert H.shape == stack.shape + (3,)
        assert np.array_equal(H, np.swapaxes(H, -1, -2))
        for k, (e, gk, Hk) in enumerate(zip(E.ravel(), g.reshape(-1, 3), H.reshape(-1, 3, 3))):
            assert _row_close(e, model.energy(rows[k]))
            assert _row_close(gk, model.gradient(rows[k]))
            assert _row_close(Hk, model.hessian(rows[k]))


def test_check_domain_names_the_first_invalid_row():
    model = MATERIALS["hencky"]
    S = np.ones((6, 3))
    S[4, 1] = -0.5
    S[2, 0] = 0.0
    with pytest.raises(DomainViolationError) as err:
        model.gradient(S)
    assert err.value.index == 2
    assert "positive" in str(err.value)
    S[1, 2] = np.nan
    with pytest.raises(DomainViolationError) as err:
        model.energy(S)
    assert err.value.index == 1
    assert "finite" in str(err.value)
    with pytest.raises(DomainViolationError) as err:
        model.energy(np.array([1.0, -1.0, 1.0]))
    assert err.value.index is None
    # finite stretches whose sum overflows are still valid
    model.check_domain(np.array([[1.0, 1.0, 1.0], [1e308, 1e308, 1.0]]))


@pytest.mark.parametrize("name", ("hencky", "hencky:alpha=4", "ogden"))
def test_lowest_out_of_domain_element_is_reported(name):
    material = MATERIALS[name]
    x = _state("inverted")
    bad = _inverted_elements(x)
    assert len(bad) >= 2
    for run in (
        lambda: assemble(MESH, material, x, project=True),
        lambda: total_energy(MESH, material, x),
    ):
        with pytest.raises(InvertedElementError) as err:
            run()
        assert err.value.element_index == bad[0]
        assert str(err.value).startswith(f"element {bad[0]}:")
