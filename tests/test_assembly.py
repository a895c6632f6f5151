"""Element and global assembly against finite-difference oracles."""

import zlib

import numpy as np
import pytest

from stretchlab.compose import augment_volumetric
from stretchlab.errors import InvertedElementError
from stretchlab.fem import TetMesh, assemble, generate_mesh
from stretchlab.fem.assembly import (
    lumped_mass,
    stress_jacobian_from_svd,
    total_energy,
)
from stretchlab.filtering import filter_nonlinearity
from stretchlab.lame import IsotropicModuli, extract_lame, moduli_to_lame
from stretchlab.materials import catalog_families, make_material, sample_params
from stretchlab.specs import build_material
from stretchlab.stretch_core import RotationVariantSVD, assemble_pk1, decompose

MATERIALS = (
    ("stable_neo_hookean", {"mu": 1.0e5, "lam": 4.0e5}),
    ("st_venant_kirchhoff", {"mu": 2.0e5, "lam": 1.0e5}),
    ("hencky", {"mu": 1.0e5, "lam": 2.0e5}),
    ("arap", {}),
)


def element_pk1(material, F):
    """Oracle: the PK1 stress of one F, from its own decomposition."""
    svd = decompose(F)
    return assemble_pk1(svd, material.gradient(svd.sigma))


def element_stress_jacobian(material, F, project=False):
    """Oracle: dP/dF of one F as a 9x9 matrix acting on row-major vec(dF)."""
    svd = decompose(F)
    g, H = material.gradient(svd.sigma), material.hessian(svd.sigma)
    return stress_jacobian_from_svd(svd, g, H, project=project)


def fd_stress_jacobian(model, F, h=1e-6):
    """[DERIVED] oracle: central differences of element_pk1 per F entry."""
    M = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            dF = np.zeros((3, 3))
            dF[a, b] = h
            dP = element_pk1(model, F + dF) - element_pk1(model, F - dF)
            M[:, 3 * a + b] = (dP / (2.0 * h)).reshape(9)
    return M


def random_F(rng, spread=0.4):
    while True:
        F = np.eye(3) + spread * rng.uniform(-1.0, 1.0, size=(3, 3))
        if np.linalg.det(F) > 0.05:
            return F


@pytest.mark.parametrize("family,params", MATERIALS)
def test_pk1_matches_fd_of_energy(family, params):
    # [DERIVED] oracle: central differences of psi(sigma(F)) per F entry
    model = make_material(family, params)
    rng = np.random.default_rng(zlib.crc32(family.encode()))
    h = 1e-6

    def energy_of(F):
        return model.energy(decompose(F).sigma)

    for _ in range(10):
        F = random_F(rng)
        P = element_pk1(model, F)
        Pfd = np.zeros((3, 3))
        for a in range(3):
            for b in range(3):
                dF = np.zeros((3, 3))
                dF[a, b] = h
                Pfd[a, b] = (energy_of(F + dF) - energy_of(F - dF)) / (2.0 * h)
        assert np.max(np.abs(P - Pfd)) < 1e-5 * model.modulus_scale


@pytest.mark.parametrize("family,params", MATERIALS)
def test_stress_jacobian_matches_fd(family, params):
    model = make_material(family, params)
    rng = np.random.default_rng(zlib.crc32(family.encode()) + 1)
    for _ in range(10):
        F = random_F(rng)
        A = element_stress_jacobian(model, F)
        B = fd_stress_jacobian(model, F)
        assert np.max(np.abs(A - B)) < 1e-4 * model.modulus_scale


def random_rotation(rng):
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q * np.sign(np.diag(R))
    return Q if np.linalg.det(Q) > 0.0 else -Q


# gaps on both sides of the flip-mode switch, _EQUAL_STRETCH_RTOL = 1e-6
NEAR_EQUAL_GAPS = (1e-9, 1e-7, 1e-6, 2e-6, 1e-5, 1e-3)


def check_near_equal_stretches(model, name, gap):
    # F = R1 diag(s) R2^T with two stretches `gap` apart, rotated on both sides
    rng = np.random.default_rng(zlib.crc32(f"{name}:{gap!r}".encode()))
    for _ in range(4):
        s = rng.uniform(0.7, 1.4)
        stretches = rng.permutation([s, s + gap, rng.uniform(0.7, 1.4)])
        F = random_rotation(rng) @ np.diag(stretches) @ random_rotation(rng).T
        A = element_stress_jacobian(model, F)
        B = fd_stress_jacobian(model, F)
        assert np.max(np.abs(A - B)) < 1e-4 * model.modulus_scale, (name, gap)


@pytest.mark.parametrize("gap", NEAR_EQUAL_GAPS)
@pytest.mark.parametrize(
    "family,params", MATERIALS + (("ogden", {"terms": [[1.0, 3.0], [2.0, -2.0]]}),)
)
def test_stress_jacobian_matches_fd_at_near_equal_stretches(family, params, gap):
    check_near_equal_stretches(make_material(family, params), family, gap)


@pytest.mark.parametrize("family", catalog_families())
def test_stress_jacobian_matches_fd_at_near_equal_stretches_over_the_catalog(family):
    # the seed-0 rest-stable draw, plain and filtered at both ends of [0.2, 4]
    base = make_material(family, sample_params(family, np.random.default_rng(0), rest_stable=True))
    models = {"": base, ":alpha=0.2": filter_nonlinearity(base, 0.2),
              ":alpha=4": filter_nonlinearity(base, 4.0)}
    for label, model in models.items():
        for gap in (1e-9, 1e-6, 1e-3):
            check_near_equal_stretches(model, family + label, gap)


def _svk_with_j_minus_1_sq(alpha_mu):
    return build_material({"combine": {
        "mu_part": {"family": "st_venant_kirchhoff", "params": {"mu": 1.0, "lam": 1.0}},
        "lambda_part": "j_minus_1_sq", "E": 2.0e5, "nu": 0.3, "alpha_mu": alpha_mu,
    }})


COMPOSED = {
    "combine:svk+j_minus_1_sq:alpha_mu=0.2": lambda: _svk_with_j_minus_1_sq(0.2),
    "combine:svk+j_minus_1_sq:alpha_mu=4": lambda: _svk_with_j_minus_1_sq(4.0),
    "augment_volumetric:arap": lambda: augment_volumetric(
        make_material("arap"), moduli_to_lame(IsotropicModuli(2.0e5, 0.3))
    ),
}


@pytest.mark.parametrize("name", COMPOSED)
def test_stress_jacobian_matches_fd_at_near_equal_stretches_of_composed_materials(name):
    model = COMPOSED[name]()
    for gap in (1e-9, 1e-6, 1e-3):
        check_near_equal_stretches(model, name, gap)


UNRESTRICTED = ("linear_corotational", "st_venant_kirchhoff", "stable_neo_hookean", "arap")


@pytest.mark.parametrize("sigma", (1e-3, 1e-6))
@pytest.mark.parametrize("family", UNRESTRICTED)
def test_stress_jacobian_matches_fd_near_a_vanishing_stretch_sum(family, sigma):
    # an inverted F whose stretches s_i and s_j = -(s_i - sigma) sum to sigma: the twist
    # eigenvalue grows like 1 / sigma, so the fd step is 1e-3 sigma (the default 1e-6
    # crosses the singularity at sigma = 1e-6) and the bound relative to the largest
    # entry (worst 8.7e-7, SNH at sigma = 1e-6); at sigma = 1e-9 the oracle's own
    # roundoff reaches 3e-3 of it
    params = sample_params(family, np.random.default_rng(0), rest_stable=True)
    model = make_material(family, params)
    assert model.domain == "unrestricted"
    rng = np.random.default_rng(zlib.crc32(f"{family}:{sigma!r}".encode()))
    for _ in range(4):
        s = rng.uniform(0.7, 1.4)
        stretches = rng.permutation([s, sigma - s, rng.uniform(0.7, 1.4)])
        F = random_rotation(rng) @ np.diag(stretches) @ random_rotation(rng).T
        A = element_stress_jacobian(model, F)
        B = fd_stress_jacobian(model, F, h=1e-3 * sigma)
        assert np.max(np.abs(A - B)) <= 1e-4 * np.max(np.abs(A)), (family, sigma)


# gaps on both sides of the flip-mode switch, from the l'Hopital branch to the quotient
FLIP_GAPS = (1e-10, 1e-9, 1e-8, 1e-7, 5e-7, 1e-6, 2e-6, 5e-6, 1e-5, 1e-4, 1e-3, 5e-3)


@pytest.mark.parametrize("b", (0.8, 1.0, 1.3))
def test_flip_eigenvalue_matches_exact_divided_difference(b):
    # [DERIVED] oracle: the flip eigenvalue is (g_0 - g_1) / (s_0 - s_1), here
    # evaluated at 50 digits from the Hencky gradient
    # g_i = (2 mu log s_i + lam sum_j log s_j) / s_i
    mpmath = pytest.importorskip("mpmath")
    mu, lam = 1.0, 2.0
    model = make_material("hencky", {"mu": mu, "lam": lam})
    m = np.zeros(9)
    m[[1, 3]] = 1.0 / np.sqrt(2.0)  # vec(e_0 e_1^T + e_1 e_0^T) / sqrt 2
    for gap in FLIP_GAPS:
        s = np.array([b + gap, b, 0.6])
        svd = RotationVariantSVD(np.eye(3), np.eye(3), s)
        got = m @ stress_jacobian_from_svd(svd, model.gradient(s), model.hessian(s)) @ m
        with mpmath.workdps(50):
            x = [mpmath.mpf(float(v)) for v in s]
            logs = [mpmath.log(v) for v in x]
            g = [(2 * mu * log + lam * sum(logs)) / v for log, v in zip(logs, x)]
            want = float((g[0] - g[1]) / (x[0] - x[1]))
        assert abs(got - want) <= 1e-9 * abs(want), gap


def test_stress_jacobian_repeated_stretches():
    # uniform scaling hits the flip-mode l'Hopital branch
    model = make_material("stable_neo_hookean", {"mu": 1.0e5, "lam": 4.0e5})
    for c in (0.7, 1.0, 1.4):
        F = c * np.eye(3)
        A = element_stress_jacobian(model, F)
        B = fd_stress_jacobian(model, F)
        assert np.max(np.abs(A - B)) < 1e-4 * model.modulus_scale


def test_arap_twist_eigenvalues():
    # [DERIVED] by hand: the ARAP dP/dF twist eigenvalue is 2 - 4/(s_i + s_j)
    model = make_material("arap", {})
    rng = np.random.default_rng(17)
    s = np.array([1.8, 1.2, 0.7])
    F = np.diag(s)
    M = element_stress_jacobian(model, F)
    w = np.sort(np.linalg.eigvalsh(M))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        expected = 2.0 - 4.0 / (s[i] + s[j])
        assert np.min(np.abs(w - expected)) < 1e-10


def test_projection_yields_psd():
    model = make_material("st_venant_kirchhoff", {"mu": 1.0, "lam": 1.0})
    # strong compression makes the unprojected jacobian indefinite
    F = np.diag([0.3, 0.4, 0.5])
    M = element_stress_jacobian(model, F)
    assert np.min(np.linalg.eigvalsh(M)) < -1e-8
    Mp = element_stress_jacobian(model, F, project=True)
    assert np.min(np.linalg.eigvalsh(Mp)) > -1e-10


def test_global_force_matches_fd_of_total_energy():
    mesh = generate_mesh("cube", 1)
    model = make_material("stable_neo_hookean", {"mu": 1.0e5, "lam": 4.0e5})
    rng = np.random.default_rng(23)
    x = mesh.vertices + 0.05 * rng.uniform(-1.0, 1.0, size=mesh.vertices.shape)
    sys = assemble(mesh, model, x)
    h = 1e-6
    ref = max(1.0, np.max(np.abs(sys.force)))
    for dof in range(3 * mesh.num_vertices):
        xp = x.reshape(-1).copy()
        xm = x.reshape(-1).copy()
        xp[dof] += h
        xm[dof] -= h
        fd = -(
            total_energy(mesh, model, xp.reshape(-1, 3))
            - total_energy(mesh, model, xm.reshape(-1, 3))
        ) / (2.0 * h)
        assert abs(sys.force[dof] - fd) < 1e-5 * ref


def test_global_stiffness_matches_fd_of_force():
    mesh = generate_mesh("cube", 1)
    model = make_material("hencky", {"mu": 1.0e5, "lam": 2.0e5})
    rng = np.random.default_rng(29)
    x = mesh.vertices + 0.03 * rng.uniform(-1.0, 1.0, size=mesh.vertices.shape)
    K = assemble(mesh, model, x).stiffness.toarray()
    h = 1e-6
    ref = max(1.0, np.max(np.abs(K)))
    for dof in range(0, 3 * mesh.num_vertices, 5):
        xp = x.reshape(-1).copy()
        xm = x.reshape(-1).copy()
        xp[dof] += h
        xm[dof] -= h
        col = -(
            assemble(mesh, model, xp.reshape(-1, 3)).force
            - assemble(mesh, model, xm.reshape(-1, 3)).force
        ) / (2.0 * h)
        assert np.max(np.abs(K[:, dof] - col)) < 1e-4 * ref


def test_rest_stiffness_equals_corotational():
    mesh = generate_mesh("cube", 2)
    for family, params in MATERIALS:
        model = make_material(family, params)
        K = assemble(mesh, model).stiffness.toarray()
        lame = extract_lame(model)
        coro = make_material(
            "linear_corotational", {"mu": lame.mu_lame, "lam": lame.lambda_lame}
        )
        Kc = assemble(mesh, coro).stiffness.toarray()
        assert np.linalg.norm(K - Kc) < 1e-8 * np.linalg.norm(Kc)


def test_rest_state_has_zero_force_and_energy():
    mesh = generate_mesh("beam", 1)
    model = make_material("neo_hookean", {"mu": 1.0e5, "lam": 2.0e5})
    sys = assemble(mesh, model)
    assert sys.energy == pytest.approx(0.0, abs=1e-8)
    assert np.max(np.abs(sys.force)) < 1e-8


def test_lumped_mass_totals():
    cube = generate_mesh("cube", 2)
    mesh = TetMesh(cube.vertices, cube.tets, 1234.0)
    mass = lumped_mass(mesh)
    # each coordinate direction carries the full mass
    assert np.sum(mass) == pytest.approx(3.0 * 1234.0 * mesh.total_volume(), rel=1e-12)
    assert np.all(mass > 0.0)


def test_inverted_element_reported_with_index():
    mesh = generate_mesh("cube", 1)
    model = make_material("hencky", {"mu": 1.0, "lam": 1.0})
    x = mesh.vertices.copy()
    x[0] = x[7]  # collapse a corner onto the opposite one
    with pytest.raises(InvertedElementError) as err:
        assemble(mesh, model, x)
    assert err.value.element_index >= 0
