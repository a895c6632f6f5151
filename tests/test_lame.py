"""Lame extraction, moduli conversion, parameter normalization."""

import zlib

import numpy as np
import pytest

from stretchlab.compose import augment_volumetric, combine, decompose
from stretchlab.errors import (
    InvalidParameterError,
    RestInstabilityError,
    UnreachableTargetError,
)
from stretchlab.fd import fd_hessian
from stretchlab.fem import assemble, generate_mesh, rel_frobenius_diff
from stretchlab.filtering import filter_nonlinearity
from stretchlab.lame import (
    FD_REST_POINTS,
    FD_REST_WEIGHTS,
    IsotropicModuli,
    LameParams,
    extract_lame,
    lame_from_hessian,
    lame_to_moduli,
    moduli_to_lame,
    normalize,
    pk1_linearize,
)
from stretchlab.materials import catalog_families, make_material, sample_params
from stretchlab.specs import build_material

TWO_PARAM = (
    "linear_corotational",
    "st_venant_kirchhoff",
    "hencky",
    "neo_hookean",
    "neo_hookean_ogden",
    "valanis_landel_original",
)


def test_stable_neo_hookean_lame_shift():
    # the mu (J - 1) term leaks into the volume coupling: (lam - mu, mu)
    m = make_material("stable_neo_hookean", {"mu": 1.0, "lam": 2.0})
    got = extract_lame(m)
    assert got.lambda_lame == pytest.approx(1.0, abs=1e-12)
    assert got.mu_lame == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("family", TWO_PARAM)
def test_direct_families_extract_their_parameters(family):
    m = make_material(family, {"mu": 1.7, "lam": 0.9})
    got = extract_lame(m)
    assert got.lambda_lame == pytest.approx(0.9, rel=1e-10)
    assert got.mu_lame == pytest.approx(1.7, rel=1e-10)


@pytest.mark.parametrize("family", catalog_families())
def test_closed_forms_match_fd_extraction(family):
    # [DERIVED] oracle: finite-difference rest Hessian
    rng = np.random.default_rng(zlib.crc32(family.encode()))
    for _ in range(5):
        m = make_material(family, sample_params(family, rng))
        closed = m.lame_closed_form()
        fd = extract_lame(m, method="fd", allow_rest_stress=True)
        scale = max(abs(closed[0]), abs(closed[1]), 1e-30)
        assert abs(fd.lambda_lame - closed[0]) < 1e-5 * scale
        assert abs(fd.mu_lame - closed[1]) < 1e-5 * scale


@pytest.mark.parametrize("family", catalog_families())
def test_extrapolated_fd_matches_closed_form(family):
    # on rest-stable draws the extrapolated fd extraction sits near
    # roundoff; the generic draws above keep the looser 1e-5 because a
    # rest-stressed Ogden draw loses digits to cancellation (1.6e-6)
    rng = np.random.default_rng(zlib.crc32(family.encode()) + 2)
    m = make_material(family, sample_params(family, rng, rest_stable=True))
    closed = m.lame_closed_form()
    fd = extract_lame(m, method="fd")
    scale = max(abs(closed[0]), abs(closed[1]))
    assert abs(fd.lambda_lame - closed[0]) < 1e-8 * scale
    assert abs(fd.mu_lame - closed[1]) < 1e-8 * scale


def fd_rest_hessian(model):
    """The fd rest Hessian of ``extract_lame(method="fd")``."""
    return FD_REST_WEIGHTS @ model.energy(FD_REST_POINTS)


def test_rest_hessian_analytic_matches_fd():
    m = make_material("sts", {"mu": 2.0, "lam": 1.0, "mu4": 0.5})
    Ha = m.hessian(np.ones(3))
    Hf = fd_rest_hessian(m)
    assert np.max(np.abs(Ha - Hf)) < 1e-5 * m.modulus_scale


def two_call_rest_hessian(model, h=1e-3):
    """Oracle: the Richardson level from two separate fd_hessian calls."""
    coarse = fd_hessian(model.energy, np.ones(3), h)
    fine = fd_hessian(model.energy, np.ones(3), h / 2.0)
    return (4.0 * fine - coarse) / 3.0


REST_HESSIAN_CASES = [
    f"{family}:{region}" for family in catalog_families() for region in ("generic", "stable")
] + ["filtered", "combine"]


def _rest_hessian_case(case):
    if case == "filtered":
        base = make_material("stable_neo_hookean", {"mu": 1.3, "lam": 2.1})
        return filter_nonlinearity(base, 2.0)
    if case == "combine":
        mu_part = {"family": "st_venant_kirchhoff", "params": {"mu": 1.0, "lam": 1.0}}
        return build_material(
            {"combine": {"mu_part": mu_part, "lambda_part": "j_minus_1_sq", "E": 2.5e5, "nu": 0.3}}
        )
    family, region = case.split(":")
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    return make_material(family, sample_params(family, rng, rest_stable=region == "stable"))


@pytest.mark.parametrize("case", REST_HESSIAN_CASES)
def test_fd_rest_hessian_matches_two_call_richardson(case):
    m = _rest_hessian_case(case)
    ref = two_call_rest_hessian(m)
    assert np.max(np.abs(fd_rest_hessian(m) - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_fd_rest_hessian_is_one_energy_call():
    m = make_material("ogden", {"terms": [[1.0, 2.0], [-0.5, -2.0]]})
    shapes = []
    energy = m.energy

    def counting(s):
        shapes.append(np.shape(s))
        return energy(s)

    m.energy = counting
    extract_lame(m, method="fd", allow_rest_stress=True)
    assert shapes == [(38, 3)]


@pytest.mark.parametrize("case", REST_HESSIAN_CASES)
def test_lame_from_hessian_is_the_fd_extraction(case):
    m = _rest_hessian_case(case)
    got = lame_from_hessian(fd_rest_hessian(m))
    assert isinstance(got.lambda_lame, float) and isinstance(got.mu_lame, float)
    assert got == extract_lame(m, method="fd", allow_rest_stress=True)


def test_lame_from_hessian_formula():
    # lambda is the mean off-diagonal entry, mu half the gap to the mean diagonal
    H = np.array([[5.0, 1.0, 2.0], [1.0, 7.0, 3.0], [2.0, 3.0, 9.0]])
    assert lame_from_hessian(H) == LameParams(2.0, 0.5 * (7.0 - 2.0))
    # oracle: the numpy formula extract_lame used, equal to the last bit
    rng = np.random.default_rng(3)
    for _ in range(200):
        H = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-4.0, 4.0, size=(3, 3))
        H = H + H.T
        lam = float((H[0, 1] + H[0, 2] + H[1, 2]) / 3.0)
        assert lame_from_hessian(H) == LameParams(lam, 0.5 * (float(np.trace(H) / 3.0) - lam))


def test_fd_rest_stencil_is_read_only():
    assert FD_REST_POINTS.shape == (38, 3) and FD_REST_WEIGHTS.shape == (3, 3, 38)
    for a in (FD_REST_POINTS, FD_REST_WEIGHTS):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_rest_stress_guard():
    m = make_material("ogden", {"terms": [[1.0, 2.0]]})
    with pytest.raises(RestInstabilityError):
        extract_lame(m)
    extract_lame(m, allow_rest_stress=True)


def test_moduli_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        E = rng.uniform(1e2, 1e7)
        nu = rng.uniform(-0.9, 0.49)
        lame = moduli_to_lame(IsotropicModuli(E, nu))
        back = lame_to_moduli(lame)
        assert abs(back.E - E) < 1e-12 * E
        assert abs(back.nu - nu) < 1e-12


def test_moduli_validation():
    with pytest.raises(InvalidParameterError):
        moduli_to_lame(IsotropicModuli(1e5, 0.5))
    with pytest.raises(InvalidParameterError):
        moduli_to_lame(IsotropicModuli(-1.0, 0.3))
    with pytest.raises(InvalidParameterError):
        lame_to_moduli(LameParams(1.0, -1.0))


@pytest.mark.parametrize(
    "E,nu",
    [(np.nan, 0.3), (1e5, np.nan), (np.inf, 0.3), (-np.inf, 0.3), (1e5, -np.inf),
     # finite moduli whose lambda_lame (near nu = 1/2) or mu_lame (near nu = -1) overflows
     (1e308, 0.49999), (1e308, -0.99999)],
)
def test_moduli_validation_rejects_non_finite_values(E, nu):
    with pytest.raises(InvalidParameterError, match="finite"):
        moduli_to_lame(IsotropicModuli(E, nu))


@pytest.mark.parametrize("lam, mu", [(0.0, 1e300), (1e308, 1e308), (np.nan, 1.0), (1.0, np.inf)])
def test_lame_to_moduli_rejects_non_finite_moduli(lam, mu):
    # E overflows at (0, 1e300) and is NaN at (1e308, 1e308), where lam + mu overflows
    with pytest.raises(InvalidParameterError, match="finite"):
        lame_to_moduli(LameParams(lam, mu))


NORMALIZABLE = (
    "linear_corotational",
    "st_venant_kirchhoff",
    "hencky",
    "seth_hill",
    "symmetric_seth_hill",
    "neo_hookean",
    "neo_hookean_ogden",
    "stable_neo_hookean",
    "sts",
    "valanis_landel_original",
    "valanis_landel_new",
    "valanis_landel_xu",
    "hill",
    "mooney_rivlin",
)


@pytest.mark.parametrize("family", NORMALIZABLE)
def test_normalize_round_trip(family):
    # rest-stable Mooney-Rivlin (c2 = -c1/2) has lambda_lame = 2/3 mu_lame: nu = 0.2 only
    nu = 0.2 if family == "mooney_rivlin" else 0.3
    target = moduli_to_lame(IsotropicModuli(2.5e5, nu))
    params = normalize(family, target)
    m = make_material(family, params)
    assert m.rest_stable
    got = extract_lame(m, method="analytic")
    scale = max(abs(target.lambda_lame), abs(target.mu_lame))
    assert abs(got.lambda_lame - target.lambda_lame) < 1e-10 * scale
    assert abs(got.mu_lame - target.mu_lame) < 1e-10 * scale


@pytest.mark.parametrize("family", catalog_families())
def test_normalize_round_trip_from_draws(family):
    # every row's inverse reproduces its own closed form, holding the draw's
    # extra parameters (zero-lambda and parameterless families included);
    # the pair of a rest-stressed draw is reached only with a rest stress
    rng = np.random.default_rng(1)
    for rest_stable in (False, True):
        draw = sample_params(family, rng, rest_stable=rest_stable)
        model = make_material(family, draw)
        lam, mu = model.lame_closed_form()
        if mu <= 0.0:
            continue
        if not model.rest_stable:
            with pytest.raises(UnreachableTargetError, match="rest stress"):
                normalize(family, LameParams(lam, mu), baseline=draw)
            continue
        params = normalize(family, LameParams(lam, mu), baseline=draw)
        got = make_material(family, params).lame_closed_form()
        tol = 1e-10 * max(1.0, abs(lam), abs(mu))
        assert abs(got[0] - lam) <= tol and abs(got[1] - mu) <= tol


def test_normalize_keeps_a_log_based_pair_profile():
    # the held profile's rest curvature enters the other profiles' names
    target = moduli_to_lame(IsotropicModuli(2.5e5, 0.3))
    params = normalize("valanis_landel_xu", target, baseline={"g": "scaled:0.5:log_sq"})
    got = extract_lame(make_material("valanis_landel_xu", params))
    scale = max(abs(target.lambda_lame), abs(target.mu_lame))
    assert abs(got.lambda_lame - target.lambda_lame) < 1e-10 * scale
    assert abs(got.mu_lame - target.mu_lame) < 1e-10 * scale


def test_normalize_zero_lambda_families_unreachable():
    target = moduli_to_lame(IsotropicModuli(1e5, 0.3))
    for family in ("arap", "symmetric_dirichlet", "peng_landel", "ogden"):
        with pytest.raises(UnreachableTargetError):
            normalize(family, target)


def test_normalize_zero_poisson_reaches_pure_shear_families():
    # nu = 0 targets lambda = 0, which ARAP-like families can hit
    target = moduli_to_lame(IsotropicModuli(2.0, 0.0))
    params = normalize("symmetric_arap", target)
    m = make_material("symmetric_arap", params)
    got = extract_lame(m)
    assert got.mu_lame == pytest.approx(1.0, rel=1e-10)
    assert abs(got.lambda_lame) < 1e-10


def rest_lame_cases(E, nu):
    """Materials whose Lame pair is that of (E, nu): every family normalize
    reaches, ARAP with a volumetric part, the SVK mu-part of the ``modes``
    workload with the (J-1)^2/2 part, and Hencky's two parts filtered at
    0.5 (mu) and 3 (lambda)."""
    target = moduli_to_lame(IsotropicModuli(E, nu))
    cases = {}
    for family in catalog_families():
        try:
            cases[family] = make_material(family, normalize(family, target))
        except UnreachableTargetError:
            pass
    cases["augmented arap"] = augment_volumetric(make_material("arap"), target)
    cases["modes svk"] = build_material({"combine": {
        "mu_part": {"family": "st_venant_kirchhoff", "params": {"mu": 1.0, "lam": 1.0}},
        "lambda_part": "j_minus_1_sq", "E": E, "nu": nu, "alpha_mu": 2.0,
    }})
    lam_part, mu_part = decompose("hencky", {"mu": 1.0, "lam": 1.0})
    cases["hencky parts"] = combine(mu_part, lam_part, target, alpha_mu=0.5, alpha_lambda=3.0)
    return cases


@pytest.mark.parametrize("nu, count", [(0.0, 19), (0.2, 17), (0.3, 16)])
def test_rest_stiffness_is_the_corotational_one_at_the_lame_pair(nu, count):
    # the Lame pair at the FEM level: on a beam, a material's rest stiffness
    # equals Linear Corotational's at its pair, within the modes gate
    target = moduli_to_lame(IsotropicModuli(1e5, nu))
    mesh = generate_mesh("beam", 2)
    coro = make_material(
        "linear_corotational", {"mu": target.mu_lame, "lam": target.lambda_lame}
    )
    K = assemble(mesh, coro).stiffness.toarray()
    diffs = {name: rel_frobenius_diff(K, assemble(mesh, model).stiffness.toarray())
             for name, model in rest_lame_cases(1e5, nu).items()}
    assert len(diffs) == count
    assert all(d <= 1e-12 for d in diffs.values()), diffs


def test_pk1_linearize_fixed_point():
    m = make_material("hencky", {"mu": 2.0, "lam": 3.0})
    lin = pk1_linearize(m)
    assert lin.family == "linear_corotational"
    again = pk1_linearize(lin)
    l0 = extract_lame(lin)
    l1 = extract_lame(again)
    assert l0.lambda_lame == pytest.approx(l1.lambda_lame, rel=1e-12)
    assert l0.mu_lame == pytest.approx(l1.mu_lame, rel=1e-12)
    assert l0.lambda_lame == pytest.approx(3.0, rel=1e-10)
    assert l0.mu_lame == pytest.approx(2.0, rel=1e-10)


def test_fd_rest_hessian_overflows_without_a_warning():
    # the weighted sum overflows at mu = 1e308; pytest makes a RuntimeWarning an error
    got = extract_lame(make_material("symmetric_arap", {"mu": 1e308}), method="fd")
    assert not np.isfinite([got.lambda_lame, got.mu_lame]).all()
