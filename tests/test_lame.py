"""Lame extraction, moduli conversion, parameter normalization."""

import zlib

import numpy as np
import pytest

from stretchlab.errors import (
    InvalidParameterError,
    RestInstabilityError,
    UnreachableTargetError,
)
from stretchlab.lame import (
    IsotropicModuli,
    LameParams,
    extract_lame,
    lame_to_moduli,
    moduli_to_lame,
    normalize,
    pk1_linearize,
    rest_hessian,
)
from stretchlab.materials import catalog_families, make_material, sample_params

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


def test_rest_hessian_analytic_matches_fd():
    m = make_material("sts", {"mu": 2.0, "lam": 1.0, "mu4": 0.5})
    Ha = rest_hessian(m, method="analytic")
    Hf = rest_hessian(m, method="fd")
    assert np.max(np.abs(Ha - Hf)) < 1e-5 * m.modulus_scale


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
    target = moduli_to_lame(IsotropicModuli(2.5e5, 0.3))
    params = normalize(family, target)
    m = make_material(family, params)
    got = extract_lame(m, method="analytic", allow_rest_stress=True)
    scale = max(abs(target.lambda_lame), abs(target.mu_lame))
    assert abs(got.lambda_lame - target.lambda_lame) < 1e-10 * scale
    assert abs(got.mu_lame - target.mu_lame) < 1e-10 * scale


@pytest.mark.parametrize("family", catalog_families())
def test_normalize_round_trip_from_draws(family):
    # every row's inverse reproduces its own closed form, holding the draw's
    # extra parameters (zero-lambda and parameterless families included)
    rng = np.random.default_rng(1)
    for rest_stable in (False, True):
        draw = sample_params(family, rng, rest_stable=rest_stable)
        lam, mu = make_material(family, draw).lame_closed_form()
        if mu <= 0.0:
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
