"""Profiles: derivatives against central differences of their own values."""

import dataclasses
import zlib

import numpy as np
import pytest

import stretchlab.materials
from stretchlab.materials import catalog_families, make_material, sample_params
from stretchlab.profiles import X_MINUS_1, Profile, get_profile

REGISTRY_NAMES = (
    "log", "log_sq", "j_minus_1_sq", "stretch_well", "power:1.5", "power:-2", "power:0.5",
    "power_well:2", "power_well:-1", "scaled:2.5:log_sq", "scaled:-0.5:stretch_well",
    "scaled:3:power_well:0.5",
)
UNRESTRICTED = [d["family"] for d in stretchlab.materials.list_catalog()
                if d["domain"] == "unrestricted"]


def term_profiles(term):
    """The profiles a term is built on, products included."""
    for f in dataclasses.fields(term):
        value = getattr(term, f.name)
        yield from [value] if isinstance(value, Profile) else term_profiles(value)


def family_profiles(family):
    """The distinct profiles of twenty draws of a family, both regions."""
    rng = np.random.default_rng(zlib.crc32(family.encode()))
    found = {}
    for i in range(20):
        model = make_material(family, sample_params(family, rng, rest_stable=bool(i % 2)))
        for _, _, term in model.terms:
            found.update((id(p), p) for p in term_profiles(term))
    return list(found.values())


def check_against_central_differences(p, x):
    # d1 against differences of value, d2 against differences of d1; the
    # step is relative, and the bound covers its h^2 error and the roundoff
    h = 1e-5 * np.maximum(1.0, np.abs(x))
    for f, df in ((p.value, p.d1), (p.d1, p.d2)):
        exact = df(x)
        fd = (f(x + h) - f(x - h)) / (2.0 * h)
        assert np.isfinite(exact).all(), p.name
        assert np.abs(exact - fd).max() <= 1e-6 * max(1.0, np.abs(exact).max()), p.name


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_registry_profile_derivatives_match_central_differences(name):
    check_against_central_differences(get_profile(name), np.linspace(0.2, 5.0, 97))


@pytest.mark.parametrize("family", catalog_families())
def test_catalog_profile_derivatives_match_central_differences(family):
    for p in family_profiles(family):
        check_against_central_differences(p, np.linspace(0.2, 5.0, 97))


@pytest.mark.parametrize("a", (-2.0, -1.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0))
def test_exponent_profile_derivatives_match_central_differences(a):
    # every exponent the Symmetric Seth-Hill and Ogden draws pick from
    for p in (stretchlab.materials._sym_power(a), stretchlab.materials._ogden_power(a)):
        check_against_central_differences(p, np.linspace(0.2, 5.0, 97))


@pytest.mark.parametrize("family", UNRESTRICTED)
def test_unrestricted_profiles_hold_at_and_below_zero(family):
    # these families evaluate their profiles at negative stretches and at
    # J <= 0: finite there, 0 included
    for p in family_profiles(family):
        check_against_central_differences(p, np.linspace(-2.0, 0.0, 41))


def test_x_minus_1_has_zero_curvature_everywhere():
    # as power:1 its d2 would be 0 * x^-1, which is NaN at x = 0
    x = np.concatenate([np.linspace(-3.0, 5.0, 81), [0.0, -0.0]])
    assert (X_MINUS_1.d2(x) == 0.0).all()
    assert (X_MINUS_1.d1(x) == 1.0).all()
    assert X_MINUS_1.d2(0.0) == 0.0
