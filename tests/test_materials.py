"""Material catalog: derivative consistency, symmetry, rest behavior."""

import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from stretchlab.errors import DomainViolationError, InvalidParameterError
from stretchlab.fd import fd_gradient, fd_hessian
from stretchlab.materials import (
    catalog_families,
    list_catalog,
    make_material,
    sample_params,
)

PERMS = [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def test_catalog_has_nineteen_families():
    assert len(list_catalog()) == 19
    assert len(set(catalog_families())) == 19


def test_readme_catalog_lists_every_family_in_order():
    # the first sentence of the README's Catalog section names the families
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Catalog\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"`(\w+)`", section.split(".", 1)[0]) == catalog_families()


@pytest.mark.parametrize("family", catalog_families())
def test_gradient_and_hessian_match_fd(family):
    # [DERIVED] oracle: central finite differences of the energy
    rng = np.random.default_rng(zlib.crc32(family.encode()))
    for _ in range(4):
        model = make_material(family, sample_params(family, rng))
        scale = max(1.0, model.modulus_scale)
        for _ in range(25):
            s = rng.uniform(0.5, 2.0, size=3)
            g = model.gradient(s)
            H = model.hessian(s)
            assert np.max(np.abs(g - fd_gradient(model.energy, s))) < 1e-5 * scale
            assert np.max(np.abs(H - fd_hessian(model.energy, s))) < 1e-4 * scale


@pytest.mark.parametrize("family", catalog_families())
def test_energy_permutation_symmetry(family):
    rng = np.random.default_rng(zlib.crc32(family.encode()) + 1)
    for _ in range(3):
        model = make_material(family, sample_params(family, rng))
        scale = max(1.0, model.modulus_scale)
        for _ in range(10):
            s = rng.uniform(0.5, 2.0, size=3)
            e0 = model.energy(s)
            for perm in PERMS:
                assert abs(model.energy(s[list(perm)]) - e0) <= 1e-12 * max(
                    scale, abs(e0)
                )


@pytest.mark.parametrize("family", catalog_families())
def test_rest_energy_zero_and_stable_draws(family):
    rng = np.random.default_rng(2024)
    rest = np.ones(3)
    for _ in range(5):
        model = make_material(family, sample_params(family, rng))
        assert abs(model.energy(rest)) < 1e-10 * max(1.0, model.modulus_scale)
        stable = make_material(family, sample_params(family, rng, rest_stable=True))
        assert stable.rest_stable
        assert np.max(np.abs(stable.gradient(rest))) < 1e-8 * max(
            1.0, stable.modulus_scale
        )


def test_hessian_symmetry():
    rng = np.random.default_rng(11)
    for family in catalog_families():
        model = make_material(family, sample_params(family, rng))
        s = rng.uniform(0.6, 1.8, size=3)
        H = model.hessian(s)
        assert np.max(np.abs(H - H.T)) == 0.0


def test_hand_worked_values():
    # [DERIVED] by hand from the energy definitions
    m = make_material("linear_corotational", {"mu": 1.0, "lam": 0.0})
    assert m.energy([2, 1, 1]) == pytest.approx(1.0, abs=1e-14)
    assert m.gradient([2, 1, 1]) == pytest.approx([2.0, 0.0, 0.0], abs=1e-14)

    m = make_material("st_venant_kirchhoff", {"mu": 1.0, "lam": 0.0})
    assert m.energy([2, 1, 1]) == pytest.approx(9.0 / 4.0, abs=1e-14)
    assert m.gradient([2, 1, 1]) == pytest.approx([6.0, 0.0, 0.0], abs=1e-14)

    m = make_material("arap", {})
    assert m.energy([2, 1, 1]) == pytest.approx(1.0, abs=1e-14)
    assert m.gradient([2, 1, 1]) == pytest.approx([2.0, 0.0, 0.0], abs=1e-14)

    m = make_material("hencky", {"mu": 1.0, "lam": 1.0})
    e = np.e
    assert m.energy([e, 1, 1]) == pytest.approx(1.5, abs=1e-13)
    assert m.gradient([e, 1, 1])[0] == pytest.approx(3.0 / e, abs=1e-13)

    # neo-hookean with lam = 0: (I1 - 3)/2 - log J, mu = 1
    m = make_material("neo_hookean", {"mu": 1.0, "lam": 0.0})
    assert m.energy([2, 1, 1]) == pytest.approx(1.5 - np.log(2.0), abs=1e-13)

    m = make_material("symmetric_dirichlet", {})
    assert m.energy([2, 1, 1]) == pytest.approx(1.125, abs=1e-14)


def test_hencky_is_seth_hill_limit():
    # Seth-Hill approaches Hencky as its exponent goes to zero
    h = make_material("hencky", {"mu": 1.3, "lam": 0.8})
    sh = make_material("seth_hill", {"mu": 1.3, "lam": 0.8, "alpha": 1e-4})
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = rng.uniform(0.5, 2.0, size=3)
        assert abs(h.energy(s) - sh.energy(s)) < 1e-3


def test_seth_hill_alpha_two_is_stvk():
    a = make_material("seth_hill", {"mu": 1.1, "lam": 0.4, "alpha": 2.0})
    b = make_material("st_venant_kirchhoff", {"mu": 1.1, "lam": 0.4})
    rng = np.random.default_rng(6)
    for _ in range(50):
        s = rng.uniform(0.5, 2.0, size=3)
        assert abs(a.energy(s) - b.energy(s)) < 1e-13 * max(1.0, abs(b.energy(s)))


def test_positive_domain_enforced():
    m = make_material("hencky", {"mu": 1.0, "lam": 1.0})
    with pytest.raises(DomainViolationError):
        m.energy([1.0, 1.0, -0.5])
    with pytest.raises(DomainViolationError):
        m.energy([1.0, 0.0, 1.0])
    with pytest.raises(DomainViolationError):
        m.energy([np.nan, 1.0, 1.0])
    # unrestricted families accept negative stretches
    m = make_material("st_venant_kirchhoff", {"mu": 1.0, "lam": 1.0})
    m.energy([1.0, 1.0, -0.5])
    with pytest.raises(DomainViolationError):
        m.gradient([np.inf, 1.0, 1.0])
    # but no family accepts a non-finite stretch
    rng = np.random.default_rng(7)
    for family in catalog_families():
        m = make_material(family, sample_params(family, rng))
        for bad in ([np.nan, 1.0, 1.0], [1.0, np.inf, 1.0], [1.0, 1.0, -np.inf]):
            for evaluate in (m.energy, m.gradient, m.hessian):
                with pytest.raises(DomainViolationError):
                    evaluate(bad)


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        make_material("hencky", {"mu": -1.0, "lam": 1.0})
    with pytest.raises(InvalidParameterError):
        make_material("hencky", {"mu": 1.0, "lam": 1.0, "bogus": 2.0})
    with pytest.raises(InvalidParameterError):
        make_material("no_such_family", {})
    with pytest.raises(InvalidParameterError):
        make_material("ogden", {"terms": [[1.0, 0.0]]})


def test_mooney_rivlin_rest_stress_flag():
    # generic draws carry rest stress; c2 = -c1/2 cancels it
    free = make_material("mooney_rivlin", {"c1": 1.0, "c2": 0.3})
    assert not free.rest_stable
    tied = make_material("mooney_rivlin", {"c1": 1.0, "c2": -0.5})
    assert tied.rest_stable
    assert np.max(np.abs(tied.gradient(np.ones(3)))) < 1e-12


def test_ogden_rest_stress_flag():
    single = make_material("ogden", {"terms": [[1.0, 2.0]]})
    assert not single.rest_stable
    balanced = make_material("ogden", {"terms": [[1.0, 2.0], [-1.0, -2.0]]})
    assert balanced.rest_stable
    assert np.max(np.abs(balanced.gradient(np.ones(3)))) < 1e-12
