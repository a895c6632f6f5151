"""Material catalog: derivative consistency, symmetry, rest behavior."""

import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from stretchlab.errors import DomainViolationError, InvalidParameterError
from stretchlab.fd import fd_hessian
import stretchlab.materials
from stretchlab.lame import extract_lame
from stretchlab.materials import (
    REST_STABILITY_RTOL,
    MaterialModel,
    catalog_families,
    list_catalog,
    make_material,
    sample_params,
)

from fd_oracle import fd_gradient

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


# the families whose parameters name profiles
PROFILE_PARAMS = {"hill": ("f",), "valanis_landel_new": ("f", "h"), "valanis_landel_xu": "fgh"}


@pytest.mark.parametrize("family", PROFILE_PARAMS)
def test_make_material_parses_each_profile_name_once(family, monkeypatch):
    rng = np.random.default_rng(zlib.crc32(family.encode()) + 9)
    params = sample_params(family, rng)
    given = dict(params)
    names = []
    get_profile = stretchlab.materials.get_profile

    def counting(name):
        names.append(name)
        return get_profile(name)

    monkeypatch.setattr(stretchlab.materials, "get_profile", counting)
    model = make_material(family, params)
    parsed = [name for name in names if isinstance(name, str)]
    assert sorted(parsed) == sorted(params[key] for key in PROFILE_PARAMS[family])
    # the model and the caller keep the names as given
    assert model.params == given and params == given


@pytest.mark.parametrize(
    "family,params,message",
    [
        ("hill", {"mu": 1.0, "lam": 1.0, "f": "no_such"}, "hill: unknown profile 'no_such'"),
        ("hill", {"mu": 1.0, "lam": 1.0, "f": "log_sq"}, "hill: profile 'log_sq' violates"),
        (
            "valanis_landel_new",
            {"f": 3.0, "h": "log_sq"},
            "valanis_landel_new: profile handle must be a string",
        ),
        (
            "valanis_landel_xu",
            {"f": "stretch_well", "g": "power_well:x", "h": "log_sq"},
            "valanis_landel_xu: malformed profile name 'power_well:x'",
        ),
    ],
)
def test_bad_profile_name_is_prefixed_with_the_family(family, params, message):
    with pytest.raises(InvalidParameterError) as err:
        make_material(family, params)
    assert str(err.value).startswith(message)


def test_mooney_rivlin_rest_stress_flag():
    # generic draws carry rest stress; c2 = -c1/2 cancels it
    free = make_material("mooney_rivlin", {"c1": 1.0, "c2": 0.3})
    assert not free.rest_stable and not eager_rest_stable(free)
    tied = make_material("mooney_rivlin", {"c1": 1.0, "c2": -0.5})
    assert tied.rest_stable and eager_rest_stable(tied)
    assert np.max(np.abs(tied.gradient(np.ones(3)))) < 1e-12


def test_ogden_rest_stress_flag():
    single = make_material("ogden", {"terms": [[1.0, 2.0]]})
    assert not single.rest_stable and not eager_rest_stable(single)
    balanced = make_material("ogden", {"terms": [[1.0, 2.0], [-1.0, -2.0]]})
    assert balanced.rest_stable and eager_rest_stable(balanced)
    assert np.max(np.abs(balanced.gradient(np.ones(3)))) < 1e-12


# rest_stable is computed on demand

@pytest.fixture
def evaluations(monkeypatch):
    """The derivative orders (0 energy, 1 gradient, 2 Hessian) evaluated, in call order."""
    orders = []
    evaluate = MaterialModel._evaluate

    def counting(self, s, order):
        orders.append(order)
        return evaluate(self, s, order)

    monkeypatch.setattr(MaterialModel, "_evaluate", counting)
    return orders


def eager_rest_stable(model):
    """Oracle: the rule that used to run when every model was built."""
    g0 = model.gradient(np.ones(3))
    return bool(np.max(np.abs(g0)) <= REST_STABILITY_RTOL * max(1.0, model.modulus_scale))


@pytest.mark.parametrize("family", catalog_families())
def test_make_material_evaluates_nothing(family, evaluations):
    rng = np.random.default_rng(zlib.crc32(family.encode()) + 7)
    for rest_stable in (False, True):
        make_material(family, sample_params(family, rng, rest_stable=rest_stable))
    assert evaluations == []


@pytest.mark.parametrize("family", catalog_families())
def test_rest_stable_matches_the_eager_rule(family):
    rng = np.random.default_rng(zlib.crc32(family.encode()) + 8)
    for rest_stable in (False, True):
        for _ in range(5):
            model = make_material(family, sample_params(family, rng, rest_stable=rest_stable))
            assert model.rest_stable == eager_rest_stable(model)


def test_rest_stable_is_evaluated_once(evaluations):
    model = make_material("ogden", {"terms": [[1.0, 2.0]]})
    assert [model.rest_stable, model.rest_stable] == [False, False]
    assert evaluations == [1]


def test_fd_extraction_allowing_rest_stress_evaluates_no_gradient(evaluations):
    model = make_material("ogden", {"terms": [[1.0, 2.0]]})
    extract_lame(model, method="fd", allow_rest_stress=True)
    assert evaluations == [0]


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_a_nan_rest_gradient_is_not_rest_stable(monkeypatch, bad):
    gradient = MaterialModel.gradient

    def nan_entry(self, s):
        g = gradient(self, s)
        g[bad] = np.nan
        return g

    monkeypatch.setattr(MaterialModel, "gradient", nan_entry)
    model = make_material("hencky", {"mu": 1.0, "lam": 1.0})
    assert not model.rest_stable and not eager_rest_stable(model)


# Exponent draws index a tuple; the oracle draws them with rng.choice

def choice_sample_params(family, rng, rest_stable=False):
    """Oracle: ``sample_params`` of seth_hill, symmetric_seth_hill and ogden by rng.choice."""
    mu = float(rng.uniform(0.5, 5.0))
    lam = float(rng.uniform(-0.5, 5.0) * mu)
    if family != "ogden":
        alpha = float(rng.choice([-2.0, -1.0, 0.5, 1.0, 1.5, 2.0, 3.0]))
        return {"mu": mu, "lam": lam, "alpha": alpha}
    if rest_stable:
        m1 = float(rng.uniform(1.0, 4.0))
        return {"terms": [[m1, 2.0], [-m1, -2.0]]}
    n = int(rng.integers(1, 4))
    return {
        "terms": [
            [float(rng.uniform(0.5, 3.0)), float(rng.choice([-2.0, 1.5, 2.0, 3.0, 4.0]))]
            for _ in range(n)
        ]
    }


@pytest.mark.parametrize(
    "family, rest_stable",
    [("seth_hill", False), ("symmetric_seth_hill", False), ("ogden", False), ("ogden", True)],
)
def test_index_draws_match_the_rng_choice_stream(family, rest_stable):
    rng, ref = np.random.default_rng(23), np.random.default_rng(23)
    got = [sample_params(family, rng, rest_stable=rest_stable) for _ in range(10_000)]
    want = [choice_sample_params(family, ref, rest_stable=rest_stable) for _ in range(10_000)]
    assert got == want
    assert rng.random() == ref.random()
    exponents = [p["alpha"] for p in got] if family != "ogden" else [
        a for p in got for _, a in p["terms"]
    ]
    assert all(type(a) is float for a in exponents)


@pytest.mark.parametrize("family", catalog_families())
def test_uniform_draws_match_the_rng_uniform_stream(family, monkeypatch):
    # sample_params draws its floats from one rng.random() each; the oracle
    # makes the same draws with rng.uniform
    rng, ref = np.random.default_rng(31), np.random.default_rng(31)
    got = [sample_params(family, rng, rest_stable=bool(i % 2)) for i in range(2000)]
    monkeypatch.setattr(
        stretchlab.materials, "_uniform", lambda r, low, high: float(r.uniform(low, high))
    )
    want = [sample_params(family, ref, rest_stable=bool(i % 2)) for i in range(2000)]
    assert got == want
    assert rng.random() == ref.random()


@pytest.mark.parametrize("alpha", [5e-324, 1e-170])
def test_an_exponent_whose_square_underflows_is_rejected(alpha):
    # the filter divides by alpha^2, which is 0.0 here
    params = {"mu": 1.0, "lam": 1.0, "alpha": alpha}
    with pytest.raises(InvalidParameterError, match="squares out of range"):
        make_material("seth_hill", params)


def test_a_coefficient_that_overflows_is_rejected():
    # the shear entry of hencky has the coefficient 2 mu
    with pytest.raises(InvalidParameterError, match="coefficient inf is not finite"):
        make_material("hencky", {"mu": 1e308, "lam": 1.0})
