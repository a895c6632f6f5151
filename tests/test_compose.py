"""Energy decomposition into lambda/mu parts and cross-family recombination."""

import zlib

import numpy as np
import pytest

import stretchlab.compose
from stretchlab.compose import (
    SEPARABLE_FAMILIES,
    EnergyPart,
    LinearCombination,
    augment_volumetric,
    combine,
    decompose,
    unit_part,
    volumetric_part,
)
from stretchlab.errors import (
    DomainViolationError,
    InvalidParameterError,
    NonSeparableFamilyError,
    UnreachableTargetError,
)
from stretchlab.lame import LameParams, extract_lame
from stretchlab.materials import MaterialModel, make_material, sample_params
from stretchlab.specs import build_material

# a zero-lambda Ogden energy with mu_lame = 1 * (-2 - 1) / 2 = -1.5
_NEGATIVE_OGDEN = {"terms": [[1.0, -2.0]]}
# Mooney-Rivlin with lambda_lame = -4/3 (2 c1 + 5 c2) = -4, mu_lame = c1
_MOONEY_RIVLIN = {"c1": 1.0, "c2": 0.2}


def unit_extraction(part):
    lame = extract_lame(part.model, method="fd", allow_rest_stress=True)
    return lame.lambda_lame, lame.mu_lame


@pytest.mark.parametrize("family", sorted(SEPARABLE_FAMILIES))
def test_parts_have_unit_extraction(family):
    rng = np.random.default_rng(zlib.crc32(family.encode()))
    lam_part, mu_part = decompose(family, sample_params(family, rng))
    l, m = unit_extraction(lam_part)
    assert abs(l - 1.0) < 1e-6 and abs(m) < 1e-6
    l, m = unit_extraction(mu_part)
    assert abs(l) < 1e-6 and abs(m - 1.0) < 1e-6


@pytest.mark.parametrize("family", sorted(SEPARABLE_FAMILIES))
def test_recombination_reproduces_original(family):
    rng = np.random.default_rng(zlib.crc32(family.encode()) + 1)
    params = sample_params(family, rng)
    original = make_material(family, params)
    lam_part, mu_part = decompose(family, params)
    lame = extract_lame(original, allow_rest_stress=True)
    rebuilt = combine(mu_part, lam_part, lame)
    for _ in range(50):
        s = rng.uniform(0.5, 2.0, size=3)
        e = original.energy(s)
        assert abs(rebuilt.energy(s) - e) <= 1e-12 * max(1.0, abs(e))


def test_non_separable_families_rejected():
    for family in ("mooney_rivlin", "valanis_landel_xu", "peng_landel", "arap"):
        with pytest.raises(NonSeparableFamilyError):
            decompose(family, {})


@pytest.mark.parametrize(
    "family, params",
    [("linear_corotational", {"mu": 5e-324, "lam": 1.0}), ("neo_hookean", {"mu": 1e308, "lam": 1.0})],
)
def test_raw_terms_at_the_float_limits_are_degenerate(family, params):
    # a subnormal or a near-overflow modulus; the test of the 2x2 system raises no
    # warning (pytest makes a RuntimeWarning an error) and no OverflowError
    with pytest.raises(NonSeparableFamilyError, match="degenerate"):
        decompose(family, params)


@pytest.mark.parametrize("kind", ("j_minus_1_sq", "log_j_sq"))
def test_volumetric_parts(kind):
    part = volumetric_part(kind)
    l, m = unit_extraction(part)
    assert abs(l - 1.0) < 1e-6 and abs(m) < 1e-6
    # pure volume coupling: no energy on isochoric stretches
    s = np.array([2.0, 1.0, 0.5])
    assert abs(part.model.energy(s)) < 1e-12


@pytest.mark.parametrize(
    "lambda_part",
    ["j_minus_1_sq", "log_j_sq", {"family": "stable_neo_hookean", "params": {"mu": 1, "lam": 2}}],
)
@pytest.mark.parametrize(
    "mu_part",
    [{"family": "st_venant_kirchhoff", "params": {"mu": 1.0, "lam": 1.0}}, {"family": "arap"}],
)
def test_combine_spec_holds_no_zero_entry(lambda_part, mu_part):
    # every entry has a nonzero coefficient and a profile that is not identically zero
    model = build_material({"combine": {"mu_part": mu_part, "lambda_part": lambda_part,
                                        "E": 1e5, "nu": 0.3, "alpha_mu": 2.0}})
    s = np.random.default_rng(9).uniform(0.5, 2.0, size=(50, 3))
    for coef, alpha, term in model.terms:
        assert coef != 0.0
        assert np.any(term.value(s**alpha) != 0.0), term
    assert len(volumetric_part("j_minus_1_sq").model.terms) == 1


def test_volumetric_part_values():
    # [DERIVED] by hand: (J - 1)^2 / 2 and log(J)^2 / 2 at J = 2
    s = np.array([2.0, 1.0, 1.0])
    assert volumetric_part("j_minus_1_sq").model.energy(s) == pytest.approx(0.5)
    assert volumetric_part("log_j_sq").model.energy(s) == pytest.approx(
        0.5 * np.log(2.0) ** 2
    )


def test_cross_family_combination_hits_target():
    lam_part, _ = decompose("stable_neo_hookean", {"mu": 1.0, "lam": 2.0})
    _, mu_part = decompose("hencky", {"mu": 1.0, "lam": 1.0})
    target = LameParams(3.0e5, 1.5e5)
    model = combine(mu_part, lam_part, target)
    got = extract_lame(model, method="fd")
    scale = max(abs(target.lambda_lame), abs(target.mu_lame))
    assert abs(got.lambda_lame - target.lambda_lame) < 1e-6 * scale
    assert abs(got.mu_lame - target.mu_lame) < 1e-6 * scale


def test_split_alpha_preserves_lame():
    lam_part, mu_part = decompose("hencky", {"mu": 1.0, "lam": 1.0})
    target = LameParams(2.0, 1.0)
    model = combine(mu_part, lam_part, target, alpha_mu=2.0, alpha_lambda=0.5)
    got = extract_lame(model, method="fd")
    assert abs(got.lambda_lame - 2.0) < 1e-6
    assert abs(got.mu_lame - 1.0) < 1e-6


def test_equal_alphas_collapse_to_plain_filter():
    from stretchlab.filtering import filter_nonlinearity

    params = {"mu": 1.0, "lam": 2.0}
    lam_part, mu_part = decompose("st_venant_kirchhoff", params)
    original = make_material("st_venant_kirchhoff", params)
    lame = extract_lame(original)
    for alpha in (0.5, 1.7, 3.0):
        split = combine(mu_part, lam_part, lame, alpha_mu=alpha, alpha_lambda=alpha)
        plain = filter_nonlinearity(original, alpha)
        rng = np.random.default_rng(int(alpha * 100))
        for _ in range(50):
            s = rng.uniform(0.5, 2.0, size=3)
            e = plain.energy(s)
            assert abs(split.energy(s) - e) <= 1e-12 * max(1.0, abs(e))


def test_augment_volumetric_gives_poisson_effect():
    base = make_material("arap", {})
    target = LameParams(4.0e5, 1.0e5)
    model = augment_volumetric(base, target)
    got = extract_lame(model, method="fd")
    assert abs(got.lambda_lame - 4.0e5) < 1e-6 * 4.0e5
    assert abs(got.mu_lame - 1.0e5) < 1e-6 * 4.0e5


def test_augment_rejects_nonzero_lambda_base():
    base = make_material("hencky", {"mu": 1.0, "lam": 1.0})
    with pytest.raises(UnreachableTargetError):
        augment_volumetric(base, LameParams(1.0, 1.0))


@pytest.mark.parametrize(
    "family,params,kind,error",
    [
        ("ogden", _NEGATIVE_OGDEN, "mu", InvalidParameterError),
        ("mooney_rivlin", _MOONEY_RIVLIN, "mu", UnreachableTargetError),
        ("arap", {}, "lambda", UnreachableTargetError),
    ],
)
def test_unit_part_rule(family, params, kind, error):
    # unit_part, augmentation and the combine spec apply the one rule
    with pytest.raises(error):
        unit_part(make_material(family, params), kind)
    if kind == "mu":
        with pytest.raises(error):
            augment_volumetric(make_material(family, params), LameParams(1.0, 1.0))
    part = {"family": family, "params": params}
    with pytest.raises(error):
        build_material({"combine": dict(_COMBINE, **{f"{kind}_part": part})})


def test_unit_part_rescales_to_unit_extraction():
    base = make_material("symmetric_arap", {"mu": 2.5})
    part = unit_part(base, "mu")
    assert part.kind == "mu"
    assert unit_extraction(part) == pytest.approx((0.0, 1.0), abs=1e-6)
    s = np.array([1.3, 0.9, 0.7])
    assert part.model.energy(s) == pytest.approx(base.energy(s) / 2.5, rel=1e-14)


def test_energy_part_validates_extraction():
    with pytest.raises(InvalidParameterError):
        EnergyPart("mu", make_material("hencky", {"mu": 2.0, "lam": 0.0}))
    EnergyPart("mu", make_material("hencky", {"mu": 1.0, "lam": 0.0}))
    with pytest.raises(InvalidParameterError):
        EnergyPart("shear", make_material("hencky", {"mu": 1.0, "lam": 0.0}))


def test_combine_requires_positive_mu():
    lam_part, mu_part = decompose("hencky", {"mu": 1.0, "lam": 1.0})
    with pytest.raises(InvalidParameterError):
        combine(mu_part, lam_part, LameParams(1.0, -1.0))


def test_combine_takes_only_energy_parts_of_their_kind():
    lam_part, mu_part = decompose("hencky", {"mu": 1.0, "lam": 1.0})
    bare = make_material("hencky", {"mu": 1.0, "lam": 0.0})  # a unit mu-part's model
    cases = (
        ((bare, lam_part), "expected a mu-part, got MaterialModel"),
        ((mu_part, bare), "expected a lambda-part, got MaterialModel"),
        ((lam_part, lam_part), "expected a mu-part, got a lambda-part"),
        ((mu_part, mu_part), "expected a lambda-part, got a mu-part"),
    )
    for parts, message in cases:
        with pytest.raises(InvalidParameterError) as excinfo:
            combine(*parts, LameParams(1.0, 1.0))
        assert str(excinfo.value) == message
    combine(EnergyPart("mu", bare), lam_part, LameParams(1.0, 1.0))


def test_linear_combination_derivatives():
    a = make_material("hencky", {"mu": 1.0, "lam": 0.0})
    b = make_material("st_venant_kirchhoff", {"mu": 0.5, "lam": 1.0})
    combo = LinearCombination([(2.0, a), (-0.5, b)])
    rng = np.random.default_rng(8)
    s = rng.uniform(0.6, 1.6, size=3)
    assert combo.energy(s) == pytest.approx(2.0 * a.energy(s) - 0.5 * b.energy(s))
    assert np.allclose(combo.gradient(s), 2.0 * a.gradient(s) - 0.5 * b.gradient(s))
    assert np.allclose(combo.hessian(s), 2.0 * a.hessian(s) - 0.5 * b.hessian(s))


def test_spec_builder_rejects_unknown_keys():
    with pytest.raises(InvalidParameterError):
        build_material({"family": "hencky", "params": {}, "oops": 1})
    with pytest.raises(InvalidParameterError):
        build_material({"combine": {"mu_part": {"family": "arap"}, "bogus": 1}})


_COMBINE = {"mu_part": {"family": "arap"}, "lambda_part": "j_minus_1_sq", "E": 1.0, "nu": 0.3}


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "hencky", "params": {"mu": 1.0, "lam": 1.0}, "alpha": [2.0]},
        {"combine": dict(_COMBINE, E=[1.0])},
        {"combine": dict(_COMBINE, alpha_mu=None)},
        {"combine": dict(_COMBINE, mu_part=3)},
        {"combine": 5},
        {"combine": dict(_COMBINE, mu_part={"family": "ogden", "params": _NEGATIVE_OGDEN})},
    ],
)
def test_spec_builder_rejects_wrongly_typed_values(spec):
    with pytest.raises(InvalidParameterError):
        build_material(spec)


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "hencky", "params": {"mu": 1.0, "lam": 1.0}, "alpha": float("nan")},
        {"combine": dict(_COMBINE, E=float("nan"))},
        {"combine": dict(_COMBINE, nu=float("-inf"))},
        {"combine": dict(_COMBINE, alpha_lambda=float("inf"))},
        {"combine": dict(_COMBINE, alpha_mu="nan")},
    ],
)
def test_spec_builder_rejects_non_finite_numbers(spec):
    with pytest.raises(InvalidParameterError, match="must be finite"):
        build_material(spec)


def test_spec_builder_combination():
    model = build_material(
        {
            "combine": {
                "mu_part": {"family": "arap"},
                "lambda_part": "j_minus_1_sq",
                "E": 1.0e5,
                "nu": 0.45,
                "alpha_mu": 1.5,
            }
        }
    )
    got = extract_lame(model, method="fd")
    from stretchlab.lame import IsotropicModuli, moduli_to_lame

    want = moduli_to_lame(IsotropicModuli(1.0e5, 0.45))
    scale = max(abs(want.lambda_lame), abs(want.mu_lame))
    assert abs(got.lambda_lame - want.lambda_lame) < 1e-6 * scale
    assert abs(got.mu_lame - want.mu_lame) < 1e-6 * scale


@pytest.mark.parametrize("got", [(np.nan, np.nan), (0.0, np.nan), (np.nan, 1.0)])
def test_energy_part_rejects_a_nan_extraction(monkeypatch, got):
    # one NaN entry is enough: max(0.0, nan) would be 0.0 and pass
    monkeypatch.setattr(stretchlab.compose, "extract_lame", lambda *a, **k: LameParams(*got))
    with pytest.raises(InvalidParameterError, match="mu-part extraction"):
        EnergyPart("mu", make_material("arap", {}))


def test_energy_part_rejects_a_nan_energy(monkeypatch):
    energy = MaterialModel.energy
    monkeypatch.setattr(MaterialModel, "energy", lambda self, s: energy(self, s) * np.nan)
    with pytest.raises(InvalidParameterError, match=r"mu-part extraction \(nan, nan\)"):
        EnergyPart("mu", make_material("arap", {}))


def test_linear_combination_drops_zero_entries():
    svk = make_material("st_venant_kirchhoff", {"mu": 1.0, "lam": 0.0})  # a zero lam entry
    hencky = make_material("hencky", {"mu": 1.0, "lam": 2.0})
    combo = LinearCombination([(2.0, svk), (0.0, hencky)])
    assert [(c, alpha) for c, alpha, _ in combo.terms] == [(4.0, 2.0)]
    # the domain and scale still come from every operand
    assert combo.domain == "positive"
    assert combo.modulus_scale == 2.0 * svk.modulus_scale
    s = np.random.default_rng(4).uniform(0.6, 1.6, size=(5, 3))
    assert np.allclose(combo.energy(s), 2.0 * svk.energy(s), rtol=1e-14, atol=0.0)
    assert np.allclose(combo.hessian(s), 2.0 * svk.hessian(s), rtol=1e-14, atol=1e-300)
    # the SVK mu-part is one entry
    _, mu_part = decompose("st_venant_kirchhoff", {"mu": 1.0, "lam": 1.0})
    assert len(mu_part.model.terms) == 1 and mu_part.model.terms[0][0] != 0.0


def test_all_zero_combination_keeps_shapes():
    combo = LinearCombination([(0.0, make_material("hencky", {"mu": 1.0, "lam": 1.0}))])
    assert combo.terms == []
    s = np.full((2, 4, 3), 1.2)
    for got, shape in ((combo.energy(s), (2, 4)), (combo.gradient(s), (2, 4, 3)),
                       (combo.hessian(s), (2, 4, 3, 3))):
        assert got.shape == shape and not got.any()
    assert combo.energy(s[0, 0]) == 0.0 and isinstance(combo.energy(s[0, 0]), float)
    assert combo.gradient(s[0, 0]).shape == (3,) and combo.hessian(s[0, 0]).shape == (3, 3)
    assert combo.rest_stable
    with pytest.raises(DomainViolationError):
        combo.energy(np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]]))


def test_linear_combination_merges_equal_entries():
    hencky = make_material("hencky", {"mu": 1.0, "lam": 2.0})
    svk = make_material("st_venant_kirchhoff", {"mu": 1.0, "lam": 2.0})
    combo = LinearCombination([(1.0, hencky), (1.5, svk), (2.0, hencky)])
    # one entry per (alpha, term), in first-seen order, its scaled coefficients summed
    assert [(a, t) for _, a, t in combo.terms] == [(a, t) for _, a, t in hencky.terms + svk.terms]
    assert [c for c, _, _ in combo.terms] == [6.0, 3.0, 3.0, 1.5]
    # entries that cancel are left out
    assert LinearCombination([(1.0, hencky), (-1.0, hencky)]).terms == []


@pytest.mark.parametrize(
    "family, params, sizes",
    [
        ("stable_neo_hookean", {"mu": 1.0, "lam": 1.0}, (1, 3)),
        ("st_venant_kirchhoff", {"mu": 1.0, "lam": 1.0}, (1, 1)),
        ("valanis_landel_new", {"f": "scaled:2.0:stretch_well", "h": "scaled:3.0:log_sq"}, (1, 1)),
    ],
)
def test_decomposed_part_entry_counts(family, params, sizes):
    # (lambda-part, mu-part) entries; concatenated lists held (5, 7), (3, 1) and (2, 2)
    assert tuple(len(part.model.terms) for part in decompose(family, params)) == sizes


@pytest.mark.parametrize("family", sorted(SEPARABLE_FAMILIES))
def test_decomposed_parts_repeat_no_entry(family):
    params = sample_params(family, np.random.default_rng(5), rest_stable=True)
    for part in decompose(family, params):
        structure = [(alpha, term) for _, alpha, term in part.model.terms]
        assert len(set(structure)) == len(structure)
        assert all(coef != 0.0 for coef, _, _ in part.model.terms)


def test_svk_lambda_part_has_no_shear():
    # its +2/-2 separable pair cancels exactly, so the fd mu_lame is exactly 0
    lam_part, _ = decompose("st_venant_kirchhoff", {"mu": 1.0, "lam": 1.0})
    assert unit_extraction(lam_part) == (pytest.approx(1.0, abs=1e-12), 0.0)


def concatenating_combination(terms):
    """Oracle: the combination rule before entries merged, scaled lists concatenated
    without the exactly zero entries."""
    terms = [(float(c), m) for c, m in terms]
    positive = any(m.domain == "positive" for _, m in terms)
    return MaterialModel(
        "combination",
        {},
        "positive" if positive else "unrestricted",
        [(c * k, a, t) for c, m in terms for k, a, t in m.terms if c * k != 0.0],
        sum(abs(c) * m.modulus_scale for c, m in terms) or 1.0,
    )


def test_benchmark_composition_keeps_its_term_list(monkeypatch):
    # the composed material of the modes benchmark: merging changes none of its entries
    svk = {"family": "st_venant_kirchhoff", "params": {"mu": 1.0, "lam": 1.0}}
    spec = {"combine": {"mu_part": svk, "lambda_part": "j_minus_1_sq", "E": 2e5, "nu": 0.3,
                        "alpha_mu": 2.0}}
    merged = build_material(spec)
    monkeypatch.setattr(stretchlab.compose, "LinearCombination", concatenating_combination)
    concatenated = build_material(spec)
    assert merged.terms == concatenated.terms and len(merged.terms) == 2
    assert merged.modulus_scale == concatenated.modulus_scale
