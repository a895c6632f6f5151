"""Models with coefficient columns: stacked draws against per-draw evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stretchlab.materials
import stretchlab.profiles
import stretchlab.terms
from stretchlab.errors import DomainViolationError
from stretchlab.lame import FD_REST_POINTS
from stretchlab.materials import catalog_families, make_material, sample_params, stack
from stretchlab.profiles import get_profile, half_square

REST = np.ones(3)


def by_structure(models):
    """Oracle: index lists of the models with equal domains and ``(alpha, term)`` lists."""
    groups = {}
    for i, model in enumerate(models):
        key = (model.domain, tuple((a, t) for _, a, t in model.terms))
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def draws(family, rng, k, rest_stable=False):
    return [make_material(family, sample_params(family, rng, rest_stable)) for _ in range(k)]


def assert_stacked_equals_per_draw(models, points):
    """Each group's stacked energy, gradient and Hessian on (g, n, 3), and its
    rest gradient on (g, 3), against the draws one by one: energies, gradients
    and Hessians bit for bit, rest gradients by value (the per-draw path sums
    one triple in Python, so a zero may differ in sign)."""
    groups = stack(models)
    assert [idx for idx, _ in groups] == by_structure(models)
    for idx, stacked in groups:
        e = stacked.energy(points[idx])
        g = stacked.gradient(points[idx])
        H = stacked.hessian(points[idx])
        rest = stacked.gradient(np.ones((len(idx), 3)))
        assert e.shape == points[idx].shape[:-1]
        for j, i in enumerate(idx):
            model = models[i]
            assert e[j].tobytes() == model.energy(points[i]).tobytes()
            assert g[j].tobytes() == model.gradient(points[i]).tobytes()
            assert H[j].tobytes() == model.hessian(points[i]).tobytes()
            assert np.array_equal(rest[j], model.gradient(REST))
        want = [models[i].rest_stable for i in idx]
        assert stacked.rest_stable.tolist() == want


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(catalog_families()),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    rest_stable=st.booleans(),
)
def test_stacked_evaluation_matches_per_draw(family, seed, k, rest_stable):
    rng = np.random.default_rng(seed)
    models = draws(family, rng, k, rest_stable)
    points = np.concatenate(
        [np.broadcast_to(FD_REST_POINTS, (k,) + FD_REST_POINTS.shape),
         rng.uniform(0.3, 2.5, size=(k, 12, 3))],
        axis=1,
    )
    assert_stacked_equals_per_draw(models, points)


@pytest.mark.parametrize(
    "family",
    ["ogden", "hill", "seth_hill", "symmetric_seth_hill", "valanis_landel_new",
     "valanis_landel_xu"],
)
def test_mixed_structure_families(family):
    # draws that differ in an exponent or a profile fall into several groups
    rng = np.random.default_rng(11)
    models = draws(family, rng, 12)
    sizes = sorted(len(idx) for idx in by_structure(models))
    assert len(sizes) > 1 and sizes[0] == 1
    if family in ("hill", "seth_hill", "symmetric_seth_hill"):
        assert sizes[-1] > 1  # the draws with one exponent or the log profile share terms
    if family == "ogden":
        # the rest-stable draws all take the exponents 2 and -2
        assert len(by_structure(draws(family, rng, 6, rest_stable=True))) == 1
    assert_stacked_equals_per_draw(models, rng.uniform(0.3, 2.5, size=(12, 9, 3)))


@pytest.mark.parametrize("family", [f for f in catalog_families()
                                    if f not in ("valanis_landel_new", "valanis_landel_xu",
                                                 "hill", "ogden", "seth_hill",
                                                 "symmetric_seth_hill")])
def test_fixed_structure_families_share_their_terms(family):
    rng = np.random.default_rng(3)
    for rest_stable in (False, True):
        assert len(by_structure(draws(family, rng, 6, rest_stable))) == 1


def test_stack_groups_by_domain_and_structure():
    rng = np.random.default_rng(0)
    hencky = draws("hencky", rng, 2)
    neo = draws("neo_hookean", rng, 1)
    groups = stack([hencky[0], neo[0], hencky[1]])
    assert [idx for idx, _ in groups] == [[0, 2], [1]]
    assert [g.family for _, g in groups] == ["hencky", "neo_hookean"]
    assert stack([]) == []
    # Seth-Hill at alpha = 1 has the Linear Corotational list, on another domain
    corot = make_material("linear_corotational", {"mu": 1.0, "lam": 1.0})
    seth = make_material("seth_hill", {"mu": 2.0, "lam": 1.0, "alpha": 1.0})
    assert corot.structure == seth.structure
    assert [(idx, g.domain) for idx, g in stack([corot, seth])] == [
        ([0], "unrestricted"), ([1], "positive")
    ]


def test_stacked_model_carries_per_draw_coefficients_and_scale():
    rng = np.random.default_rng(1)
    models = draws("stable_neo_hookean", rng, 3)
    [(idx, stacked)] = stack(models)
    assert idx == [0, 1, 2] and stacked.domain == "unrestricted"
    assert stacked.modulus_scale.tolist() == [m.modulus_scale for m in models]
    assert [c.tolist() for c, _, _ in stacked.terms] == [
        [m.terms[j][0] for m in models] for j in range(len(models[0].terms))
    ]
    # the error names the first invalid triple of the whole stack
    s = np.ones((3, 4, 3))
    s[1, 2, 0] = np.inf
    with pytest.raises(DomainViolationError) as err:
        stacked.energy(s)
    assert err.value.index == 6


def test_a_nan_rest_gradient_fails_only_its_draw(monkeypatch):
    models = draws("hencky", np.random.default_rng(2), 3, rest_stable=True)
    gradient = stretchlab.materials.MaterialModel.gradient

    def nan_middle(self, s):
        g = gradient(self, s)
        g[1, 0] = np.nan
        return g

    monkeypatch.setattr(stretchlab.materials.MaterialModel, "gradient", nan_middle)
    [(_, stacked)] = stack(models)
    assert stacked.rest_stable.tolist() == [True, False, True]


def lru_caches(*modules):
    return {
        f"{module.__name__}.{name}": obj
        for module in modules
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info")
    }


def test_random_draws_keep_factory_caches_within_bounds():
    caches = lru_caches(stretchlab.materials, stretchlab.profiles)
    assert caches  # the exponent factories are cached
    for cache in caches.values():
        cache.cache_clear()
    rng = np.random.default_rng(0)
    families = catalog_families()
    for i in range(1000):
        family = families[i % len(families)]
        make_material(family, sample_params(family, rng, rest_stable=bool(i // 19 % 2)))
    for name, cache in caches.items():
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, name
    # only the exponents the draws pick from are kept: seven Seth-Hill
    # exponents and five Ogden ones; random Hill exponents enter no cache
    assert stretchlab.materials._sym_power.cache_info().currsize <= 7
    assert stretchlab.materials._ogden_power.cache_info().currsize <= 5


def test_shared_profiles():
    assert get_profile("log") is get_profile("log")
    assert get_profile("stretch_well") is get_profile("stretch_well")
    log = get_profile("log")
    assert half_square(log) is half_square(log)
    # a profile with a random parameter is built anew, and so is its half-square
    assert get_profile("power:1.5") is not get_profile("power:1.5")
    assert half_square(get_profile("power:1.5")) is not half_square(get_profile("power:1.5"))


@pytest.mark.parametrize("shape", [(1, 3), (2, 3), (7, 3), (1, 56, 3), (10, 56, 3), (384, 3)])
def test_stack_total_is_numpys_last_axis_sum(shape):
    # the terms sum a stack left to right; numpy's sum over the last axis,
    # which they used before, gives the same bits
    rng = np.random.default_rng(len(shape) * 1000 + shape[0])
    for _ in range(200):
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, size=shape)
        assert stretchlab.terms._total(v).tobytes() == v.sum(axis=-1).tobytes()
