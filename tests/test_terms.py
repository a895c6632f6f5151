"""The Hill coupling (sum_i f(l_i))^2 as ``Product(s, s)``, against its closed form.

The oracle is the coupling term written out: value S^2, gradient
2 S f' and Hessian 2 (f' f'^T + S diag f''), with S = sum_i f(l_i) summed
left to right. Every model that holds a shared-factor product must give
the same bits with the oracle in its place: plain and filtered, on one
triple, on a stack and as a stacked model with coefficient columns. That
a product's Hessian is bitwise symmetric, Mooney-Rivlin's included, is
``test_materials.test_hessian_is_bitwise_symmetric``.
"""

import zlib
from dataclasses import dataclass

import numpy as np
import pytest

from stretchlab.filtering import filter_nonlinearity
from stretchlab.materials import MaterialModel, make_material, sample_params, stack
from stretchlab.profiles import X_MINUS_1, Profile, get_profile, power
from stretchlab.terms import Product, Separable

# the families whose lambda-part is a square of a separable sum
HILL_FAMILIES = (
    "linear_corotational",
    "st_venant_kirchhoff",
    "hencky",
    "seth_hill",
    "symmetric_seth_hill",
    "hill",
    "neo_hookean",
    "sts",
    "valanis_landel_original",
)


@dataclass(frozen=True)
class Coupling:
    """Oracle: (sum_i f(l_i))^2 with its derivatives in closed form."""

    f: Profile

    def _sum(self, x):
        v = self.f.value(x)
        return (v[..., 0] + v[..., 1]) + v[..., 2]

    def value(self, x):
        return self._sum(x) ** 2

    def grad(self, x):
        return 2.0 * self._sum(x)[..., None] * self.f.d1(x)

    def hess(self, x):
        fp, S = self.f.d1(x), self._sum(x)[..., None, None]
        diag = self.f.d2(x)[..., None, :] * np.eye(3)
        return 2.0 * (fp[..., :, None] * fp[..., None, :] + S * diag)


def is_coupling(term):
    return isinstance(term, Product) and term.b is term.a and isinstance(term.a, Separable)


def with_oracle(model):
    """The model with every shared-factor product replaced by the oracle; it has one."""
    terms = [(c, a, Coupling(t.a.w) if is_coupling(t) else t) for c, a, t in model.terms]
    assert terms != model.terms
    return MaterialModel(model.family, model.params, model.domain, terms, model.modulus_scale)


def assert_same_bits(model, x):
    oracle = with_oracle(model)
    for kind in ("energy", "gradient", "hessian"):
        got, want = getattr(model, kind)(x), getattr(oracle, kind)(x)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (model, kind)


def filtered(model, alpha):
    return model if alpha == 1.0 else filter_nonlinearity(model, alpha)


@pytest.mark.parametrize("alpha", [0.2, 1.0, 4.0])
@pytest.mark.parametrize("family", HILL_FAMILIES)
def test_shared_product_is_the_closed_form_coupling(family, alpha):
    rng = np.random.default_rng(zlib.crc32(f"coupling:{family}".encode()))
    models = [filtered(make_material(family, sample_params(family, rng)), alpha)
              for _ in range(4)]
    points = rng.uniform(0.3, 2.5, size=(len(models), 2, 5, 3))
    for model, x in zip(models, points):
        assert_same_bits(model, x[0, 0])  # one triple
        assert_same_bits(model, x)  # a (k, ..., 3) stack
    for idx, group in stack(models):
        assert_same_bits(group, points[idx])  # coefficient columns


@pytest.mark.parametrize("f", [X_MINUS_1, get_profile("log"), power(-1.5)], ids=lambda f: f.name)
def test_shared_and_equal_factors_give_the_same_bits(f):
    # an equal but distinct factor takes the general path
    s = Separable(f)
    shared, general = Product(s, s), Product(s, Separable(f))
    assert general.b is not general.a and general.b == general.a
    x = np.random.default_rng(3).uniform(0.3, 2.5, size=(7, 3))
    for kind in ("value", "grad", "hess"):
        for point in (x, x[0]):
            got, want = getattr(shared, kind)(point), getattr(general, kind)(point)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

