"""Splitting energies into lambda/mu parts and recombining them.

Many families are linear in their two moduli, so their energy separates
into a volume-coupling part (Lame extraction (1, 0)) and a shear part
(extraction (0, 1)). Unit-coefficient parts are obtained numerically, by
solving a 2x2 system built from the analytic rest-Hessian Lame
extraction of the raw terms; this stays robust for families like Stable
Neo-Hookean whose mu coefficient leaks into the volume coupling, and
keeps the part coefficients at machine precision, as the exact
recombination needs. Each :class:`EnergyPart` checks its unit extraction
independently, through the finite-difference path of
``lame.extract_lame(method="fd")``.

Parts from different families recombine freely, optionally with an
independent nonlinearity exponent on each part. Zero-lambda energies
(ARAP, Ogden, ...) can be augmented with a Neo-Hookean volumetric part
to obtain a nonzero Poisson's ratio.

Every material is a flat list of (coef, alpha, term) entries (see
``materials``), so a :class:`LinearCombination` and a
:class:`ComposedMaterial` are the concatenated lists of their operands
with each coefficient scaled by the operand's weight; neither evaluates
anything itself.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NonSeparableFamilyError, UnreachableTargetError
from .filtering import FilteredMaterial
from .lame import extract_lame
from .materials import MaterialModel, list_catalog, make_material

__all__ = [
    "EnergyPart",
    "ComposedMaterial",
    "LinearCombination",
    "decompose",
    "combine",
    "augment_volumetric",
    "volumetric_part",
    "SEPARABLE_FAMILIES",
    "VOLUMETRIC_KINDS",
]

PART_LAME_RTOL = 1e-8

# families whose energy is linear in (mu, lam) with held extra parameters,
# and the well family, whose two profiles carry lambda and mu separately
SEPARABLE_FAMILIES = tuple(
    d["family"] for d in list_catalog() if {"mu", "lam"} <= d["params"].keys()
) + ("valanis_landel_new",)

VOLUMETRIC_KINDS = ("j_minus_1_sq", "log_j_sq")


class LinearCombination(MaterialModel):
    """Weighted sum of stretch-space energies: the concatenated term lists."""

    def __init__(self, terms):
        terms = [(float(c), m) for c, m in terms]
        positive = any(m.domain == "positive" for _, m in terms)
        super().__init__(
            "combination",
            {},
            "positive" if positive else "unrestricted",
            [(c * k, alpha, term) for c, m in terms for k, alpha, term in m.terms],
            sum(abs(c) * m.modulus_scale for c, m in terms) or 1.0,
        )


@dataclass(frozen=True)
class EnergyPart:
    """A unit-coefficient energy term.

    ``kind`` is "lambda" (extraction (1, 0)) or "mu" (extraction (0, 1));
    the invariant is checked by finite differences at construction.
    """

    kind: str
    model: MaterialModel

    def __post_init__(self):
        if self.kind not in ("lambda", "mu"):
            raise InvalidParameterError(f"part kind must be 'lambda' or 'mu', got {self.kind!r}")
        lame = extract_lame(self.model, method="fd", allow_rest_stress=True)
        want = (1.0, 0.0) if self.kind == "lambda" else (0.0, 1.0)
        got = (lame.lambda_lame, lame.mu_lame)
        if max(abs(got[0] - want[0]), abs(got[1] - want[1])) > PART_LAME_RTOL * 1e2:
            raise InvalidParameterError(
                f"{self.kind}-part extraction {got} deviates from {want}"
            )


def volumetric_part(kind="j_minus_1_sq"):
    """The Neo-Hookean lambda-part: (J-1)^2/2 or log^2(J)/2."""
    if kind not in VOLUMETRIC_KINDS:
        raise InvalidParameterError(f"volumetric kind must be one of {VOLUMETRIC_KINDS}")
    h = "j_minus_1_sq" if kind == "j_minus_1_sq" else "log_sq"
    model = make_material(
        "valanis_landel_new", {"f": "scaled:0:stretch_well", "h": h}
    )
    return EnergyPart("lambda", model)


def _raw_terms(family, params):
    """The zero-lam restriction of the energy, and its lam-carrying rest.

    The original energy is raw_a + raw_b identically, which makes the
    unit-part reconstruction exact for every held extra parameter.
    """
    if family == "valanis_landel_new":
        a = make_material(family, {"f": params["f"], "h": "scaled:0:log_sq"})
        b = make_material(family, {"f": "scaled:0:stretch_well", "h": params["h"]})
        return a, b
    a = make_material(family, dict(params, lam=0.0))
    b = LinearCombination([(1.0, make_material(family, dict(params, lam=1.0))), (-1.0, a)])
    return a, b


def decompose(family, params):
    """Split a separable family into (lambda_part, mu_part).

    Returns unit-coefficient :class:`EnergyPart` values; recombining them
    with the family's own extracted Lame parameters reproduces the
    original energy pointwise.

    Raises
    ------
    NonSeparableFamilyError
        For families without a two-term lambda/mu structure
        (Mooney-Rivlin, Xu's Valanis-Landel, Peng-Landel) and for
        zero-lambda families (use :func:`augment_volumetric` there).
    """
    if family not in SEPARABLE_FAMILIES:
        raise NonSeparableFamilyError(
            f"'{family}' does not separate into lambda/mu parts"
        )
    raw_a, raw_b = _raw_terms(family, params)
    ea = extract_lame(raw_a, allow_rest_stress=True)
    eb = extract_lame(raw_b, allow_rest_stress=True)
    M = np.array([[ea.lambda_lame, eb.lambda_lame], [ea.mu_lame, eb.mu_lame]])
    if abs(np.linalg.det(M)) < 1e-8 * max(1.0, float(np.abs(M).max()) ** 2):
        raise NonSeparableFamilyError(
            f"'{family}' raw terms are degenerate (extractions {ea}, {eb})"
        )
    y = np.linalg.solve(M, np.array([1.0, 0.0]))
    x = np.linalg.solve(M, np.array([0.0, 1.0]))
    lam_part = EnergyPart("lambda", LinearCombination([(y[0], raw_a), (y[1], raw_b)]))
    mu_part = EnergyPart("mu", LinearCombination([(x[0], raw_a), (x[1], raw_b)]))
    return lam_part, mu_part


class ComposedMaterial(LinearCombination):
    """target.lambda * psi_lambda filtered at alpha_lambda
    + target.mu * psi_mu filtered at alpha_mu."""

    def __init__(self, mu_part, lambda_part, lame, alpha_mu=1.0, alpha_lambda=1.0):
        self.mu_part = mu_part
        self.lambda_part = lambda_part
        self.lame = lame
        self.alpha_mu = float(alpha_mu)
        self.alpha_lambda = float(alpha_lambda)
        super().__init__(
            [
                (lame.lambda_lame, FilteredMaterial(lambda_part.model, alpha_lambda)),
                (lame.mu_lame, FilteredMaterial(mu_part.model, alpha_mu)),
            ]
        )
        self.family = "composed"

    def lame_closed_form(self):
        return (self.lame.lambda_lame, self.lame.mu_lame)


def _as_part(part, kind):
    if isinstance(part, EnergyPart):
        if part.kind != kind:
            raise InvalidParameterError(f"expected a {kind}-part, got a {part.kind}-part")
        return part
    return EnergyPart(kind, part)


def combine(mu_part, lambda_part, target, alpha_mu=1.0, alpha_lambda=1.0):
    """Build a material from a mu-part and a lambda-part.

    Parameters
    ----------
    mu_part, lambda_part : EnergyPart or MaterialModel
        Unit-coefficient parts (bare models are checked and wrapped).
    target : LameParams
        Lame parameters of the result.
    alpha_mu, alpha_lambda : float
        Independent nonlinearity exponents for the two parts.
    """
    if target.mu_lame <= 0.0:
        raise InvalidParameterError(f"target mu_lame must be positive, got {target.mu_lame}")
    mu_part = _as_part(mu_part, "mu")
    lambda_part = _as_part(lambda_part, "lambda")
    return ComposedMaterial(mu_part, lambda_part, target, alpha_mu, alpha_lambda)


def augment_volumetric(base, target, vol_kind="j_minus_1_sq"):
    """Give a zero-lambda energy a volumetric part.

    ``base`` must have lambda_lame = 0 (ARAP, Ogden, Symmetric
    Dirichlet, ...); it is rescaled to unit mu_lame and combined with the
    requested Neo-Hookean lambda-part at the target Lame parameters.
    """
    lame = extract_lame(base, allow_rest_stress=True)
    scale = max(1.0, abs(lame.mu_lame))
    if abs(lame.lambda_lame) > 1e-6 * scale:
        raise UnreachableTargetError(
            f"base already has lambda_lame = {lame.lambda_lame}; "
            "augmentation expects a zero-lambda energy"
        )
    if lame.mu_lame <= 0.0:
        raise InvalidParameterError(f"base mu_lame must be positive, got {lame.mu_lame}")
    mu_part = EnergyPart("mu", LinearCombination([(1.0 / lame.mu_lame, base)]))
    return combine(mu_part, volumetric_part(vol_kind), target)
