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
independent nonlinearity exponent on each part. A model whose other Lame
entry vanishes (ARAP, Ogden, ... as mu-parts) becomes a unit part by one
rule, :func:`unit_part`; :func:`augment_volumetric` uses it to give a
zero-lambda energy a Neo-Hookean volumetric part, and so obtain a
nonzero Poisson's ratio.

Every material is a flat list of (coef, alpha, term) entries (see
``materials``), so :func:`LinearCombination` and :func:`combine` return
plain ``MaterialModel`` values whose lists are the concatenated lists of
their operands, each coefficient scaled by the operand's weight and the
entries that scale to exactly zero left out; neither evaluates anything
itself.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NonSeparableFamilyError, UnreachableTargetError
from .filtering import filter_nonlinearity
from .lame import extract_lame
from .materials import MaterialModel, list_catalog, make_material
from .profiles import get_profile
from .terms import Volumetric

__all__ = [
    "EnergyPart",
    "LinearCombination",
    "decompose",
    "combine",
    "augment_volumetric",
    "unit_part",
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


def LinearCombination(terms):
    """The ``combination`` material sum c * m over (c, MaterialModel) pairs,
    without the entries whose scaled coefficient c * k is exactly zero."""
    terms = [(float(c), m) for c, m in terms]
    positive = any(m.domain == "positive" for _, m in terms)
    return MaterialModel(
        "combination",
        {},
        "positive" if positive else "unrestricted",
        [(c * k, a, t) for c, m in terms for k, a, t in m.terms if c * k != 0.0],
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
        # each entry within the tolerance, so that a NaN extraction fails
        if not all(abs(g - w) <= PART_LAME_RTOL * 1e2 for g, w in zip(got, want)):
            raise InvalidParameterError(f"{self.kind}-part extraction {got} deviates from {want}")


def volumetric_part(kind="j_minus_1_sq"):
    """The Neo-Hookean lambda-part: (J-1)^2/2 or log^2(J)/2, one Volumetric entry."""
    if kind not in VOLUMETRIC_KINDS:
        raise InvalidParameterError(f"volumetric kind must be one of {VOLUMETRIC_KINDS}")
    h = get_profile("j_minus_1_sq" if kind == "j_minus_1_sq" else "log_sq")
    # h''(1) = 1: Lame pair (1, 0) and modulus scale 1
    model = MaterialModel(
        "volumetric", {"kind": kind}, "positive", [(1.0, 1.0, Volumetric(h))], 1.0, (1.0, 0.0)
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


def _as_part(part, kind):
    if isinstance(part, EnergyPart):
        if part.kind != kind:
            raise InvalidParameterError(f"expected a {kind}-part, got a {part.kind}-part")
        return part
    return EnergyPart(kind, part)


def combine(mu_part, lambda_part, target, alpha_mu=1.0, alpha_lambda=1.0):
    """The ``composed`` material target.lambda * psi_lambda filtered at
    alpha_lambda + target.mu * psi_mu filtered at alpha_mu, whose
    closed-form Lame pair is the target.

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
    parts = LinearCombination(
        [
            (target.lambda_lame, filter_nonlinearity(lambda_part.model, alpha_lambda)),
            (target.mu_lame, filter_nonlinearity(mu_part.model, alpha_mu)),
        ]
    )
    lame = (target.lambda_lame, target.mu_lame)
    return MaterialModel("composed", {}, parts.domain, parts.terms, parts.modulus_scale, lame)


def unit_part(model, kind):
    """The ``kind``-part ("mu" or "lambda") of a model: the model over its own Lame entry.

    Raises UnreachableTargetError when the other entry exceeds
    1e-6 * max(1, |own entry|), and InvalidParameterError when the own
    entry is not positive.
    """
    lame = extract_lame(model, allow_rest_stress=True)
    own, other = (lame.mu_lame, lame.lambda_lame)
    if kind == "lambda":
        own, other = other, own
    if abs(other) > 1e-6 * max(1.0, abs(own)):
        raise UnreachableTargetError(f"{model.family}: not a pure {kind}-part ({lame})")
    if own <= 0.0:
        raise InvalidParameterError(f"{model.family}: {kind}_lame must be positive, got {own}")
    return EnergyPart(kind, LinearCombination([(1.0 / own, model)]))


def augment_volumetric(base, target):
    """Combine the unit mu-part of a zero-lambda energy (ARAP, Ogden, ...)
    with the (J-1)^2/2 lambda-part at the target Lame parameters."""
    return combine(unit_part(base, "mu"), volumetric_part(), target)
