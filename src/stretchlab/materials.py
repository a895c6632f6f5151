"""Catalog of stretch-based isotropic hyperelastic energies as term lists.

Every energy is a symmetric function of the three principal stretches l.
A :class:`MaterialModel` is a flat list of ``(coef, alpha, term)`` entries
with energy sum coef * term(l^alpha) / alpha^2, where a term is one of the
kinds of ``terms`` (separable, volumetric, Hill coupling, pair, and the
product that gives Mooney-Rivlin). The exponent alpha is the nonlinearity
filter, so filtering, combining and composing materials only rewrite the
list, and the chain rule of the filter lives in one place,
``MaterialModel._evaluate``. Seth-Hill is the Linear Corotational list at
alpha, and St. Venant-Kirchhoff the same list at alpha = 2. Energy,
gradient and Hessian take one triple (3,) or a stack (..., 3), such as the
stretches of every element of a mesh, through the same evaluator.

Each family is one row of ``_FAMILIES``: parameter schema, term builder,
closed-form Lame pair, domain, parameters that must be positive and
modulus-scale rule. Families whose written form carries a rest stress
(Ogden with one-signed coefficients, Mooney-Rivlin off C2 = -C1/2) are
flagged ``rest_stable=False``; their rest-Hessian Lame extraction is still
well defined.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainViolationError, InvalidParameterError
from .profiles import Profile, get_profile, half_square
from .terms import HillCoupling, Pair, Product, Separable, Volumetric

__all__ = [
    "MaterialModel",
    "make_material",
    "evaluate",
    "list_catalog",
    "catalog_families",
    "sample_params",
    "REST_STABILITY_RTOL",
]

REST_STABILITY_RTOL = 1e-8

_REST = np.ones(3)
_EYE = np.eye(3)


def _derivative(terms, x, order):
    """sum coef * (value, gradient or Hessian) of the terms at x."""
    kind = ("value", "grad", "hess")[order]
    out = 0.0
    for c, t in terms:
        out += c * getattr(t, kind)(x)
    return out


class MaterialModel:
    """A parameterized isotropic energy over principal stretches.

    Attributes
    ----------
    family : str
        Catalog identifier (lower_snake_case), or a derived label.
    params : dict
        The family's parameter record.
    domain : {"positive", "unrestricted"}
        Validity domain of the stretches.
    terms : list of (coef, alpha, term)
        The energy sum coef * term(l^alpha) / alpha^2.
    modulus_scale : float
        Characteristic stress magnitude, used to scale tolerances.
    rest_stable : bool
        True when the gradient vanishes at (1, 1, 1).
    """

    def __init__(self, family, params, domain, terms, modulus_scale, lame=None):
        self.family = family
        self.params = dict(params)
        self.domain = domain
        self.terms = list(terms)
        self.modulus_scale = modulus_scale
        self._lame = lame
        groups = {}
        for coef, alpha, term in self.terms:
            groups.setdefault(float(alpha), []).append((float(coef), term))
        self._groups = list(groups.items())
        g0 = self.gradient(_REST)
        self.rest_stable = bool(
            np.max(np.abs(g0)) <= REST_STABILITY_RTOL * max(1.0, self.modulus_scale)
        )

    def _evaluate(self, s, order):
        s = np.asarray(s, dtype=float)
        self.check_domain(s)
        out = 0.0
        for alpha, terms in self._groups:
            if alpha == 1.0:
                out += _derivative(terms, s, order)
                continue
            # the nonlinearity filter psi(l^alpha) / alpha^2, by the chain rule
            x = s**alpha
            if order == 0:
                out += _derivative(terms, x, 0) / alpha**2
                continue
            w = s ** (alpha - 1.0)
            if order == 1:
                out += w * _derivative(terms, x, 1) / alpha
            else:
                out += _derivative(terms, x, 2) * (w[..., :, None] * w[..., None, :])
                g = (alpha - 1.0) / alpha * s ** (alpha - 2.0) * _derivative(terms, x, 1)
                out += g[..., None, :] * _EYE
        return out

    def check_domain(self, s):
        """Raise DomainViolationError unless every triple of s (3,) or (..., 3) is valid.

        For a stack, the error names the first invalid triple in row-major
        order and carries its position as ``index``.
        """
        s = np.asarray(s, dtype=float)
        v = s.ravel().tolist()
        # a non-finite entry makes the sum non-finite; finite entries whose
        # sum overflows fall through to the exact test below
        if math.isfinite(sum(v)) and (self.domain != "positive" or min(v) > 0.0):
            return
        rows = s.reshape(-1, 3)
        bad = ~np.isfinite(rows).all(axis=1)
        if self.domain == "positive":
            bad |= ~(rows > 0.0).all(axis=1)
        if not bad.any():
            return
        i = int(np.argmax(bad))
        index = i if s.ndim > 1 else None
        if not np.isfinite(rows[i]).all():
            raise DomainViolationError(
                f"{self.family} requires finite stretches, got {rows[i]}", index=index
            )
        raise DomainViolationError(
            f"{self.family} requires strictly positive stretches, got {rows[i]}", index=index
        )

    def energy(self, s):
        """Energy at a triple (float) or at each triple of a (..., 3) stack."""
        e = self._evaluate(s, 0)
        return e if isinstance(e, np.ndarray) else float(e)

    def gradient(self, s):
        """Stretch gradient, shape (3,) or (..., 3)."""
        return self._evaluate(s, 1)

    def hessian(self, s):
        """Symmetric stretch Hessian, shape (3, 3) or (..., 3, 3)."""
        H = self._evaluate(s, 2)
        return 0.5 * (H + H.swapaxes(-1, -2))

    def lame_closed_form(self) -> Optional[tuple]:
        """Table closed form (lambda_lame, mu_lame), or None if unknown."""
        return self._lame

    def __repr__(self):
        return f"MaterialModel({self.family!r}, {self.params})"


def evaluate(model, s):
    """Evaluate (energy, gradient, hessian) at a stretch triple."""
    s = np.asarray(s, dtype=float)
    return model.energy(s), model.gradient(s), model.hessian(s)


# ---------------------------------------------------------------------------
# Family profiles and term builders

_LINEAR = Profile("x_minus_1", lambda x: x - 1.0, lambda x: 0.0 * x + 1.0, lambda x: 0.0 * x)
_SQUARE = get_profile("scaled:2:j_minus_1_sq")  # (x - 1)^2
_SQ_MINUS_1 = Profile("x^2-1", lambda x: x * x - 1.0, lambda x: 2.0 * x, lambda x: 0.0 * x + 2.0)
_LOG = get_profile("log")
_INVERSE = Profile("1_minus_1/x", lambda x: 1.0 - 1.0 / x, lambda x: x**-2, lambda x: -2.0 * x**-3)
_SYM_DIRICHLET = half_square(
    Profile("x_minus_1/x", lambda x: x - 1.0 / x, lambda x: 1.0 + x**-2, lambda x: -2.0 * x**-3)
)
_QUARTIC = half_square(half_square(_SQ_MINUS_1))  # (x^2 - 1)^4 / 8
# the constant +1 shifts the written form's rest energy -1 per stretch to zero
_VL_STRETCH = Profile("x_log_x", lambda x: x * (np.log(x) - 1.0) + 1.0, np.log, lambda x: 1.0 / x)
# x - 1 - t - t^2/6 + t^3/18 - t^4/216 with t = log x, as polynomials in t
_PENG_LANDEL = Profile(
    "peng_landel",
    lambda x: x - 1.0 - np.polyval([1 / 216, -1 / 18, 1 / 6, 1.0, 0.0], np.log(x)),
    lambda x: 1.0 - np.polyval([1 / 54, -1 / 6, 1 / 3, 1.0], np.log(x)) / x,
    lambda x: np.polyval([1 / 54, -2 / 9, 2 / 3, 2 / 3], np.log(x)) / x**2,
)
# the J-terms of the neo-Hookean variants
_LOG_J = Separable(_LOG)  # sum_i log l_i = log J
_LOG_J_SQ = HillCoupling(_LOG)  # (sum_i log l_i)^2 = log^2 J
_J_MINUS_1 = Volumetric(_LINEAR)
_J_MINUS_1_SQ = Volumetric(_SQUARE)


def _sym_power(a):
    """(x^a - x^-a) / (2a), the symmetric Seth-Hill strain."""
    return Profile(
        f"sym_power:{a:g}",
        lambda x: (x**a - x**-a) / (2.0 * a),
        lambda x: (x ** (a - 1.0) + x ** (-a - 1.0)) / 2.0,
        lambda x: ((a - 1.0) * x ** (a - 2.0) - (a + 1.0) * x ** (-a - 2.0)) / 2.0,
    )


def _j_power(p):
    """The volumetric term J^p."""
    d1, d2 = (lambda x: p * x ** (p - 1.0)), (lambda x: p * (p - 1.0) * x ** (p - 2.0))
    return Volumetric(Profile(f"x^{p:g}", lambda x: x**p, d1, d2))


def _hill(p, f, alpha=1.0):
    """mu sum f(l_i)^2 + lam/2 (sum f(l_i))^2, at filter exponent alpha."""
    return [
        (2.0 * float(p["mu"]), alpha, Separable(half_square(f))),
        (0.5 * float(p["lam"]), alpha, HillCoupling(f)),
    ]


def _neo_hookean(p, dev, vol):
    """mu/2 (I1 - 3) - mu dev + lam/2 vol [+ mu4/8 sum (l_i^2 - 1)^4]."""
    mu, lam = float(p["mu"]), float(p["lam"])
    terms = [(0.5 * mu, 1.0, Separable(_SQ_MINUS_1)), (-mu, 1.0, dev), (0.5 * lam, 1.0, vol)]
    if "mu4" in p:
        terms.append((float(p["mu4"]), 1.0, Separable(_QUARTIC)))
    return terms


def _exponent(p):
    a = float(p["alpha"])
    if a == 0.0:
        raise InvalidParameterError("alpha must be nonzero (alpha -> 0 is hencky)")
    return a


def _ogden(p):
    terms = [(float(m), float(a)) for m, a in p["terms"]]
    if not terms:
        raise InvalidParameterError("terms must be a nonempty list")
    if any(a == 0.0 for _, a in terms):
        raise InvalidParameterError("exponents must be nonzero")
    if any(m == 0.0 for m, _ in terms):
        raise InvalidParameterError("coefficients must be nonzero")
    return [(m, 1.0, Separable(get_profile(f"power:{a!r}"))) for m, a in terms]


def _well_terms(p, *kinds):
    """One unit-coefficient term per (parameter, kind) over well profiles."""
    return [(1.0, 1.0, kind(get_profile(p[key]).check_well())) for key, kind in kinds]


def _lam_mu(p):
    return (float(p["lam"]), float(p["mu"]))


def _curvature(p, key):
    return float(get_profile(p[key]).d2(1.0))


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class _Family:
    schema: dict  # required parameter -> unit or meaning
    terms: Callable  # params -> [(coef, alpha, term)]; raises on invalid params
    lame: Callable = _lam_mu  # params -> closed-form (lambda_lame, mu_lame)
    domain: str = "positive"
    positive: tuple = ("mu",)  # parameters that must be > 0
    scale: Optional[Callable] = None  # params -> modulus_scale; default max |Pa parameter|

    def modulus_scale(self, p):
        if self.scale is not None:
            return self.scale(p)
        moduli = [abs(float(p[k])) for k, unit in self.schema.items() if unit == "Pa"]
        return max(moduli, default=1.0)


_MU_LAM = {"mu": "Pa", "lam": "Pa"}
_WITH_ALPHA = dict(_MU_LAM, alpha="dimensionless, nonzero")
_WELL = "profile name (well contract)"

_FAMILIES = {
    "linear_corotational": _Family(_MU_LAM, lambda p: _hill(p, _LINEAR), domain="unrestricted"),
    # Seth-Hill at alpha = 2: the corotational list, filtered
    "st_venant_kirchhoff": _Family(
        _MU_LAM, lambda p: _hill(p, _LINEAR, 2.0), domain="unrestricted"
    ),
    "hencky": _Family(_MU_LAM, lambda p: _hill(p, _LOG)),
    "seth_hill": _Family(_WITH_ALPHA, lambda p: _hill(p, _LINEAR, _exponent(p))),
    "symmetric_seth_hill": _Family(_WITH_ALPHA, lambda p: _hill(p, _sym_power(_exponent(p)))),
    "hill": _Family(
        dict(_MU_LAM, f="profile name (Hill contract)"),
        lambda p: _hill(p, get_profile(p["f"]).check_hill()),
    ),
    "neo_hookean": _Family(_MU_LAM, lambda p: _neo_hookean(p, _LOG_J, _LOG_J_SQ)),
    "neo_hookean_ogden": _Family(_MU_LAM, lambda p: _neo_hookean(p, _LOG_J, _J_MINUS_1_SQ)),
    "stable_neo_hookean": _Family(
        _MU_LAM,
        lambda p: _neo_hookean(p, _J_MINUS_1, _J_MINUS_1_SQ),
        lame=lambda p: (float(p["lam"]) - float(p["mu"]), float(p["mu"])),
        domain="unrestricted",
    ),
    "sts": _Family(dict(_MU_LAM, mu4="Pa"), lambda p: _neo_hookean(p, _LOG_J, _LOG_J_SQ)),
    # 2 mu sum (l_i (log l_i - 1) + 1) + lam/2 log^2 J
    "valanis_landel_original": _Family(
        _MU_LAM,
        lambda p: [
            (2.0 * float(p["mu"]), 1.0, Separable(_VL_STRETCH)),
            (0.5 * float(p["lam"]), 1.0, _LOG_J_SQ),
        ],
    ),
    # sum f(l_i) + h(J)
    "valanis_landel_new": _Family(
        {"f": _WELL, "h": _WELL},
        lambda p: _well_terms(p, ("f", Separable), ("h", Volumetric)),
        lame=lambda p: (_curvature(p, "h"), 0.5 * _curvature(p, "f")),
        positive=(),
        scale=lambda p: max(abs(_curvature(p, "f")), abs(_curvature(p, "h")), 1e-300),
    ),
    # sum f(l_i) + sum over the three unordered pairs g(l_i l_j) + h(J)
    "valanis_landel_xu": _Family(
        {"f": _WELL, "g": _WELL, "h": _WELL},
        lambda p: _well_terms(p, ("f", Separable), ("g", Pair), ("h", Volumetric)),
        lame=lambda p: (
            _curvature(p, "g") + _curvature(p, "h"),
            0.5 * (_curvature(p, "f") + _curvature(p, "g")),
        ),
        positive=(),
        scale=lambda p: max(*(abs(_curvature(p, k)) for k in "fgh"), 1e-300),
    ),
    "peng_landel": _Family(
        {"E": "Pa"},
        lambda p: [(float(p["E"]), 1.0, Separable(_PENG_LANDEL))],
        lame=lambda p: (0.0, float(p["E"]) / 3.0),
        positive=("E",),
    ),
    # sum (l_i - 1)^2, the stretch form of the distance to rotations
    "arap": _Family(
        {},
        lambda p: [(1.0, 1.0, Separable(_SQUARE))],
        lame=lambda p: (0.0, 1.0),
        domain="unrestricted",
        positive=(),
    ),
    # mu/2 sum ((l_i - 1)^2 + (1 - 1/l_i)^2)
    "symmetric_arap": _Family(
        {"mu": "Pa"},
        lambda p: [(float(p["mu"]), 1.0, Separable(half_square(f))) for f in (_LINEAR, _INVERSE)],
        lame=lambda p: (0.0, float(p["mu"])),
    ),
    # 1/2 sum (l_i - 1/l_i)^2
    "symmetric_dirichlet": _Family(
        {},
        lambda p: [(1.0, 1.0, Separable(_SYM_DIRICHLET))],
        lame=lambda p: (0.0, 2.0),
        positive=(),
    ),
    # sum_p mu_p / alpha_p (sum_i l_i^alpha_p - 3), mu_p of either sign
    "ogden": _Family(
        {"terms": "list of [mu_p (Pa), alpha_p (nonzero)]"},
        _ogden,
        lame=lambda p: (0.0, 0.5 * sum(float(m) * (float(a) - 1.0) for m, a in p["terms"])),
        positive=(),
        scale=lambda p: sum(abs(float(m)) for m, _ in p["terms"]),
    ),
    # C1 J^(-2/3) (I1 - 3) + C2 J^(-4/3) (I2 - 3); the rest gradient is
    # 2 C1 + 4 C2 per component, so it is rest-stable only at C2 = -C1/2
    "mooney_rivlin": _Family(
        {"c1": "Pa", "c2": "Pa"},
        lambda p: [
            (float(p["c1"]), 1.0, Product(_j_power(-2.0 / 3.0), Separable(_SQ_MINUS_1))),
            (float(p["c2"]), 1.0, Product(_j_power(-4.0 / 3.0), Pair(_SQ_MINUS_1))),
        ],
        lame=lambda p: (-4.0 / 3.0 * (2.0 * float(p["c1"]) + 5.0 * float(p["c2"])), float(p["c1"])),
        positive=("c1",),
    ),
}


def make_material(family, params=None):
    """Construct a catalog material.

    Parameters
    ----------
    family : str
        One of the catalog identifiers (see ``list_catalog``).
    params : dict, optional
        Family parameter record.
    """
    if family not in _FAMILIES:
        raise InvalidParameterError(
            f"unknown family '{family}'; known: {sorted(_FAMILIES)}"
        )
    row = _FAMILIES[family]
    params = dict(params or {})
    if set(params) != set(row.schema):
        raise InvalidParameterError(
            f"{family}: expected parameters {sorted(row.schema)}, got {sorted(params)}"
        )
    for key in row.positive:
        if float(params[key]) <= 0.0:
            raise InvalidParameterError(f"{family}: {key} must be positive")
    try:
        terms = row.terms(params)
    except InvalidParameterError as err:
        raise InvalidParameterError(f"{family}: {err}") from None
    scale = row.modulus_scale(params)
    return MaterialModel(family, params, row.domain, terms, scale, row.lame(params))


def catalog_families():
    """Catalog family identifiers, in Table order."""
    return list(_FAMILIES)


def list_catalog():
    """Family descriptors: identifier, parameter schema, validity domain."""
    return [
        {"family": name, "params": row.schema, "domain": row.domain}
        for name, row in _FAMILIES.items()
    ]


def sample_params(family, rng, rest_stable=False):
    """Draw a random valid parameter record for a family.

    With ``rest_stable=True`` the draw is restricted to the rest-stable
    region (relevant for ogden and mooney_rivlin, whose written forms
    carry a rest stress for generic parameters).
    """
    mu = float(rng.uniform(0.5, 5.0))
    lam = float(rng.uniform(-0.5, 5.0) * mu)
    schema = _FAMILIES[family].schema if family in _FAMILIES else None
    if schema == _MU_LAM:
        return {"mu": mu, "lam": lam}
    if schema == _WITH_ALPHA:
        alpha = float(rng.choice([-2.0, -1.0, 0.5, 1.0, 1.5, 2.0, 3.0]))
        return {"mu": mu, "lam": lam, "alpha": alpha}
    if family == "hill":
        f = "log" if rng.random() < 0.5 else f"power:{float(rng.uniform(0.5, 3.0))!r}"
        return {"mu": mu, "lam": lam, "f": f}
    if family == "sts":
        return {"mu": mu, "lam": lam, "mu4": float(rng.uniform(0.1, 2.0))}
    if family == "valanis_landel_new":
        return {
            "f": f"scaled:{float(rng.uniform(0.5, 5.0))!r}:stretch_well",
            "h": f"scaled:{float(rng.uniform(0.5, 5.0))!r}:log_sq",
        }
    if family == "valanis_landel_xu":
        return {
            "f": f"scaled:{float(rng.uniform(0.5, 5.0))!r}:stretch_well",
            "g": f"scaled:{float(rng.uniform(0.2, 2.0))!r}:power_well:2",
            "h": f"scaled:{float(rng.uniform(0.5, 5.0))!r}:j_minus_1_sq",
        }
    if family == "peng_landel":
        return {"E": float(rng.uniform(0.5, 10.0))}
    if family == "arap" or family == "symmetric_dirichlet":
        return {}
    if family == "symmetric_arap":
        return {"mu": mu}
    if family == "ogden":
        if rest_stable:
            # two terms with cancelling rest stress: mu1 + mu2 = 0
            m1 = float(rng.uniform(1.0, 4.0))
            return {"terms": [[m1, 2.0], [-m1, -2.0]]}
        n = int(rng.integers(1, 4))
        return {
            "terms": [
                [float(rng.uniform(0.5, 3.0)), float(rng.choice([-2.0, 1.5, 2.0, 3.0, 4.0]))]
                for _ in range(n)
            ]
        }
    if family == "mooney_rivlin":
        c1 = float(rng.uniform(0.5, 5.0))
        c2 = -0.5 * c1 if rest_stable else float(rng.uniform(-1.0, 1.0) * c1)
        return {"c1": c1, "c2": c2}
    raise InvalidParameterError(f"unknown family '{family}'")
