"""Catalog of stretch-based isotropic hyperelastic energies as term lists.

Every energy is a symmetric function of the three principal stretches l.
A :class:`MaterialModel` is a flat list of ``(coef, alpha, term)`` entries
with energy sum coef * term(l^alpha) / alpha^2, where a term is one of the
kinds of ``terms`` (``Separable``, ``Volumetric``, ``Pair`` and their
``Product``, which gives the Hill coupling (sum_i f(l_i))^2 as
``Product(s, s)`` and Mooney-Rivlin). The exponent alpha is the nonlinearity
filter, so filtering, combining and composing materials only rewrite the
list, and the chain rule of the filter lives in one place,
``MaterialModel._evaluate``. Seth-Hill is the Linear Corotational list at
alpha, and St. Venant-Kirchhoff the same list at alpha = 2. Energy,
gradient and Hessian take one triple (3,) or a stack (..., 3), such as the
stretches of every element of a mesh, through the same evaluator.
:func:`stack` groups models by their ``(alpha, term)`` lists and makes
each group of k one model with coefficient columns, evaluated on
(k, ..., 3) in one call.

Each family is one row of ``_FAMILIES``: parameter schema, term builder,
closed-form Lame pair, domain, parameters that must be positive,
modulus-scale rule, random draw (``sample_params``) and the inverse of the
Lame pair (``normalize``). Families whose written form carries a rest stress
(Ogden with one-signed coefficients, Mooney-Rivlin off C2 = -C1/2) are
flagged ``rest_stable=False``; their rest-Hessian Lame extraction is still
well defined. Draws of one family share their profile objects where the
draw allows (fixed profiles, and the exponents the draws pick from), so
their terms compare equal and the draws stack.
"""

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainViolationError, InvalidParameterError, UnreachableTargetError
from .profiles import X_MINUS_1, Profile, get_profile, half_square, plus, power, scaled
from .terms import Pair, Product, Separable, Volumetric

__all__ = [
    "MaterialModel",
    "make_material",
    "list_catalog",
    "catalog_families",
    "sample_params",
    "normalize",
    "stack",
    "REST_STABILITY_RTOL",
]

REST_STABILITY_RTOL = 1e-8

_EYE = np.eye(3)


def _derivative(terms, x, order):
    """sum coef * (value, gradient or Hessian) of the terms at x.

    A coefficient column (k,) multiplies the k draws of the leading axis.
    """
    kind = ("value", "grad", "hess")[order]
    out = 0.0
    for c, t in terms:
        v = getattr(t, kind)(x)
        if isinstance(c, np.ndarray):
            c = c.reshape(c.shape + (1,) * (v.ndim - 1))
        out += c * v
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
    structure : tuple of (alpha, term)
        The list without its coefficients, hashable. Profiles compare by
        identity, and the catalog shares the profiles of one family's
        draws where it can, so draws with equal structures differ only in
        their coefficients.
    modulus_scale : float
        Characteristic stress magnitude, used to scale tolerances.
    rest_stable : bool
        True when the gradient vanishes at (1, 1, 1). Computed on first
        read and then kept, so building a model evaluates nothing.

    Coefficient columns: every coef may instead be a 1-D array of length
    k (see :func:`stack`). The model is then k draws that share one
    structure. It takes stretches with a leading draw axis, (k, ..., 3),
    and draw i gives, to the last bit, what the scalar model of column
    entry i gives on its slice. ``modulus_scale`` is then a (k,) array and
    ``rest_stable`` a (k,) bool array.
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
            alpha = float(alpha)
            # the filter divides by alpha^2, which must be finite and nonzero
            if not 0.0 < alpha * alpha < math.inf:
                raise InvalidParameterError(f"{family}: exponent {alpha!r} squares out of range")
            c = coef if isinstance(coef, np.ndarray) else float(coef)
            if type(c) is float and not math.isfinite(c):  # a column holds checked floats
                raise InvalidParameterError(f"{family}: coefficient {c!r} is not finite")
            groups.setdefault(alpha, []).append((c, term))
        self._groups = list(groups.items())
        self.structure = tuple([(alpha, term) for _, alpha, term in self.terms])

    @functools.cached_property
    @np.errstate(all="ignore")  # a gradient that overflows is not finite, which fails
    def rest_stable(self):
        scale = self.modulus_scale
        g = self.gradient(np.ones(np.shape(scale) + (3,)))
        # max |g_i| <= tol per draw; np.max keeps a NaN entry, which fails
        ok = np.abs(g).max(axis=-1) <= REST_STABILITY_RTOL * np.maximum(1.0, scale)
        return ok if ok.ndim else bool(ok)

    def _evaluate(self, s, order):
        s = np.asarray(s, dtype=float)
        self.check_domain(s)
        if not self._groups:
            # no entries: zeros of the terms' shape; [()] makes a 0-d array a scalar
            return np.zeros(s.shape[:-1] + (3,) * order)[()]
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
        if np.isfinite(s).all() and (self.domain != "positive" or s.min() > 0.0):
            return
        # the search for the first invalid triple runs only to build the error
        rows = s.reshape(-1, 3)
        bad = ~np.isfinite(rows).all(axis=1)
        if self.domain == "positive":
            bad |= ~(rows > 0.0).all(axis=1)
        i = int(np.argmax(bad))
        index = i if s.ndim > 1 else None
        what = "finite" if not np.isfinite(rows[i]).all() else "strictly positive"
        raise DomainViolationError(
            f"{self.family} requires {what} stretches, got {rows[i]}", index=index
        )

    def energy(self, s):
        """Energy at a triple (float) or at each triple of a (..., 3) stack.

        The terms see each triple in ascending order, so the energy is
        invariant under permutation of the stretches to the last bit, not
        only up to summation-order roundoff.
        """
        e = self._evaluate(np.sort(s, axis=-1), 0)
        return e if isinstance(e, np.ndarray) else float(e)

    def gradient(self, s):
        """Stretch gradient, shape (3,) or (..., 3)."""
        return self._evaluate(s, 1)

    def hessian(self, s):
        """Stretch Hessian, shape (3, 3) or (..., 3, 3), symmetric to the last bit."""
        return self._evaluate(s, 2)

    def lame_closed_form(self) -> Optional[tuple]:
        """Table closed form (lambda_lame, mu_lame), or None if unknown."""
        return self._lame

    def __repr__(self):
        return f"MaterialModel({self.family!r}, {self.params})"


def stack(models):
    """The models grouped by domain and ``structure``, each group as one
    model with coefficient columns (see :class:`MaterialModel`).

    Returns (indices, model) pairs, one per group in first-seen order:
    draw j of the model is ``models[indices[j]]``, with its coefficients
    and modulus scale, evaluated on slice j of a (len(indices), ..., 3)
    stack. The family label is the first member's.
    """
    groups = {}
    for i, model in enumerate(models):
        groups.setdefault((model.domain, model.structure), []).append(i)
    out = []
    for (domain, _), idx in groups.items():
        first = models[idx[0]]
        coefs = np.array([c for i in idx for c, _, _ in models[i].terms], dtype=float)
        columns = coefs.reshape(len(idx), -1).T
        terms = [(col, alpha, term) for col, (_, alpha, term) in zip(columns, first.terms)]
        scale = np.array([models[i].modulus_scale for i in idx], dtype=float)
        out.append((idx, MaterialModel(first.family, {}, domain, terms, scale)))
    return out


# ---------------------------------------------------------------------------
# Family profiles and term builders

_SQUARE = get_profile("scaled:2:j_minus_1_sq")  # (x - 1)^2
_SQ_MINUS_1 = scaled(2.0, power(2.0))  # x^2 - 1
_LOG = get_profile("log")
_INVERSE = power(-1.0)  # 1 - 1/x
_SYM_DIRICHLET = half_square(plus(X_MINUS_1, _INVERSE))  # (x - 1/x)^2 / 2
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
_LOG_J_SQ = Product(_LOG_J, _LOG_J)  # (sum_i log l_i)^2 = log^2 J
_J_MINUS_1 = Volumetric(X_MINUS_1)
_J_MINUS_1_SQ = Volumetric(_SQUARE)


# Factories of profiles over a float parameter keep their last few results,
# so that draws with one exponent share one profile. A cache is bounded,
# since a user record can hold any float.


@functools.lru_cache(maxsize=16)
def _sym_power(a):
    """(x^a - x^-a) / (2a), the symmetric Seth-Hill strain."""
    return scaled(0.5, plus(power(a), power(-a)))


_ogden_power = functools.lru_cache(maxsize=16)(power)  # the Ogden profiles power:<a>


def _j_power(p):
    """The volumetric term J^p."""
    d1, d2 = (lambda x: p * x ** (p - 1.0)), (lambda x: p * (p - 1.0) * x ** (p - 2.0))
    return Volumetric(Profile(f"x^{p:g}", lambda x: x**p, d1, d2))


# the Mooney-Rivlin volume factors J^(-2/3) and J^(-4/3)
_J_TWO_THIRDS = _j_power(-2.0 / 3.0)
_J_FOUR_THIRDS = _j_power(-4.0 / 3.0)


def _hill(p, f, alpha=1.0):
    """mu sum f(l_i)^2 + lam/2 (sum f(l_i))^2, at filter exponent alpha."""
    s = Separable(f)
    return [
        (2.0 * float(p["mu"]), alpha, Separable(half_square(f))),
        (0.5 * float(p["lam"]), alpha, Product(s, s)),
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
    if not np.isfinite(terms).all():
        raise InvalidParameterError(f"terms must be finite, got {p['terms']}")
    if any(a == 0.0 for _, a in terms):
        raise InvalidParameterError("exponents must be nonzero")
    if any(m == 0.0 for m, _ in terms):
        raise InvalidParameterError("coefficients must be nonzero")
    return [(m, 1.0, Separable(_ogden_power(a))) for m, a in terms]


def _well_terms(p, *kinds):
    """One unit-coefficient term per (parameter, kind) over well profiles."""
    return [(1.0, 1.0, kind(p[key].check_well())) for key, kind in kinds]


def _lam_mu(p):
    return (float(p["lam"]), float(p["mu"]))


def _curvature(p, key):
    return float(get_profile(p[key]).d2(1.0))


def _scaled(c, name):
    """The name of the profile c * name."""
    return f"scaled:{float(c)!r}:{name}"


def _ogden_lame(p):
    return (0.0, 0.5 * sum(float(m) * (float(a) - 1.0) for m, a in p["terms"]))


# ---------------------------------------------------------------------------
# Random draws and inverse Lame maps. A draw receives the shared mu and lam
# draws of ``sample_params``; an inverse returns a record whose closed-form
# Lame pair is the target, holding extra parameters at the baseline's values.


def _mu_lam_draw(rng, mu, lam, rest_stable):
    return {"mu": mu, "lam": lam}


def _mu_lam_inverse(lam, mu, base):
    return {"mu": mu, "lam": lam}


def _no_params(*_):
    return {}


def _held(key, draw, default):
    """Draw and inverse of a mu/lam family with one extra parameter ``key``.

    The inverse holds it at the baseline's value, converted to the type of
    ``default`` (float, or str for a profile name), else at ``default``.
    """
    return {
        "sample": lambda rng, mu, lam, _: {"mu": mu, "lam": lam, key: draw(rng)},
        "inverse": lambda lam, mu, base: {
            "mu": mu, "lam": lam, key: type(default)(base.get(key, default))
        },
    }


def _pick(rng, options):
    """A uniform pick from a tuple: rng.choice's stream, at a quarter of its cost."""
    return options[int(rng.integers(0, len(options)))]


def _uniform(rng, low, high):
    """rng.uniform(low, high) to the last bit (low + (high - low) * one double of
    the stream), at under half its cost."""
    return low + (high - low) * rng.random()


def _draw_exponent(rng):
    return _pick(rng, (-2.0, -1.0, 0.5, 1.0, 1.5, 2.0, 3.0))


def _draw_hill_profile(rng):
    return "log" if rng.random() < 0.5 else f"power:{_uniform(rng, 0.5, 3.0)!r}"


def _xu_inverse(lam, mu, base):
    # f and h absorb the rest curvature of the held pair profile g
    g = base.get("g", "scaled:0:power_well:2")
    g2 = float(get_profile(g).d2(1.0))
    return {"f": _scaled(2.0 * mu - g2, "stretch_well"), "g": g, "h": _scaled(lam - g2, "log_sq")}


def _ogden_draw(rng, mu, lam, rest_stable):
    if rest_stable:
        # two terms with cancelling rest stress: mu1 + mu2 = 0
        m1 = _uniform(rng, 1.0, 4.0)
        return {"terms": [[m1, 2.0], [-m1, -2.0]]}
    n = int(rng.integers(1, 4))
    return {
        "terms": [
            [_uniform(rng, 0.5, 3.0), _pick(rng, (-2.0, 1.5, 2.0, 3.0, 4.0))]
            for _ in range(n)
        ]
    }


def _ogden_inverse(lam, mu, base):
    # the baseline terms, uniformly scaled; the exponents are held
    terms = [[float(m), float(a)] for m, a in base.get("terms", [[1.0, 2.0], [-1.0, -2.0]])]
    mu0 = _ogden_lame({"terms": terms})[1]
    if mu0 == 0.0:
        raise UnreachableTargetError("baseline ogden terms have zero mu_lame")
    scale = mu / mu0
    return {"terms": [[m * scale, a] for m, a in terms]}


def _mooney_rivlin_draw(rng, mu, lam, rest_stable):
    c1 = _uniform(rng, 0.5, 5.0)
    return {"c1": c1, "c2": -0.5 * c1 if rest_stable else _uniform(rng, -1.0, 1.0) * c1}


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
    sample: Callable = _mu_lam_draw  # (rng, mu, lam, rest_stable) -> random valid params
    inverse: Callable = _mu_lam_inverse  # (lambda_lame, mu_lame, baseline) -> params

    @functools.cached_property  # a schema scan on the first make_material call only
    def profile_keys(self):
        return tuple(k for k, unit in self.schema.items() if unit.startswith("profile name"))

    @functools.cached_property
    def pa_keys(self):
        return tuple(k for k, unit in self.schema.items() if unit == "Pa")

    def modulus_scale(self, p):
        if self.scale is not None:
            return self.scale(p)
        return max((abs(float(p[k])) for k in self.pa_keys), default=1.0)


_MU_LAM = {"mu": "Pa", "lam": "Pa"}
_WITH_ALPHA = dict(_MU_LAM, alpha="dimensionless, nonzero")
_WELL = "profile name (well contract)"

_FAMILIES = {
    "linear_corotational": _Family(_MU_LAM, lambda p: _hill(p, X_MINUS_1), domain="unrestricted"),
    # Seth-Hill at alpha = 2: the corotational list, filtered
    "st_venant_kirchhoff": _Family(
        _MU_LAM, lambda p: _hill(p, X_MINUS_1, 2.0), domain="unrestricted"
    ),
    "hencky": _Family(_MU_LAM, lambda p: _hill(p, _LOG)),
    "seth_hill": _Family(
        _WITH_ALPHA,
        lambda p: _hill(p, X_MINUS_1, _exponent(p)),
        **_held("alpha", _draw_exponent, 1.0),
    ),
    "symmetric_seth_hill": _Family(
        _WITH_ALPHA,
        lambda p: _hill(p, _sym_power(_exponent(p))),
        **_held("alpha", _draw_exponent, 1.0),
    ),
    "hill": _Family(
        dict(_MU_LAM, f="profile name (Hill contract)"),
        lambda p: _hill(p, p["f"].check_hill()),
        **_held("f", _draw_hill_profile, "log"),
    ),
    "neo_hookean": _Family(_MU_LAM, lambda p: _neo_hookean(p, _LOG_J, _LOG_J_SQ)),
    "neo_hookean_ogden": _Family(_MU_LAM, lambda p: _neo_hookean(p, _LOG_J, _J_MINUS_1_SQ)),
    "stable_neo_hookean": _Family(
        _MU_LAM,
        lambda p: _neo_hookean(p, _J_MINUS_1, _J_MINUS_1_SQ),
        lame=lambda p: (float(p["lam"]) - float(p["mu"]), float(p["mu"])),
        domain="unrestricted",
        inverse=lambda lam, mu, base: {"mu": mu, "lam": lam + mu},
    ),
    "sts": _Family(
        dict(_MU_LAM, mu4="Pa"),
        lambda p: _neo_hookean(p, _LOG_J, _LOG_J_SQ),
        **_held("mu4", lambda rng: _uniform(rng, 0.1, 2.0), 0.0),
    ),
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
        sample=lambda rng, mu, lam, _: {
            "f": _scaled(_uniform(rng, 0.5, 5.0), "stretch_well"),
            "h": _scaled(_uniform(rng, 0.5, 5.0), "log_sq"),
        },
        inverse=lambda lam, mu, base: {
            "f": _scaled(2.0 * mu, "stretch_well"), "h": _scaled(lam, "log_sq")
        },
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
        sample=lambda rng, mu, lam, _: {
            "f": _scaled(_uniform(rng, 0.5, 5.0), "stretch_well"),
            "g": _scaled(_uniform(rng, 0.2, 2.0), "power_well:2"),
            "h": _scaled(_uniform(rng, 0.5, 5.0), "j_minus_1_sq"),
        },
        inverse=_xu_inverse,
    ),
    "peng_landel": _Family(
        {"E": "Pa"},
        lambda p: [(float(p["E"]), 1.0, Separable(_PENG_LANDEL))],
        lame=lambda p: (0.0, float(p["E"]) / 3.0),
        positive=("E",),
        sample=lambda rng, mu, lam, _: {"E": _uniform(rng, 0.5, 10.0)},
        inverse=lambda lam, mu, base: {"E": 3.0 * mu},
    ),
    # sum (l_i - 1)^2, the stretch form of the distance to rotations
    "arap": _Family(
        {},
        lambda p: [(1.0, 1.0, Separable(_SQUARE))],
        lame=lambda p: (0.0, 1.0),
        domain="unrestricted",
        positive=(),
        sample=_no_params,
        inverse=_no_params,
    ),
    # mu/2 sum ((l_i - 1)^2 + (1 - 1/l_i)^2)
    "symmetric_arap": _Family(
        {"mu": "Pa"},
        lambda p: [(float(p["mu"]), 1.0, Separable(half_square(f))) for f in (X_MINUS_1, _INVERSE)],
        lame=lambda p: (0.0, float(p["mu"])),
        sample=lambda rng, mu, lam, _: {"mu": mu},
        inverse=lambda lam, mu, base: {"mu": mu},
    ),
    # 1/2 sum (l_i - 1/l_i)^2
    "symmetric_dirichlet": _Family(
        {},
        lambda p: [(1.0, 1.0, Separable(_SYM_DIRICHLET))],
        lame=lambda p: (0.0, 2.0),
        positive=(),
        sample=_no_params,
        inverse=_no_params,
    ),
    # sum_p mu_p / alpha_p (sum_i l_i^alpha_p - 3), mu_p of either sign
    "ogden": _Family(
        {"terms": "list of [mu_p (Pa), alpha_p (nonzero)]"},
        _ogden,
        lame=_ogden_lame,
        positive=(),
        scale=lambda p: sum(abs(float(m)) for m, _ in p["terms"]),
        sample=_ogden_draw,
        inverse=_ogden_inverse,
    ),
    # C1 J^(-2/3) (I1 - 3) + C2 J^(-4/3) (I2 - 3); the rest gradient is
    # 2 C1 + 4 C2 per component, so it is rest-stable only at C2 = -C1/2
    "mooney_rivlin": _Family(
        {"c1": "Pa", "c2": "Pa"},
        lambda p: [
            (float(p["c1"]), 1.0, Product(_J_TWO_THIRDS, Separable(_SQ_MINUS_1))),
            (float(p["c2"]), 1.0, Product(_J_FOUR_THIRDS, Pair(_SQ_MINUS_1))),
        ],
        lame=lambda p: (-4.0 / 3.0 * (2.0 * float(p["c1"]) + 5.0 * float(p["c2"])), float(p["c1"])),
        positive=("c1",),
        sample=_mooney_rivlin_draw,
        inverse=lambda lam, mu, base: {"c1": mu, "c2": -(3.0 * lam + 8.0 * mu) / 20.0},
    ),
}

def _row(family):
    if not isinstance(family, str) or family not in _FAMILIES:
        raise InvalidParameterError(f"unknown family {family!r}; known: {sorted(_FAMILIES)}")
    return _FAMILIES[family]


def _record(family, params, what):
    """A copy of a parameter mapping (None is empty) that holds no boolean."""
    if params is None:
        return {}
    if not isinstance(params, Mapping):
        raise InvalidParameterError(
            f"{family}: {what} must be an object, got {type(params).__name__}"
        )
    for key, value in params.items():
        if _holds_bool(value):
            raise InvalidParameterError(f"{family}: {key} must hold numbers, not booleans")
    return dict(params)


def _holds_bool(value):
    nested = isinstance(value, (list, tuple)) and any(map(_holds_bool, value))
    return nested or isinstance(value, (bool, np.bool_))


def make_material(family, params=None):
    """Construct a catalog material.

    Parameters
    ----------
    family : str
        One of the catalog identifiers (see ``list_catalog``).
    params : mapping, optional
        Family parameter record.

    Raises
    ------
    InvalidParameterError
        For an unknown family, a record that misses or adds keys, or a
        value that is NaN or infinite, out of range or of the wrong type.
    """
    row = _row(family)
    params = _record(family, params, "parameters")
    if params.keys() != row.schema.keys():
        raise InvalidParameterError(
            f"{family}: expected parameters {sorted(row.schema)}, got {sorted(params)}"
        )
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidParameterError(f"{family}: {key} must be finite, got {value}")
    try:
        for key in row.positive:
            if float(params[key]) <= 0.0:
                raise InvalidParameterError(f"{key} must be positive")
        # each profile name is parsed once; the model keeps the names
        resolved = dict(params)
        for key in row.profile_keys:
            resolved[key] = get_profile(params[key])
        terms = row.terms(resolved)
        scale = row.modulus_scale(resolved)
        lame = row.lame(resolved)
    except InvalidParameterError as err:
        raise InvalidParameterError(f"{family}: {err}") from None
    except (TypeError, ValueError, OverflowError) as err:
        # a value of the wrong type or shape, such as a list or null for a
        # number, or an integer too large for a float
        raise InvalidParameterError(f"{family}: malformed parameters {params}: {err}") from None
    return MaterialModel(family, params, row.domain, terms, scale, lame)


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
    row = _row(family)
    mu = _uniform(rng, 0.5, 5.0)
    lam = _uniform(rng, -0.5, 5.0) * mu
    return row.sample(rng, mu, lam, rest_stable)


def normalize(family, target, baseline=None):
    """Parameters that give a family the target Lame parameters (a ``LameParams``).

    The family's row inverts its closed-form Lame pair; for the
    two-parameter families that is the unique algebraic inverse. Extra
    parameters (exponents, profiles, the STS quartic coefficient, the
    Ogden exponents) are held at their values in ``baseline`` when given,
    else at family defaults.

    Raises UnreachableTargetError when the closed form at the result misses
    the target by more than 1e-10 * max(1, |lambda_lame|, |mu_lame|), as for
    a zero-lambda family asked for a nonzero lambda_lame, or when the result
    carries a rest stress (Mooney-Rivlin off nu = 0.2), and
    InvalidParameterError for a malformed baseline or a result that
    ``make_material`` rejects.
    """
    row = _row(family)
    baseline = _record(family, baseline, "baseline")
    lam, mu = float(target.lambda_lame), float(target.mu_lame)
    if mu <= 0.0:
        raise InvalidParameterError(f"target mu_lame must be positive, got {mu}")
    try:
        params = row.inverse(lam, mu, baseline)
    except (TypeError, ValueError) as err:
        raise InvalidParameterError(f"{family}: malformed baseline {baseline}: {err}") from None
    model = make_material(family, params)
    got = model.lame_closed_form()
    if max(abs(got[0] - lam), abs(got[1] - mu)) > 1e-10 * max(1.0, abs(lam), abs(mu)):
        raise UnreachableTargetError(
            f"{family} cannot reach (lambda_lame, mu_lame) = ({lam}, {mu}); its "
            f"parameters give ({got[0]}, {got[1]}). A family with lambda_lame "
            "identically 0 gets a volumetric part from the compose module"
        )
    if not model.rest_stable:
        raise UnreachableTargetError(
            f"{family} reaches (lambda_lame, mu_lame) = ({lam}, {mu}) only with a rest "
            f"stress: the gradient of {params} at (1, 1, 1) is nonzero"
        )
    return params
