"""Lame parameters for arbitrary stretch-based materials.

The small-deformation behavior of any rest-stable isotropic energy is a
Linear Corotational material whose Lame parameters come from the rest
stretch-Hessian:

    lambda_lame = d2 psi / (dl1 dl2) at (1, 1, 1)
    mu_lame     = (d2 psi / dl1^2 - d2 psi / (dl1 dl2)) / 2 at (1, 1, 1)

This module extracts those values (analytically or by finite
differences), converts them to and from Young's modulus and Poisson's
ratio, and inverts each catalog family's parameter map to hit a target.
"""

from dataclasses import dataclass

import numpy as np

from . import materials
from .errors import InvalidParameterError, RestInstabilityError, UnreachableTargetError
from .fd import FDConfig, fd_hessian

__all__ = [
    "LameParams",
    "IsotropicModuli",
    "extract_lame",
    "lame_to_moduli",
    "moduli_to_lame",
    "normalize",
    "pk1_linearize",
]

_REST = np.ones(3)


@dataclass(frozen=True)
class LameParams:
    """(lambda_lame, mu_lame) in Pa; lambda_lame may be negative."""

    lambda_lame: float
    mu_lame: float


@dataclass(frozen=True)
class IsotropicModuli:
    """Young's modulus E (Pa) and Poisson's ratio nu."""

    E: float
    nu: float


def rest_hessian(model, method="analytic", fd_config=None):
    """Stretch-Hessian of the energy at the rest triple (1, 1, 1).

    The fd default step is larger than elsewhere (1e-4): second
    differences at 1e-5 lose five digits to cancellation, which matters
    for families whose rest gradient does not vanish.
    """
    if method == "analytic":
        return model.hessian(_REST)
    if method == "fd":
        return fd_hessian(model.energy, _REST, fd_config or FDConfig(step=1e-4))
    raise InvalidParameterError(f"unknown extraction method '{method}'")


def extract_lame(model, method="analytic", allow_rest_stress=False, fd_config=None):
    """Extract (lambda_lame, mu_lame) from a material's rest Hessian.

    Parameters
    ----------
    model : MaterialModel
    method : {"analytic", "fd"}
        ``analytic`` uses the family's closed form when available,
        otherwise the analytic stretch-Hessian; ``fd`` differentiates the
        energy directly and is the authority when the two disagree.
    allow_rest_stress : bool
        Permit extraction from models with nonzero rest gradient (the
        Hessian-based definition is still evaluated formally, as the
        closed forms for Ogden and Mooney-Rivlin do).

    Raises
    ------
    RestInstabilityError
        If the model is not rest-stable and ``allow_rest_stress`` is off.
    """
    if not getattr(model, "rest_stable", True) and not allow_rest_stress:
        g = model.gradient(_REST)
        raise RestInstabilityError(
            f"{model.family}: rest gradient {g} is nonzero; "
            "pass allow_rest_stress=True to extract formally"
        )
    if method == "analytic":
        closed = model.lame_closed_form()
        if closed is not None:
            return LameParams(float(closed[0]), float(closed[1]))
    H = rest_hessian(model, method=method, fd_config=fd_config)
    lam = float((H[0, 1] + H[0, 2] + H[1, 2]) / 3.0)
    diag = float(np.trace(H) / 3.0)
    return LameParams(lam, 0.5 * (diag - lam))


def lame_to_moduli(lame):
    """Convert (lambda_lame, mu_lame) to (E, nu)."""
    lam, mu = lame.lambda_lame, lame.mu_lame
    if mu <= 0.0:
        raise InvalidParameterError(f"mu_lame must be positive, got {mu}")
    den = lam + mu
    if den == 0.0:
        raise InvalidParameterError("degenerate denominator lambda_lame + mu_lame = 0")
    E = mu * (3.0 * lam + 2.0 * mu) / den
    nu = lam / (2.0 * den)
    return IsotropicModuli(E, nu)


def moduli_to_lame(moduli):
    """Convert (E, nu) to (lambda_lame, mu_lame)."""
    E, nu = moduli.E, moduli.nu
    if E <= 0.0:
        raise InvalidParameterError(f"Young's modulus must be positive, got {E}")
    if nu >= 0.5 - 1e-9:
        raise InvalidParameterError(f"nu = {nu} is at the incompressible limit")
    if nu <= -1.0:
        raise InvalidParameterError(f"nu = {nu} must exceed -1")
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    return LameParams(lam, mu)


_TWO_PARAM_DIRECT = (
    "linear_corotational",
    "st_venant_kirchhoff",
    "hencky",
    "neo_hookean",
    "neo_hookean_ogden",
    "valanis_landel_original",
)

_ZERO_LAMBDA_TOL = 1e-10


def _require_zero_lambda(family, target):
    scale = max(1.0, abs(target.mu_lame))
    if abs(target.lambda_lame) > _ZERO_LAMBDA_TOL * scale:
        raise UnreachableTargetError(
            f"{family} has lambda_lame identically 0 and cannot reach "
            f"lambda_lame = {target.lambda_lame}; use the compose module to "
            "augment it with a volumetric part"
        )


def normalize(family, target, policy="hold-at-default", baseline=None):
    """Parameters that give a family the target Lame parameters.

    For two-parameter families the result is the unique algebraic
    inverse. Families with extra parameters (exponents, profiles, the STS
    quartic coefficient) keep those fixed, taken from ``baseline`` when
    provided and from family defaults otherwise.

    Parameters
    ----------
    family : str
    target : LameParams
    policy : str
        Only ``"hold-at-default"`` is implemented.
    baseline : dict, optional
        Existing parameter record supplying the held extra parameters.

    Raises
    ------
    UnreachableTargetError
        When the family cannot reach the target (e.g. zero-lambda
        families asked for a nonzero lambda_lame).
    """
    if policy != "hold-at-default":
        raise NotImplementedError(f"normalization policy '{policy}' is not implemented")
    lamL, muL = float(target.lambda_lame), float(target.mu_lame)
    if muL <= 0.0:
        raise InvalidParameterError(f"target mu_lame must be positive, got {muL}")
    baseline = dict(baseline or {})

    if family in _TWO_PARAM_DIRECT:
        return {"mu": muL, "lam": lamL}
    if family in ("seth_hill", "symmetric_seth_hill"):
        return {"mu": muL, "lam": lamL, "alpha": float(baseline.get("alpha", 1.0))}
    if family == "hill":
        return {"mu": muL, "lam": lamL, "f": baseline.get("f", "log")}
    if family == "sts":
        return {"mu": muL, "lam": lamL, "mu4": float(baseline.get("mu4", 0.0))}
    if family == "stable_neo_hookean":
        return {"mu": muL, "lam": lamL + muL}
    if family == "mooney_rivlin":
        return {"c1": muL, "c2": -(3.0 * lamL + 8.0 * muL) / 20.0}
    if family == "peng_landel":
        _require_zero_lambda(family, target)
        return {"E": 3.0 * muL}
    if family == "arap":
        _require_zero_lambda(family, target)
        if abs(muL - 1.0) > 1e-10:
            raise UnreachableTargetError("arap has no parameters; mu_lame is fixed at 1")
        return {}
    if family == "symmetric_arap":
        _require_zero_lambda(family, target)
        return {"mu": muL}
    if family == "symmetric_dirichlet":
        _require_zero_lambda(family, target)
        if abs(muL - 2.0) > 1e-10:
            raise UnreachableTargetError(
                "symmetric_dirichlet has no parameters; mu_lame is fixed at 2"
            )
        return {}
    if family == "ogden":
        _require_zero_lambda(family, target)
        terms = [(float(m), float(a)) for m, a in baseline.get("terms", [[2.0, 2.0]])]
        mu0 = 0.5 * sum(m * (a - 1.0) for m, a in terms)
        if mu0 == 0.0:
            raise UnreachableTargetError("baseline ogden terms have zero mu_lame")
        scale = muL / mu0
        return {"terms": [[m * scale, a] for m, a in terms]}
    if family == "valanis_landel_new":
        return {
            "f": f"scaled:{2.0 * muL!r}:stretch_well",
            "h": f"scaled:{lamL!r}:log_sq",
        }
    if family == "valanis_landel_xu":
        from .profiles import get_profile

        g = baseline.get("g", "scaled:0:power_well:2")
        g2 = float(get_profile(g).d2(1.0))
        return {
            "f": f"scaled:{2.0 * muL - g2!r}:stretch_well",
            "g": g,
            "h": f"scaled:{lamL - g2!r}:log_sq",
        }
    raise InvalidParameterError(f"unknown family '{family}'")


def pk1_linearize(model, method="analytic"):
    """The Linear Corotational material matching a model at rest.

    Its energy is the quadratic Taylor expansion of the input in stretch
    space; applying this twice is a fixed point.
    """
    lame = extract_lame(model, method=method)
    return materials.make_material(
        "linear_corotational", {"mu": lame.mu_lame, "lam": lame.lambda_lame}
    )
