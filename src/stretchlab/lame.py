"""Lame parameters for arbitrary stretch-based materials.

The small-deformation behavior of any rest-stable isotropic energy is a
Linear Corotational material whose Lame parameters come from the rest
stretch-Hessian:

    lambda_lame = d2 psi / (dl1 dl2) at (1, 1, 1)
    mu_lame     = (d2 psi / dl1^2 - d2 psi / (dl1 dl2)) / 2 at (1, 1, 1)

This module extracts those values (analytically or by finite
differences) and converts them to and from Young's modulus and Poisson's
ratio. ``normalize``, which solves a family's parameters for a target, is
defined next to the family rows in ``materials`` (each row holds the
inverse of its closed-form Lame pair) and re-exported here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, RestInstabilityError
from .fd import hessian_stencil
from .materials import make_material, normalize

__all__ = [
    "LameParams",
    "IsotropicModuli",
    "FD_REST_POINTS",
    "FD_REST_WEIGHTS",
    "extract_lame",
    "lame_from_hessian",
    "lame_to_moduli",
    "moduli_to_lame",
    "normalize",
    "pk1_linearize",
]

_REST = np.ones(3)


def _richardson_stencil(coarse, fine):
    """Points (38, 3) and weights (3, 3, 38) of (4 H(fine) - H(coarse)) / 3 at rest, read-only."""
    (pc, wc), (pf, wf) = hessian_stencil(_REST, coarse), hessian_stencil(_REST, fine)
    points, weights = np.concatenate([pc, pf]), np.concatenate([-wc, 4.0 * wf], axis=-1) / 3.0
    points.flags.writeable = weights.flags.writeable = False
    return points, weights


# ``FD_REST_WEIGHTS @ model.energy(FD_REST_POINTS)`` is the fd rest Hessian
FD_REST_POINTS, FD_REST_WEIGHTS = _richardson_stencil(1e-3, 5e-4)


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


def rest_hessian(model, method="analytic"):
    """Stretch-Hessian of the energy at the rest triple (1, 1, 1).

    ``method="fd"`` returns one Richardson level over central differences,
    (4 H(h/2) - H(h)) / 3 with h = 1e-3, as one energy call on the 38
    points of both levels, ``FD_REST_POINTS``, and one product with their
    weights, ``FD_REST_WEIGHTS``, both built at import. The O(h^2)
    truncation cancels; the steps are large because roundoff grows as
    eps / h^2 (at 2e-4 and 1e-4 a near-cancelling Ogden draw lost 1.25e-5
    of its Lame pair).
    """
    if method == "analytic":
        return model.hessian(_REST)
    if method == "fd":
        return FD_REST_WEIGHTS @ model.energy(FD_REST_POINTS)
    raise InvalidParameterError(f"unknown extraction method '{method}'")


def extract_lame(model, method="analytic", allow_rest_stress=False):
    """Extract (lambda_lame, mu_lame) from a material's rest Hessian.

    Parameters
    ----------
    model : MaterialModel
    method : {"analytic", "fd"}
        ``analytic`` uses the family's closed form when available,
        otherwise the analytic stretch-Hessian; ``fd`` differentiates the
        energy directly (Richardson-extrapolated central differences at
        steps 1e-3 and 5e-4 in one energy call, see ``rest_hessian``) and
        is the authority when the two disagree.
    allow_rest_stress : bool
        Permit extraction from models with nonzero rest gradient (the
        Hessian-based definition is still evaluated formally, as the
        closed forms for Ogden and Mooney-Rivlin do). When set, the
        model's rest stability is never evaluated.

    Raises
    ------
    RestInstabilityError
        If the model is not rest-stable and ``allow_rest_stress`` is off.
    """
    if not allow_rest_stress and not model.rest_stable:
        g = model.gradient(_REST)
        raise RestInstabilityError(
            f"{model.family}: rest gradient {g} is nonzero; "
            "pass allow_rest_stress=True to extract formally"
        )
    if method == "analytic":
        closed = model.lame_closed_form()
        if closed is not None:
            return LameParams(float(closed[0]), float(closed[1]))
    return lame_from_hessian(rest_hessian(model, method=method))


def lame_from_hessian(H):
    """(lambda_lame, mu_lame) of a rest stretch-Hessian H, a (3, 3) numpy array.

    lambda_lame is the mean off-diagonal entry and mu_lame half the gap
    between the mean diagonal entry and it.
    """
    (h00, h01, h02), (_, h11, h12), (_, _, h22) = H.tolist()
    lam = (h01 + h02 + h12) / 3.0
    return LameParams(lam, 0.5 * ((h00 + h11 + h22) / 3.0 - lam))


def lame_to_moduli(lame):
    """Convert (lambda_lame, mu_lame) to (E, nu); both must come out finite."""
    lam, mu = lame.lambda_lame, lame.mu_lame
    if mu <= 0.0:
        raise InvalidParameterError(f"mu_lame must be positive, got {mu}")
    den = lam + mu
    if den == 0.0:
        raise InvalidParameterError("degenerate denominator lambda_lame + mu_lame = 0")
    E = mu * (3.0 * lam + 2.0 * mu) / den
    nu = lam / (2.0 * den)
    if not (math.isfinite(E) and math.isfinite(nu)):
        raise InvalidParameterError(f"E and nu must be finite, got E = {E}, nu = {nu} from {lame}")
    return IsotropicModuli(E, nu)


def moduli_to_lame(moduli):
    """Convert (E, nu) to (lambda_lame, mu_lame)."""
    E, nu = moduli.E, moduli.nu
    if not (math.isfinite(E) and math.isfinite(nu)):
        raise InvalidParameterError(f"E and nu must be finite, got E = {E}, nu = {nu}")
    if E <= 0.0:
        raise InvalidParameterError(f"Young's modulus must be positive, got {E}")
    if nu >= 0.5 - 1e-9:
        raise InvalidParameterError(f"nu = {nu} is at the incompressible limit")
    if nu <= -1.0:
        raise InvalidParameterError(f"nu = {nu} must exceed -1")
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    return LameParams(lam, mu)


def pk1_linearize(model):
    """The Linear Corotational material matching a model at rest.

    Its energy is the quadratic Taylor expansion of the input in stretch
    space; applying this twice is a fixed point.
    """
    lame = extract_lame(model)
    return make_material("linear_corotational", {"mu": lame.mu_lame, "lam": lame.lambda_lame})
