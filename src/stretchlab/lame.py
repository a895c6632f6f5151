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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, RestInstabilityError
from .fd import fd_hessian
from .materials import make_material, normalize

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


def rest_hessian(model, method="analytic"):
    """Stretch-Hessian of the energy at the rest triple (1, 1, 1).

    ``method="fd"`` returns one Richardson level over central differences,
    (4 H(h/2) - H(h)) / 3 with h = 2e-4. The O(h^2) truncation cancels,
    and the steps stay large enough that the second differences keep
    their digits against cancellation, which matters for families whose
    rest gradient does not vanish.
    """
    if method == "analytic":
        return model.hessian(_REST)
    if method == "fd":
        coarse = fd_hessian(model.energy, _REST, 2e-4)
        fine = fd_hessian(model.energy, _REST, 1e-4)
        return (4.0 * fine - coarse) / 3.0
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
        steps 2e-4 and 1e-4, see ``rest_hessian``) and is the authority
        when the two disagree.
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
    H = rest_hessian(model, method=method)
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


def pk1_linearize(model, method="analytic"):
    """The Linear Corotational material matching a model at rest.

    Its energy is the quadratic Taylor expansion of the input in stretch
    space; applying this twice is a fixed point.
    """
    lame = extract_lame(model, method=method)
    return make_material("linear_corotational", {"mu": lame.mu_lame, "lam": lame.lambda_lame})
