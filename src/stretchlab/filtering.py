"""One-parameter nonlinearity filter.

The filtered energy is psi_alpha(l) = psi(l^alpha) / alpha^2 for
alpha > 0. Its rest Hessian equals the base's, so the Lame parameters
(and hence the small-deformation response) are unchanged, while the
large-deformation response softens for alpha < 1 and stiffens for
alpha > 1.

A material is a list of (coef, alpha, term) entries evaluated as
coef * term(l^alpha) / alpha^2, so :func:`filter_nonlinearity` returns a
plain ``MaterialModel`` whose list is the base's with every exponent
multiplied by alpha; it evaluates nothing itself, and filters compose
multiplicatively. Applied to the Linear Corotational material this is
the Seth-Hill family, which the catalog builds the same way; alpha = 2
gives St. Venant-Kirchhoff.

``RECOMMENDED_ALPHA_RANGE`` is advice: any positive exponent is accepted,
with no warning, which ``python -W error`` would turn into a traceback.
"""

from .errors import InvalidParameterError
from .materials import MaterialModel

__all__ = ["filter_nonlinearity", "RECOMMENDED_ALPHA_RANGE"]

RECOMMENDED_ALPHA_RANGE = (0.2, 4.0)


def filter_nonlinearity(base, alpha):
    """The ``filtered:<base>`` material psi(l^alpha) / alpha^2 for alpha > 0.

    The domain is strictly positive stretches regardless of the base,
    since l^alpha is undefined for negative l and non-integer alpha. The
    base's closed-form Lame pair carries over only when its rest gradient
    vanishes, since only then does the filter preserve the rest Hessian.
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise InvalidParameterError(f"filter exponent must be positive, got {alpha}")
    return MaterialModel(
        f"filtered:{base.family}",
        {"alpha": alpha},
        "positive",
        [(c, a * alpha, term) for c, a, term in base.terms],
        base.modulus_scale,
        base.lame_closed_form() if base.rest_stable else None,
    )
