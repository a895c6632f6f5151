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
inverse of its closed-form Lame pair) and re-exported here. ``verify_table``
checks the fd extraction against every family's closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, RestInstabilityError
from .fd import hessian_stencil
from .materials import catalog_families, make_material, normalize, sample_params, stack

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
    "verify_table",
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
        with np.errstate(all="ignore"):  # overflow gives inf or NaN; the callers reject it
            return FD_REST_WEIGHTS @ model.energy(FD_REST_POINTS)
    raise InvalidParameterError(f"unknown extraction method '{method}'")


@np.errstate(all="ignore")  # overflow gives inf or NaN; the callers reject it
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


# the identity first, then the five other orderings of a triple
_PERMUTATIONS = np.array([(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
_STENCIL = len(FD_REST_POINTS)
# per family: parameter draws, stretch triples per draw, fd Lame closure bound
_DRAWS, _PER_DRAW, _LAME_RTOL = 10, 3, 1e-5


def verify_table(seed=0):
    """Per-family verification report.

    Checks finite-difference Lame extraction against the closed forms
    (``_LAME_RTOL`` relative) on ``_DRAWS`` random valid parameter draws,
    rest stability on as many rest-stable-region draws, and permutation
    symmetry of the energy on ``_PER_DRAW`` triples per draw. Each
    family's draws are made first, in rng-stream order, then evaluated.
    Draws that share a term structure differ only in their coefficients,
    so ``materials.stack`` makes each such group one model with
    coefficient columns: one energy call per group on the fd rest stencil
    followed by each draw's triples under all six orderings, and one
    rest-gradient call per group of rest-stable draws. A group of one
    takes the same path. The closure and symmetry errors of all families
    are then one array expression each. The reports equal those of per-draw
    evaluation to the last bit.
    """
    rng = np.random.default_rng(seed)
    families = catalog_families()
    points = np.empty((_DRAWS, _STENCIL + 6 * _PER_DRAW, 3))
    points[:, :_STENCIL] = FD_REST_POINTS
    e = np.empty((len(families), _DRAWS, points.shape[1]))
    closed = np.empty((len(families), _DRAWS, 2))
    floor = np.empty((len(families), _DRAWS))
    stable = []
    for f, family in enumerate(families):
        models, stable_models, stretches = [], [], []
        for _ in range(_DRAWS):
            models.append(make_material(family, sample_params(family, rng)))
            # uniform on [0.5, 2) below, as rng.uniform draws it: 0.5 + 1.5 u
            stretches.append(rng.random((_PER_DRAW, 3)))
            stable_params = sample_params(family, rng, rest_stable=True)
            stable_models.append(make_material(family, stable_params))
        stretches = 0.5 + 1.5 * np.array(stretches)
        points[:, _STENCIL:] = stretches[:, :, _PERMUTATIONS].reshape(_DRAWS, -1, 3)
        for idx, group in stack(models):
            e[f, idx] = group.energy(points[idx])
        closed[f] = [model.lame_closed_form() for model in models]
        floor[f] = [1e-30 * max(1.0, model.modulus_scale) for model in models]
        stable.append(all(group.rest_stable.all() for _, group in stack(stable_models)))
    # the fd pair per draw: a stacked product may round differently
    rows = e.reshape(-1, e.shape[-1])
    pairs = [lame_from_hessian(FD_REST_WEIGHTS @ row[:_STENCIL]) for row in rows]
    fd = np.array([(p.lambda_lame, p.mu_lame) for p in pairs]).reshape(closed.shape)
    scale = np.maximum(np.abs(closed).max(axis=-1), 1e-30)
    # np.max keeps a NaN error, where Python's max would drop it
    closure = np.max(np.abs(fd - closed) / scale[..., None], axis=(1, 2))
    e = e[..., _STENCIL:].reshape(len(families), _DRAWS, _PER_DRAW, 6)
    ref = np.maximum(np.abs(e[..., :1]), floor[..., None, None])
    sym = np.max(np.abs(e[..., 1:] - e[..., :1]) / ref, axis=(1, 2, 3))
    report = {}
    for family, closure_err, sym_err, family_stable in zip(
        families, closure.tolist(), sym.tolist(), stable
    ):
        closure_ok, sym_ok = closure_err <= _LAME_RTOL, sym_err <= 1e-12
        report[family] = {
            "lame_closure_max_rel_err": closure_err,
            "lame_closure_pass": closure_ok,
            "rest_stable_in_stable_region": family_stable,
            "permutation_symmetry_max_rel_err": sym_err,
            "permutation_symmetry_pass": sym_ok,
            "pass": closure_ok and family_stable and sym_ok,
        }
    return all(entry["pass"] for entry in report.values()), report


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
    if not (math.isfinite(lam) and math.isfinite(mu)):
        raise InvalidParameterError(f"lambda_lame and mu_lame must be finite, got {lam}, {mu}")
    return LameParams(lam, mu)


def pk1_linearize(model):
    """The Linear Corotational material matching a model at rest.

    Its energy is the quadratic Taylor expansion of the input in stretch
    space; applying this twice is a fixed point.
    """
    lame = extract_lame(model)
    return make_material("linear_corotational", {"mu": lame.mu_lame, "lam": lame.lambda_lame})
