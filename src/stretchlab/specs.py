"""JSON material specifications.

A material spec is either

    {"family": "<id>", "params": {...}, "alpha": <number, optional>}

or a composition

    {"combine": {"mu_part": <spec>,
                 "lambda_part": "j_minus_1_sq" | "log_j_sq" | <spec>,
                 "E": ..., "nu": ...,
                 "alpha_mu": ..., "alpha_lambda": ...}}

Unknown keys are rejected. Part specs naming a separable family
contribute their decomposed part; any other family is rescaled to a unit
part by ``compose.unit_part``, which rejects a nonzero other Lame entry
and an own entry <= 0. Every result is a plain ``MaterialModel``.
"""

import math

from .compose import (
    SEPARABLE_FAMILIES,
    VOLUMETRIC_KINDS,
    combine,
    decompose as decompose_energy,
    unit_part,
    volumetric_part,
)
from .errors import InvalidParameterError
from .filtering import filter_nonlinearity
from .lame import IsotropicModuli, moduli_to_lame
from .materials import make_material

__all__ = ["build_material"]


def _check_keys(spec, allowed, where):
    if not isinstance(spec, dict):
        raise InvalidParameterError(f"{where} must be an object, got {type(spec).__name__}")
    unknown = set(spec) - set(allowed)
    if unknown:
        raise InvalidParameterError(f"{where}: unknown keys {sorted(unknown)}")


def _number(value, where):
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{where} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise InvalidParameterError(f"{where} must be finite, got {value!r}")
    return number


def build_material(spec):
    """Construct a MaterialModel from a parsed JSON spec.

    Raises InvalidParameterError for any malformed spec: unknown or
    missing keys, a value of the wrong type, or a non-finite number. A
    part spec that fails the unit-part rule raises as
    ``compose.unit_part`` does.
    """
    if not isinstance(spec, dict):
        raise InvalidParameterError(f"material spec must be an object, got {type(spec).__name__}")
    if "combine" in spec:
        _check_keys(spec, ("combine", "alpha"), "material spec")
        model = _build_combination(spec["combine"])
    else:
        _check_keys(spec, ("family", "params", "alpha"), "material spec")
        if "family" not in spec:
            raise InvalidParameterError("material spec needs 'family' or 'combine'")
        model = make_material(spec["family"], spec.get("params", {}))
    if "alpha" in spec and spec["alpha"] is not None:
        model = filter_nonlinearity(model, _number(spec["alpha"], "alpha"))
    return model


def _build_combination(cspec):
    _check_keys(
        cspec,
        ("mu_part", "lambda_part", "E", "nu", "alpha_mu", "alpha_lambda"),
        "combine spec",
    )
    for key in ("mu_part", "lambda_part", "E", "nu"):
        if key not in cspec:
            raise InvalidParameterError(f"combine spec: missing '{key}'")
    E, nu = (_number(cspec[key], f"combine spec: {key}") for key in ("E", "nu"))
    target = moduli_to_lame(IsotropicModuli(E, nu))
    mu_part = _part_from_spec(cspec["mu_part"], "mu")
    lambda_part = _part_from_spec(cspec["lambda_part"], "lambda")
    keys = ("alpha_mu", "alpha_lambda")
    alphas = {k: _number(cspec.get(k, 1.0), f"combine spec: {k}") for k in keys}
    return combine(mu_part, lambda_part, target, **alphas)


def _part_from_spec(spec, kind):
    if isinstance(spec, str):
        if kind != "lambda" or spec not in VOLUMETRIC_KINDS:
            raise InvalidParameterError(
                f"named parts are the lambda kinds {VOLUMETRIC_KINDS}, got {spec!r} as a {kind}-part"
            )
        return volumetric_part(spec)
    _check_keys(spec, ("family", "params"), f"{kind}-part spec")
    family = spec.get("family")
    params = spec.get("params", {})
    if family in SEPARABLE_FAMILIES:
        lam_part, mu_part = decompose_energy(family, params)
        return lam_part if kind == "lambda" else mu_part
    return unit_part(make_material(family, params), kind)
