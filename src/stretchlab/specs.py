"""JSON material specifications.

A material spec is either

    {"family": "<id>", "params": {...}, "alpha": <number, optional>}

or a composition

    {"combine": {"mu_part": <spec>,
                 "lambda_part": "j_minus_1_sq" | "log_j_sq" | <spec>,
                 "E": ..., "nu": ...,
                 "alpha_mu": ..., "alpha_lambda": ...}}

Unknown keys are rejected. Part specs naming a separable family
contribute their decomposed part; other families are accepted as a
mu-part when their lambda_lame vanishes (they are rescaled to unit
mu_lame).
"""

from .compose import (
    SEPARABLE_FAMILIES,
    VOLUMETRIC_KINDS,
    EnergyPart,
    LinearCombination,
    combine,
    decompose as decompose_energy,
    volumetric_part,
)
from .errors import InvalidParameterError
from .filtering import filter_nonlinearity
from .lame import IsotropicModuli, extract_lame, moduli_to_lame
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
        return float(value)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{where} must be a number, got {value!r}") from None


def build_material(spec):
    """Construct a MaterialModel from a parsed JSON spec.

    Raises InvalidParameterError for any malformed spec: unknown or
    missing keys, or a value of the wrong type.
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
    return combine(
        mu_part,
        lambda_part,
        target,
        alpha_mu=_number(cspec.get("alpha_mu", 1.0), "combine spec: alpha_mu"),
        alpha_lambda=_number(cspec.get("alpha_lambda", 1.0), "combine spec: alpha_lambda"),
    )


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
    model = make_material(family, params)
    lame = extract_lame(model, allow_rest_stress=True)
    value = lame.mu_lame if kind == "mu" else lame.lambda_lame
    other = lame.lambda_lame if kind == "mu" else lame.mu_lame
    scale = max(1.0, abs(value))
    if abs(other) > 1e-6 * scale or value == 0.0:
        raise InvalidParameterError(
            f"'{family}' does not reduce to a pure {kind}-part (extraction {lame})"
        )
    return EnergyPart(kind, LinearCombination([(1.0 / value, model)]))
