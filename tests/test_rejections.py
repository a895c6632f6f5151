"""Input that the library rejects, each case with its error type and message.

Every case is reachable from a material spec, a CLI argument or a public
function.
"""

import numpy as np
import pytest

from stretchlab.compose import volumetric_part
from stretchlab.errors import InvalidParameterError, UnreachableTargetError
from stretchlab.fem import generate_mesh
from stretchlab.lame import LameParams, extract_lame, normalize
from stretchlab.materials import make_material
from stretchlab.profiles import get_profile
from stretchlab.specs import build_material
from stretchlab.stretch_core import decompose

SVK_PART = {"family": "st_venant_kirchhoff", "params": {"mu": 1.0, "lam": 1.0}}

CASES = {
    "extract_lame:unknown method": (
        lambda: extract_lame(make_material("arap"), method="spline"),
        InvalidParameterError, "unknown extraction method 'spline'",
    ),
    "volumetric_part:unknown kind": (
        lambda: volumetric_part("cubic"),
        InvalidParameterError, "volumetric kind must be one of ('j_minus_1_sq', 'log_j_sq')",
    ),
    "normalize:zero target mu": (
        lambda: normalize("hencky", LameParams(1.0, 0.0)),
        InvalidParameterError, "target mu_lame must be positive, got 0.0",
    ),
    "normalize:negative target mu": (
        lambda: normalize("hencky", LameParams(1.0, -2.0)),
        InvalidParameterError, "target mu_lame must be positive, got -2.0",
    ),
    "ogden:empty terms": (
        lambda: make_material("ogden", {"terms": []}),
        InvalidParameterError, "ogden: terms must be a nonempty list",
    ),
    "ogden:zero coefficient": (
        lambda: make_material("ogden", {"terms": [[1.0, 2.0], [0.0, -2.0]]}),
        InvalidParameterError, "ogden: coefficients must be nonzero",
    ),
    # mu_lame = m (a - 1) / 2 = 0 at a = 1, so no uniform scaling reaches a target
    "ogden:zero-mu baseline": (
        lambda: normalize("ogden", LameParams(0.0, 1.0), baseline={"terms": [[1.0, 1.0]]}),
        UnreachableTargetError, "baseline ogden terms have zero mu_lame",
    ),
    # c2 = -(3 lambda + 8 mu) / 20 = -c1/2 only at lambda = 2/3 mu
    "normalize:mooney_rivlin off nu = 0.2": (
        lambda: normalize("mooney_rivlin", LameParams(1.5, 1.0)),
        UnreachableTargetError,
        "mooney_rivlin reaches (lambda_lame, mu_lame) = (1.5, 1.0) only with a rest stress: "
        "the gradient of {'c1': 1.0, 'c2': -0.625} at (1, 1, 1) is nonzero",
    ),
    "normalize:rest-stressed ogden baseline": (
        lambda: normalize("ogden", LameParams(0.0, 1.0), baseline={"terms": [[1.0, 3.0]]}),
        UnreachableTargetError,
        "ogden reaches (lambda_lame, mu_lame) = (0.0, 1.0) only with a rest stress: "
        "the gradient of {'terms': [[1.0, 3.0]]} at (1, 1, 1) is nonzero",
    ),
    "normalize:baseline profile off the Hill contract": (
        lambda: normalize("hill", LameParams(1.0, 1.0), baseline={"f": "stretch_well"}),
        InvalidParameterError,
        "hill: profile 'stretch_well' violates the Hill contract f(1)=0, f'(1)=1",
    ),
    # float(True) is 1.0: a JSON true must not pass for a number
    "hencky:boolean parameter": (
        lambda: make_material("hencky", {"mu": True, "lam": 1}),
        InvalidParameterError, "hencky: mu must hold numbers, not booleans",
    ),
    "ogden:boolean in a term": (
        lambda: make_material("ogden", {"terms": [[1.0, 2.0], [False, -2.0]]}),
        InvalidParameterError, "ogden: terms must hold numbers, not booleans",
    ),
    "normalize:boolean baseline": (
        lambda: normalize("seth_hill", LameParams(1.0, 1.0), baseline={"alpha": True}),
        InvalidParameterError, "seth_hill: alpha must hold numbers, not booleans",
    ),
    "profile:power:0": (
        lambda: get_profile("power:0"),
        InvalidParameterError, "power profile exponent must be nonzero",
    ),
    "profile:power_well:0": (
        lambda: get_profile("power_well:0"),
        InvalidParameterError, "power_well profile exponent must be nonzero",
    ),
    "profile:malformed scaled": (
        lambda: get_profile("scaled:2"),
        InvalidParameterError, "malformed scaled profile name 'scaled:2'",
    ),
    "profile:power:0 in a spec": (
        lambda: make_material("valanis_landel_new", {"f": "power:0", "h": "log_sq"}),
        InvalidParameterError, "valanis_landel_new: power profile exponent must be nonzero",
    ),
    "seth_hill:zero alpha": (
        lambda: make_material("seth_hill", {"mu": 1.0, "lam": 1.0, "alpha": 0.0}),
        InvalidParameterError, "seth_hill: alpha must be nonzero (alpha -> 0 is hencky)",
    ),
    "spec:not an object": (
        lambda: build_material(["hencky"]),
        InvalidParameterError, "material spec must be an object, got list",
    ),
    "spec:neither family nor combine": (
        lambda: build_material({"alpha": 2.0}),
        InvalidParameterError, "material spec needs 'family' or 'combine'",
    ),
    "spec:combine without nu": (
        lambda: build_material(
            {"combine": {"mu_part": SVK_PART, "lambda_part": "j_minus_1_sq", "E": 1e5}}
        ),
        InvalidParameterError, "combine spec: missing 'nu'",
    ),
    "spec:named mu-part": (
        lambda: build_material(
            {"combine": {"mu_part": "j_minus_1_sq", "lambda_part": "j_minus_1_sq",
                         "E": 1e5, "nu": 0.3}}
        ),
        InvalidParameterError,
        "named parts are the lambda kinds ('j_minus_1_sq', 'log_j_sq'), "
        "got 'j_minus_1_sq' as a mu-part",
    ),
    "generate_mesh:zero resolution": (
        lambda: generate_mesh("cube", 0),
        ValueError, "resolution must be >= 1",
    ),
    "decompose:nan": (
        lambda: decompose(np.diag([1.0, np.nan, 1.0])),
        ValueError, "deformation gradient has non-finite entries",
    ),
    "decompose:inf": (
        lambda: decompose(np.full((3, 3), np.inf)),
        ValueError, "deformation gradient has non-finite entries",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_rejects_with_its_error_and_message(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as excinfo:
        call()
    assert excinfo.type is error
    assert str(excinfo.value) == message
