"""Stretch-based hyperelastic materials with tunable small- and
large-deformation behavior.

The library evaluates a catalog of isotropic energies in principal
stretch space, defines and extracts Lame parameters from the rest
stretch-Hessian, normalizes any family to target moduli, applies a
linearization-preserving nonlinearity filter, recombines lambda/mu
energy parts across families, and verifies everything with a finite
difference oracle and a small tetrahedral quasi-static FEM lab.
"""

from .errors import (
    ConvergenceError,
    DomainViolationError,
    InvalidParameterError,
    InvertedElementError,
    NonSeparableFamilyError,
    RestInstabilityError,
    StretchlabError,
    UnreachableTargetError,
)
from .stretch_core import RotationVariantSVD, assemble_pk1, decompose
from .profiles import Profile, get_profile
from .materials import (
    MaterialModel,
    catalog_families,
    list_catalog,
    make_material,
    sample_params,
)
from .fd import fd_gradient, fd_hessian
from .lame import (
    IsotropicModuli,
    LameParams,
    extract_lame,
    lame_to_moduli,
    moduli_to_lame,
    normalize,
    pk1_linearize,
)
from .filtering import filter_nonlinearity
from .compose import (
    EnergyPart,
    augment_volumetric,
    combine,
    decompose as decompose_energy,
    unit_part,
    volumetric_part,
)

__version__ = "0.1.0"
