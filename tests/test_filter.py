"""Nonlinearity filter: identities, linearization invariance, derivatives."""

import zlib

import numpy as np
import pytest

from stretchlab.errors import DomainViolationError, InvalidParameterError
from stretchlab.fd import fd_hessian
from stretchlab.filtering import filter_nonlinearity
from stretchlab.lame import extract_lame
from stretchlab.materials import make_material, sample_params

from fd_oracle import fd_gradient

FAMILIES = (
    "linear_corotational",
    "st_venant_kirchhoff",
    "hencky",
    "neo_hookean",
    "stable_neo_hookean",
    "sts",
    "arap",
    "symmetric_dirichlet",
    "valanis_landel_new",
)
ALPHAS = (0.5, 1.0, 2.0, 3.0)


def test_alpha_one_is_identity():
    base = make_material("hencky", {"mu": 2.0, "lam": 1.0})
    f = filter_nonlinearity(base, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = rng.uniform(0.5, 2.0, size=3)
        assert f.energy(s) == pytest.approx(base.energy(s), rel=1e-14, abs=1e-14)


def test_corotational_alpha_two_is_stvk():
    base = make_material("linear_corotational", {"mu": 1.3, "lam": 0.7})
    filtered = filter_nonlinearity(base, 2.0)
    stvk = make_material("st_venant_kirchhoff", {"mu": 1.3, "lam": 0.7})
    rng = np.random.default_rng(1)
    for _ in range(100):
        s = rng.uniform(0.5, 2.0, size=3)
        e = stvk.energy(s)
        assert abs(filtered.energy(s) - e) < 1e-10 * max(1.0, abs(e))
        g = stvk.gradient(s)
        assert np.max(np.abs(filtered.gradient(s) - g)) < 1e-10 * max(
            1.0, np.max(np.abs(g))
        )
        H = stvk.hessian(s)
        assert np.max(np.abs(filtered.hessian(s) - H)) < 1e-10 * max(
            1.0, np.max(np.abs(H))
        )


@pytest.mark.parametrize("alpha", (0.5, 1.5, 2.0, 3.0))
def test_corotational_filtered_is_seth_hill(alpha):
    base = make_material("linear_corotational", {"mu": 0.9, "lam": 1.4})
    filtered = filter_nonlinearity(base, alpha)
    sh = make_material("seth_hill", {"mu": 0.9, "lam": 1.4, "alpha": alpha})
    rng = np.random.default_rng(2)
    for _ in range(100):
        s = rng.uniform(0.5, 2.0, size=3)
        e = sh.energy(s)
        assert abs(filtered.energy(s) - e) < 1e-10 * max(1.0, abs(e))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_rest_hessian_invariance(family, alpha):
    rng = np.random.default_rng(zlib.crc32(f"{family}:{alpha}".encode()))
    base = make_material(family, sample_params(family, rng))
    f = filter_nonlinearity(base, alpha)
    l0 = extract_lame(base)
    scale = max(abs(l0.lambda_lame), abs(l0.mu_lame), 1.0)
    # the filtered analytic rest Hessian is the sharp statement
    H = f.hessian(np.ones(3))
    lam1 = float((H[0, 1] + H[0, 2] + H[1, 2]) / 3.0)
    mu1 = 0.5 * (float(np.trace(H)) / 3.0 - lam1)
    assert abs(lam1 - l0.lambda_lame) < 1e-8 * scale
    assert abs(mu1 - l0.mu_lame) < 1e-8 * scale
    # fd cross-check, extrapolated; roundoff still leaves a few 1e-8
    fd = extract_lame(f, method="fd")
    assert abs(fd.lambda_lame - l0.lambda_lame) < 1e-7 * scale
    assert abs(fd.mu_lame - l0.mu_lame) < 1e-7 * scale


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_filtered_derivatives_match_fd(family, alpha):
    # [DERIVED] oracle: finite differences of the filtered energy
    rng = np.random.default_rng(zlib.crc32(f"{family}:{alpha}:1".encode()))
    base = make_material(family, sample_params(family, rng))
    f = filter_nonlinearity(base, alpha)
    for _ in range(25):
        s = rng.uniform(0.5, 2.0, size=3)
        g = f.gradient(s)
        gref = max(1.0, base.modulus_scale, np.max(np.abs(g)))
        assert np.max(np.abs(g - fd_gradient(f.energy, s))) < 1e-5 * gref
        H = f.hessian(s)
        href = max(1.0, base.modulus_scale, np.max(np.abs(H)))
        assert np.max(np.abs(H - fd_hessian(f.energy, s))) < 1e-4 * href


def test_filter_domain_is_positive_stretches():
    base = make_material("st_venant_kirchhoff", {"mu": 1.0, "lam": 1.0})
    f = filter_nonlinearity(base, 1.5)
    with pytest.raises(DomainViolationError):
        f.energy([1.0, 1.0, -0.5])


def test_alpha_validation_and_warning():
    base = make_material("hencky", {"mu": 1.0, "lam": 1.0})
    with pytest.raises(InvalidParameterError):
        filter_nonlinearity(base, 0.0)
    # outside RECOMMENDED_ALPHA_RANGE is advice only: accepted, and with
    # no warning (pytest makes a UserWarning an error, pyproject.toml)
    assert filter_nonlinearity(base, 10.0).params == {"alpha": 10.0}


def test_double_filter_composes_multiplicatively():
    base = make_material("hencky", {"mu": 1.0, "lam": 2.0})
    once = filter_nonlinearity(base, 3.0)
    twice = filter_nonlinearity(filter_nonlinearity(base, 1.5), 2.0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        s = rng.uniform(0.6, 1.7, size=3)
        assert abs(once.energy(s) - twice.energy(s)) < 1e-12 * max(
            1.0, abs(once.energy(s))
        )
