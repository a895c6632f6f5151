"""Closed registry of scalar profile functions.

A profile is a 1-D function with its first and second derivatives, all
evaluated elementwise on floats or numpy arrays. Profiles are the
building blocks of the material term kinds (see ``materials``), and they
parameterize the Hill and Valanis-Landel families. The families' profiles
ship as a named registry (rather than arbitrary callables) so config
files and the CLI can refer to them by string.

Six primitives write out their (value, d1, d2): ``X_MINUS_1`` (x - 1),
``log`` and ``power`` here, and in ``materials`` the volume power x^p,
the Valanis-Landel x log x - x + 1 and the Peng-Landel series. Every
other profile is built from them by three chain rules, each written once:

- ``scaled(c, f)``    c f
- ``plus(f, g)``      f + g
- ``half_square(f)``  (1/2) f^2

x - 1 is not power(1), whose d2 is 0 x^-1: NaN at x = 0, which the
volume J of the unrestricted families can reach.

Naming scheme
-------------
``log``                log(x)                       (Hill contract)
``power:<beta>``       (x^beta - 1)/beta            (Hill contract)
``log_sq``             (1/2) log^2(x)               (well contract)
``j_minus_1_sq``       (1/2) (x - 1)^2              (well contract)
``stretch_well``       x - 1 - log(x)               (well contract)
``power_well:<beta>``  (1/2) ((x^beta - 1)/beta)^2  (well contract)
``scaled:<c>:<name>``  c * <name>

Hill contract: f(1) = 0 and f'(1) = 1.  Well (Valanis-Landel) contract:
f(1) = 0 and f'(1) = 0; all built-in well shapes have f''(1) = 1 so a
``scaled:`` wrapper directly sets the curvature at rest.
"""

import functools
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import InvalidParameterError

__all__ = ["Profile", "get_profile", "half_square", "scaled", "plus", "power", "X_MINUS_1"]

_CONTRACT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Profile:
    """A scalar map with first and second derivatives, elementwise on arrays.

    Profiles compare by identity, so terms over one profile object are
    equal and hash alike.
    """

    name: str
    value: Callable[[float], float] = field(repr=False)
    d1: Callable[[float], float] = field(repr=False)
    d2: Callable[[float], float] = field(repr=False)

    def _check(self, contract, slope):
        """Verify f(1) = 0, f'(1) = slope and return the profile; raise otherwise."""
        if abs(self.value(1.0)) > _CONTRACT_TOL or abs(self.d1(1.0) - slope) > _CONTRACT_TOL:
            raise InvalidParameterError(
                f"profile '{self.name}' violates the {contract} contract f(1)=0, f'(1)={slope}"
            )
        return self

    check_hill = functools.partialmethod(_check, "Hill", 1)
    check_well = functools.partialmethod(_check, "well", 0)

    @functools.cached_property
    def _half_square(self):
        # the closures hold the functions, not the profile: no reference cycle
        v, d1, d2 = self.value, self.d1, self.d2
        return Profile(
            f"half_square:{self.name}",
            lambda x: 0.5 * v(x) ** 2,
            lambda x: v(x) * d1(x),
            lambda x: d1(x) ** 2 + v(x) * d2(x),
        )


def half_square(base):
    """The profile (1/2) base(x)^2.

    It is built once per base and kept on the base, so two terms over one
    base share it, and it lives no longer than the base.
    """
    return base._half_square


def scaled(c, f):
    """The profile c f(x)."""
    return Profile(
        f"scaled:{c:.17g}:{f.name}",
        lambda x: c * f.value(x),
        lambda x: c * f.d1(x),
        lambda x: c * f.d2(x),
    )


def plus(f, g):
    """The profile f(x) + g(x)."""
    return Profile(
        f"{f.name}+{g.name}",
        lambda x: f.value(x) + g.value(x),
        lambda x: f.d1(x) + g.d1(x),
        lambda x: f.d2(x) + g.d2(x),
    )


def power(beta):
    """The profile (x^beta - 1) / beta, registry name ``power:<beta>``."""
    if beta == 0.0:
        raise InvalidParameterError("power profile exponent must be nonzero")
    return Profile(
        f"power:{beta:g}",
        lambda x: (x**beta - 1.0) / beta,
        lambda x: x ** (beta - 1.0),
        lambda x: (beta - 1.0) * x ** (beta - 2.0),
    )


X_MINUS_1 = Profile("x_minus_1", lambda x: x - 1.0, lambda x: 0.0 * x + 1.0, lambda x: 0.0 * x)
_LOG = Profile("log", np.log, lambda x: 1.0 / x, lambda x: -1.0 / x**2)

# the parameter-free profiles, built once, so that terms over one of them
# share one object
_FIXED = {
    p.name: p
    for p in (
        _LOG,
        replace(half_square(_LOG), name="log_sq"),
        replace(half_square(X_MINUS_1), name="j_minus_1_sq"),
        replace(plus(X_MINUS_1, scaled(-1.0, _LOG)), name="stretch_well"),
    )
}


def get_profile(name):
    """Look up a profile by its registry name.

    Parameters
    ----------
    name : str or Profile
        Registry name, e.g. ``"log"``, ``"power:0.5"`` or
        ``"scaled:2.0:log_sq"``. A Profile passes through unchanged.
    """
    if isinstance(name, Profile):
        return name
    if not isinstance(name, str):
        raise InvalidParameterError(f"profile handle must be a string, got {type(name)!r}")
    if name in _FIXED:
        return _FIXED[name]
    if name.startswith("power_well:"):
        beta = _parse_float(name, name.split(":", 1)[1])
        if beta == 0.0:
            raise InvalidParameterError("power_well profile exponent must be nonzero")
        return replace(half_square(power(beta)), name=f"power_well:{beta:g}")
    if name.startswith("power:"):
        return power(_parse_float(name, name.split(":", 1)[1]))
    if name.startswith("scaled:"):
        parts = name.split(":", 2)
        if len(parts) != 3:
            raise InvalidParameterError(f"malformed scaled profile name '{name}'")
        return scaled(_parse_float(name, parts[1]), get_profile(parts[2]))
    raise InvalidParameterError(f"unknown profile '{name}'")


def _parse_float(full, token):
    try:
        return float(token)
    except ValueError:
        raise InvalidParameterError(f"malformed profile name '{full}'") from None
