"""Term kinds: the building blocks of stretch-space energies.

A term is a symmetric function of the three principal stretches l built
on 1-D profiles (value, d1, d2; see ``profiles``). Its ``value``,
``grad`` and ``hess`` methods take the triple as ``x``, which is l itself
or, under the nonlinearity filter, l^alpha. The four kinds are

- ``Separable(w)``     sum_i w(l_i)
- ``Volumetric(h)``    h(J), J = l_1 l_2 l_3
- ``HillCoupling(f)``  (sum_i f(l_i))^2
- ``Pair(g)``          sum_{i<j} g(l_i l_j)

and ``Product(a, b)`` of two terms, which gives the Mooney-Rivlin terms
J^(-2k/3) (I_k - 3). Each rule is written once, with numpy over the last
axis: ``x`` is one triple of shape (3,) or a stack of shape (..., 3), and
``value``, ``grad`` and ``hess`` return shapes (...), (..., 3) and
(..., 3, 3). Materials weight and filter terms (see ``materials``).
"""

from dataclasses import dataclass

import numpy as np

from .profiles import Profile

__all__ = ["Separable", "Volumetric", "HillCoupling", "Pair", "Product"]

_EYE = np.eye(3)
_OFF = 1.0 - _EYE
# index arrays: the other two stretches of each component, the third
# stretch of each off-diagonal pair (i, j), and the pairs i < j
_OTHER1, _OTHER2 = np.array([1, 0, 0]), np.array([2, 2, 1])
_THIRD = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
_PAIR_I, _PAIR_J = np.array([0, 0, 1]), np.array([1, 2, 2])


def _total(v):
    """Sum over the last axis, left to right: what ``v.sum(axis=-1)`` gives,
    at a fraction of its cost, which grows with the rows."""
    return (v[..., 0] + v[..., 1]) + v[..., 2]


def _volume(x):
    """J = l_1 l_2 l_3 of each triple."""
    return x[..., 0] * x[..., 1] * x[..., 2]


def _lift(v, axes=1):
    """A per-triple scalar (...) made to broadcast against (..., 3) (axes=1)
    or (..., 3, 3) (axes=2)."""
    return v[(Ellipsis,) + (None,) * axes]


def _diag(v):
    """The diagonal matrices of v (..., 3)."""
    return v[..., None, :] * _EYE


def _outer(a, b):
    """a_i b_j over the last axis."""
    return a[..., :, None] * b[..., None, :]


@dataclass(frozen=True)
class Separable:
    """sum_i w(l_i)."""

    w: Profile

    def value(self, x):
        return _total(self.w.value(x))

    def grad(self, x):
        return self.w.d1(x)

    def hess(self, x):
        return _diag(self.w.d2(x))


@dataclass(frozen=True)
class Volumetric:
    """h(J); dJ/dl_i is the product of the other two stretches."""

    h: Profile

    def value(self, x):
        return self.h.value(_volume(x))

    def grad(self, x):
        return _lift(self.h.d1(_volume(x))) * (x[..., _OTHER1] * x[..., _OTHER2])

    def hess(self, x):
        J = _lift(_volume(x), 2)
        a = x[..., _OTHER1] * x[..., _OTHER2]
        return self.h.d2(J) * _outer(a, a) + self.h.d1(J) * (x[..., _THIRD] * _OFF)


@dataclass(frozen=True)
class HillCoupling:
    """(sum_i f(l_i))^2."""

    f: Profile

    def value(self, x):
        return _total(self.f.value(x)) ** 2

    def grad(self, x):
        return 2.0 * _lift(_total(self.f.value(x))) * self.f.d1(x)

    def hess(self, x):
        fp = self.f.d1(x)
        S = _lift(_total(self.f.value(x)), 2)
        return 2.0 * (_outer(fp, fp) + S * _diag(self.f.d2(x)))


@dataclass(frozen=True)
class Pair:
    """sum_{i<j} g(l_i l_j)."""

    g: Profile

    def value(self, x):
        return _total(self.g.value(x[..., _PAIR_I] * x[..., _PAIR_J]))

    def grad(self, x):
        return ((self.g.d1(_outer(x, x)) * _OFF) @ x[..., None])[..., 0]

    def hess(self, x):
        P = _outer(x, x)
        d1, d2 = self.g.d1(P) * _OFF, self.g.d2(P) * _OFF
        return d2 * P + d1 + _diag((d2 @ (x * x)[..., None])[..., 0])


@dataclass(frozen=True)
class Product:
    """a(l) b(l) for two terms a and b."""

    a: object
    b: object

    def value(self, x):
        return self.a.value(x) * self.b.value(x)

    def grad(self, x):
        va, vb = _lift(self.a.value(x)), _lift(self.b.value(x))
        return self.a.grad(x) * vb + va * self.b.grad(x)

    def hess(self, x):
        va, vb = _lift(self.a.value(x), 2), _lift(self.b.value(x), 2)
        cross = _outer(self.a.grad(x), self.b.grad(x))
        # cross + cross^T as one sum: every entry rounds as its mirror does
        return self.a.hess(x) * vb + (cross + cross.swapaxes(-1, -2)) + va * self.b.hess(x)
