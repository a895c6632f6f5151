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
J^(-2k/3) (I_k - 3). Each rule is written once, with numpy over the
triple. Materials weight and filter terms (see ``materials``).
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
    """Sum of a 3-vector (ndarray.sum costs several times more at this size)."""
    return sum(v.tolist())


@dataclass(frozen=True)
class Separable:
    """sum_i w(l_i)."""

    w: Profile

    def value(self, x):
        return _total(self.w.value(x))

    def grad(self, x):
        return self.w.d1(x)

    def hess(self, x):
        return self.w.d2(x) * _EYE


@dataclass(frozen=True)
class Volumetric:
    """h(J); dJ/dl_i is the product of the other two stretches."""

    h: Profile

    def value(self, x):
        return self.h.value(x[0] * x[1] * x[2])

    def grad(self, x):
        return self.h.d1(x[0] * x[1] * x[2]) * (x[_OTHER1] * x[_OTHER2])

    def hess(self, x):
        J = x[0] * x[1] * x[2]
        a = x[_OTHER1] * x[_OTHER2]
        return self.h.d2(J) * (a[:, None] * a) + self.h.d1(J) * (x[_THIRD] * _OFF)


@dataclass(frozen=True)
class HillCoupling:
    """(sum_i f(l_i))^2."""

    f: Profile

    def value(self, x):
        return _total(self.f.value(x)) ** 2

    def grad(self, x):
        return 2.0 * _total(self.f.value(x)) * self.f.d1(x)

    def hess(self, x):
        fp = self.f.d1(x)
        return 2.0 * (fp[:, None] * fp + _total(self.f.value(x)) * self.f.d2(x) * _EYE)


@dataclass(frozen=True)
class Pair:
    """sum_{i<j} g(l_i l_j)."""

    g: Profile

    def value(self, x):
        return _total(self.g.value(x[_PAIR_I] * x[_PAIR_J]))

    def grad(self, x):
        return (self.g.d1(x[:, None] * x) * _OFF) @ x

    def hess(self, x):
        P = x[:, None] * x
        d1, d2 = self.g.d1(P) * _OFF, self.g.d2(P) * _OFF
        return d2 * P + d1 + (d2 @ (x * x)) * _EYE


@dataclass(frozen=True)
class Product:
    """a(l) b(l) for two terms a and b."""

    a: object
    b: object

    def value(self, x):
        return self.a.value(x) * self.b.value(x)

    def grad(self, x):
        return self.a.grad(x) * self.b.value(x) + self.a.value(x) * self.b.grad(x)

    def hess(self, x):
        ga, gb = self.a.grad(x), self.b.grad(x)
        cross = ga[:, None] * gb
        return self.a.hess(x) * self.b.value(x) + cross + cross.T + self.a.value(x) * self.b.hess(x)
