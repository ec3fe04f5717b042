"""Jets: a value together with its first derivatives along a curve.

Arithmetic follows the Leibniz/quotient rules truncated at order 2 (``Jet2``)
or order 1 (``Jet1``), so evaluating any rational expression with jet-valued
inputs yields the value and the first (and second) t-derivative of that
expression along the curve.  ``Jet1`` carries the oracle's exact Toda check
and the flow checks of ``maps`` and ``systems``: binding each chart
coordinate to (value, right-hand side) makes the curve a flow line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

ScalarLike = Union[int, Fraction, float]


class JetDivisionError(ZeroDivisionError):
    """Division by a jet whose value slot is zero."""


def _coerce(x) -> "Jet2":
    if isinstance(x, Jet2):
        return x
    if isinstance(x, float):
        # +0.0, what a Fraction(0) slot is in float arithmetic (nan for an infinite
        # x), so a float constant lifts to the bits a Fraction constant did
        zero = abs(0 * x)
        return Jet2(x, zero, zero)
    if isinstance(x, (int, Fraction)):
        return Jet2(x, 0 * x, 0 * x)
    return NotImplemented


@dataclass(frozen=True)
class Jet2:
    v: ScalarLike
    d1: ScalarLike
    d2: ScalarLike

    @staticmethod
    def constant(v: ScalarLike) -> "Jet2":
        return Jet2(v, 0 * v, 0 * v)

    @staticmethod
    def variable(v: ScalarLike) -> "Jet2":
        """Jet of the curve parameter itself: (v, 1, 0)."""
        if isinstance(v, float):
            return Jet2(v, 1.0, 0.0)
        return Jet2(v, Fraction(1), Fraction(0))

    def __neg__(self) -> "Jet2":
        return Jet2(-self.v, -self.d1, -self.d2)

    def __add__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet2(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet2(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet2(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2 * self.d1 * o.d1 + self.v * o.d2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.v == 0:
            raise JetDivisionError("jet division by zero value slot")
        q0 = self.v / o.v
        q1 = (self.d1 - q0 * o.d1) / o.v
        q2 = (self.d2 - q0 * o.d2 - 2 * q1 * o.d1) / o.v
        return Jet2(q0, q1, q2)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        if isinstance(self.v, float):
            result = Jet2(1.0, 0.0, 0.0)
        else:
            result = Jet2(Fraction(1), Fraction(0), Fraction(0))
        base = self
        e = k
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.v == o.v and self.d1 == o.d1 and self.d2 == o.d2


_SCALARS = (int, Fraction, float)


class Jet1:
    """Order-1 jet (dual number): the truncation of ``Jet2`` to ``(v, d1)``.

    For code that needs only d/dt: a product costs three multiplications,
    against six for ``Jet2``.  Scalars mix in without being lifted to jets.
    """

    __slots__ = ("v", "d1")

    def __init__(self, v: ScalarLike, d1: ScalarLike):
        self.v = v
        self.d1 = d1

    @staticmethod
    def variable(v: ScalarLike) -> "Jet1":
        """Jet of the curve parameter itself: (v, 1)."""
        return Jet1(v, 1.0 if isinstance(v, float) else Fraction(1))

    def __neg__(self) -> "Jet1":
        return Jet1(-self.v, -self.d1)

    def __add__(self, o):
        if isinstance(o, Jet1):
            return Jet1(self.v + o.v, self.d1 + o.d1)
        if isinstance(o, _SCALARS):
            return Jet1(self.v + o, self.d1)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Jet1):
            return Jet1(self.v - o.v, self.d1 - o.d1)
        if isinstance(o, _SCALARS):
            return Jet1(self.v - o, self.d1)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _SCALARS):
            return Jet1(o - self.v, -self.d1)
        return NotImplemented

    def __mul__(self, o):
        if isinstance(o, Jet1):
            return Jet1(self.v * o.v, self.d1 * o.v + self.v * o.d1)
        if isinstance(o, _SCALARS):
            return Jet1(self.v * o, self.d1 * o)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Jet1):
            if o.v == 0:
                raise JetDivisionError("jet division by zero value slot")
            q = self.v / o.v
            return Jet1(q, (self.d1 - q * o.d1) / o.v)
        if isinstance(o, _SCALARS):
            if o == 0:
                raise JetDivisionError("jet division by zero value slot")
            return Jet1(self.v / o, self.d1 / o)
        return NotImplemented

    def __rtruediv__(self, o):
        if not isinstance(o, _SCALARS):
            return NotImplemented
        if self.v == 0:
            raise JetDivisionError("jet division by zero value slot")
        q = o / self.v
        return Jet1(q, -q * self.d1 / self.v)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        if k == 0:
            return Jet1(self.v**0, 0 * self.d1)
        p = self.v ** (k - 1)
        return Jet1(p * self.v, k * p * self.d1)


def value(x):
    """The value slot of a jet; a scalar is its own value.  Guards compare this."""
    return x.v if isinstance(x, (Jet1, Jet2)) else x


def rate(x):
    """The d/dt slot of a jet; a scalar is constant, so its rate is a zero of its type."""
    return x.d1 if isinstance(x, (Jet1, Jet2)) else 0 * x
