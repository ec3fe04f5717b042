"""Jets: a value together with its first derivatives along a curve.

Arithmetic follows the Leibniz/quotient rules truncated at order 2 (``Jet2``)
or order 1 (``Jet1``), so evaluating any rational expression with jet-valued
inputs yields the value and the first (and second) t-derivative of that
expression along the curve.  ``Jet1`` carries the oracle's exact Toda check,
the flow checks of ``maps``, ``systems`` and ``painleve`` and the partials of
``hamiltonians``: binding each coordinate to (value, rate) makes the curve a
flow line, so y''' of a PV solution is the rate of y'' = PV_RHS on the jets
(y, y') and (y', y''), and binding one coordinate c to (c, 1) makes dH/dc the
rate of H.
``Jet2`` carries ``painleve``'s order-2 transports of PV jets.

Both orders treat a scalar the same way: it is a constant, mixes in without
being lifted to a jet, meets the value slot alone in a sum and scales every
slot in a product or quotient.  No zero slot is made for it, so the float
bits are those of the slotwise operations on the bound values.

These classes are the arithmetic of record.  ``Expr.evaluate`` applies them
to float jets, and a binding with any float slot rounds every exact slot of
its jets and scalars first.  For jets whose slots are all ints or
``Fraction``s (with int or ``Fraction`` parameters) it runs the same rules
on unreduced integers in a generated kernel (see ``krawpv.expr``): a
quotient there multiplies by the conjugate c of the divisor u, with u·c = s
a scalar: c = (u₀, −u₁) and s = u₀² for ``Jet1``, c = (u₀², −u₀u₁,
2u₁² − u₀u₂) and s = u₀³ for ``Jet2``.  It returns the jets these classes
would on the slots with ints read as ``Fraction``s, slot for slot.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

ScalarLike = Union[int, Fraction, float]


class JetDivisionError(ZeroDivisionError):
    """Division by a jet whose value slot is zero."""


_SCALARS = (int, Fraction, float)


class Jet2:
    """Order-2 jet ``(v, d1, d2)``: a value and its first two t-derivatives."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v: ScalarLike, d1: ScalarLike, d2: ScalarLike):
        self.v = v
        self.d1 = d1
        self.d2 = d2

    @staticmethod
    def constant(v: ScalarLike) -> "Jet2":
        return Jet2(v, 0 * v, 0 * v)

    @staticmethod
    def variable(v: ScalarLike) -> "Jet2":
        """Jet of the curve parameter itself: (v, 1, 0)."""
        one = 1.0 if isinstance(v, float) else Fraction(1)
        return Jet2(v, one, 0 * one)

    def __repr__(self) -> str:
        return f"Jet2(v={self.v!r}, d1={self.d1!r}, d2={self.d2!r})"

    def __neg__(self) -> "Jet2":
        return Jet2(-self.v, -self.d1, -self.d2)

    def __add__(self, o):
        if isinstance(o, Jet2):
            return Jet2(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)
        if isinstance(o, _SCALARS):
            return Jet2(self.v + o, self.d1, self.d2)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Jet2):
            return Jet2(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)
        if isinstance(o, _SCALARS):
            return Jet2(self.v - o, self.d1, self.d2)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _SCALARS):
            return Jet2(o - self.v, -self.d1, -self.d2)
        return NotImplemented

    def __mul__(self, o):
        if isinstance(o, Jet2):
            return Jet2(
                self.v * o.v,
                self.d1 * o.v + self.v * o.d1,
                self.d2 * o.v + 2 * self.d1 * o.d1 + self.v * o.d2,
            )
        if isinstance(o, _SCALARS):
            return Jet2(self.v * o, self.d1 * o, self.d2 * o)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Jet2):
            if o.v == 0:
                raise JetDivisionError("jet division by zero value slot")
            q0 = self.v / o.v
            q1 = (self.d1 - q0 * o.d1) / o.v
            return Jet2(q0, q1, (self.d2 - q0 * o.d2 - 2 * q1 * o.d1) / o.v)
        if isinstance(o, _SCALARS):
            if o == 0:
                raise JetDivisionError("jet division by zero value slot")
            return Jet2(self.v / o, self.d1 / o, self.d2 / o)
        return NotImplemented

    def __rtruediv__(self, o):
        if not isinstance(o, _SCALARS):
            return NotImplemented
        if self.v == 0:
            raise JetDivisionError("jet division by zero value slot")
        q0 = o / self.v
        q1 = -q0 * self.d1 / self.v
        return Jet2(q0, q1, (-q0 * self.d2 - 2 * q1 * self.d1) / self.v)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        one = 1.0 if isinstance(self.v, float) else Fraction(1)
        result, base = Jet2(one, 0 * one, 0 * one), self
        while k:  # repeated squaring
            if k & 1:
                result = result * base
            base, k = base * base, k >> 1
        return result

    def __eq__(self, o):
        if isinstance(o, Jet2):
            return self.v == o.v and self.d1 == o.d1 and self.d2 == o.d2
        if isinstance(o, _SCALARS):
            return self.v == o and self.d1 == 0 and self.d2 == 0
        return NotImplemented


class Jet1:
    """Order-1 jet (dual number): the truncation of ``Jet2`` to ``(v, d1)``.

    For code that needs only d/dt: a product costs three multiplications,
    against six for ``Jet2``.
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


def slots(x) -> tuple:
    """The slots of a jet, ``(v, d1)`` or ``(v, d1, d2)``; a scalar is its own one slot."""
    if isinstance(x, Jet1):
        return (x.v, x.d1)
    return (x.v, x.d1, x.d2) if isinstance(x, Jet2) else (x,)
