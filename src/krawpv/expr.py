"""Immutable rational expression trees over named symbols.

Nodes are constants, symbols, sums, differences, negations, products,
quotients and nonnegative integer powers.  There is no simplification and no
normal form: semantic identities are established elsewhere by exact
evaluation at random rational points.  Evaluation is generic in the bound
values, so the same tree evaluates over Fractions, floats or order-2 jets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

from .jets import Jet2

Value = Union[int, Fraction, float, Jet2]


class ExprError(Exception):
    pass


class UnboundSymbolError(ExprError):
    pass


class EvaluationDivisionError(ExprError, ZeroDivisionError):
    """Division by zero while evaluating; carries the offending subtree."""

    def __init__(self, subtree: "Expr"):
        super().__init__(f"division by zero in {subtree.to_prefix()}")
        self.subtree = subtree


def as_expr(x) -> "Expr":
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    raise TypeError(f"cannot convert {x!r} to Expr")


@dataclass(frozen=True)
class Expr:
    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ExprError("only nonnegative integer powers are supported")
        return Pow(self, k)

    def __neg__(self):
        return Neg(self)

    # --- core operations -------------------------------------------------

    def evaluate(self, env: Mapping[str, Value]) -> Value:
        raise NotImplementedError

    def diff(self, name: str) -> "Expr":
        raise NotImplementedError

    def subs(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        raise NotImplementedError

    def symbols(self) -> frozenset:
        raise NotImplementedError

    def to_prefix(self) -> str:
        raise NotImplementedError

    def as_num_den(self) -> Tuple["Expr", "Expr"]:
        """Structurally clear nested fractions; returns (numerator, denominator).

        No cancellation is performed; the pair is only guaranteed to satisfy
        num/den == self wherever both are defined.
        """
        raise NotImplementedError


ONE = None  # set below
ZERO = None


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def evaluate(self, env):
        return self.value

    def diff(self, name):
        return ZERO

    def subs(self, mapping):
        return self

    def symbols(self):
        return frozenset()

    def to_prefix(self):
        return str(self.value)

    def as_num_den(self):
        return self, ONE


@dataclass(frozen=True)
class Sym(Expr):
    name: str

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise UnboundSymbolError(f"unbound symbol {self.name!r}") from None

    def diff(self, name):
        return ONE if name == self.name else ZERO

    def subs(self, mapping):
        return mapping.get(self.name, self)

    def symbols(self):
        return frozenset({self.name})

    def to_prefix(self):
        return self.name

    def as_num_den(self):
        return self, ONE


def _is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def evaluate(self, env):
        return self.a.evaluate(env) + self.b.evaluate(env)

    def diff(self, name):
        return Add(self.a.diff(name), self.b.diff(name))

    def subs(self, mapping):
        return Add(self.a.subs(mapping), self.b.subs(mapping))

    def symbols(self):
        return self.a.symbols() | self.b.symbols()

    def to_prefix(self):
        return f"(+ {self.a.to_prefix()} {self.b.to_prefix()})"

    def as_num_den(self):
        na, da = self.a.as_num_den()
        nb, db = self.b.as_num_den()
        if _is_one(da) and _is_one(db):
            return Add(na, nb), ONE
        return Add(Mul(na, db), Mul(nb, da)), Mul(da, db)


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def evaluate(self, env):
        return self.a.evaluate(env) - self.b.evaluate(env)

    def diff(self, name):
        return Sub(self.a.diff(name), self.b.diff(name))

    def subs(self, mapping):
        return Sub(self.a.subs(mapping), self.b.subs(mapping))

    def symbols(self):
        return self.a.symbols() | self.b.symbols()

    def to_prefix(self):
        return f"(- {self.a.to_prefix()} {self.b.to_prefix()})"

    def as_num_den(self):
        na, da = self.a.as_num_den()
        nb, db = self.b.as_num_den()
        if _is_one(da) and _is_one(db):
            return Sub(na, nb), ONE
        return Sub(Mul(na, db), Mul(nb, da)), Mul(da, db)


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr

    def evaluate(self, env):
        return -self.a.evaluate(env)

    def diff(self, name):
        return Neg(self.a.diff(name))

    def subs(self, mapping):
        return Neg(self.a.subs(mapping))

    def symbols(self):
        return self.a.symbols()

    def to_prefix(self):
        return f"(neg {self.a.to_prefix()})"

    def as_num_den(self):
        na, da = self.a.as_num_den()
        return Neg(na), da


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def evaluate(self, env):
        return self.a.evaluate(env) * self.b.evaluate(env)

    def diff(self, name):
        return Add(Mul(self.a.diff(name), self.b), Mul(self.a, self.b.diff(name)))

    def subs(self, mapping):
        return Mul(self.a.subs(mapping), self.b.subs(mapping))

    def symbols(self):
        return self.a.symbols() | self.b.symbols()

    def to_prefix(self):
        return f"(* {self.a.to_prefix()} {self.b.to_prefix()})"

    def as_num_den(self):
        na, da = self.a.as_num_den()
        nb, db = self.b.as_num_den()
        if _is_one(da) and _is_one(db):
            return Mul(na, nb), ONE
        return Mul(na, nb), Mul(da, db)


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr

    def evaluate(self, env):
        den = self.b.evaluate(env)
        num = self.a.evaluate(env)
        try:
            return num / den
        except ZeroDivisionError:
            raise EvaluationDivisionError(self.b) from None

    def diff(self, name):
        return Div(
            Sub(Mul(self.a.diff(name), self.b), Mul(self.a, self.b.diff(name))),
            Pow(self.b, 2),
        )

    def subs(self, mapping):
        return Div(self.a.subs(mapping), self.b.subs(mapping))

    def symbols(self):
        return self.a.symbols() | self.b.symbols()

    def to_prefix(self):
        return f"(/ {self.a.to_prefix()} {self.b.to_prefix()})"

    def as_num_den(self):
        na, da = self.a.as_num_den()
        nb, db = self.b.as_num_den()
        return Mul(na, db) if not _is_one(db) else na, Mul(da, nb) if not _is_one(da) else nb


@dataclass(frozen=True)
class Pow(Expr):
    a: Expr
    k: int

    def evaluate(self, env):
        return self.a.evaluate(env) ** self.k

    def diff(self, name):
        if self.k == 0:
            return ZERO
        return Mul(Mul(Const(Fraction(self.k)), Pow(self.a, self.k - 1)), self.a.diff(name))

    def subs(self, mapping):
        return Pow(self.a.subs(mapping), self.k)

    def symbols(self):
        return self.a.symbols()

    def to_prefix(self):
        return f"(^ {self.a.to_prefix()} {self.k})"

    def as_num_den(self):
        na, da = self.a.as_num_den()
        if _is_one(da):
            return Pow(na, self.k), ONE
        return Pow(na, self.k), Pow(da, self.k)


ONE = Const(Fraction(1))
ZERO = Const(Fraction(0))


def syms(names: str) -> Tuple[Sym, ...]:
    """Create symbols from a whitespace-separated name list."""
    return tuple(Sym(nm) for nm in names.split())


def compile_float(e: Expr, arg_names) -> "callable":
    """Compile an expression to a float-mode callable of the given arguments.

    Used by the ODE integrator, where tree-walking per right-hand-side call
    would dominate the runtime.
    """
    src = _pysrc(e)
    code = "def _f({}):\n    return {}".format(", ".join(arg_names), src)
    ns: Dict[str, object] = {}
    exec(code, ns)  # noqa: S102 - generated from our own tree
    return ns["_f"]


def _pysrc(e: Expr) -> str:
    if isinstance(e, Const):
        return f"({e.value.numerator}/{e.value.denominator})"
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Add):
        return f"({_pysrc(e.a)}+{_pysrc(e.b)})"
    if isinstance(e, Sub):
        return f"({_pysrc(e.a)}-{_pysrc(e.b)})"
    if isinstance(e, Neg):
        return f"(-{_pysrc(e.a)})"
    if isinstance(e, Mul):
        return f"({_pysrc(e.a)}*{_pysrc(e.b)})"
    if isinstance(e, Div):
        return f"({_pysrc(e.a)}/{_pysrc(e.b)})"
    if isinstance(e, Pow):
        return f"({_pysrc(e.a)}**{e.k})"
    raise TypeError(type(e))
