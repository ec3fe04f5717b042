"""Immutable rational expression trees over named symbols.

Nodes are constants, symbols, sums, differences, negations, products,
quotients and nonnegative integer powers.  There is no simplification and no
normal form: semantic identities are established elsewhere by exact
evaluation at random rational points.  The same tree evaluates over
Fractions and ints, or over floats, as scalars or as jets of either order.

Every operation on a tree runs on one walk, ``_walk``: it visits each node
object once, iteratively in post-order with a quotient's denominator before
its numerator, and applies one rule to each node and its operands' results.
``diff``, ``subs``, ``symbols``, ``to_prefix`` and ``as_num_den`` are such
rules, each dispatching on the node type, and so is the compiler's schedule
below.  A subtree shared by reference is handled once, and deep trees hit no
recursion limit.  Trees define no ``==``: two are equal only as one object.

Evaluation is compiled.  The first ``evaluate`` call on a node turns its tree
into one straight-line Python function and caches it on that instance (no
global cache; an equal tree built elsewhere compiles again).  The generator
takes the nodes in the walk's order, gives structurally equal subtrees one
slot (common subexpression elimination, CSE) and folds constant subtrees
exactly, so each unique subtree costs one statement and deep trees hit no
parenthesis limit.  The bindings choose one of two arithmetic domains, each
with kernels generated from that one slot order:

* exact, when every slot of every bound value is an ``int`` (read as n/1) or
  a ``Fraction`` and the jets share one order: the rational kernel.  It runs
  on unreduced integers, takes no gcd per node and builds one ``Fraction``
  per output slot at the end.  A slot is an integer numerator/denominator
  pair, or, when it depends on a symbol bound to a jet of order k
  (``Jet1``, k = 1, or ``Jet2``, k = 2), k + 1 integer numerators over one
  shared denominator; there is one kernel per binding shape (the jet order
  of each symbol).  The Leibniz rule is expanded when the kernel is
  generated, and a quotient by a jet multiplies by its conjugate (b·c a
  scalar, b₀^(k+1));
* float, when every slot is a float: ``compile_float``'s function for the
  symbols in schedule order, which applies Python's operators with the
  constants rounded to float.  A ``Fraction`` constant met by a float
  computes ``float(c) op x``, and a jet meets a constant slot by slot
  without lifting it, so rounding ``c`` first gives the same bits.

The function itself reads the bindings and runs the scalar rational kernel
when every symbol is bound to exactly a ``Fraction``; ``_domain`` classifies
any other binding, and the kernel it picks is generated on first use and
cached on the instance beside the function.  A symbol missing from the
bindings raises ``UnboundSymbolError`` before any arithmetic, naming the
first missing symbol in the walk's order.  Any other binding, jets of two
orders or an exact slot beside a float one, raises ``TypeError``.

The rational kernel returns the rational numbers, slot for slot, that a
recursive tree walk computes on the bindings with ints read as Fractions:
only the time of reduction moves, so an identity certified at a random
rational point keeps its Schwartz-Zippel error bound.  Among bound values
the first error raised is the walk's too (``tests/test_expr.py`` keeps that
walk as the reference), because in both domains the first occurrence of each
subtree runs at its post-order position: a vanishing denominator (for a jet,
its value slot) raises ``EvaluationDivisionError`` carrying that
denominator's subtree.  ``compile_float`` uses the same generator with
positional float arguments and float constants for the ODE integrator.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from .jets import Jet1, Jet2, slots

Value = Union[int, Fraction, float, Jet1, Jet2]


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


@dataclass(frozen=True, eq=False)
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

    _evaluator = None  # compiled on the first evaluate call; not a dataclass field

    def evaluate(self, env: Mapping[str, Value]) -> Value:
        fn = self._evaluator
        if fn is None:
            fn = _compile_evaluate(self)
            object.__setattr__(self, "_evaluator", fn)
        return fn(env, self)

    def diff(self, name: str) -> "Expr":
        """d/d``name`` as a tree; only the benchmark's ``diff_catalogue`` probe calls it."""
        return _walk(self, partial(_diff, name))

    def subs(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Simultaneous substitution; every operator node is built anew."""
        return _walk(self, partial(_subs, mapping))

    def symbols(self) -> frozenset:
        return _walk(self, _symbols)

    def to_prefix(self) -> str:
        return _walk(self, _prefix)

    def as_num_den(self) -> Tuple["Expr", "Expr"]:
        """Structurally clear nested fractions; returns (numerator, denominator).

        No cancellation is performed; the pair is only guaranteed to satisfy
        num/den == self wherever both are defined.
        """
        return _walk(self, _num_den)


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: Fraction


@dataclass(frozen=True, eq=False)
class Sym(Expr):
    name: str


@dataclass(frozen=True, eq=False)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True, eq=False)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False)
class Pow(Expr):
    a: Expr
    k: int


ONE = Const(Fraction(1))
ZERO = Const(Fraction(0))


def syms(names: str) -> Tuple[Sym, ...]:
    """Create symbols from a whitespace-separated name list."""
    return tuple(Sym(nm) for nm in names.split())


def compile_float(e: Expr, arg_names) -> Callable[..., float]:
    """Compile an expression to a float-mode callable of the given arguments.

    Used by the ODE integrator, where the per-call overhead of reading a
    binding dictionary would dominate the runtime, and by ``evaluate`` for
    bindings in the float domain.  Constant subtrees are folded exactly and
    rounded once.  The function is cached on ``e`` by argument list, so a
    tree integrated again compiles once.
    """
    key = tuple(arg_names)
    fns = vars(e).setdefault("_float_fns", {})  # on the instance, as evaluate's function
    if key in fns:
        return fns[key]
    position = {name: j for j, name in enumerate(key)}
    slots = _schedule(e)
    names = []
    for i, slot in enumerate(slots):
        if slot.kind == "const":
            names.append(f"({float(slot.value)!r})")
        elif slot.kind == "sym":
            if slot.node.name not in position:
                raise UnboundSymbolError(f"unbound symbol {slot.node.name!r}")
            names.append(f"a{position[slot.node.name]}")
        else:
            names.append(f"v{i}")
    body = _operator_kernel(slots, names) + [f"return {names[-1]}"]
    params = ", ".join(f"a{j}" for j in range(len(key)))
    fn = fns[key] = _define("compiled_float", params, body, _namespace(slots))
    return fn


# --- the tree walk ---------------------------------------------------------


def _operands(e: Expr) -> Tuple[Expr, ...]:
    if isinstance(e, (Add, Sub, Mul, Div)):
        return e.a, e.b
    if isinstance(e, (Neg, Pow)):
        return (e.a,)
    if isinstance(e, (Const, Sym)):
        return ()
    raise TypeError(type(e))


def _walk(root: Expr, rule: Callable[[Expr, list], object]):
    """Fold ``rule`` over the tree of ``root`` and return its result for ``root``.

    Iterative post-order, a Div's denominator before its numerator, so that
    ``rule(node, results)`` runs in the order a recursive tree walk finishes
    the nodes; ``results`` holds the rule's results for the node's operands
    in field order (a, b).  Each node object is visited once: a subtree
    shared by reference is folded once and its result reused.
    """
    done: Dict[int, object] = {}
    stack = [(root, None)]  # (node, None) to visit, (node, operands) to finish
    while stack:
        node, kids = stack.pop()
        if kids is None:
            if id(node) in done:
                continue
            kids = _operands(node)
            if kids:
                stack.append((node, kids))
                stack.extend([(kid, None) for kid in (kids if isinstance(node, Div) else kids[::-1])])
                continue
        done[id(node)] = rule(node, [done[id(kid)] for kid in kids])
    return done[id(root)]


def _node_key(node: Expr, args) -> tuple:
    """What identifies ``node`` given the results ``args`` of a fold for its operands.

    With structure-determined results for the operands (their slots), equal
    keys mean structurally equal subtrees.
    """
    if isinstance(node, Const):
        return Const, node.value
    if isinstance(node, Sym):
        return Sym, node.name
    return type(node), tuple(args), node.k if isinstance(node, Pow) else None


def _is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1


def _diff(name: str, e: Expr, d: list) -> Expr:
    """d/d``name`` of ``e``, given the derivatives ``d`` of its operands."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.name == name else ZERO
    if isinstance(e, (Add, Sub, Neg)):
        return type(e)(*d)
    if isinstance(e, Mul):
        return Add(Mul(d[0], e.b), Mul(e.a, d[1]))
    if isinstance(e, Div):
        return Div(Sub(Mul(d[0], e.b), Mul(e.a, d[1])), Pow(e.b, 2))
    if e.k == 0:
        return ZERO
    return Mul(Mul(Const(Fraction(e.k)), Pow(e.a, e.k - 1)), d[0])


def _subs(mapping: Mapping[str, Expr], e: Expr, r: list) -> Expr:
    if isinstance(e, Const):
        return e
    if isinstance(e, Sym):
        return mapping.get(e.name, e)
    if isinstance(e, Pow):
        return Pow(r[0], e.k)
    return type(e)(*r)


def _symbols(e: Expr, r: list) -> frozenset:
    if isinstance(e, Sym):
        return frozenset({e.name})
    return frozenset().union(*r)


def _prefix(e: Expr, r: list) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Pow):
        return f"(^ {r[0]} {e.k})"
    return f"({'neg' if isinstance(e, Neg) else _INFIX[type(e)]} {' '.join(r)})"


def _num_den(e: Expr, r: list) -> Tuple[Expr, Expr]:
    """(numerator, denominator) of ``e``, given those of its operands."""
    if isinstance(e, (Const, Sym)):
        return e, ONE
    na, da = r[0]
    if isinstance(e, Neg):
        return Neg(na), da
    if isinstance(e, Pow):
        return Pow(na, e.k), ONE if _is_one(da) else Pow(da, e.k)
    nb, db = r[1]
    if isinstance(e, Div):
        return na if _is_one(db) else Mul(na, db), nb if _is_one(da) else Mul(da, nb)
    if _is_one(da) and _is_one(db):
        return type(e)(na, nb), ONE
    if isinstance(e, Mul):
        return Mul(na, nb), Mul(da, db)
    return type(e)(Mul(na, db), Mul(nb, da)), Mul(da, db)


# --- code generation -------------------------------------------------------


class _Slot(NamedTuple):
    """One unique subtree: "const" (folded value), "sym", "op" or "raise"."""

    kind: str
    node: Expr
    args: Tuple[int, ...]  # operand slots, in field order (a, b)
    value: Optional[Fraction] = None


_FOLD = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv,
         Neg: operator.neg}
_INFIX = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_INT_LITERAL = re.compile(r"\(-?\d+\)")  # how the rational kernel writes a constant


def _schedule(root: Expr) -> List[_Slot]:
    """The unique subtrees of ``root`` in the order a tree walk first finishes them.

    Structurally equal subtrees share the slot of their first occurrence, and
    a subtree without symbols is folded to its exact value; a constant
    division by zero becomes a "raise" slot, which raises where the walk would.
    """
    slots: List[_Slot] = []
    by_key: Dict[tuple, int] = {}

    def slot_of(node: Expr, args: list) -> int:
        args = tuple(args)
        key = _node_key(node, args)
        slot = by_key.get(key)
        if slot is None:
            slot = by_key[key] = len(slots)
            slots.append(_make_slot(node, args, slots))
        return slot

    _walk(root, slot_of)
    return slots


def _make_slot(node: Expr, args: Tuple[int, ...], slots: List[_Slot]) -> _Slot:
    if isinstance(node, Const):
        return _Slot("const", node, args, node.value)
    if isinstance(node, Sym):
        return _Slot("sym", node, args)
    if any(slots[i].kind != "const" for i in args):
        return _Slot("op", node, args)
    vals = [slots[i].value for i in args]
    if isinstance(node, Pow):
        return _Slot("const", node, args, vals[0] ** node.k)
    try:
        return _Slot("const", node, args, _FOLD[type(node)](*vals))
    except ZeroDivisionError:
        return _Slot("raise", node, args)


def _namespace(slots: List[_Slot]) -> Dict[str, object]:
    """Globals of a generated function: helpers and the denominators to report."""
    ns: Dict[str, object] = {"_F": Fraction, "_DivErr": EvaluationDivisionError}
    for i, slot in enumerate(slots):
        if slot.kind != "const" and isinstance(slot.node, Div):
            ns[f"den{i}"] = slot.node.b
    return ns


_MISSING = object()


def _operator_kernel(slots: List[_Slot], names: List[str]) -> List[str]:
    """One statement per slot applying Python's operators; slot i is ``names[i]``."""
    lines = []
    for i, slot in enumerate(slots):
        node = slot.node
        if slot.kind == "raise":
            lines.append(f"raise _DivErr(den{i})")
        elif slot.kind == "op":
            a = names[slot.args[0]]
            if isinstance(node, Neg):
                lines.append(f"v{i} = -{a}")
            elif isinstance(node, Pow):
                lines.append(f"v{i} = {a} ** {node.k}")
            elif isinstance(node, Div):
                lines += ["try:", f"    v{i} = {a} / {names[slot.args[1]]}",
                          "except ZeroDivisionError:", f"    raise _DivErr(den{i}) from None"]
            else:
                lines.append(f"v{i} = {a} {_INFIX[type(node)]} {names[slot.args[1]]}")
    return lines


def _rational_kernel(slots: List[_Slot], names: List[str], order: int = 0,
                     jets: frozenset = frozenset()) -> List[str]:
    """Statements on unreduced integers, ending in one Fraction per output slot.

    Each slot is a list of integer numerators over one shared denominator: one
    numerator for a scalar, ``order + 1`` (value, d/dt, d²/dt²) for a slot
    that depends on a symbol slot in ``jets``.  A scalar symbol slot reads the
    numerator and denominator of the int or Fraction bound to ``names[i]``; a
    jet symbol slot reads the int or Fraction slots of the ``Jet1`` (order 1)
    or ``Jet2`` (order 2) bound there over the lcm of their denominators.  A
    product expands the Leibniz rule here, and a quotient by a jet b
    multiplies by its conjugate c, for which b·c = s is the scalar b₀^(order+1):
    c = (b₀, −b₁) at order 1 and (b₀², −b₀b₁, 2b₁² − b₀b₂) at order 2.
    A denominator known to be 1 is left out (None) instead of multiplied in.
    At order 0 this is the scalar kernel.
    """
    lines: List[str] = []
    num: List[List[str]] = []
    den: List[Optional[str]] = []

    def times(x: Optional[str], y: Optional[str]) -> Optional[str]:
        """x·y, leaving out a factor known to be 1 (None); a sum x is parenthesized."""
        if x is None or y is None:
            return y if x is None else x
        return f"({x}) * {y}" if " + " in x or " - " in x else f"{x} * {y}"

    def bind(var: str, expr: Optional[str]) -> Optional[str]:
        if expr is None or expr.isidentifier() or _INT_LITERAL.fullmatch(expr):
            return expr  # a name or a literal: use it in place
        lines.append(f"{var} = {expr}")
        return var

    def leibniz(a: List[str], b: List[str]) -> List[str]:
        """Numerators of the product of two slots; a scalar scales each jet slot."""
        if len(a) == 1:
            return [times(a[0], y) for y in b]
        if len(b) == 1:
            return [times(x, b[0]) for x in a]
        out = [f"{a[0]} * {b[0]}", f"{a[1]} * {b[0]} + {a[0]} * {b[1]}"]
        if order == 2:
            out.append(f"{a[2]} * {b[0]} + 2 * {a[1]} * {b[1]} + {a[0]} * {b[2]}")
        return out

    for i, slot in enumerate(slots):
        node = slot.node
        if slot.kind == "const":
            value = slot.value
            num.append([f"({value.numerator})"])
            den.append(None if value.denominator == 1 else f"({value.denominator})")
            continue
        if slot.kind == "sym" and i in jets:
            parts = [f"{names[i]}.{field}" for field in ("v", "d1", "d2")[:order + 1]]
            lines += [f"n{i}_{m}, e{i}_{m} = {p}.as_integer_ratio()" for m, p in enumerate(parts)]
            lines.append(f"d{i} = _lcm({', '.join(f'e{i}_{m}' for m in range(order + 1))})")
            lines += [f"n{i}_{m} *= d{i} // e{i}_{m}" for m in range(order + 1)]
            num.append([f"n{i}_{m}" for m in range(order + 1)])
            den.append(f"d{i}")
            continue
        if slot.kind == "sym":
            lines += [f"n{i} = {names[i]}.numerator", f"d{i} = {names[i]}.denominator"]
            num.append([f"n{i}"])
            den.append(f"d{i}")
            continue
        if slot.kind == "raise":
            lines.append(f"raise _DivErr(den{i})")
            num.append([f"n{i}"])
            den.append(None)
            continue
        a, da = num[slot.args[0]], den[slot.args[0]]
        k = getattr(node, "k", None)
        if isinstance(node, Neg):
            n, d = [f"-{x}" for x in a], da
        elif isinstance(node, Pow) and len(a) == 1:
            n, d = [f"{a[0]} ** {k}"], None if da is None else f"{da} ** {k}"
        elif isinstance(node, Pow) and k < 2:
            n, d = (a, da) if k else (["(1)"] + ["(0)"] * order, None)
        elif isinstance(node, Pow):
            # (f^k)' = k f^(k-1) f' and (f^k)'' = k f^(k-1) f'' + k(k-1) f^(k-2) f'^2
            q = None if k == 2 else a[0] if k == 3 else bind(f"q{i}", f"{a[0]} ** {k - 2}")
            p = bind(f"p{i}", times(q, a[0]))
            n = [f"{p} * {a[0]}", f"{k} * {p} * {a[1]}"]
            if order == 2:
                n.append(f"{k} * {p} * {a[2]} + {k * (k - 1)} * {times(q, a[1])} * {a[1]}")
            d = f"{da} ** {k}" if da else None
        else:
            b, db = num[slot.args[1]], den[slot.args[1]]
            if isinstance(node, Mul):
                n, d = leibniz(a, b), times(da, db)
            elif isinstance(node, Div):
                divisor = slots[slot.args[1]]
                if divisor.kind != "const":
                    lines.append(f"if {b[0]} == 0: raise _DivErr(den{i})")
                elif divisor.value == 0:  # a symbolic numerator kept this from folding
                    lines.append(f"raise _DivErr(den{i})")
                if len(b) == 1:
                    n, d = [times(x, db) for x in a], times(da, b[0])
                else:  # a/b = a·c/s with b·c = s = b₀^(order+1)
                    sq = bind(f"p{i}", f"{b[0]} * {b[0]}")
                    if order == 1:
                        conj = [b[0], bind(f"c{i}_1", f"-{b[1]}")]
                    else:
                        conj = [sq, bind(f"c{i}_1", f"-{b[0]} * {b[1]}"),
                                bind(f"c{i}_2", f"2 * {b[1]} * {b[1]} - {b[0]} * {b[2]}")]
                        sq = f"{sq} * {b[0]}"
                    n = [times(x, db) for x in leibniz(a, conj)]
                    d = times(da, sq)
            else:
                op = _INFIX[type(node)]
                n = [f"{times(a[0], db)} {op} {times(b[0], da)}"]
                for m in range(1, max(len(a), len(b))):  # a scalar has no rate slots
                    x = times(a[m], db) if len(a) > 1 else None
                    y = times(b[m], da) if len(b) > 1 else None
                    if y is None:
                        n.append(x)
                    elif x is None:
                        n.append(y if op == "+" else f"-{y}")
                    else:
                        n.append(f"{x} {op} {y}")
                d = times(da, db)
        num.append([bind(f"n{i}" if len(n) == 1 else f"n{i}_{m}", x) for m, x in enumerate(n)])
        den.append(bind(f"d{i}", d))
    d = den[-1]
    out = [f"_F({x})" if d is None else f"_F({x}, {d})" for x in num[-1]]
    lines.append(f"return {out[0]}" if len(out) == 1 else f"return _J({', '.join(out)})")
    return lines


_ORDERS = {Jet1: 1, Jet2: 2}
_EXACT = {int, Fraction}


def _domain(names: Tuple[str, ...], values: tuple) -> Optional[Tuple[int, ...]]:
    """The kernel key of the ``values`` bound to ``names``: None if every slot is a float.

    If every slot is an ``int`` or a ``Fraction``, the key is each value's jet
    order, 0 for a scalar.  Otherwise the first missing value in ``names``'
    order (the walk's) raises ``UnboundSymbolError``; jets of two orders,
    slots of neither domain and exact slots beside floats raise ``TypeError``.
    """
    types = set(map(type, values))
    kinds = {type(s) for v in values for s in slots(v)} if types & _ORDERS.keys() else types
    if kinds == {float} and not {Jet1, Jet2} <= types:
        return None
    for name, v in zip(names, values):
        if v is _MISSING:
            raise UnboundSymbolError(f"unbound symbol {name!r}")
    if {Jet1, Jet2} <= types:
        raise TypeError("jets of two orders in one binding")
    if kinds <= _EXACT:
        return tuple(_ORDERS.get(t, 0) for t in map(type, values))
    other = kinds - _EXACT - {float}
    if other:
        raise TypeError(f"cannot evaluate on {', '.join(sorted(t.__name__ for t in other))}")
    raise TypeError("exact and float values in one binding")


def _kernel(e: Expr, orders: Tuple[int, ...]) -> Callable[..., Value]:
    """The rational kernel of ``e`` for one exact binding shape, generated on first use.

    ``orders`` holds each symbol slot's jet order (``_domain``'s key): 0 for
    an ``int`` or a ``Fraction``, the same k for every jet.  Each kernel is
    cached on the instance, as ``compile_float`` caches by argument list, and
    takes the bound values of the symbol slots in schedule order.
    """
    fns = vars(e).setdefault("_kernels", {})
    fn = fns.get(orders)
    if fn is not None:
        return fn
    slots = _schedule(e)
    sym_slots = [i for i, slot in enumerate(slots) if slot.kind == "sym"]
    order = max(orders)
    jets = frozenset(i for i, k in zip(sym_slots, orders) if k)
    ns = _namespace(slots)
    ns.update(_J=(None, Jet1, Jet2)[order], _lcm=math.lcm)
    body = _rational_kernel(slots, [f"s{i}" for i in range(len(slots))], order, jets)
    fn = fns[orders] = _define("kernel", ", ".join(f"s{i}" for i in sym_slots), body, ns)
    return fn


def _compile_evaluate(e: Expr) -> Callable[[Mapping[str, Value], Expr], Value]:
    """Read the bindings, run exact scalars in place and pick a kernel for the rest.

    Bindings of ``Fraction``s only run the scalar rational kernel here;
    ``_domain`` sends the float domain to ``compile_float``'s function, whose
    constants are floats, and every other exact shape to a ``_kernel``.
    """
    slots = _schedule(e)
    sym_slots = [i for i, slot in enumerate(slots) if slot.kind == "sym"]
    names = [f"s{i}" for i in range(len(slots))]
    body = [f"s{i} = env.get({slots[i].node.name!r}, _MISSING)" for i in sym_slots]
    exact = " and ".join(f"type(s{i}) is _F" for i in sym_slots) or "True"
    body.append(f"if {exact}:")
    body += ["    " + line for line in _rational_kernel(slots, names)]
    ns = _namespace(slots)
    if sym_slots:
        args = ", ".join(f"s{i}" for i in sym_slots)
        body += [f"args = ({args},)", "key = _domain(_NAMES, args)", "if key is None:",
                 "    return _compile_float(tree, _NAMES)(*args)",
                 "return _kernel(tree, key)(*args)"]
        ns.update(_domain=_domain, _compile_float=compile_float, _kernel=_kernel, _MISSING=_MISSING,
                  _NAMES=tuple(slots[i].node.name for i in sym_slots))
    return _define("evaluate", "env, tree", body, ns)


def _define(name: str, params: str, body: List[str], namespace: Dict[str, object]):
    src = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in body)
    exec(compile(src, f"<krawpv.expr {name}>", "exec"), namespace)  # noqa: S102 - our own tree
    return namespace.pop(name)  # the function keeps its globals; no cycle back to it
