from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krawpv.expr import (
    Const,
    EvaluationDivisionError,
    Sym,
    UnboundSymbolError,
    compile_float,
    syms,
)
from krawpv.jets import Jet2

x, y = syms("x y")

fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


def test_operator_overloading_builds_trees():
    e = (x + 1) * y - x / y
    env = {"x": Fraction(2), "y": Fraction(3)}
    assert e.evaluate(env) == Fraction(3) * 3 - Fraction(2, 3)


def test_unbound_symbol_is_loud():
    with pytest.raises(UnboundSymbolError):
        (x + y).evaluate({"x": Fraction(1)})


def test_division_by_zero_is_loud():
    # exact, float and jet zeros raise one error family, naming the denominator
    for zero in (Fraction(0), 0.0, Jet2(Fraction(0), Fraction(1), Fraction(0)),
                 Jet2(0.0, 1.0, 0.0)):
        with pytest.raises(EvaluationDivisionError) as exc:
            (1 / (y * x)).evaluate({"x": zero, "y": Fraction(2)})
        assert isinstance(exc.value, ZeroDivisionError)
        assert exc.value.subtree == y * x


def test_negative_power_rejected():
    with pytest.raises(Exception):
        x ** (-1)


@given(a=fractions, b=fractions)
@settings(max_examples=50, deadline=None)
def test_diff_product_rule_pointwise(a, b):
    # d/dx (x^2 * y) = 2xy, checked by evaluation
    e = x**2 * y
    d = e.diff("x")
    env = {"x": a, "y": b}
    assert d.evaluate(env) == 2 * a * b


@given(a=fractions)
@settings(max_examples=50, deadline=None)
def test_diff_quotient_rule_pointwise(a):
    e = 1 / (x + 1)
    d = e.diff("x")
    if a == -1:
        return
    env = {"x": a}
    assert d.evaluate(env) == -1 / (a + 1) ** 2


@given(a=fractions, b=fractions)
@settings(max_examples=50, deadline=None)
def test_subs_is_simultaneous(a, b):
    # x -> y, y -> x must swap, not cascade
    e = x + 2 * y
    swapped = e.subs({"x": y, "y": x})
    env = {"x": a, "y": b}
    assert swapped.evaluate(env) == b + 2 * a


@given(a=fractions, b=fractions)
@settings(max_examples=50, deadline=None)
def test_as_num_den_agrees_with_tree(a, b):
    e = (x + 1 / y) / (y - x / (y + 3))
    if b == 0 or b == -3:
        return
    env = {"x": a, "y": b}
    try:
        want = e.evaluate(env)
    except EvaluationDivisionError:
        return
    num, den = e.as_num_den()
    dv = den.evaluate(env)
    assert dv != 0
    assert num.evaluate(env) / dv == want


def test_jet_evaluation_gives_derivatives():
    # f(t) = t^2 + 1/t at t = 2: f' = 2t - 1/t^2 = 15/4, f'' = 2 + 2/t^3 = 9/4
    (t,) = syms("t")
    e = t**2 + 1 / t
    j = e.evaluate({"t": Jet2.variable(Fraction(2))})
    assert (j.v, j.d1, j.d2) == (Fraction(9, 2), Fraction(15, 4), Fraction(9, 4))


def test_compile_float_matches_exact():
    e = (x**3 - 2) / (y + 5)
    f = compile_float(e, ["x", "y"])
    env = {"x": Fraction(3, 2), "y": Fraction(1, 3)}
    exact = e.evaluate(env)
    assert abs(f(1.5, 1 / 3) - float(exact)) < 1e-15


def test_to_prefix_deterministic():
    e = x * (y + 1)
    assert e.to_prefix() == "(* x (+ y 1))"
