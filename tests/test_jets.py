import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krawpv.jets import Jet1, Jet2, JetDivisionError, rate


def F(a, b=1):
    return Fraction(a, b)


def test_variable_jet():
    t = Jet2.variable(F(3))
    assert (t.v, t.d1, t.d2) == (F(3), F(1), F(0))


def test_rate_is_the_d1_slot_and_zero_for_scalars():
    assert rate(Jet1(F(2), F(-3, 4))) == F(-3, 4)
    assert rate(Jet2(F(2), F(5), F(7))) == F(5)
    assert rate(F(7, 3)) == 0 and type(rate(F(7, 3))) is Fraction
    assert rate(2.5) == 0 and type(rate(2.5)) is float


def test_product_rule():
    # (t^2)' = 2t, (t^2)'' = 2 at t = 5
    t = Jet2.variable(F(5))
    sq = t * t
    assert (sq.v, sq.d1, sq.d2) == (F(25), F(10), F(2))


def test_quotient_rule():
    # (1/t)' = -1/t^2, (1/t)'' = 2/t^3 at t = 2
    t = Jet2.variable(F(2))
    inv = 1 / t
    assert (inv.v, inv.d1, inv.d2) == (F(1, 2), F(-1, 4), F(1, 4))


def test_division_by_zero_value_slot():
    z = Jet2(F(0), F(1), F(0))
    with pytest.raises(JetDivisionError):
        _ = 1 / z


def test_power_matches_repeated_product():
    j = Jet2(F(2), F(3), F(-1))
    assert j**3 == j * j * j
    assert j**0 == Jet2(F(1), F(0), F(0))


def test_scalar_mixing():
    j = Jet2(F(1), F(2), F(3))
    assert 2 * j == Jet2(F(2), F(4), F(6))
    assert j - 1 == Jet2(F(0), F(2), F(3))
    assert 1 - j == Jet2(F(0), F(-2), F(-3))


def test_composition_chain_rule():
    # f(t) = (t + 1)^2 / t at t = 1: f = 4, f' = 2*2/1 - 4 = 0, check exactly
    t = Jet2.variable(F(1))
    f = (t + 1) ** 2 / t
    assert f.v == F(4)
    assert f.d1 == F(0)
    # f'' = d/dt [2(t+1)/t - (t+1)^2/t^2] = 2/t - 2(t+1)/t^2 - ... = 2 at t=1
    assert f.d2 == F(2)


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(a=st.tuples(fractions, fractions), b=st.tuples(fractions, fractions),
       s=fractions, d2=fractions, k=st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_jet1_is_the_truncation_of_jet2(a, b, s, d2, k):
    j1a, j1b, j2a, j2b = Jet1(*a), Jet1(*b), Jet2(*a, d2), Jet2(*b, -d2)
    pairs = [((j1a, j1b), (j2a, j2b)), ((j1a, s), (j2a, s)), ((s, j1b), (s, j2b))]
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for one, two in pairs:
            try:
                want = op(*two)
            except JetDivisionError:
                with pytest.raises(JetDivisionError):
                    op(*one)
                continue
            got = op(*one)
            assert (got.v, got.d1) == (want.v, want.d1)
    for got, want in [(-j1a, -j2a), (j1a**k, j2a**k)]:
        assert (got.v, got.d1) == (want.v, want.d1)


@given(j=st.tuples(fractions, fractions), d1=fractions, s=fractions)
@settings(max_examples=50, deadline=None)
def test_jet1_division_by_zero_value_slot(j, d1, s):
    zero = Jet1(F(0), d1)
    for num in (Jet1(*j), s):
        with pytest.raises(JetDivisionError):
            _ = num / zero
    with pytest.raises(JetDivisionError):
        _ = Jet1(*j) / F(0)
