import dataclasses
import random
from fractions import Fraction

import pytest

from krawpv import systems
from krawpv.expr import EvaluationDivisionError, syms
from krawpv.sampling import Sampler
from krawpv.systems import (
    CatalogueError,
    alpha_zero_divisor_degeneracy,
    check_reduction_soundness,
    check_regular_on_divisor,
    get_ode2,
    get_system,
    ode2_ids,
    system_ids,
)


def sampler(seed):
    return Sampler(random.Random(seed))


def test_unknown_ids_error():
    with pytest.raises(CatalogueError):
        get_system("nope")
    with pytest.raises(CatalogueError):
        get_ode2("nope")


def test_original_denominator_structure():
    s = get_system("original")
    env = {"q": Fraction(1), "p": Fraction(2), "t": Fraction(1),
           "n": Fraction(1), "N": Fraction(2), "alpha": Fraction(0)}
    # denominator N*t*(p+q)
    assert s.rhs1_den.evaluate(env) == 2 * 1 * 3


def test_original_singular_at_p_plus_q_zero():
    s = get_system("original")
    env = {"q": Fraction(1), "p": Fraction(-1), "t": Fraction(1),
           "n": Fraction(1), "N": Fraction(2), "alpha": Fraction(0)}
    with pytest.raises(EvaluationDivisionError) as excinfo:
        s.evaluate_rhs(env)
    assert excinfo.value.subtree == s.rhs1_den


def test_UV11_at_origin():
    s = get_system("UV11")
    env = {"U11": Fraction(0), "V11": Fraction(0), "t": Fraction(1),
           "n": Fraction(5), "N": Fraction(2), "alpha": Fraction(0)}
    assert s.evaluate_rhs(env) == (Fraction(1), Fraction(9, 2))


def test_polynomial_chart_evaluates_anywhere():
    s = get_system("UV12")
    env = {"U12": Fraction(-1), "V12": Fraction(1), "t": Fraction(2),
           "n": Fraction(1), "N": Fraction(3), "alpha": Fraction(1, 2)}
    s.evaluate_rhs(env)  # must not raise


def test_uv43a_is_UV11_renamed():
    a = get_system("uv43a")
    b = get_system("UV11")
    env = {"t": Fraction(3), "n": Fraction(1), "N": Fraction(2),
           "alpha": Fraction(1, 3)}
    env_a = dict(env, u43a=Fraction(2, 5), v43a=Fraction(7, 3))
    env_b = dict(env, U11=Fraction(2, 5), V11=Fraction(7, 3))
    assert a.evaluate_rhs(env_a) == b.evaluate_rhs(env_b)


def test_elimination_worked_instance():
    ode = get_ode2("ode_U11")
    env = {"y": Fraction(1), "yp": Fraction(1), "t": Fraction(1),
           "n": Fraction(0), "N": Fraction(2), "alpha": Fraction(0)}
    assert ode.elimination.evaluate(env) == Fraction(-7, 4)
    # back-substitution reproduces U' = 1
    parent = get_system("UV11")
    chart_env = dict(env, U11=Fraction(1), V11=Fraction(-7, 4))
    r1, _ = parent.evaluate_rhs(chart_env)
    assert r1 == Fraction(1)


def test_ode_v54_same_rhs_as_ode_U11():
    assert get_ode2("ode_v54").rhs is get_ode2("ode_U11").rhs


@pytest.mark.parametrize("ode_id", ode2_ids())
def test_reduction_soundness(ode_id):
    case = check_reduction_soundness(ode_id, sampler(f"sound:{ode_id}"), samples=50)
    assert case.passed, case.failures[:3]


@pytest.mark.parametrize(
    "system_id",
    [sid for sid in system_ids() if get_system(sid).has_divisor],
)
def test_regular_on_divisor(system_id):
    case = check_regular_on_divisor(system_id, sampler(f"reg:{system_id}"), samples=50)
    assert case.passed, case.failures[:3]


def test_alpha_zero_degeneracy_of_UV21():
    case = alpha_zero_divisor_degeneracy(sampler("alpha0"), samples=20)
    assert case.passed, case.failures[:3]


def test_tilde_chart_has_pinned_alpha():
    s = get_system("tildeUV22")
    assert s.alpha_fixed == Fraction(0)


def test_divisorless_chart_rejected_by_regularity_check():
    with pytest.raises(CatalogueError):
        check_regular_on_divisor("original", sampler("x"))


def test_term_nonlinear_in_the_eliminated_coordinate_fails_soundness(monkeypatch):
    # the elimination solves the equation for y as if it were linear in the
    # eliminated coordinate; a quadratic term there must show as a FAIL
    ode = get_ode2("ode_U11")
    parent = get_system(ode.parent_id)
    field = "rhs1_num" if parent.chart[0] == ode.reduce_coord else "rhs2_num"
    (s,) = syms(ode.elim_coord)
    bad_parent = dataclasses.replace(parent, **{field: getattr(parent, field) + s**2})
    bad_ode = dataclasses.replace(ode, elimination=systems._derive_elimination(
        bad_parent, ode.reduce_coord, ode.elim_coord))
    monkeypatch.setitem(systems.registry(), parent.id, bad_parent)
    monkeypatch.setitem(systems.ode2_registry(), ode.id, bad_ode)
    case = check_reduction_soundness(ode.id, sampler("nonlinear"), samples=10)
    assert case.status == "FAIL" and case.samples == 10
    flow_failures = [f for f in case.failures if "elimination does not invert the flow" in f]
    assert [f.split(":")[0] for f in flow_failures] == [f"sample {k}" for k in range(1, 11)]
