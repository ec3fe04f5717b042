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
    ode2_registry,
    system_ids,
    system_on_chart,
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


# a test-only copy of the polynomial charts' rhs as displayed, in PV's shape,
# written out before they were built from PV_RHS
t, y, yp, n, NN, al = syms("t y yp n N alpha")
_H = Fraction(1, 2)


def displayed_pv_shape(a5_like, b5_like, g5_like):
    return (
        (1 / (2 * y) + 1 / (y - 1)) * yp**2
        - yp / t
        + (y - 1) ** 2 * (a5_like * y + b5_like / y) / t**2
        + g5_like * y / t
        - y * (y + 1) / (2 * (y - 1))
    )


DISPLAYED_PV_CHARTS = {
    "ode_V12": (_H * n**2, -_H * al**2, al + n - 2 * NN - 1),
    "ode_V22": (_H * (-n + NN + 1) ** 2, -_H * (-al + NN + 1) ** 2, al + n + 1),
    "ode_V32": (_H * (-al - n + NN + 1) ** 2, (-(NN**2) - 2 * NN - 1) * _H, -al + n + 1),
}


@pytest.mark.parametrize("ode_id", sorted(DISPLAYED_PV_CHARTS))
def test_a_polynomial_chart_is_pv_at_its_displayed_parameters(ode_id):
    displayed = displayed_pv_shape(*DISPLAYED_PV_CHARTS[ode_id])
    rhs = get_ode2(ode_id).rhs
    smp = sampler(f"displayed PV shape:{ode_id}")
    for _ in range(50):
        env = smp.draw(["t", "y", "yp", "n", "N", "alpha"],
                       reject=lambda e: e["t"] == 0 or e["y"] in systems.SINGULAR_Y)
        assert rhs.evaluate(env) == displayed.evaluate(env)


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
        check_regular_on_divisor("original", sampler("x"), samples=10)


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


def test_each_reduction_eliminates_the_other_coordinate_of_its_parent_chart():
    for oid in ode2_ids():
        ode = get_ode2(oid)
        chart = get_system(ode.parent_id).chart
        assert {ode.reduce_coord, ode.elim_coord} == set(chart), oid


def test_reduce_coord_off_the_parent_chart_is_a_catalogue_error(monkeypatch):
    reg = dict(systems.registry())
    reg["UV11"] = dataclasses.replace(reg["UV11"], chart=("X11", "V11"))
    monkeypatch.setattr(systems, "registry", lambda: reg)
    with pytest.raises(CatalogueError, match="ode_U11: U11 is not a coordinate of UV11"):
        ode2_registry.__wrapped__()  # a fresh build, past the cache


def test_system_on_chart_finds_the_one_system_there():
    for sid in system_ids():
        assert system_on_chart(get_system(sid).chart) == sid
    assert system_on_chart(["q", "p"]) == "original"
    assert system_on_chart(("u51", "v51")) is None


def test_catalogued_rhs_off_by_t_fails_every_sample(monkeypatch):
    ode = get_ode2("ode_V12")
    (t,) = syms("t")
    monkeypatch.setitem(systems.ode2_registry(), ode.id, dataclasses.replace(ode, rhs=ode.rhs + t))
    case = check_reduction_soundness(ode.id, sampler("off_by_t"), samples=10)
    assert case.status == "FAIL" and case.samples == 10
    assert [f.split(":")[0] for f in case.failures] == [f"sample {k}" for k in range(1, 11)]
    assert all("y'' = " in f for f in case.failures)


def test_along_flow_binds_rates_and_keeps_the_point():
    s = get_system("UV12")
    env = {"U12": Fraction(2), "V12": Fraction(-1, 3), "t": Fraction(5, 2),
           "n": Fraction(1), "N": Fraction(3), "alpha": Fraction(1, 2)}
    flow = s.along_flow(env)
    assert (flow["t"].v, flow["t"].d1) == (env["t"], 1)
    assert (flow["U12"].v, flow["U12"].d1) == (env["U12"], s.rhs1.evaluate(env))
    assert (flow["V12"].v, flow["V12"].d1) == (env["V12"], s.rhs2.evaluate(env))
    assert flow["N"] is env["N"] and type(env["t"]) is Fraction
