import math
import random
from fractions import Fraction

import pytest

from krawpv import painleve
from krawpv.expr import syms
from krawpv.integrate import Trajectory
from krawpv.painleve import (
    COMPOSITIONS,
    PARAM_SETS,
    REDUCTIONS,
    BacklundSigns,
    BranchState,
    PainleveError,
    PVJet,
    PVParams,
    _trajectory_case,
    backlund_apply,
    branch_state_for,
    backlund_step,
    complete_jet,
    mobius_reduce,
    pv_params_for,
    pv_residual,
    pv_third_derivative,
    verify_closed_form,
    verify_param_chain,
    verify_reduction_trajectory,
    verify_trajectory,
)
from krawpv.sampling import Sampler


def sampler(seed):
    return Sampler(random.Random(seed))


def F(a, b=1):
    return Fraction(a, b)


ZERO_PARAMS = PVParams(F(0), F(0), F(0))

# Reference data: each chart's (α₅, β₅, γ₅) written as squares, independently
# of the signed branch table the library builds them from; δ₅ = −1/2 throughout.
n, NN, al = syms("n N alpha")
_H = Fraction(1, 2)
_FIRST = (_H * n**2, -_H * al**2, al + n - 2 * NN - 1)
_SECOND = (_H * (NN - n + 1) ** 2, -_H * (-al + NN + 1) ** 2, al + n + 1)
_THIRD = (_H * (NN - n + 1 - al) ** 2, -_H * (1 + NN) ** 2, -al + n + 1)
REFERENCE_QUADRUPLES = {
    "ode_U11": _FIRST,
    "ode_v54": _FIRST,
    "ode_V12": _FIRST,
    "ode_U21": _SECOND,
    "ode_V22": _SECOND,
    "ode_U31": _THIRD,
    "ode_V32": _THIRD,
    "ode_U11_reciprocal": (_H * al**2, -_H * n**2, 1 + 2 * NN - n - al),
    "ode_tildeV22": (_H * (NN - n + 1) ** 2, -_H * (NN + 1) ** 2, n + 1),
    "original": (_H * (al - NN - 1) ** 2, -_H * (n - NN) ** 2, -(n + al)),
}


def reference_quadruple(chart_id, env):
    return tuple(e.evaluate(env) for e in REFERENCE_QUADRUPLES[chart_id])


def _exact_sqrt(x):
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    assert x >= 0 and rn * rn == x.numerator and rd * rd == x.denominator
    return Fraction(rn, rd)


def reference_backlund_params(p, s):
    """The parameter map on the positive roots c = √(2α₅), a = √(−2β₅), k = √(−2δ₅).

    The general map keeps δ₅, here −1/2 as in every catalogued PV.
    """
    d5 = F(-1, 2)
    c, a, k = _exact_sqrt(2 * p.a5), _exact_sqrt(-2 * p.b5), _exact_sqrt(-2 * d5)
    w = s.e3 * k * (1 - s.e2 * a - s.e1 * c)
    return PVParams(
        -(p.g5 + w) ** 2 / (16 * d5),
        (p.g5 - w) ** 2 / (16 * d5),
        s.e3 * k * (s.e2 * a - s.e1 * c),
    )


def quadruple(p):
    return (p.a5, p.b5, p.g5)


ALL_SIGNS = [BacklundSigns(e1, e2, e3) for e1 in (1, -1) for e2 in (1, -1) for e3 in (1, -1)]


def test_residual_zero_params_flat_jet():
    # with α₅ = β₅ = γ₅ = 0 and yp = 0 only the δ₅ = −1/2 term is left:
    # ypp = −y(y + 1)/(2(y − 1)), which is −3 at y = 2
    j = PVJet(F(1), F(2), F(0), F(-3))
    assert pv_residual(j, ZERO_PARAMS) == 0
    assert pv_residual(PVJet(F(1), F(2), F(0), F(0)), ZERO_PARAMS) == 3


@pytest.mark.parametrize("kind", (F, float))
@pytest.mark.parametrize("t, y", ((0, 2), (1, 0), (1, 1)))
def test_residual_raises_on_the_singular_loci(kind, t, y):
    # t = 0 and y in {0, 1} are poles of PV_RHS, on exact and on float jets
    j = PVJet(kind(t), kind(y), kind(1), kind(0))
    with pytest.raises(ZeroDivisionError):
        pv_residual(j, PVParams(kind(1), kind(-1), kind(2)))


def test_param_sets_evaluate_to_three_floats_on_a_float_env():
    env = {"n": 1.0, "N": 3.0, "alpha": 0.5}
    for chart_id in sorted(PARAM_SETS):
        p = PARAM_SETS[chart_id].evaluate(env)
        assert [type(x) for x in quadruple(p)] == [float] * 3, chart_id


def test_residual_detects_wrong_second_derivative():
    p = PVParams(F(1, 2), F(-1, 2), F(0))
    good = complete_jet(F(1), F(2), F(3), p)
    assert pv_residual(good, p) == 0
    bad = PVJet(good.t, good.y, good.yp, good.ypp + 1)
    assert pv_residual(bad, p) == 1


def test_third_derivative_consistent_with_difference_quotient():
    p = PVParams(F(1, 2), F(-1, 2), F(0))
    j = complete_jet(1.0, 2.0, 3.0, PVParams(0.5, -0.5, 0.0))
    y3 = pv_third_derivative(j, PVParams(0.5, -0.5, 0.0))
    # compare against a central difference of ypp along the solution direction
    h = 1e-6
    jp = complete_jet(j.t + h, j.y + h * j.yp, j.yp + h * j.ypp,
                      PVParams(0.5, -0.5, 0.0))
    jm = complete_jet(j.t - h, j.y - h * j.yp, j.yp - h * j.ypp,
                      PVParams(0.5, -0.5, 0.0))
    assert abs((jp.ypp - jm.ypp) / (2 * h) - y3) < 1e-4


# the chain rule over three diff trees that the flow-jet y''' replaced:
# y''' = R_y y' + R_yp y'' + R_t with R = PV_RHS
_PV_RHS_PARTIALS = tuple(painleve.PV_RHS.diff(v) for v in ("y", "yp", "t"))


def reference_third_derivative(j, p):
    env = {"t": j.t, "y": j.y, "yp": j.yp, **p.as_env()}
    r_y, r_yp, r_t = (d.evaluate(env) for d in _PV_RHS_PARTIALS)
    return r_y * j.yp + r_yp * j.ypp + r_t


@pytest.mark.parametrize("params_id", sorted(PARAM_SETS))
def test_third_derivative_is_the_chain_rule_exactly(params_id):
    s = sampler(f"third derivative:{params_id}")
    for _ in range(10):
        env = s.draw(["t", "y", "yp", "n", "N", "alpha"],
                     reject=lambda e: e["t"] == 0 or e["y"] in (0, 1))
        p = PARAM_SETS[params_id].evaluate(env)
        j = complete_jet(env["t"], env["y"], env["yp"], p)
        got = pv_third_derivative(j, p)
        assert type(got) is Fraction and got == reference_third_derivative(j, p)


@pytest.mark.parametrize("chart_id", sorted(REFERENCE_QUADRUPLES))
def test_param_sets_match_the_squared_quadruples(chart_id):
    assert sorted(PARAM_SETS) == sorted(REFERENCE_QUADRUPLES)
    smp = sampler(f"quadruple:{chart_id}")
    for _ in range(20):
        env = smp.draw(["n", "N", "alpha"])
        expect = reference_quadruple(chart_id, env)
        assert quadruple(PARAM_SETS[chart_id].evaluate(env)) == expect
        assert quadruple(branch_state_for(chart_id, env).params()) == expect


def test_backlund_params_worked_example():
    # (1/2, -1/2, 0) has c = a = 1
    st = backlund_step(BranchState(F(0), F(1), F(1)), BacklundSigns(1, 1, 1))
    assert quadruple(st.params()) == (F(1, 8), F(-1, 8), F(0))


def test_backlund_image_satisfies_target_pv():
    st = BranchState(F(0), F(1), F(1))
    j = complete_jet(F(1), F(3), F(1, 4), st.params())
    j1, st1 = backlund_apply(j, st, BacklundSigns(1, 1, 1))
    assert st1 == backlund_step(st, BacklundSigns(1, 1, 1))
    assert pv_residual(j1, st1.params()) == 0


@pytest.mark.parametrize("comp_id", sorted(COMPOSITIONS))
def test_flipped_backlund_sign_fails_closed_forms(monkeypatch, comp_id):
    # ε₂a -> -ε₂a in the jet half of the step
    (e2a,) = syms("e2a")
    monkeypatch.setattr(painleve, "BACKLUND_Y", painleve.BACKLUND_Y.subs({"e2a": -e2a}))
    case = verify_closed_form(comp_id, sampler(f"flip:{comp_id}"), samples=10)
    assert case.status == "FAIL" and case.samples == 10
    assert {f.split(":")[0] for f in case.failures} == {f"sample {k}" for k in range(1, 11)}


def test_invalid_sign_rejected():
    with pytest.raises(PainleveError):
        BacklundSigns(1, 0, 1)


def test_unknown_param_set():
    with pytest.raises(PainleveError):
        pv_params_for("nope")


def test_branch_state_step_matches_backlund_params():
    # when the literal branches are the nonnegative roots, the literal-state
    # step and the positive-root parameter map must agree
    smp = sampler("positive roots")
    for _ in range(20):
        env = smp.draw(["g5", "c", "a"])
        st = BranchState(env["g5"], abs(env["c"]), abs(env["a"]))
        for s in ALL_SIGNS:
            expect = reference_backlund_params(st.params(), s)
            assert quadruple(backlund_step(st, s).params()) == quadruple(expect)


@pytest.mark.parametrize("reduction_id", sorted(REDUCTIONS))
def test_mobius_reductions(reduction_id):
    case = mobius_reduce(reduction_id, sampler(f"mob:{reduction_id}"), samples=20)
    assert case.passed, case.failures[:3]


@pytest.mark.parametrize("comp_id", sorted(COMPOSITIONS))
def test_param_chains(comp_id):
    case = verify_param_chain(comp_id, sampler(f"chain:{comp_id}"), samples=20)
    assert case.passed, case.failures[:3]


@pytest.mark.parametrize("comp_id", sorted(COMPOSITIONS))
def test_closed_forms(comp_id):
    case = verify_closed_form(comp_id, sampler(f"closed:{comp_id}"), samples=20)
    assert case.passed, case.failures[:3]


@pytest.mark.parametrize("comp_id", sorted(COMPOSITIONS))
def test_trajectory_transport(comp_id):
    case = verify_trajectory(comp_id)
    assert case.passed, case.failures[:3]


@pytest.mark.parametrize("reduction_id", sorted(REDUCTIONS))
def test_reduction_trajectories(reduction_id):
    case = verify_reduction_trajectory(reduction_id)
    assert case.passed, case.failures[:3]


@pytest.mark.parametrize("reduction_id", sorted(REDUCTIONS))
def test_reduction_trajectories_backward(reduction_id):
    case = verify_reduction_trajectory(reduction_id, t0=2.0, t1=1.0)
    assert case.passed, case.failures[:3]


def test_trajectory_case_integrates_once(monkeypatch):
    # ode_U21 stops at a movable singularity inside the default window [1, 2]
    import krawpv.integrate as integrate

    calls = []
    original = integrate.integrate_ode2

    def counted(*args, **kwargs):
        calls.append(args[4])
        return original(*args, **kwargs)

    monkeypatch.setattr(integrate, "integrate_ode2", counted)
    case = verify_reduction_trajectory("ode_U21")
    assert calls == [2.0]
    assert case.passed, case.failures[:3]
    assert case.samples == 20


@pytest.mark.parametrize("verify, case_id, t0, t1, error", [
    # PV's rhs divides by t**2, which is 0.0 at t = 1e-300: the start cannot be evaluated
    (verify_reduction_trajectory, "ode_U11", 1e-300, 1e-299,
     "EvaluationDivisionError: division by zero in (^ t 2)"),
    # at t = 1e300 the first right-hand-side call overflows
    (verify_trajectory, "first_to_base", 1e300, 1e301, "OverflowError: "),
], ids=["reduction_start", "backlund_run"])
def test_a_run_float_arithmetic_cannot_evaluate_fails_naming_the_error(verify, case_id, t0,
                                                                        t1, error):
    case = verify(case_id, t0=t0, t1=t1)
    assert (case.status, case.residual, case.samples) == ("FAIL", "nan", 0)
    assert len(case.failures) == 1 and case.failures[0].startswith(f"the run raised {error}")


def _stopping_run(t0, stop, status=-1):
    """An integrator that stops at ``stop`` with ``status``; the run is identically zero."""
    def integrate(t_end):
        return Trajectory((t0, stop), ((0.0, 0.0), (0.0, 0.0)), [lambda t: (0.0, 0.0)],
                          status, 0)
    return integrate


@pytest.mark.parametrize("t0, t1, stop, end", [
    (1.0, 2.0, 1.3, 1.25),  # windows [1, 2], [1, 1.5], [1, 1.25]
    (2.0, 1.0, 1.7, 1.75),  # backwards: windows [2, 1], [2, 1.5], [2, 1.75]
])
def test_stopped_run_cuts_the_window(t0, t1, stop, end):
    seen = []

    def residual(tv, yv, ypv):
        seen.append(tv)
        return 0.0

    case = _trajectory_case("x", _stopping_run(t0, stop), residual, t0, t1, 1e-6, "PV")
    assert case.passed and case.samples == 20
    assert seen == [t0 + (end - t0) * (i + 1) / 21 for i in range(20)]


@pytest.mark.parametrize("status, stop", [
    (1, "a guard stopped the run"),
    (-1, "the step size underflowed"),
], ids=["guard", "underflow"])
def test_stopped_run_fails_when_no_window_fits(status, stop):
    # the eighth window, [1, 1 + 1/128], still reaches past the stop
    case = _trajectory_case("x", _stopping_run(1.0, 1.005, status), lambda tv, y, yp: 0.0,
                            1.0, 2.0, 1e-6, "PV")
    assert case.status == "FAIL" and case.samples == 0
    assert case.failures == [f"no singularity-free window found: {stop} near t = 1.005"]


def test_nan_residual_fails():
    run = Trajectory((1.0, 2.0), ((0.0, 0.0), (0.0, 0.0)), [lambda tv: (0.0, 0.0)], 0, 0)
    case = _trajectory_case("x", lambda t1: run,
                            lambda tv, y, yp: float("nan"), 1.0, 2.0, 1e-6, "PV")
    assert case.status == "FAIL"
    assert case.residual == "nan"
    assert len(case.failures) == 20
