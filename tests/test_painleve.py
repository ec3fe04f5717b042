import random
from fractions import Fraction

import pytest

from krawpv.integrate import IntegrationError, Trajectory
from krawpv.painleve import (
    COMPOSITIONS,
    REDUCTIONS,
    BacklundSigns,
    BranchError,
    PainleveError,
    PVJet,
    PVParams,
    _trajectory_case,
    backlund_apply,
    backlund_params,
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


ZERO_PARAMS = PVParams(F(0), F(0), F(0), F(0))


def test_residual_zero_params_flat_jet():
    # with all four parameters zero and yp = ypp = 0 the equation holds
    j = PVJet(F(1), F(2), F(0), F(0))
    assert pv_residual(j, ZERO_PARAMS) == 0


def test_residual_detects_wrong_second_derivative():
    p = PVParams(F(1, 2), F(-1, 2), F(0), F(-1, 2))
    good = complete_jet(F(1), F(2), F(3), p)
    assert pv_residual(good, p) == 0
    bad = PVJet(good.t, good.y, good.yp, good.ypp + 1)
    assert pv_residual(bad, p) == 1


def test_third_derivative_consistent_with_difference_quotient():
    p = PVParams(F(1, 2), F(-1, 2), F(0), F(-1, 2))
    j = complete_jet(1.0, 2.0, 3.0, PVParams(0.5, -0.5, 0.0, -0.5))
    y3 = pv_third_derivative(j, PVParams(0.5, -0.5, 0.0, -0.5))
    # compare against a central difference of ypp along the solution direction
    h = 1e-6
    jp = complete_jet(j.t + h, j.y + h * j.yp, j.yp + h * j.ypp,
                      PVParams(0.5, -0.5, 0.0, -0.5))
    jm = complete_jet(j.t - h, j.y - h * j.yp, j.yp - h * j.ypp,
                      PVParams(0.5, -0.5, 0.0, -0.5))
    assert abs((jp.ypp - jm.ypp) / (2 * h) - y3) < 1e-4


def test_backlund_params_worked_example():
    p = PVParams(F(1, 2), F(-1, 2), F(0), F(-1, 2))
    q = backlund_params(p, BacklundSigns(1, 1, 1))
    assert (q.a5, q.b5, q.g5, q.d5) == (F(1, 8), F(-1, 8), F(0), F(-1, 2))


def test_backlund_preserves_d5():
    p = PVParams(F(2), F(-9, 2), F(3), F(-1, 2))
    for signs in [(1, 1, 1), (-1, 1, -1), (1, -1, 1)]:
        q = backlund_params(p, BacklundSigns(*signs))
        assert q.d5 == p.d5


def test_backlund_image_satisfies_target_pv():
    p = PVParams(F(1, 2), F(-1, 2), F(0), F(-1, 2))
    j = complete_jet(F(1), F(3), F(1, 4), p)
    j1, p1 = backlund_apply(j, p, BacklundSigns(1, 1, 1))
    assert pv_residual(j1, p1) == 0


def test_branch_error_on_non_square_radicand():
    p = PVParams(F(1), F(-1, 2), F(0), F(-1, 2))  # 2*a5 = 2 is not a square
    with pytest.raises(BranchError):
        backlund_params(p, BacklundSigns(1, 1, 1))


def test_invalid_sign_rejected():
    with pytest.raises(PainleveError):
        BacklundSigns(1, 0, 1)


def test_unknown_param_set():
    with pytest.raises(PainleveError):
        pv_params_for("nope")


def test_branch_state_step_matches_backlund_params():
    # when the literal branches are the nonnegative roots, the literal-state
    # step and the root-extraction step must agree
    env = {"n": F(2), "N": F(3), "alpha": F(1, 2)}
    st = branch_state_for("ode_U11", env)
    p = st.params()
    s = BacklundSigns(1, -1, 1)
    st1 = backlund_step(st, s)
    q = backlund_params(p, s)
    assert (st1.params().a5, st1.params().b5, st1.params().g5) == (q.a5, q.b5, q.g5)


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


def _stopping_run(t0, stop):
    """An integrator that stops at ``stop``; the stopped run is identically zero."""
    def integrate(t_end):
        exc = IntegrationError(f"stopped near t = {stop}")
        exc.trajectory = Trajectory((t0, stop), ((0.0, 0.0), (0.0, 0.0)),
                                    lambda t: (0.0, 0.0))
        raise exc
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


def test_stopped_run_fails_when_no_window_fits():
    # the eighth window, [1, 1 + 1/128], still reaches past the stop
    case = _trajectory_case("x", _stopping_run(1.0, 1.005), lambda tv, y, yp: 0.0,
                            1.0, 2.0, 1e-6, "PV")
    assert case.status == "FAIL" and case.samples == 0
    assert case.failures == ["no singularity-free window found: stopped near t = 1.005"]


def test_nan_residual_fails():
    case = _trajectory_case("x", lambda t1: (lambda tv: [0.0, 0.0]),
                            lambda tv, y, yp: float("nan"), 1.0, 2.0, 1e-6, "PV")
    assert case.status == "FAIL"
    assert case.residual == "nan"
    assert len(case.failures) == 20
