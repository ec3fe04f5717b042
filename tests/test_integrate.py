from fractions import Fraction

import pytest

from krawpv.integrate import (
    IntegrationError,
    IntegratorConfig,
    SingularGuardError,
    compare_trajectories,
    convergence_errors,
    integrate_ode2,
    integrate_planar,
    trajectory_csv,
)
from krawpv.oracle import WeightParams, oracle_xy
from krawpv.systems import get_ode2, get_system

PARAMS = {"n": 1, "N": 2, "alpha": Fraction(0)}


def oracle_point(t, n=1, N=2, alpha=Fraction(0)):
    xy = oracle_xy(WeightParams(N, alpha, Fraction(t).limit_denominator(10**6)), n)
    return float(xy.x[n]), float(xy.y[n])


def test_endpoint_matches_oracle():
    system = get_system("original")
    ic = oracle_point(1)
    traj = integrate_planar(system, ic, 1.0, 2.0, PARAMS)
    want = oracle_point(2)
    got = traj.endpoint()
    assert abs(got[0] - want[0]) < 1e-7
    assert abs(got[1] - want[1]) < 1e-7


def test_compare_trajectories_against_oracle():
    system = get_system("original")
    traj = integrate_planar(system, oracle_point(1), 1.0, 2.0, PARAMS)
    times = [1.0 + 0.1 * k for k in range(11)]
    case = compare_trajectories(traj, oracle_point, 1e-6, times=times)
    assert case.passed, case.failures[:3]


def test_compare_trajectory_to_itself_is_zero():
    system = get_system("original")
    traj = integrate_planar(system, oracle_point(1), 1.0, 2.0, PARAMS)
    case = compare_trajectories(traj, lambda t: traj(t), 1e-15)
    assert case.passed


def test_compare_mismatched_parameters_fails():
    system = get_system("original")
    traj = integrate_planar(system, oracle_point(1), 1.0, 2.0, PARAMS)
    wrong = lambda t: oracle_point(t, n=0)
    case = compare_trajectories(traj, wrong, 1e-6, times=[1.5, 2.0])
    assert case.status == "FAIL"


def test_compare_against_nan_reference_fails():
    system = get_system("original")
    traj = integrate_planar(system, oracle_point(1), 1.0, 2.0, PARAMS)
    nan = float("nan")
    case = compare_trajectories(traj, lambda t: (nan, nan), 1e-6, times=[1.5, 2.0])
    assert case.status == "FAIL"
    assert case.residual == "nan"
    assert case.samples == 2 and len(case.failures) == 2


def test_singular_guard_trips():
    # drive the base system toward the p + q = 0 locus
    system = get_system("original")
    with pytest.raises(SingularGuardError) as exc:
        integrate_planar(system, (0.5, -0.45), 1.0, 2.0, PARAMS,
                         IntegratorConfig(singular_guard=1e-3))
    # the error carries the run up to the stop; its text is only the message
    stop = exc.value.trajectory
    assert stop.t0 == 1.0 and 1.0 < stop.t1 < 2.0
    assert str(exc.value) == f"denominator within 0.001 of zero near t = {stop.t1}"


def test_zero_length_interval():
    system = get_system("original")
    traj = integrate_planar(system, oracle_point(1), 1.0, 1.0, PARAMS)
    assert traj.t0 == traj.t1 == 1.0
    got = traj(1.0)
    want = oracle_point(1)
    assert abs(got[0] - want[0]) < 1e-15 and abs(got[1] - want[1]) < 1e-15


def test_invalid_config_rejected():
    with pytest.raises(IntegrationError):
        IntegratorConfig(rtol=0.0)


def test_convergence_trend():
    system = get_system("original")
    errs = convergence_errors(system, oracle_point(1), 1.0, 2.0, PARAMS)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-7


def test_ode2_integration_runs():
    ode = get_ode2("ode_U11")
    traj = integrate_ode2(ode, 2.0, 0.25, 1.0, 1.5,
                          {"n": 1, "N": 3, "alpha": 0.5})
    assert traj.t1 == 1.5


def test_csv_header_and_precision():
    system = get_system("original")
    traj = integrate_planar(system, oracle_point(1), 1.0, 1.2, PARAMS)
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,coord1,coord2"
    first = lines[1].split(",")
    assert len(first) == 3
    assert float(first[0]) == 1.0
