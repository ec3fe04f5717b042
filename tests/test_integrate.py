import dataclasses
import gc
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import krawpv
from krawpv import expr, integrate
from krawpv.expr import ONE, ZERO, syms
from krawpv.integrate import (
    IntegrationError,
    IntegratorConfig,
    SingularGuardError,
    compare_trajectories,
    integrate_ode2,
    integrate_planar,
    trajectory_csv,
)
from krawpv.oracle import WeightParams, oracle_xy
from krawpv.systems import PlanarSystem, get_ode2, get_system

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


def test_nan_in_a_later_component_fails():
    # max() keeps a NaN only when it comes first; the deviation must not drop it
    system = get_system("original")
    traj = integrate_planar(system, oracle_point(1), 1.0, 2.0, PARAMS)
    case = compare_trajectories(traj, lambda t: (traj(t)[0], float("nan")), 1e-6,
                                times=[1.5, 2.0])
    assert case.status == "FAIL"
    assert case.residual == "nan"
    assert len(case.failures) == 2


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


def test_stopped_run_is_freed_without_the_cycle_collector():
    # a stopped run can hold thousands of steps; the error must not keep it in a cycle
    system = get_system("original")
    gc.disable()
    try:
        try:
            integrate_planar(system, (0.5, -0.45), 1.0, 2.0, PARAMS,
                             IntegratorConfig(singular_guard=1e-3))
        except SingularGuardError as exc:
            stop = weakref.ref(exc.trajectory)
        assert stop() is None
    finally:
        gc.enable()


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


def convergence_errors(system, state0, t0, t1, params, rtols=(1e-5, 1e-7, 1e-9)):
    """Endpoint errors against a reference run at rtol 1e-12, one per tolerance rung."""
    def endpoint(rtol):
        cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-2)
        return integrate_planar(system, state0, t0, t1, params, cfg).endpoint()

    ref_end = endpoint(1e-12)
    return [integrate._nan_max([abs(a - b) for a, b in zip(endpoint(rt), ref_end)])
            for rt in rtols]


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


def test_integrated_trees_compile_once(monkeypatch):
    # trees built anew, so that no earlier run has compiled them
    base, ode = get_system("original"), get_ode2("ode_U11")
    system = dataclasses.replace(base, **{
        f: getattr(base, f).subs({}) for f in ("rhs1_num", "rhs1_den", "rhs2_num", "rhs2_den")})
    ode = dataclasses.replace(ode, rhs=ode.rhs.subs({}))
    defined = []
    define = expr._define
    monkeypatch.setattr(expr, "_define", lambda *args: defined.append(args[0]) or define(*args))
    for _ in range(2):
        integrate_planar(system, oracle_point(1), 1.0, 1.2, PARAMS)
    assert len(defined) == 4  # both quotients and both guarded denominators
    for _ in range(2):
        integrate_ode2(ode, 2.0, 0.25, 1.0, 1.5, {"n": 1, "N": 3, "alpha": 0.5})
    assert len(defined) == 5


# --- the solver against scipy's RK45, and on its own -------------------------


def _solver_calls(monkeypatch):
    """Record the arguments and result of every ``solve_ivp`` call ``integrate`` makes."""
    calls = []
    original = integrate.solve_ivp

    def spy(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(integrate, "solve_ivp", spy)
    return calls


def _scipy_rk45(fun, t_span, y0, rtol, atol, events):
    np = pytest.importorskip("numpy")
    scipy_integrate = pytest.importorskip("scipy.integrate")
    terminal = []
    for event in events:
        def g(t, s, event=event):
            return event(t, s)
        g.terminal = True
        terminal.append(g)
    return scipy_integrate.solve_ivp(fun, t_span, np.asarray(y0, dtype=float), method="RK45",
                                     dense_output=True, rtol=rtol, atol=atol, events=terminal)


def test_steps_match_scipy_rk45(monkeypatch):
    # acceptance criterion 04's run: the same right-hand-side calls and steps as scipy
    calls = _solver_calls(monkeypatch)
    integrate_planar(get_system("original"), oracle_point(1), 1.0, 2.0, PARAMS)
    (args, ours), = calls
    ref = _scipy_rk45(*args)
    assert ours.status == ref.status == 0
    assert ours.nfev == ref.nfev == 170
    assert len(ours.t) == len(ref.t)
    assert max(abs(a - b) for a, b in zip((c[-1] for c in ours.y), ref.y[:, -1])) < 1e-12
    for tv in (1.0, 1.37, 1.5, 2.0):
        assert max(abs(a - b) for a, b in zip(ours.sol(tv), ref.sol(tv))) < 1e-12


def test_guard_event_root_matches_scipy(monkeypatch):
    calls = _solver_calls(monkeypatch)
    with pytest.raises(SingularGuardError):
        integrate_planar(get_system("original"), (0.5, -0.45), 1.0, 2.0, PARAMS,
                         IntegratorConfig(singular_guard=1e-3))
    (args, ours), = calls
    ref = _scipy_rk45(*args)
    assert ours.status == ref.status == 1
    assert abs(ours.t[-1] - ref.t[-1]) < 1e-9


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x * x - 2, 0.0, 2.0),
    (lambda x: x * x - 2, 2.0, 0.0),
    (lambda x: 1 - x - x ** 5 / 3, 0.0, 1.5),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 1e-3, -10.0, 5.0),
])
def test_event_root_finder_is_scipy_brentq(f, a, b):
    # the same float operations in the same order: the same root, bit for bit
    optimize = pytest.importorskip("scipy.optimize")
    eps = sys.float_info.epsilon
    assert integrate._brentq(f, a, b) == optimize.brentq(f, a, b, xtol=4 * eps, rtol=4 * eps)


def test_event_root_finder_rejects_what_scipy_rejects():
    with pytest.raises(ValueError, match="different signs"):
        integrate._brentq(lambda x: x * x + 1, -1.0, 1.0)
    with pytest.raises(RuntimeError, match="100 iterations"):  # a triple root: too slow
        integrate._brentq(lambda x: (x - 1.25) ** 3, -1.0, 3.0)


def test_blow_up_is_an_integration_error_not_a_guard():
    # u' = u^2, u(0) = 1 has the pole u = 1/(1 - t): the step size underflows before t = 1
    u, v = syms("u v")
    blow_up = PlanarSystem("blow_up", ("u", "v"), u ** 2, ONE, ZERO, ONE)
    with pytest.raises(IntegrationError) as exc:
        integrate_planar(blow_up, (1.0, 0.0), 0.0, 2.0, {})
    assert type(exc.value) is IntegrationError
    assert str(exc.value) == "Required step size is less than spacing between numbers."
    assert 0.99 < exc.value.trajectory.t1 < 1.0


@pytest.mark.parametrize("t0, t1", [(1.0, 2.0), (2.0, 1.0)])
def test_dense_output_meets_every_step_end(t0, t1):
    traj = integrate_planar(get_system("original"), oracle_point(t0), t0, t1, PARAMS)
    assert traj.t0 == t0 and traj.t1 == t1 and len(traj.ts) > 10
    steps = [b - a for a, b in zip(traj.ts, traj.ts[1:])]
    assert all(h > 0 for h in steps) if t1 > t0 else all(h < 0 for h in steps)
    for i, tv in enumerate(traj.ts):
        stored = [component[i] for component in traj.states]
        assert max(abs(a - b) for a, b in zip(traj(tv), stored)) < 1e-14
    want = oracle_point(t1)
    assert max(abs(a - b) for a, b in zip(traj.endpoint(), want)) < 1e-7


def test_no_numpy_or_scipy_at_run_time():
    # a fresh interpreter: importing the package and integrating loads neither
    code = (
        "import sys\n"
        "import krawpv.cli, krawpv.integrate, krawpv.painleve\n"
        "code = krawpv.cli.main(['--integrate', 'original', '--N', '3', '--n', '1'])\n"
        "loaded = sorted(m for m in ('numpy', 'scipy') if m in sys.modules)\n"
        "sys.exit(f'exit {code}, loaded {loaded}' if code or loaded else 0)\n"
    )
    src = str(Path(krawpv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("t,coord1,coord2\n")
