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
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65,
    _B1, _B3, _B4, _B5, _B6, _C2, _C3, _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7,
    ERROR_EXPONENT, MAX_FACTOR, MIN_FACTOR, SAFETY,
    Trajectory,
    compare_trajectories,
    integrate_ode2,
    integrate_planar,
    integrate_pv,
    tolerance_case,
    trajectory_csv,
)
from krawpv.oracle import WeightParams, oracle_xy
from krawpv.painleve import (
    _trajectory_case,
    pv_params_for,
    verify_reduction_trajectory,
    verify_trajectory,
)
from krawpv.reports import RunConfig, run_suite
from krawpv.systems import PlanarSystem, get_ode2, get_system

PARAMS = {"n": 1, "N": 2, "alpha": Fraction(0)}


def oracle_point(t, n=1, N=2, alpha=Fraction(0)):
    xy = oracle_xy(WeightParams(N, alpha, Fraction(t).limit_denominator(10**6)), n)
    return float(xy.x[n]), float(xy.y[n])


def endpoint(traj):
    return tuple(component[-1] for component in traj.states)


def test_endpoint_matches_oracle():
    system = get_system("original")
    ic = oracle_point(1)
    traj = integrate_planar(system, ic, 1.0, 2.0, PARAMS)
    want = oracle_point(2)
    got = endpoint(traj)
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


def test_a_case_with_no_times_fails():
    # zero samples prove nothing: neither entry point may PASS vacuously
    system = get_system("original")
    traj = integrate_planar(system, oracle_point(1), 1.0, 2.0, PARAMS)
    for case, what in [(compare_trajectories(traj, lambda t: traj(t), 1e-6, times=[]),
                        "relative deviation"),
                       (tolerance_case("x", [], lambda t: 0.0, 1e-6, "residual"), "residual")]:
        assert case.status == "FAIL" and case.samples == 0 and case.residual == "nan"
        assert case.failures == [f"no sample times: the {what} was checked nowhere"]


def test_a_deviation_that_raises_is_nan_and_names_the_error():
    def deviation(t):
        if t == 2.0:
            raise ZeroDivisionError("division by zero in t")
        return 0.0

    case = tolerance_case("x", [1.0, 2.0, 3.0], deviation, 1e-6, "residual")
    assert (case.status, case.residual, case.samples) == ("FAIL", "nan", 3)
    assert case.failures == [
        "t = 2.0: the residual raised ZeroDivisionError: division by zero in t"]


def test_nan_in_a_later_component_fails():
    # max() keeps a NaN only when it comes first; the deviation must not drop it
    system = get_system("original")
    traj = integrate_planar(system, oracle_point(1), 1.0, 2.0, PARAMS)
    case = compare_trajectories(traj, lambda t: (traj(t)[0], float("nan")), 1e-6,
                                times=[1.5, 2.0])
    assert case.status == "FAIL"
    assert case.residual == "nan"
    assert len(case.failures) == 2


def _guard_stop():
    # drive the base system toward the p + q = 0 locus
    return integrate_planar(get_system("original"), (0.5, -0.45), 1.0, 2.0, PARAMS)


def test_singular_guard_trips():
    # the run is returned up to the stop, with status 1
    stop = _guard_stop()
    assert stop.ts[0] == 1.0 and 1.05 < stop.t1 < 1.06 and stop.status == 1
    assert len(stop.steps) == len(stop.ts) - 1
    assert max(abs(a - b) for a, b in zip(stop(stop.t1), endpoint(stop))) < 1e-14


@pytest.mark.parametrize("times", [None, [1.01, 1.02], [1.01, 1.5, 2.0], []])
def test_compare_trajectories_fails_a_stopped_run(times):
    # a stopped run never covered its window: against itself, at any times, it FAILs
    stop = _guard_stop()
    case = compare_trajectories(stop, lambda t: stop(t), 1e-6, times=times)
    assert (case.status, case.samples, case.residual) == ("FAIL", 0, "nan")
    assert case.failures == [f"the run stopped at t = {stop.t1} before its end"]


def test_stopped_run_is_freed_without_the_cycle_collector():
    # a stopped run can hold thousands of steps; nothing may keep it in a cycle
    gc.disable()
    try:
        stop = weakref.ref(_guard_stop())
        assert stop() is None
    finally:
        gc.enable()


def test_zero_length_interval():
    system = get_system("original")
    with pytest.raises(ValueError, match="zero length"):
        integrate_planar(system, oracle_point(1), 1.0, 1.0, PARAMS)


def convergence_errors(monkeypatch, system, state0, t0, t1, params,
                       rtols=(1e-5, 1e-7, 1e-9)):
    """Endpoint errors against a reference run at rtol 1e-12, one per tolerance rung."""
    def end(rtol):
        monkeypatch.setattr(integrate, "RTOL", rtol)
        monkeypatch.setattr(integrate, "ATOL", rtol * 1e-2)
        return endpoint(integrate_planar(system, state0, t0, t1, params))

    ref_end = end(1e-12)
    return [integrate._nan_max([abs(a - b) for a, b in zip(end(rt), ref_end)])
            for rt in rtols]


def test_convergence_trend(monkeypatch):
    system = get_system("original")
    errs = convergence_errors(monkeypatch, system, oracle_point(1), 1.0, 2.0, PARAMS)
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
    """Record every ``solve_ivp`` call ``integrate`` makes and its result.

    The arguments are recorded as the references below take them:
    ``(fun, t_span, y0, rtol, atol, events)``, with the module's tolerances.
    """
    calls = []
    original = integrate.solve_ivp

    def spy(fun, t_span, y0, events):
        result = original(fun, t_span, y0, events)
        calls.append(((fun, t_span, y0, integrate.RTOL, integrate.ATOL, events), result))
        return result

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
    assert len(ours.ts) == len(ref.t)
    assert max(abs(a - b) for a, b in zip(endpoint(ours), ref.y[:, -1])) < 1e-12
    for tv in (1.0, 1.37, 1.5, 2.0):
        assert max(abs(a - b) for a, b in zip(ours(tv), ref.sol(tv))) < 1e-12


def test_guard_event_root_matches_scipy(monkeypatch):
    calls = _solver_calls(monkeypatch)
    _guard_stop()
    (args, ours), = calls
    ref = _scipy_rk45(*args)
    assert ours.status == ref.status == 1
    assert abs(ours.t1 - ref.t[-1]) < 1e-9


def assert_past_a_crossing(f, a, b, x):
    """x lies in [a, b], and f is zero at x or changes sign from 4·EPS·|x| before it to x."""
    assert min(a, b) <= x <= max(a, b)
    back = x - math.copysign(4 * sys.float_info.epsilon * abs(x), b - a)  # toward a
    fx, fback = f(x), f(back)
    assert fx == 0 or fback == 0 or (fback < 0) != (fx < 0), (a, b, x, fback, fx)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x * x - 2, 0.0, 2.0),
    (lambda x: x * x - 2, 2.0, 0.0),
    (lambda x: 1 - x - x ** 5 / 3, 0.0, 1.5),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 1e-3, -10.0, 5.0),
    (lambda x: (x - 1.25) ** 3, -1.0, 3.0),  # a triple root
])
def test_event_root_finder_stops_past_the_crossing(f, a, b):
    assert_past_a_crossing(f, a, b, integrate._event_root(f, a, b))


def test_event_root_finder_returns_a_zero_at_the_start():
    assert integrate._event_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0


@pytest.mark.parametrize("f", [
    lambda x: math.nan,  # at the start
    lambda x: math.nan if x == 0.5 else x - 0.75,  # at the first midpoint
])
def test_event_root_finder_rejects_nan(f):
    with pytest.raises(ValueError, match="is NaN; solver cannot continue"):
        integrate._event_root(f, 0.0, 1.0)


def test_an_event_zero_at_the_start_stops_the_run_there():
    stop = integrate.solve_ivp(lambda t, s: (1.0, s[0]), (1.0, 2.0), (1.0, 0.0),
                               [lambda t, s: s[0] - 1.0])
    assert stop.status == 1
    assert stop.ts == (1.0, 1.0)
    assert stop.states == ((1.0, 1.0), (0.0, 0.0))


@pytest.mark.parametrize("suite, count", [("pv", 5), ("backlund", 1)])
def test_every_guard_stop_of_a_suite_is_past_a_crossing(monkeypatch, suite, count):
    # the events of the default runs, each on the interpolant of the step it stops
    found = []
    finder = integrate._event_root

    def spy(f, a, b):
        x = finder(f, a, b)
        found.append((f, a, b, x))
        return x

    monkeypatch.setattr(integrate, "_event_root", spy)
    run_suite(suite, RunConfig())
    assert len(found) == count
    for f, a, b, x in found:
        assert_past_a_crossing(f, a, b, x)


def _blow_up():
    # u' = u^2, u(0) = 1 has the pole u = 1/(1 - t): the step size underflows before t = 1
    u, v = syms("u v")
    blow_up = PlanarSystem("blow_up", ("u", "v"), u ** 2, ONE, ZERO, ONE)
    return integrate_planar(blow_up, (1.0, 0.0), 0.0, 2.0, {})


def test_blow_up_underflows_rather_than_tripping_a_guard():
    stop = _blow_up()
    assert stop.status == -1
    assert 0.99 < stop.t1 < 1.0
    assert integrate.UNDERFLOW == "Required step size is less than spacing between numbers."


def test_the_guard_at_infinity_is_not_called_a_denominator():
    # y reaches the guard at y = ∞, 1e6, near t = 1.2503; no denominator is near zero
    stop = integrate_ode2(get_ode2("ode_U21"), 2.0, 5.0, 1.0, 2.0,
                          {"n": 1, "N": 3, "alpha": 0.5})
    assert stop.status == 1 and 1.25 < stop.t1 < 1.2504
    y, yp = endpoint(stop)
    eps = sys.float_info.epsilon
    assert abs(abs(y) - 1 / integrate.SINGULAR_GUARD) <= 4 * eps * stop.t1 * abs(yp)
    # no window of [1, 40] halved seven times ends before the stop
    case = _trajectory_case("x", lambda t_end: stop, lambda tv, y, yp: 0.0, 1.0, 40.0,
                            1e-6, "PV")
    assert case.failures == [
        f"no singularity-free window found: a guard stopped the run near t = {stop.t1}"]
    compared = compare_trajectories(stop, lambda t: stop(t), 1e-6)
    for failure in (*case.failures, *compared.failures):
        assert "denominator" not in failure


POLES = {  # the anchor runs at their defaults, each toward a movable pole of its PV solution
    "trajectory:second_to_third": (lambda: verify_trajectory("second_to_third"), 1.339939),
    "reduction_trajectory:ode_U21": (lambda: verify_reduction_trajectory("ode_U21"), 1.339939),
    "reduction_trajectory:ode_U31": (lambda: verify_reduction_trajectory("ode_U31"), 1.455389),
    "reduction_trajectory:ode_V22": (lambda: verify_reduction_trajectory("ode_V22"), 1.339939),
    "reduction_trajectory:ode_V32": (lambda: verify_reduction_trajectory("ode_V32"), 1.455389),
}


@pytest.mark.parametrize("case_id", POLES)
def test_a_second_order_run_stops_at_the_guard_before_a_pole(monkeypatch, case_id):
    # |y| = 1/SINGULAR_GUARD is a terminal event: the run stops just before the pole,
    # in half the right-hand-side calls of a crawl to step-size underflow, same verdict
    calls = _solver_calls(monkeypatch)
    go, pole = POLES[case_id]
    case = go()
    (_, run), = calls
    assert run.status == 1
    # |y| is 1e6 up to the event root's tolerance in t, 4 eps t, times |y'| (about 2e12)
    y, yp = (component[-1] for component in run.states)
    eps = sys.float_info.epsilon
    assert abs(abs(y) - 1 / integrate.SINGULAR_GUARD) <= 4 * eps * run.t1 * abs(yp)
    assert abs(run.t1 - pole) < 1e-5
    assert run.nfev < 6000
    assert (case.id, case.status, case.samples) == (case_id, "PASS", 20)


def test_a_bounded_second_order_run_is_unchanged_by_the_guard_at_infinity(monkeypatch):
    calls = _solver_calls(monkeypatch)
    case = verify_reduction_trajectory("ode_U11")
    (_, run), = calls
    assert (run.status, run.nfev) == (0, 884)
    assert case.passed


@pytest.mark.parametrize("t0, t1", [(1.0, 2.0), (2.0, 1.0)])
def test_dense_output_meets_every_step_end(t0, t1):
    traj = integrate_planar(get_system("original"), oracle_point(t0), t0, t1, PARAMS)
    assert traj.ts[0] == t0 and traj.t1 == t1 and len(traj.ts) > 10
    steps = [b - a for a, b in zip(traj.ts, traj.ts[1:])]
    assert all(h > 0 for h in steps) if t1 > t0 else all(h < 0 for h in steps)
    for i, tv in enumerate(traj.ts):
        stored = [component[i] for component in traj.states]
        assert max(abs(a - b) for a, b in zip(traj(tv), stored)) < 1e-14
    want = oracle_point(t1)
    assert max(abs(a - b) for a, b in zip(endpoint(traj), want)) < 1e-7


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


# --- the solver against the n-component loop it replaced ---------------------
#
# A test-only reference: the Dormand-Prince loop over n-component lists, as
# the solver was written before its step was unrolled for pairs.  The solver
# must give the same floats, not merely close ones: same steps, same
# right-hand-side calls, same dense output.


def _reference_rms(values, n):
    return math.sqrt(sum(v * v for v in values)) / n ** 0.5


def _reference_initial_step(fun, t0, y0, f0, t_bound, direction, rtol, atol):
    n = len(y0)
    interval_length = abs(t_bound - t0)
    scale = [atol + abs(yi) * rtol for yi in y0]
    d0 = _reference_rms((yi / s for yi, s in zip(y0, scale)), n)
    d1 = _reference_rms((fi / s for fi, s in zip(f0, scale)), n)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, [yi + h0 * direction * fi for yi, fi in zip(y0, f0)])
    d2 = _reference_rms(((b - a) / s for a, b, s in zip(f0, f1, scale)), n) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _reference_rk_step(fun, t, y, f, h):
    k1 = f
    k2 = fun(t + _C2 * h, [yi + (_A21 * a) * h for yi, a in zip(y, k1)])
    k3 = fun(t + _C3 * h, [yi + (_A31 * a + _A32 * b) * h
                           for yi, a, b in zip(y, k1, k2)])
    k4 = fun(t + _C4 * h, [yi + (_A41 * a + _A42 * b + _A43 * c) * h
                           for yi, a, b, c in zip(y, k1, k2, k3)])
    k5 = fun(t + _C5 * h, [yi + (_A51 * a + _A52 * b + _A53 * c + _A54 * d) * h
                           for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k6 = fun(t + h, [yi + (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e) * h
                     for yi, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    y_new = [yi + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
             for yi, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
    k7 = fun(t + h, y_new)
    return y_new, (k1, k2, k3, k4, k5, k6, k7)


def _reference_error_norm(K, h, y, y_new, rtol, atol):
    k1, _, k3, k4, k5, k6, k7 = K
    return _reference_rms(
        ((_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g) * h
         / (atol + max(abs(yi), abs(yn)) * rtol)
         for a, c, d, e, f, g, yi, yn in zip(k1, k3, k4, k5, k6, k7, y, y_new)),
        len(y),
    )


class _ReferenceStep:
    def __init__(self, t_old, h, y_old, K):
        self.t_old, self.h, self.y_old = t_old, h, y_old
        self.stages = [K[0], *K[2:]]

    def __call__(self, t):
        h = self.h
        x = (t - self.t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        q = [tuple(a * p1 + c * p3 + d * p4 + e * p5 + f * p6 + g * p7
                   for p1, p3, p4, p5, p6, p7 in zip(*integrate._P))
             for a, c, d, e, f, g in zip(*self.stages)]
        return tuple(yi + h * (q1 * x + q2 * x2 + q3 * x3 + q4 * x4)
                     for yi, (q1, q2, q3, q4) in zip(self.y_old, q))


def reference_solve_ivp(fun, t_span, y0, rtol, atol, events):
    t, t_bound = float(t_span[0]), float(t_span[1])
    direction = 1.0 if t_bound > t else -1.0
    y = [float(v) for v in y0]
    f = fun(t, y)
    h_abs = _reference_initial_step(fun, t, y, f, t_bound, direction, rtol, atol)
    nfev = 2
    ts, ys, steps = [t], [tuple(y)], []
    g = [event(t, y) for event in events]
    status = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            nfev += 6
            try:
                y_new, K = _reference_rk_step(fun, t, y, f, h)
                error_norm = _reference_error_norm(K, h, y, y_new, rtol, atol)
            except (ZeroDivisionError, OverflowError):
                error_norm = math.inf
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        else:
            status = -1
            break
        if direction * (t_new - t_bound) >= 0:
            status = 0
        step = _ReferenceStep(t, h, y, K)
        steps.append(step)
        y_end = y_new
        g_new = [event(t_new, y_new) for event in events]
        active = [event for event, a, b in zip(events, g, g_new)
                  if a <= 0 <= b or a >= 0 >= b]
        if active:
            roots = [integrate._event_root(lambda tv, event=event: event(tv, step(tv)), t, t_new)
                     for event in active]
            t_new = min(roots) if direction > 0 else max(roots)
            y_end = step(t_new)
            status = 1
        g = g_new
        if len(ts) > 1 and ts[-1] == t_new:
            steps.pop()
        else:
            ts.append(t_new)
            ys.append(tuple(y_end))
        t, y, f = t_new, y_new, K[-1]
    return Trajectory(tuple(ts), tuple(zip(*ys)), steps, status, nfev)


REFERENCE_RUNS = {  # each with the status of its solves
    "original_forward": (lambda: integrate_planar(
        get_system("original"), oracle_point(1), 1.0, 2.0, PARAMS), 0),
    "original_backward": (lambda: integrate_planar(
        get_system("original"), oracle_point(2), 2.0, 1.0, PARAMS), 0),
    "guard_abort": (_guard_stop, 1),
    # integrate_ode2 until y reaches the guard at infinity before a movable pole
    "ode_U21": (lambda: verify_reduction_trajectory("ode_U21"), 1),
    "pv": (lambda: integrate_pv(
        pv_params_for("ode_U11").evaluate({"n": 1.0, "N": 3.0, "alpha": 0.5}),
        1.0, 2.0, 3.0, 0.25), 0),
    "blow_up": (_blow_up, -1),
}


@pytest.mark.parametrize("run", REFERENCE_RUNS)
def test_steps_equal_the_n_component_reference(monkeypatch, run):
    calls = _solver_calls(monkeypatch)
    go, status = REFERENCE_RUNS[run]
    go()
    (args, ours), = calls
    ref = reference_solve_ivp(*args)
    assert ours.status == ref.status == status
    assert ours.ts == ref.ts and len(ours.ts) > 2
    assert ours.states == ref.states
    assert ours.nfev == ref.nfev
    mids = [(a + b) / 2 for a, b in zip(ours.ts, ours.ts[1:])]
    for tv in (*ours.ts, *mids):
        assert ours(tv) == ref(tv), tv


@pytest.mark.parametrize("y0", [(1.0,), (1.0, 2.0, 3.0)])
def test_a_state_must_be_a_pair(y0):
    with pytest.raises(ValueError, match="two components"):
        integrate.solve_ivp(lambda t, s: s, (0.0, 1.0), y0, [])
