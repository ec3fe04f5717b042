"""Float-mode numerical integration of the catalogued systems and reductions.

``solve_ivp`` is a Dormand-Prince 5(4) integrator on Python floats for
states of two components, which is every state here: a planar system's
(x, y) and a second-order equation's (y, y').  Its step is written out in
the accept/reject loop, each stage as two local floats.  It follows scipy's
``RK45`` step for step: the same tableau and quartic dense output (Dormand &
Prince, "A family of embedded Runge-Kutta formulae", 1980), the same initial
step and step-size control (Hairer, Nørsett & Wanner, *Solving Ordinary
Differential Equations I*, §II.4-II.6), and the same terminal events: a sign
change of an event function over a step, then a root found by a bisection on
that step's interpolant to scipy's tolerance.  Each stage sums the tableau's
terms in ``RK45``'s order, first to last.  numpy's dot products may group
those sums differently, so step ends and states agree with scipy's to
rounding, not to the bit, while the number of steps and right-hand-side calls
is the same; numpy's per-operation overhead is gone.

Around it, compiled right-hand sides are integrated with singular guards on
every catalogued denominator, which stop the run before the state reaches a
singular locus; a run that starts inside a guard band stops at its start, so
it never integrates through the level it guards.  A second-order run is also
guarded at y = ∞: it stops when 1/y, the chart at infinity, comes within the
guard distance of zero, so a run toward a movable pole stops just before it
instead of crawling into it until the step size underflows.  Every run uses the same tolerances,
``RTOL`` and ``ATOL``, and the same guard distance, ``SINGULAR_GUARD``.
Every integration returns the ``Trajectory`` it integrated, whatever its
``status``: 0 at the window's end, 1 at a guard, -1 where the step size
underflowed.  Trajectories compare against the exact oracle and export as CSV.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Sequence, Tuple, Union

from .expr import Expr, compile_float
from .sampling import CaseResult
from .systems import PV_RHS, SINGULAR_Y, PlanarSystem, ScalarODE2

Scalar = Union[int, float, Fraction]
State = Sequence[float]


RTOL = 1e-10  # relative tolerance of every run
ATOL = 1e-12  # absolute tolerance of every run
SINGULAR_GUARD = 1e-6  # a run stops when a guarded quantity comes this close to zero


# --- the Dormand-Prince 5(4) solver ------------------------------------------

# scipy's RK45 tableau: nodes C, stages A, the 5th-order weights B, the error
# weights E (5th minus embedded 4th order, over the seven stages including
# FSAL) and the dense-output matrix P of the quartic interpolant.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200,
                                -22 / 525, 1 / 40)
_P = (  # one row per stage; the second stage's row is zero and left out below
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

SAFETY = 0.9  # multiplies the step size the error estimate asks for
MIN_FACTOR = 0.2  # largest decrease of the step size in one step
MAX_FACTOR = 10.0  # largest increase
ERROR_EXPONENT = -1 / 5  # -1/(order of the embedded estimate + 1)
EPS = sys.float_info.epsilon

UNDERFLOW = "Required step size is less than spacing between numbers."  # status -1


class _Step:
    """One accepted step and its quartic interpolant.

    The interpolant's coefficients are computed on its first call: most
    steps are never interpolated.  Until then the stages they need, all but
    the second, are kept unboxed in one array: the six of ``y0``, then the
    six of ``y1``.
    """

    __slots__ = ("t_old", "h", "y0", "y1", "stages", "_q")

    def __init__(self, t_old: float, h: float, y0: float, y1: float, stages: array):
        self.t_old, self.h, self.y0, self.y1, self.stages = t_old, h, y0, y1, stages
        self._q = None

    def __call__(self, t: float) -> Tuple[float, float]:
        q = self._q
        if q is None:
            q = self._q = _dense_coefficients(self.stages)
        h = self.h
        x = (t - self.t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        (q1, q2, q3, q4), (r1, r2, r3, r4) = q
        return (self.y0 + h * (q1 * x + q2 * x2 + q3 * x3 + q4 * x4),
                self.y1 + h * (r1 * x + r2 * x2 + r3 * x3 + r4 * x4))


@dataclass
class Trajectory:
    """One run of ``solve_ivp``: its step ends, the states there and each step's interpolant.

    Called at ``t``, it looks up the step as scipy's ``OdeSolution`` does: at
    a step end the earlier step's interpolant is used; before the first step
    end or after the last, the nearest step's.
    """

    # the start and the accepted step ends; the last is the root of a terminal event.
    # A run stopped at its start has the start only, and its one "step" is constant
    ts: Tuple[float, ...]
    states: Tuple[Tuple[float, ...], ...]  # states[j][i]: component j at ts[i]
    steps: List[Callable[[float], Tuple[float, ...]]]
    status: int  # 0 reached the end, 1 stopped at an event, -1 the step size underflowed
    nfev: int  # right-hand-side calls

    def __post_init__(self):
        self._sign = 1.0 if self.ts[-1] >= self.ts[0] else -1.0
        self._keys = [self._sign * tv for tv in self.ts]  # ascending

    def __call__(self, t: float) -> Tuple[float, ...]:
        last = len(self.steps) - 1
        return self.steps[min(max(bisect_left(self._keys, self._sign * t) - 1, 0), last)](t)

    @property
    def t1(self) -> float:
        return self.ts[-1]


_SQRT2 = 2 ** 0.5  # the RMS norm of a pair is its Euclidean norm over sqrt(2)


def _initial_step(fun, t0: float, y0: float, y1: float, f0: float, f1: float,
                  t_bound: float, direction: float) -> float:
    """Hairer, Nørsett & Wanner's starting step (§II.4), as scipy's ``select_initial_step``."""
    interval_length = abs(t_bound - t0)
    s0 = ATOL + abs(y0) * RTOL
    s1 = ATOL + abs(y1) * RTOL
    v0, v1 = y0 / s0, y1 / s1
    d0 = math.sqrt(v0 * v0 + v1 * v1) / _SQRT2
    v0, v1 = f0 / s0, f1 / s1
    d1 = math.sqrt(v0 * v0 + v1 * v1) / _SQRT2
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    g0, g1 = fun(t0 + h0 * direction, (y0 + h0 * direction * f0, y1 + h0 * direction * f1))
    v0, v1 = (g0 - f0) / s0, (g1 - f1) / s1
    d2 = math.sqrt(v0 * v0 + v1 * v1) / _SQRT2 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


# the columns of P: the weights of the six stages in the coefficient of x, x², x³, x⁴
_P_COLUMNS = tuple(zip(*_P))


def _dense_coefficients(stages) -> Tuple[List[float], List[float]]:
    """Q = Kᵀ P: per component, the coefficients of x, x², x³, x⁴ of the interpolant."""
    a0, c0, d0, e0, f0, g0, a1, c1, d1, e1, f1, g1 = stages
    return ([a0 * p1 + c0 * p3 + d0 * p4 + e0 * p5 + f0 * p6 + g0 * p7
             for p1, p3, p4, p5, p6, p7 in _P_COLUMNS],
            [a1 * p1 + c1 * p3 + d1 * p4 + e1 * p5 + f1 * p6 + g1 * p7
             for p1, p3, p4, p5, p6, p7 in _P_COLUMNS])


def _event_root(f: Callable[[float], float], a: float, b: float) -> float:
    """The crossing of ``f``'s sign change on ``[a, b]``, found by bisection.

    Each halving keeps the half whose ends differ in sign.  It stops at
    scipy's event tolerance, a width of at most ``4·EPS·max(|a|, |b|)``, or
    when the midpoint is an end, and returns the end past the crossing.  A
    zero of ``f`` at ``a`` or at a midpoint is returned as it is.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    fa = value(a)
    if fa == 0:
        return a
    while abs(b - a) > 4 * EPS * max(abs(a), abs(b)):
        m = (a + b) / 2
        if m == a or m == b:
            break
        fm = value(m)
        if fm == 0:
            return m
        if (fm < 0) == (fa < 0):
            a = m
        else:
            b = m
    return b


def solve_ivp(fun: Callable[[float, State], State], t_span: Tuple[float, float],
              y0: State, events: Sequence[Callable[[float, State], float]]) -> Trajectory:
    """Integrate ``y' = fun(t, y)`` over ``t_span`` as scipy's ``solve_ivp`` with RK45.

    The state has two components: ``y0`` is a pair, ``fun(t, (y0, y1))``
    returns one, and any other length is a ``ValueError``.  The seven stages
    of a step are local floats, each a sum of the tableau's terms in
    ``RK45``'s order.

    Every event is a terminal guard, positive where the run may go: the run
    stops at the first root, in the direction of integration, of any event
    function that changes sign over a step (status 1).  A run whose start has
    an event below zero, inside its guard band, stops there before its first
    step (status 1); an event exactly zero at the start is a root on the
    first step.  It gives up with status -1 when the step size falls
    below ten times the float spacing at ``t``.  A step whose stages divide
    by zero or overflow is rejected like one with an infinite error
    estimate.  ``t_span`` must have nonzero length.  The tolerances are
    ``RTOL`` and ``ATOL``.  The result is the ``Trajectory`` integrated,
    with its status and right-hand-side calls.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if t == t_bound:
        raise ValueError("the integration window has zero length")
    if len(y0) != 2:
        raise ValueError(f"the state must have two components, not {len(y0)}")
    direction = 1.0 if t_bound > t else -1.0
    y = (float(y0[0]), float(y0[1]))
    y0, y1 = y  # the state, component by component
    a0, a1 = fun(t, y)  # the first stage of the next step: fun at its start
    h_abs = _initial_step(fun, t, y0, y1, a0, a1, t_bound, direction)
    nfev = 2
    ts, ys0, ys1, steps = [t], [y0], [y1], []
    ev = [event(t, y) for event in events]  # each event's value at t
    if any(e < 0 for e in ev):  # the run starts inside a guard band
        return Trajectory((t,), ((y0,), (y1,)), [lambda tv: y], 1, nfev)
    status = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:  # shrink the step until it is accepted
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            nfev += 6
            try:  # one Dormand-Prince step: stages b to f, the new state z, then g at z
                b0, b1 = fun(t + _C2 * h, (y0 + (_A21 * a0) * h, y1 + (_A21 * a1) * h))
                c0, c1 = fun(t + _C3 * h, (y0 + (_A31 * a0 + _A32 * b0) * h,
                                           y1 + (_A31 * a1 + _A32 * b1) * h))
                d0, d1 = fun(t + _C4 * h, (y0 + (_A41 * a0 + _A42 * b0 + _A43 * c0) * h,
                                           y1 + (_A41 * a1 + _A42 * b1 + _A43 * c1) * h))
                e0, e1 = fun(t + _C5 * h,
                             (y0 + (_A51 * a0 + _A52 * b0 + _A53 * c0 + _A54 * d0) * h,
                              y1 + (_A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1) * h))
                f0, f1 = fun(t + h, (
                    y0 + (_A61 * a0 + _A62 * b0 + _A63 * c0 + _A64 * d0 + _A65 * e0) * h,
                    y1 + (_A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1 + _A65 * e1) * h))
                z0 = y0 + h * (_B1 * a0 + _B3 * c0 + _B4 * d0 + _B5 * e0 + _B6 * f0)
                z1 = y1 + h * (_B1 * a1 + _B3 * c1 + _B4 * d1 + _B5 * e1 + _B6 * f1)
                y_new = (z0, z1)
                g0, g1 = fun(t + h, y_new)
                # the error estimate over ATOL + max(|y|, |y_new|) * RTOL, per component
                v0 = ((_E1 * a0 + _E3 * c0 + _E4 * d0 + _E5 * e0 + _E6 * f0 + _E7 * g0) * h
                      / (ATOL + max(abs(y0), abs(z0)) * RTOL))
                v1 = ((_E1 * a1 + _E3 * c1 + _E4 * d1 + _E5 * e1 + _E6 * f1 + _E7 * g1) * h
                      / (ATOL + max(abs(y1), abs(z1)) * RTOL))
                error_norm = math.sqrt(v0 * v0 + v1 * v1) / _SQRT2
            except (ZeroDivisionError, OverflowError):
                error_norm = math.inf
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        else:  # the step size underflowed (or is NaN)
            status = -1
            break
        if direction * (t_new - t_bound) >= 0:
            status = 0
        step = _Step(t, h, y0, y1, array("d", (a0, c0, d0, e0, f0, g0, a1, c1, d1, e1, f1, g1)))
        steps.append(step)
        y_end = y_new
        ev_new = [event(t_new, y_new) for event in events]
        active = [event for event, a, b in zip(events, ev, ev_new)
                  if a <= 0 <= b or a >= 0 >= b]
        if active:
            roots = [_event_root(lambda tv, event=event: event(tv, step(tv)), t, t_new)
                     for event in active]
            t_new = min(roots) if direction > 0 else max(roots)
            y_end = step(t_new)
            status = 1
        ev = ev_new
        ts.append(t_new)
        ys0.append(y_end[0])
        ys1.append(y_end[1])
        t, y0, y1, a0, a1 = t_new, z0, z1, g0, g1
    return Trajectory(tuple(ts), (tuple(ys0), tuple(ys1)), steps, status, nfev)


# --- trajectories of the catalogued systems ----------------------------------


def _param_floats(params: Mapping[str, Scalar]) -> Dict[str, float]:
    return {k: float(v) for k, v in params.items()}


def integrate_planar(
    system: PlanarSystem,
    state0: Sequence[Scalar],
    t0: float,
    t1: float,
    params: Mapping[str, Scalar],
) -> Trajectory:
    """Integrate a catalogued planar system with denominator guards (a stop is status 1)."""
    pf = _param_floats(params)
    names = list(system.chart) + ["t"] + sorted(pf)
    pvals = tuple(pf[k] for k in sorted(pf))
    f1, f2, d1, d2 = (compile_float(e, names) for e in
                      (system.rhs1, system.rhs2, system.rhs1_den, system.rhs2_den))

    def rhs(t, s):
        args = (s[0], s[1], t, *pvals)
        return (f1(*args), f2(*args))

    events = [lambda t, s, _den=den: abs(_den(s[0], s[1], t, *pvals)) - SINGULAR_GUARD
              for den in (d1, d2)]
    return solve_ivp(rhs, (float(t0), float(t1)), state0, events)


def _integrate_second_order(rhs_expr: Expr, pf: Dict[str, float], levels: Sequence[float],
                            t0: float, t1: float, y0: Scalar, yp0: Scalar) -> Trajectory:
    """y'' = rhs_expr(y, yp, t, params) as the first-order (y, y') system.

    The run stops with status 1 when y comes within the guard distance of
    any of ``levels``, or of y = ∞: when |y| reaches ``1/SINGULAR_GUARD``,
    1/y is within the guard distance of zero, so a run stops just before a
    movable pole instead of underflowing its step size there.
    """
    names = ["y", "yp", "t"] + sorted(pf)
    pvals = tuple(pf[k] for k in sorted(pf))
    f = compile_float(rhs_expr, names)

    def rhs(t, s):
        return (s[1], f(s[0], s[1], t, *pvals))

    events = [lambda t, s, _level=level: abs(s[0] - _level) - SINGULAR_GUARD
              for level in levels]
    events.append(lambda t, s: 1 - SINGULAR_GUARD * abs(s[0]))  # the guard at y = ∞
    return solve_ivp(rhs, (float(t0), float(t1)), (y0, yp0), events)


def integrate_ode2(
    ode: ScalarODE2,
    y0: Scalar,
    yp0: Scalar,
    t0: float,
    t1: float,
    params: Mapping[str, Scalar],
) -> Trajectory:
    """Integrate a second-order reduction as the first-order (y, y') system.

    Guarded at y in {0, ±1} and at y = ∞ (status 1).  The three levels are the
    union of the charts' singular levels, which are PV's y = 0, 1 and ∞ in each
    chart's variable: -1 and 0 for ``ode_U11``, ``ode_U21``, ``ode_U31`` and
    ``ode_v54``, 0 and 1 for the V charts.  So every run also stops at a level
    its own chart is regular at.
    """
    return _integrate_second_order(ode.rhs, _param_floats(params), (0.0, 1.0, -1.0),
                                   t0, t1, y0, yp0)


def integrate_pv(params, t0: float, t1: float, y0: float, yp0: float) -> Trajectory:
    """Integrate the fifth Painlevé equation itself, ``PV_RHS`` (float parameters).

    Guarded at its singular values y in ``SINGULAR_Y`` and its movable poles, y = ∞ (status 1).
    """
    pe = _param_floats(params.as_env())
    return _integrate_second_order(PV_RHS, pe, SINGULAR_Y, t0, t1, y0, yp0)


def _nan_max(values: Sequence[float]) -> float:
    """The largest value, or NaN if any is NaN (``max`` keeps a NaN only when it comes first)."""
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def tolerance_case(case_id: str, ts: Sequence[float], deviation: Callable[[float], float],
                   tol: float, what: str) -> CaseResult:
    """The float verdict: PASS iff ``deviation(t) < tol`` at every ``t``, which NaN never is.

    The residual is the worst deviation, or ``nan`` if any deviation is NaN.
    A deviation that raises an ``ArithmeticError`` is NaN, and its failure
    names the error.  A case with no times checks nothing, so it FAILs.
    """
    if not ts:
        return CaseResult(case_id, "FAIL", residual="nan",
                          failures=[f"no sample times: the {what} was checked nowhere"])
    devs, failures = [], []
    for tv in ts:
        try:
            dev = deviation(tv)
        except ArithmeticError as exc:
            dev = math.nan
            failures.append(f"t = {tv}: the {what} raised {type(exc).__name__}: {exc}")
        else:
            if not dev < tol:
                failures.append(f"t = {tv}: {what} {dev} >= {tol}")
        devs.append(dev)
    return CaseResult(case_id, "FAIL" if failures else "PASS", residual=repr(_nan_max(devs)),
                      samples=len(devs), failures=failures)


def compare_trajectories(
    a: Trajectory,
    b: Callable[[float], Sequence[float]],
    tol: float,
    times: Sequence[float],
    case_id: str = "trajectory_compare",
) -> CaseResult:
    """Max relative deviation of b from a at ``times``; PASS iff < tol.

    A run ``a`` that stopped early (``status`` not 0) never covered its window: it FAILs.
    """
    if a.status != 0:
        return CaseResult(case_id, "FAIL", residual="nan",
                          failures=[f"the run stopped at t = {a.t1} before its end"])

    def deviation(tv):
        return _nan_max([abs(va - float(vb)) / max(1.0, abs(va))
                         for va, vb in zip(a(tv), b(tv))])

    return tolerance_case(case_id, list(times), deviation, tol, "relative deviation")


def trajectory_csv(traj: Trajectory) -> str:
    """CSV export: header t,coord1,coord2, 17 significant digits."""
    lines = ["t,coord1,coord2"]
    for row in zip(traj.ts, *traj.states):
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(lines) + "\n"

