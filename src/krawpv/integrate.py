"""Float-mode numerical integration of the catalogued systems and reductions.

``solve_ivp`` is a Dormand-Prince 5(4) integrator on Python floats and
tuples.  It follows scipy's ``RK45`` step for step: the same tableau and
quartic dense output (Dormand & Prince, "A family of embedded Runge-Kutta
formulae", 1980), the same initial step and step-size control (Hairer,
Nørsett & Wanner, *Solving Ordinary Differential Equations I*, §II.4-II.6),
and the same terminal events: a sign change of an event function over a
step, then a Brent root on that step's interpolant.  On the two-component
systems here it does the same steps and right-hand-side calls as scipy
without numpy's per-operation overhead.

Around it, compiled right-hand sides are integrated with singular guards on
every catalogued denominator, which abort the run before the state reaches a
singular locus.  Trajectories compare against the exact oracle and export as
CSV.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import (Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .expr import Expr, compile_float
from .sampling import CaseResult
from .systems import PlanarSystem, ScalarODE2

Scalar = Union[int, float, Fraction]
State = Sequence[float]


class IntegrationError(Exception):
    """A bad config, or a run that stopped early (its ``trajectory`` is the part integrated)."""


class SingularGuardError(IntegrationError):
    """A catalogued denominator came within the guard distance of zero."""


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    singular_guard: float = 1e-6

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise IntegrationError("tolerances must be positive")
        if self.singular_guard < 0:
            raise IntegrationError("guard distance must be nonnegative")


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

MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
    -1: "Required step size is less than spacing between numbers.",
}


class OdeResult(NamedTuple):
    t: Tuple[float, ...]  # the accepted step ends; the last is the root of a terminal event
    y: Tuple[Tuple[float, ...], ...]  # y[j][i]: component j at t[i]
    sol: "DenseOutput"
    status: int  # 0 reached the end, 1 stopped at an event, -1 the step size underflowed
    message: str
    nfev: int  # right-hand-side calls


class DenseOutput:
    """The quartic interpolant of every step, looked up as scipy's ``OdeSolution`` does.

    At a step end the earlier step's interpolant is used; before the first
    step end or after the last, the nearest step's.
    """

    def __init__(self, ts: Sequence[float], steps: List["_Step"]):
        self._sign = 1.0 if ts[-1] >= ts[0] else -1.0
        self._keys = [self._sign * tv for tv in ts]  # ascending
        self._steps = steps

    def __call__(self, t: float) -> Tuple[float, ...]:
        last = len(self._steps) - 1
        return self._steps[min(max(bisect_left(self._keys, self._sign * t) - 1, 0), last)](t)


class _Step:
    """One accepted step and its quartic interpolant.

    The interpolant's coefficients are computed on its first call: most
    steps are never interpolated.  Until then the stages they need, all but
    the second, are kept unboxed: per component, its six stages in one array.
    """

    __slots__ = ("t_old", "h", "y_old", "stages", "_q")

    def __init__(self, t_old: float, h: float, y_old: State, K: tuple):
        self.t_old, self.h, self.y_old = t_old, h, y_old
        self.stages = array("d", chain.from_iterable(zip(K[0], *K[2:])))
        self._q = None

    def __call__(self, t: float) -> Tuple[float, ...]:
        q = self._q
        if q is None:
            q = self._q = _dense_coefficients(self.stages)
        h = self.h
        x = (t - self.t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return tuple(yi + h * (q1 * x + q2 * x2 + q3 * x3 + q4 * x4)
                     for yi, (q1, q2, q3, q4) in zip(self.y_old, q))


def _rms(values: Iterable[float], n: int) -> float:
    return math.sqrt(sum(v * v for v in values)) / n ** 0.5


def _initial_step(fun, t0: float, y0: State, f0: State, t_bound: float,
                  direction: float, rtol: float, atol: float) -> float:
    """Hairer, Nørsett & Wanner's starting step (§II.4), as scipy's ``select_initial_step``."""
    n = len(y0)
    interval_length = abs(t_bound - t0)
    scale = [atol + abs(yi) * rtol for yi in y0]
    d0 = _rms((yi / s for yi, s in zip(y0, scale)), n)
    d1 = _rms((fi / s for fi, s in zip(f0, scale)), n)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, [yi + h0 * direction * fi for yi, fi in zip(y0, f0)])
    d2 = _rms(((b - a) / s for a, b, s in zip(f0, f1, scale)), n) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t: float, y: State, f: State, h: float):
    """One Dormand-Prince step of size ``h`` from ``(t, y)``, where ``f = fun(t, y)``.

    Returns the new state and the seven stages (the last is ``fun`` at the
    new state).
    """
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


def _error_norm(K, h: float, y: State, y_new: State, rtol: float, atol: float) -> float:
    k1, _, k3, k4, k5, k6, k7 = K
    return _rms(
        ((_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g) * h
         / (atol + max(abs(yi), abs(yn)) * rtol)
         for a, c, d, e, f, g, yi, yn in zip(k1, k3, k4, k5, k6, k7, y, y_new)),
        len(y),
    )


def _dense_coefficients(stages) -> Tuple[Tuple[float, float, float, float], ...]:
    """Q = Kᵀ P: per component, the coefficients of x, x², x³, x⁴ of the interpolant."""
    return tuple(
        tuple(a * p1 + c * p3 + d * p4 + e * p5 + f * p6 + g * p7
              for p1, p3, p4, p5, p6, p7 in zip(*_P))
        for a, c, d, e, f, g in (stages[j:j + 6] for j in range(0, len(stages), 6))
    )


def _brentq(f: Callable[[float], float], xa: float, xb: float) -> float:
    """A root of ``f`` bracketed by ``[xa, xb]``: a port of scipy's ``brentq``.

    Brent's method (inverse quadratic interpolation, secant or bisection),
    with ``xtol = rtol = 4·EPS`` as scipy's event location uses it, and at
    most 100 iterations.
    """
    xtol = rtol = 4 * EPS

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1, fpre) == math.copysign(1, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1, fpre) != math.copysign(1, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur}")


def solve_ivp(fun: Callable[[float, State], State], t_span: Tuple[float, float],
              y0: State, rtol: float, atol: float,
              events: Sequence[Callable[[float, State], float]]) -> OdeResult:
    """Integrate ``y' = fun(t, y)`` over ``t_span`` as scipy's ``solve_ivp`` with RK45.

    Every event is terminal: the run stops at the first root, in the
    direction of integration, of any event function that changes sign over a
    step (status 1).  It gives up with status -1 when the step size falls
    below ten times the float spacing at ``t``.  A step whose stages divide
    by zero or overflow is rejected like one with an infinite error
    estimate.  ``t_span`` must have nonzero length.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if t == t_bound:
        raise ValueError("the integration window has zero length")
    direction = 1.0 if t_bound > t else -1.0
    y = [float(v) for v in y0]
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, direction, rtol, atol)
    nfev = 2
    ts, ys, steps = [t], [tuple(y)], []
    g = [event(t, y) for event in events]
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
            try:
                y_new, K = _rk_step(fun, t, y, f, h)
                error_norm = _error_norm(K, h, y, y_new, rtol, atol)
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
        step = _Step(t, h, y, K)
        steps.append(step)
        y_end = y_new
        g_new = [event(t_new, y_new) for event in events]
        active = [event for event, a, b in zip(events, g, g_new)
                  if a <= 0 <= b or a >= 0 >= b]
        if active:
            roots = [_brentq(lambda tv, event=event: event(tv, step(tv)), t, t_new)
                     for event in active]
            t_new = min(roots) if direction > 0 else max(roots)
            y_end = step(t_new)
            status = 1
        g = g_new
        if len(ts) > 1 and ts[-1] == t_new:  # an event root at the step start
            steps.pop()
        else:
            ts.append(t_new)
            ys.append(tuple(y_end))
        t, y, f = t_new, y_new, K[-1]
    return OdeResult(tuple(ts), tuple(zip(*ys)), DenseOutput(ts, steps), status,
                     MESSAGES[status], nfev)


# --- trajectories of the catalogued systems ----------------------------------


@dataclass
class Trajectory:
    """Dense-output solution samples of a two-component state."""

    ts: Tuple[float, ...]
    states: Tuple[Tuple[float, ...], ...]  # states[j][i]: component j at ts[i]
    dense: Callable[[float], Tuple[float, ...]]

    def __call__(self, t: float) -> Tuple[float, ...]:
        return self.dense(t)

    @property
    def t0(self) -> float:
        return self.ts[0]

    @property
    def t1(self) -> float:
        return self.ts[-1]

    def endpoint(self) -> Tuple[float, ...]:
        return tuple(component[-1] for component in self.states)


def _param_floats(params: Mapping[str, Scalar]) -> Dict[str, float]:
    return {k: float(v) for k, v in params.items()}


def _run(rhs, t0: float, t1: float, state0, cfg: IntegratorConfig, events) -> Trajectory:
    y0 = tuple(float(s) for s in state0)
    if t0 == t1:
        return Trajectory((t0,), tuple((v,) for v in y0), lambda t: y0)
    sol = solve_ivp(rhs, (t0, t1), y0, cfg.rtol, cfg.atol, events)
    traj = Trajectory(sol.t, sol.y, sol.sol)
    if sol.status == 0:
        return traj
    guard = f"denominator within {cfg.singular_guard} of zero near t = {traj.t1}"
    stop = SingularGuardError(guard) if sol.status == 1 else IntegrationError(sol.message)
    stop.trajectory = traj
    try:
        raise stop
    finally:  # the traceback holds this frame: unbind the error so they form no cycle
        del stop


def _guard_events(dens: Sequence, guard: float):
    return [lambda t, s, _den=den: abs(_den(t, s)) - guard for den in dens]


def integrate_planar(
    system: PlanarSystem,
    state0: Sequence[Scalar],
    t0: float,
    t1: float,
    params: Mapping[str, Scalar],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate a catalogued planar system with denominator guards."""
    pf = _param_floats(params)
    names = list(system.chart) + ["t"] + sorted(pf)
    pvals = tuple(pf[k] for k in sorted(pf))
    f1, f2, d1, d2 = (compile_float(e, names) for e in
                      (system.rhs1, system.rhs2, system.rhs1_den, system.rhs2_den))

    def rhs(t, s):
        args = (s[0], s[1], t, *pvals)
        return (f1(*args), f2(*args))

    dens = [lambda t, s, _den=den: _den(s[0], s[1], t, *pvals) for den in (d1, d2)]
    return _run(rhs, float(t0), float(t1), state0, cfg, _guard_events(dens, cfg.singular_guard))


def _integrate_second_order(rhs_expr: Expr, pf: Dict[str, float], levels: Sequence[float],
                            t0: float, t1: float, y0: Scalar, yp0: Scalar,
                            cfg: IntegratorConfig) -> Trajectory:
    """y'' = rhs_expr(y, yp, t, params) as the first-order (y, y') system.

    The run aborts when y comes within the guard distance of any of ``levels``.
    """
    names = ["y", "yp", "t"] + sorted(pf)
    pvals = tuple(pf[k] for k in sorted(pf))
    f = compile_float(rhs_expr, names)

    def rhs(t, s):
        return (s[1], f(s[0], s[1], t, *pvals))

    events = _guard_events(
        [lambda t, s, _level=level: s[0] - _level for level in levels], cfg.singular_guard
    )
    return _run(rhs, float(t0), float(t1), (y0, yp0), cfg, events)


def integrate_ode2(
    ode: ScalarODE2,
    y0: Scalar,
    yp0: Scalar,
    t0: float,
    t1: float,
    params: Mapping[str, Scalar],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate a second-order reduction as the first-order (y, y') system."""
    pf = _param_floats(params)
    if ode.alpha_fixed is not None:
        pf["alpha"] = float(ode.alpha_fixed)
    # guard against the structural singularities y in {0, +-1} of the charts
    return _integrate_second_order(ode.rhs, pf, (0.0, 1.0, -1.0), t0, t1, y0, yp0, cfg)


def integrate_pv(params, t0: float, t1: float, y0: float, yp0: float,
                 cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate the fifth Painlevé equation itself (float parameters)."""
    from .painleve import PV_RHS  # local import to avoid a cycle

    pe = _param_floats(params.as_env())
    return _integrate_second_order(PV_RHS, pe, (0.0, 1.0), t0, t1, y0, yp0, cfg)


def _nan_max(values: Sequence[float]) -> float:
    """The largest value, or NaN if any is NaN (``max`` keeps a NaN only when it comes first)."""
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def tolerance_case(case_id: str, ts: Sequence[float], deviation: Callable[[float], float],
                   tol: float, what: str) -> CaseResult:
    """The float verdict: PASS iff ``deviation(t) < tol`` at every ``t``, which NaN never is.

    The residual is the worst deviation, or ``nan`` if any deviation is NaN.
    A case with no times checks nothing, so it FAILs.
    """
    devs = [deviation(tv) for tv in ts]
    if not devs:
        return CaseResult(case_id, "FAIL", residual="nan",
                          failures=[f"no sample times: the {what} was checked nowhere"])
    case = CaseResult(case_id, "PASS", residual=repr(_nan_max(devs)), samples=len(devs))
    for tv, dev in zip(ts, devs):
        if not dev < tol:
            case.status = "FAIL"
            case.failures.append(f"t = {tv}: {what} {dev} >= {tol}")
    return case


def compare_trajectories(
    a: Trajectory,
    b: Callable[[float], Sequence[float]],
    tol: float,
    times: Optional[Sequence[float]] = None,
    case_id: str = "trajectory_compare",
) -> CaseResult:
    """Max relative deviation of b from a at sample times; PASS iff < tol."""
    def deviation(tv):
        return _nan_max([abs(va - float(vb)) / max(1.0, abs(va))
                         for va, vb in zip(a(tv), b(tv))])

    ts = list(times) if times is not None else list(a.ts)
    return tolerance_case(case_id, ts, deviation, tol, "relative deviation")


def trajectory_csv(traj: Trajectory) -> str:
    """CSV export: header t,coord1,coord2, 17 significant digits."""
    header = ["t", "coord1", "coord2"][: 1 + len(traj.states)]
    lines = [",".join(header)]
    for row in zip(traj.ts, *traj.states):
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(lines) + "\n"

