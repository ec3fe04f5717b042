"""Float-mode numerical integration of the catalogued systems and reductions.

Wraps an adaptive embedded Runge-Kutta 4(5) pair with dense output around
compiled right-hand sides.  Singular guards watch every catalogued
denominator and abort the integration before the state reaches a singular
locus.  Trajectories compare against the exact oracle and export as CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np
from scipy.integrate import solve_ivp

from .expr import Expr, compile_float
from .sampling import CaseResult
from .systems import PlanarSystem, ScalarODE2

Scalar = Union[int, float, Fraction]


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


@dataclass
class Trajectory:
    """Dense-output solution samples of a two-component state."""

    ts: np.ndarray
    states: np.ndarray  # shape (2, len(ts))
    dense: Callable[[float], np.ndarray]

    def __call__(self, t: float) -> np.ndarray:
        return np.atleast_1d(self.dense(t))

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    def endpoint(self) -> np.ndarray:
        return self.states[:, -1]


def _param_floats(params: Mapping[str, Scalar]) -> Dict[str, float]:
    return {k: float(v) for k, v in params.items()}


def _run(rhs, t0: float, t1: float, state0, cfg: IntegratorConfig, events) -> Trajectory:
    y0 = np.asarray([float(s) for s in state0], dtype=float)
    if t0 == t1:
        ts = np.asarray([t0])
        return Trajectory(ts, y0.reshape(-1, 1), lambda t: y0)
    sol = solve_ivp(
        rhs, (t0, t1), y0, method="RK45", dense_output=True,
        rtol=cfg.rtol, atol=cfg.atol, events=events,
    )
    traj = Trajectory(sol.t, sol.y, sol.sol)
    if sol.status == 0:
        return traj
    guard = f"denominator within {cfg.singular_guard} of zero near t = {traj.t1}"
    exc = SingularGuardError(guard) if sol.status == 1 else IntegrationError(sol.message)
    exc.trajectory = traj
    raise exc


def _guard_events(dens: Sequence, guard: float):
    events = []
    for den in dens:
        def ev(t, s, _den=den):
            return abs(_den(t, s)) - guard

        ev.terminal = True
        events.append(ev)
    return events


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
    f1 = compile_float(system.rhs1, names)
    f2 = compile_float(system.rhs2, names)
    d1f = compile_float(system.rhs1_den, names)
    d2f = compile_float(system.rhs2_den, names)

    def rhs(t, s):
        args = (s[0], s[1], t, *pvals)
        return (f1(*args), f2(*args))

    def den_args(fn):
        return lambda t, s: fn(s[0], s[1], t, *pvals)

    events = _guard_events([den_args(d1f), den_args(d2f)], cfg.singular_guard)
    return _run(rhs, float(t0), float(t1), state0, cfg, events)


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


def tolerance_case(case_id: str, ts: Sequence[float], deviation: Callable[[float], float],
                   tol: float, what: str) -> CaseResult:
    """The float verdict: PASS iff ``deviation(t) < tol`` at every ``t``, which NaN never is.

    The residual is the worst deviation, or ``nan`` if any deviation is NaN.
    """
    devs = [deviation(tv) for tv in ts]
    worst = math.nan if any(map(math.isnan, devs)) else max(devs, default=0.0)
    case = CaseResult(case_id, "PASS", residual=repr(worst), samples=len(devs))
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
        va = np.asarray(a(tv), dtype=float)
        vb = np.asarray([float(x) for x in b(tv)], dtype=float)
        return float(np.max(np.abs(va - vb) / np.maximum(1.0, np.abs(va))))

    ts = list(times) if times is not None else [float(t) for t in a.ts]
    return tolerance_case(case_id, ts, deviation, tol, "relative deviation")


def trajectory_csv(traj: Trajectory) -> str:
    """CSV export: header t,coord1,coord2, 17 significant digits."""
    ncomp = traj.states.shape[0]
    header = ["t", "coord1", "coord2"][: 1 + ncomp]
    lines = [",".join(header)]
    for i, tv in enumerate(traj.ts):
        row = [tv] + [traj.states[j, i] for j in range(ncomp)]
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(lines) + "\n"


def convergence_errors(
    system: PlanarSystem,
    state0: Sequence[Scalar],
    t0: float,
    t1: float,
    params: Mapping[str, Scalar],
    rtols: Sequence[float] = (1e-5, 1e-7, 1e-9),
    ref_rtol: float = 1e-12,
) -> List[float]:
    """Endpoint errors against a tight reference run, one per tolerance rung."""
    ref = integrate_planar(system, state0, t0, t1, params,
                           IntegratorConfig(rtol=ref_rtol, atol=ref_rtol * 1e-2))
    ref_end = ref.endpoint()
    errs = []
    for rt in rtols:
        traj = integrate_planar(system, state0, t0, t1, params,
                                IntegratorConfig(rtol=rt, atol=rt * 1e-2))
        errs.append(float(np.max(np.abs(traj.endpoint() - ref_end))))
    return errs
