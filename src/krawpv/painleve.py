"""Fifth-Painlevé residuals, parameter sets and Bäcklund transformations.

The second-order reductions in the catalogue become the fifth Painlevé
equation (PV) after simple Möbius changes of the dependent variable.  Every
chart reaches PV with δ₅ = −1/2 (k = 1), so ``PV_RHS`` carries that constant
and each chart's ``PVParams`` holds only (α₅, β₅, γ₅), expressed in
(n, N, α).  One table, ``BRANCHES``, holds per chart the signed literal
branches c, a and γ₅; the triple is (c²/2, −a²/2, γ₅).
Sign-indexed Bäcklund transformations connect the parameter sets: the parameter
half, ``backlund_step``, maps the literal branch state, and the jet half is
the one expression ``BACKLUND_Y`` pushed through ``transform_jet``.  Fixed
four-, two- and one-step compositions reproduce displayed closed-form maps.
All identities are certified by exact evaluation on order-2 jets that
satisfy the source equation.  Such a jet fixes y''' as well: it is the rate of
y'' = PV_RHS along the flow, read from one evaluation on ``Jet1`` flow jets,
as in the flow checks of ``maps`` and ``systems``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

from . import integrate
from .expr import Expr, syms
from .integrate import Trajectory, tolerance_case
from .jets import Jet1, Jet2, rate
from .sampling import CaseResult, Sampler, randbelow, run_case
from .systems import get_ode2

Scalar = Union[Fraction, float]

t, y, yp, n, NN, al = syms("t y yp n N alpha")
a5s, b5s, g5s = syms("a5 b5 g5")


class PainleveError(Exception):
    pass


_HALF = Fraction(1, 2)
SINGULAR_Y = (0, 1)  # PV's singular values of y: PV_RHS divides by y and by y - 1

# y'' as a rational expression in (y, yp, t) and the parameters (a5, b5, g5),
# with δ₅ = −1/2; the δ₅ term is subtracted, which rounds as adding −1/2 times it
PV_RHS: Expr = (
    (1 / (2 * y) + 1 / (y - 1)) * yp**2
    - yp / t
    + (y - 1) ** 2 * (a5s * y + b5s / y) / t**2
    + g5s * y / t
    - _HALF * y * (y + 1) / (y - 1)
)


@dataclass(frozen=True)
class PVParams:
    """(α₅, β₅, γ₅) of PV with δ₅ = −1/2; scalars, or Exprs in (n, N, alpha)."""

    a5: Union[Scalar, Expr]
    b5: Union[Scalar, Expr]
    g5: Union[Scalar, Expr]

    def evaluate(self, env: Mapping[str, Scalar]) -> "PVParams":
        def val(x):
            return x.evaluate(env) if isinstance(x, Expr) else x

        return PVParams(val(self.a5), val(self.b5), val(self.g5))

    def as_env(self) -> Dict[str, Scalar]:
        out = {}
        for key, x in (("a5", self.a5), ("b5", self.b5), ("g5", self.g5)):
            if isinstance(x, Expr):
                raise PainleveError("parameters must be evaluated before numeric use")
            out[key] = x
        return out


@dataclass(frozen=True)
class PVJet:
    """Value and first two derivatives of a PV solution at one time."""

    t: Scalar
    y: Scalar
    yp: Scalar
    ypp: Scalar


@dataclass(frozen=True)
class BacklundSigns:
    e1: int
    e2: int
    e3: int

    def __post_init__(self):
        if any(e * e != 1 for e in (self.e1, self.e2, self.e3)):
            raise PainleveError("signs must be +1 or -1")


# one row per chart: the signed literal branches c, a (see BranchState) and
# γ₅, in (n, N, alpha); the chart's parameters are (c²/2, −a²/2, γ₅)
_FIRST = (n, al, al + n - 2 * NN - 1)
_SECOND = (NN - n + 1, -al + NN + 1, al + n + 1)
_THIRD = (NN - n + 1 - al, 1 + NN, -al + n + 1)
BRANCHES: Dict[str, Tuple[Expr, Expr, Expr]] = {
    "ode_U11": _FIRST,
    "ode_v54": _FIRST,
    "ode_V12": _FIRST,
    "ode_U21": _SECOND,
    "ode_V22": _SECOND,
    "ode_U31": _THIRD,
    "ode_V32": _THIRD,
    # the reciprocal shift y -> -1 + 1/y of the first chart
    "ode_U11_reciprocal": (al, n, 1 + 2 * NN - n - al),
    # alpha = 0 tilde chart
    "ode_tildeV22": (NN - n + 1, NN + 1, n + 1),
    # the base (q, p) system, as connected to PV in earlier work
    "original": (al - NN - 1, n - NN, -(n + al)),
}

PARAM_SETS: Dict[str, PVParams] = {
    k: PVParams(_HALF * c**2, -_HALF * a**2, g5)
    for k, (c, a, g5) in BRANCHES.items()
}


def pv_params_for(chart_id: str) -> PVParams:
    try:
        return PARAM_SETS[chart_id]
    except KeyError:
        raise PainleveError(f"unknown parameter set id {chart_id!r}") from None


def pv_residual(j: PVJet, p: PVParams) -> Scalar:
    """y'' minus the PV right-hand side; exact zero certifies the jet.

    At t = 0 or y in ``SINGULAR_Y``, PV's singular loci, ``PV_RHS`` raises a
    ``ZeroDivisionError``.
    """
    return j.ypp - PV_RHS.evaluate({"t": j.t, "y": j.y, "yp": j.yp, **p.as_env()})


def pv_third_derivative(j: PVJet, p: PVParams) -> Scalar:
    """y''' as the rate of y'' = PV_RHS along the solution.

    One evaluation on the flow jets t, (y, y') and (y', y'') gives the total
    t-derivative of PV_RHS, exactly for a ``Fraction`` jet.
    """
    return rate(PV_RHS.evaluate({"t": Jet1.variable(j.t), "y": Jet1(j.y, j.yp),
                                 "yp": Jet1(j.yp, j.ypp), **p.as_env()}))


def complete_jet(t_val: Scalar, y_val: Scalar, yp_val: Scalar, p: PVParams) -> PVJet:
    """Fill in y'' from the PV equation itself."""
    env = {"t": t_val, "y": y_val, "yp": yp_val, **p.as_env()}
    return PVJet(t_val, y_val, yp_val, PV_RHS.evaluate(env))


def transform_jet(expr: Expr, j: PVJet, p: PVParams,
                  extra: Optional[Mapping[str, Scalar]] = None) -> PVJet:
    """Push a jet through y1 = expr(y, yp, t, ...) by order-2 jet arithmetic.

    The input jet must satisfy the source PV with parameters ``p`` so that
    y''' (needed for the derivative of yp) is well defined.
    """
    out = expr.evaluate({**(extra or {}), "t": Jet2.variable(j.t), "y": Jet2(j.y, j.yp, j.ypp),
                         "yp": Jet2(j.yp, j.ypp, pv_third_derivative(j, p))})
    if not isinstance(out, Jet2):
        out = Jet2.constant(out)
    return PVJet(j.t, out.v, out.d1, out.d2)


# ---------------------------------------------------------------------------
# Möbius reductions: catalogue ODE  <->  PV
# ---------------------------------------------------------------------------

def _shift(yj: Jet2) -> Jet2:
    return yj - 1


def _reciprocal_shift(yj: Jet2) -> Jet2:
    return -1 + 1 / yj


def _tilde(yj: Jet2) -> Jet2:
    return yj / (yj - 1)


def _identity(yj: Jet2) -> Jet2:
    return yj


def _unshift(uj: Jet2) -> Jet2:
    return uj + 1


def _unreciprocal(uj: Jet2) -> Jet2:
    return 1 / (uj + 1)


@dataclass(frozen=True)
class Reduction:
    """How a catalogued second-order reduction relates to PV."""

    id: str
    ode_id: str
    params_id: str
    transform: Callable[[Jet2], Jet2]  # chart variable as a function of the PV y-jet
    inverse: Callable[[Jet2], Jet2]  # PV y as a function of the chart-variable jet


REDUCTIONS: Dict[str, Reduction] = {
    r.id: r
    for r in [
        Reduction("ode_U11", "ode_U11", "ode_U11", _shift, _unshift),
        Reduction("ode_U21", "ode_U21", "ode_U21", _shift, _unshift),
        Reduction("ode_U31", "ode_U31", "ode_U31", _shift, _unshift),
        Reduction("ode_v54", "ode_v54", "ode_v54", _shift, _unshift),
        Reduction("ode_U11_reciprocal", "ode_U11", "ode_U11_reciprocal",
                  _reciprocal_shift, _unreciprocal),
        # the tilde shift is an involution: y = V/(V-1)
        Reduction("ode_tildeV22", "ode_tildeV22", "ode_tildeV22", _tilde, _tilde),
        Reduction("ode_V12", "ode_V12", "ode_V12", _identity, _identity),
        Reduction("ode_V22", "ode_V22", "ode_V22", _identity, _identity),
        Reduction("ode_V32", "ode_V32", "ode_V32", _identity, _identity),
    ]
}


def _draw_pv_point(sampler: Sampler, alpha_fixed: Optional[Fraction]) -> Dict[str, Fraction]:
    fixed = {"alpha": alpha_fixed} if alpha_fixed is not None else None
    names = ["t", "y", "yp", "n", "N"] + ([] if fixed else ["alpha"])
    return sampler.draw(
        names,
        reject=lambda e: e["t"] == 0 or e["y"] in SINGULAR_Y or e["N"] == 0,
        fixed=fixed,
    )


def mobius_reduce(reduction_id: str, sampler: Sampler, samples: int = 50) -> CaseResult:
    """The catalogued reduction equals PV under the chart's Möbius shift.

    For a PV jet (y, y', y'' = PV rhs) the transformed jet U = m(y) must
    satisfy U'' = rhs_ode(U, U', t) exactly at every sampled rational point.
    """
    red = REDUCTIONS[reduction_id]
    ode = get_ode2(red.ode_id)
    params = pv_params_for(red.params_id)

    def check(env):
        pj = complete_jet(env["t"], env["y"], env["yp"], params.evaluate(env))
        uj = red.transform(Jet2(pj.y, pj.yp, pj.ypp))
        ode_env = {
            "y": uj.v, "yp": uj.d1, "t": env["t"],
            "n": env["n"], "N": env["N"],
        }
        if ode.alpha_fixed is None:
            ode_env["alpha"] = env["alpha"]
        rhs_val = ode.rhs.evaluate(ode_env)
        if uj.d2 != rhs_val:
            return [f"U'' = {uj.d2} != ode rhs {rhs_val} (difference {uj.d2 - rhs_val})"]
        return []

    return run_case(
        f"reduction_to_pv:{reduction_id}", sampler, samples,
        lambda: _draw_pv_point(sampler, ode.alpha_fixed), check,
    )


# ---------------------------------------------------------------------------
# Bäcklund transformations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchState:
    """(γ₅, c, a) with c² = 2α₅, a² = −2β₅, δ₅ = −1/2 (hence k = 1).

    A Bäcklund step depends only on the products ε₁c and ε₂a, so carrying
    *signed literal* branches (e.g. c = α − 3 rather than |α − 3|) is what
    makes the fixed sign patterns of the displayed compositions land on the
    displayed target quadruples.
    """

    g5: Scalar
    c: Scalar
    a: Scalar

    def params(self) -> PVParams:
        return PVParams(self.c * self.c / 2, -self.a * self.a / 2, self.g5)


def branch_state_for(params_id: str, env: Mapping[str, Scalar]) -> BranchState:
    c, a, g5 = BRANCHES[params_id]
    return BranchState(g5.evaluate(env), c.evaluate(env), a.evaluate(env))


def backlund_step(state: BranchState, s: BacklundSigns) -> BranchState:
    """Parameter half of one Bäcklund step on the literal branch state."""
    w = s.e3 * (1 - s.e2 * state.a - s.e1 * state.c)
    return BranchState(
        s.e3 * (s.e2 * state.a - s.e1 * state.c),
        (state.g5 + w) / 2,
        (state.g5 - w) / 2,
    )


# jet half of one Bäcklund step (k = 1): the image y₁ in (y, yp, t), the
# signed branches e1c = ε₁c, e2a = ε₂a and the sign e3 = ε₃
e1c, e2a, e3 = syms("e1c e2a e3")
BACKLUND_Y: Expr = 1 - (2 * e3 * t * y) / (
    t * yp - e1c * y**2 + (e1c - e2a + e3 * t) * y + e2a
)


def backlund_apply(j: PVJet, state: BranchState, s: BacklundSigns
                   ) -> Tuple[PVJet, BranchState]:
    """Push a source-PV jet through one Bäcklund step; returns (jet, state).

    The sign e3 is bound as an ``int``, which is exact: with an exact jet and
    state, ``BACKLUND_Y`` runs the rational jet kernel.
    """
    signs = {"e1c": s.e1 * state.c, "e2a": s.e2 * state.a, "e3": s.e3}
    return (transform_jet(BACKLUND_Y, j, state.params(), extra=signs),
            backlund_step(state, s))


# ---------------------------------------------------------------------------
# fixed compositions between the catalogued parameter sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Composition:
    id: str
    source_params: str
    target_params: str
    # applied left to right (first element acts first)
    steps: Tuple[BacklundSigns, ...]
    closed_form: Expr  # one-shot y-map in (y, yp, t, n, N, alpha)


def _signs(*triples) -> Tuple[BacklundSigns, ...]:
    return tuple(BacklundSigns(*tr) for tr in triples)


COMPOSITIONS: Dict[str, Composition] = {
    c.id: c
    for c in [
        Composition(
            "first_to_second", "ode_U11", "ode_U21",
            _signs((1, -1, 1), (1, 1, 1), (1, 1, -1), (-1, -1, -1)),
            y - (2 * (NN + 1) * (y - 1) ** 2 * y)
            / (y * (-al + n - 2 * NN + t - 2) + y**2 * (-n + 2 * NN + 2) - t * yp + al),
        ),
        Composition(
            "first_to_third", "ode_U11", "ode_U31",
            _signs((1, 1, 1), (1, 1, -1), (1, 1, 1), (1, 1, -1)),
            y - (2 * (y - 1) ** 2 * y * (-al + NN + 1))
            / (y * (3 * al + n - 2 * NN + t - 2) + y**2 * (-2 * al - n + 2 * NN + 2)
               - t * yp - al),
        ),
        Composition(
            "second_to_third", "ode_U21", "ode_U31",
            _signs((1, -1, -1), (1, 1, 1)),
            y + (2 * al * y * (y - 1) ** 2)
            / (y * (3 * al + n - 2 * NN + t - 2) + y**2 * (-2 * al - n + NN + 1)
               + NN - t * yp + 1 - al),
        ),
        Composition(
            "first_to_base", "ode_U11", "original",
            _signs((-1, 1, -1)),
            (2 * t * y) / (al - y * (al + n + t) + n * y**2 + t * yp) + 1,
        ),
    ]
}


def _draw_integer_params(rng) -> Dict[str, Fraction]:
    """Integer 1 <= N <= 12, 0 <= n < N, rational alpha in (0, 1)."""
    N_val = randbelow(rng, 12) + 1
    n_val = randbelow(rng, N_val)
    a_val = Fraction(randbelow(rng, 98) + 1, 99)
    return {"n": Fraction(n_val), "N": Fraction(N_val), "alpha": a_val}


def verify_param_chain(comp_id: str, sampler: Sampler, samples: int = 50) -> CaseResult:
    """The step-by-step parameter chain lands exactly on the target quadruple."""
    comp = COMPOSITIONS[comp_id]
    tgt = pv_params_for(comp.target_params)

    def check(env):
        st = branch_state_for(comp.source_params, env)
        for s in comp.steps:
            st = backlund_step(st, s)
        p = st.params()
        expect = tgt.evaluate(env)
        if p != expect:
            return [f"chained {p} != target {expect} at {env}"]
        return []

    return run_case(
        f"param_chain:{comp_id}", sampler, samples,
        lambda: _draw_integer_params(sampler.rng), check,
    )


def verify_closed_form(comp_id: str, sampler: Sampler, samples: int = 50) -> CaseResult:
    """Factor-by-factor jets agree with the displayed one-shot map on solutions.

    Also checks that every intermediate jet satisfies its own PV equation
    exactly, which certifies each single Bäcklund step.
    """
    comp = COMPOSITIONS[comp_id]
    tgt = pv_params_for(comp.target_params)

    def draw():
        ipar = _draw_integer_params(sampler.rng)
        point = sampler.draw(
            ["t", "y", "yp"], reject=lambda e: e["t"] == 0 or e["y"] in SINGULAR_Y
        )
        return {**ipar, **point}

    def check(env):
        st = branch_state_for(comp.source_params, env)
        p = st.params()
        j = jf = complete_jet(env["t"], env["y"], env["yp"], p)
        for s in comp.steps:
            jf, st = backlund_apply(jf, st, s)
            if pv_residual(jf, st.params()) != 0:
                return ["intermediate jet violates its PV"]
        pf = st.params()
        closed = transform_jet(
            comp.closed_form, j, p,
            extra={"n": env["n"], "N": env["N"], "alpha": env["alpha"]},
        )
        failures = []
        expect = tgt.evaluate(env)
        if pf != expect:
            failures.append(f"final params {pf} != {expect}")
        if (jf.y, jf.yp, jf.ypp) != (closed.y, closed.yp, closed.ypp):
            failures.append(
                f"composed jet {(jf.y, jf.yp, jf.ypp)} != "
                f"closed form {(closed.y, closed.yp, closed.ypp)}"
            )
        elif pv_residual(closed, expect) != 0:
            failures.append("closed-form image violates target PV")
        return failures

    return run_case(f"closed_form:{comp_id}", sampler, samples, draw, check)


TRAJECTORY_CHECKS = 20  # interior residual checks per trajectory case


def _trajectory_case(case_id: str, integrate: Callable[[float], Trajectory],
                     residual: Callable[[float, float, float], float],
                     t0: float, t1: float, tol: float, what: str) -> CaseResult:
    """Integrate once on [t0, t1] and require |residual(t, y, y')| < tol inside it.

    A run that stops early at a movable singularity (``status`` not 0) ends
    at the stop: at a guard (status 1), such as the guard at y = ∞ just
    before a movable pole, or where the step size underflowed (status -1).
    The window is then halved, up to seven times, until its end lies between
    t0 and the stop; the case FAILs when no window fits, with the status in
    words.  A start or a run that float arithmetic cannot evaluate (an
    ``ArithmeticError``) FAILs the case with residual nan, naming the error.
    """
    try:
        traj = integrate(t1)
    except ArithmeticError as exc:
        return CaseResult(case_id, "FAIL", residual="nan",
                          failures=[f"the run raised {type(exc).__name__}: {exc}"])
    if traj.status != 0:
        for _ in range(7):
            t1 = t0 + (t1 - t0) / 2
            if abs(t1 - t0) <= abs(traj.t1 - t0):
                break
        else:
            stop = "a guard stopped the run" if traj.status == 1 else "the step size underflowed"
            return CaseResult(case_id, "FAIL", failures=[
                f"no singularity-free window found: {stop} near t = {traj.t1}"])
    ts = [t0 + (t1 - t0) * (i + 1) / (TRAJECTORY_CHECKS + 1)
          for i in range(TRAJECTORY_CHECKS)]
    return tolerance_case(
        case_id, ts, lambda tv: abs(residual(tv, *(float(x) for x in traj(tv)))),
        tol, f"{what} residual",
    )


def verify_trajectory(
    comp_id: str,
    n_val: int = 1,
    N_val: int = 3,
    alpha_val: Fraction = Fraction(1, 2),
    t0: float = 1.0,
    t1: float = 2.0,
    y0: float = 3.0,
    yp0: float = 0.25,
    tol: float = 1e-6,
) -> CaseResult:
    """Integrate the source PV and check the mapped function on the target PV."""
    comp = COMPOSITIONS[comp_id]
    env = {"n": Fraction(n_val), "N": Fraction(N_val), "alpha": alpha_val}
    fenv = {k: float(v) for k, v in env.items()}
    # rounded from the exact triple: evaluated on fenv, its last bits would differ
    src = pv_params_for(comp.source_params).evaluate(env)
    src_f = PVParams(float(src.a5), float(src.b5), float(src.g5))
    tgt_f = pv_params_for(comp.target_params).evaluate(fenv)

    def residual(tv, yv, ypv):
        j = complete_jet(tv, yv, ypv, src_f)
        return pv_residual(transform_jet(comp.closed_form, j, src_f, extra=fenv), tgt_f)

    return _trajectory_case(
        f"trajectory:{comp_id}",
        lambda t_end: integrate.integrate_pv(src_f, t0, t_end, y0, yp0),
        residual, t0, t1, tol, "target",
    )


def verify_reduction_trajectory(
    reduction_id: str,
    n_val: int = 1,
    N_val: int = 3,
    alpha_val: Fraction = Fraction(1, 2),
    t0: float = 1.0,
    t1: float = 2.0,
    y0: float = 3.0,
    yp0: float = 0.25,
    tol: float = 1e-6,
) -> CaseResult:
    """Integrate the chart reduction; its Möbius image must satisfy PV.

    Initial data are given PV-side and pushed into the chart through the
    shift.
    """
    red = REDUCTIONS[reduction_id]
    ode = get_ode2(red.ode_id)
    env = {"n": Fraction(n_val), "N": Fraction(N_val), "alpha": alpha_val}
    if ode.alpha_fixed is not None:
        env["alpha"] = ode.alpha_fixed
    fenv = {k: float(v) for k, v in env.items()}
    params = pv_params_for(red.params_id).evaluate(fenv)

    def run(t_end):
        # chart-side initial data from the PV-side jet, inside the run that may raise
        j0 = complete_jet(t0, y0, yp0, params)
        u0 = red.transform(Jet2(j0.y, j0.yp, j0.ypp))
        return integrate.integrate_ode2(ode, u0.v, u0.d1, t0, t_end, fenv)

    ode_rhs_env = dict(fenv)

    def residual(tv, uv, upv):
        ode_rhs_env.update({"y": uv, "yp": upv, "t": tv})
        yj = red.inverse(Jet2(uv, upv, float(ode.rhs.evaluate(ode_rhs_env))))
        return pv_residual(PVJet(tv, yj.v, yj.d1, yj.d2), params)

    return _trajectory_case(f"reduction_trajectory:{reduction_id}", run, residual,
                            t0, t1, tol, "PV")
