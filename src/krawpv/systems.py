"""Registry of every planar differential system and second-order reduction.

Each system is stored with numerator and denominator kept separate, exactly
as displayed, so indeterminacy analysis can interrogate both parts.  The
registry is built once and is immutable afterwards.  The fifth Painlevé
equation, ``PV_RHS``, is stated here once, beside the reductions it is
checked against, with its singular values ``SINGULAR_Y``; the polynomial
charts' reductions are ``PV_RHS`` at their displayed parameters.

Chart naming: (u11, v11) / (U11, V11) are the two charts of the first
blow-up of the base point at the origin, and so on; the 'b' cascades carry a
``b`` suffix; ``tU22/tV22`` is the extra chart needed when alpha = 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .expr import Const, Div, Expr, Sym, syms
from .jets import Jet1, rate
from .sampling import run_case

t, n, NN, al = syms("t n N alpha")

PARAM_NAMES = ("t", "n", "N", "alpha")


class CatalogueError(KeyError):
    pass


@dataclass(frozen=True)
class PlanarSystem:
    id: str
    chart: Tuple[str, str]
    rhs1_num: Expr
    rhs1_den: Expr
    rhs2_num: Expr
    rhs2_den: Expr
    # zero set of the second chart coordinate is the exceptional divisor
    has_divisor: bool = False
    # expressions in (first coord, params) that must not vanish on the divisor
    divisor_exclusions: Tuple[Expr, ...] = ()
    # parameter constraint: alpha pinned to this value (the alpha=0 chart)
    alpha_fixed: Optional[Fraction] = None

    # the quotients are built once per system, so their compiled functions are reused
    @functools.cached_property
    def rhs1(self) -> Expr:
        return Div(self.rhs1_num, self.rhs1_den)

    @functools.cached_property
    def rhs2(self) -> Expr:
        return Div(self.rhs2_num, self.rhs2_den)

    def evaluate_rhs(self, env) -> Tuple:
        """Exact (or float) time-derivatives; a zero denominator raises ``EvaluationDivisionError``."""
        return self.rhs1.evaluate(env), self.rhs2.evaluate(env)

    def along_flow(self, env) -> Dict:
        """``env`` with t and the chart coordinates bound to ``Jet1``s along this flow.

        Each coordinate carries (value, rhs) and t carries (t, 1), so any
        expression evaluated there yields its value and its d/dt along the
        flow line through the point.
        """
        r1, r2 = self.evaluate_rhs(env)
        c1, c2 = self.chart
        return {**env, "t": Jet1.variable(env["t"]),
                c1: Jet1(env[c1], r1), c2: Jet1(env[c2], r2)}


@dataclass(frozen=True)
class ScalarODE2:
    """Second-order reduction y'' = rhs(y, y', t) of a planar system.

    ``elimination`` expresses the eliminated chart coordinate in terms of
    (y, yp, t, params); ``reduce_coord``/``elim_coord`` name the chart
    coordinates playing the roles of y and the eliminated variable, the
    latter being the parent chart's other coordinate.
    """

    id: str
    parent_id: str
    reduce_coord: str
    elim_coord: str
    rhs: Expr  # in y, yp, t, n, N, alpha
    elimination: Expr  # in y, yp, t, n, N, alpha
    alpha_fixed: Optional[Fraction] = None  # the parent system's


def _sq(e: Expr) -> Expr:
    return e**2


@functools.cache
def registry() -> Dict[str, PlanarSystem]:
    """Every catalogued planar system by id, built on first use."""
    reg: Dict[str, PlanarSystem] = {}

    def add(sys: PlanarSystem):
        if sys.id in reg:
            raise ValueError(f"duplicate system id {sys.id}")
        reg[sys.id] = sys

    # ----- base system in (q, p) ------------------------------------------
    q, p = syms("q p")
    add(PlanarSystem(
        "original", ("q", "p"),
        rhs1_num=NN * p**2 * (n - NN * q) + 2 * NN * p * q * (n - NN * q)
        + q * (NN * q * (al + n - 2 * NN - 2) + (NN + 1) * (-al + NN + 1)),
        rhs1_den=NN * t * (p + q),
        rhs2_num=2 * NN * p * q * t
        + p * ((NN + 1) * (-al + NN + 1) + NN * p * (-al + NN * p + 2 * NN + t + 2))
        + NN * q**2 * t,
        rhs2_den=NN * t * (p + q),
    ))

    # ----- blow-up of P1 = (0, 0) -----------------------------------------
    u, v = syms("u11 v11")
    add(PlanarSystem(
        "uv11", ("u11", "v11"),
        rhs1_num=n - u**2 * t - (u * (-al - n + 2 * NN * v + 2 * NN + t + 2)),
        rhs1_den=t,
        rhs2_num=NN**2 * v**2 + (NN + 1) * (-al + NN + 1)
        + NN * v * (-al + 2 * NN + t * u**2 + 2 * t * u + t + 2),
        rhs2_den=NN * t * (u + 1),
        has_divisor=True,
        divisor_exclusions=(u + 1,),
    ))

    U, V = syms("U11 V11")
    add(PlanarSystem(
        "UV11", ("U11", "V11"),
        rhs1_num=U * (-al - n + 2 * NN + t + 2) - U**2 * (n - 2 * NN * V) + t,
        rhs1_den=t,
        rhs2_num=NN * V * (U * (U + 2) * (n - NN * V) + al + n - 2 * NN - 2)
        + (NN + 1) * (-al + NN + 1),
        rhs2_den=NN * t * (U + 1),
        has_divisor=True,
        divisor_exclusions=(U + 1,),
    ))

    # ----- blow-up of P2 = ((1+N)/N, -(1+N)/N) ----------------------------
    u, v = syms("u21 v21")
    add(PlanarSystem(
        "uv21", ("u21", "v21"),
        rhs1_num=u * (al + n - 2 * NN * v - t) + n - NN - t * u**2 - 1,
        rhs1_den=t,
        rhs2_num=NN**2 * v**2 + al * (NN + 1)
        - NN * v * (al + NN - t * u**2 - 2 * t * u - t + 1),
        rhs2_den=NN * t * (u + 1),
        has_divisor=True,
        divisor_exclusions=(u + 1,),
    ))

    U, V = syms("U21 V21")
    add(PlanarSystem(
        "UV21", ("U21", "V21"),
        rhs1_num=U**2 * (-n + 2 * NN * V + NN + 1) - U * (al + n - t) + t,
        rhs1_den=t,
        rhs2_num=NN * V * (-U * (U + 2) * (NN * V - n + NN + 1) + al + n) + al * (NN + 1),
        rhs2_den=NN * t * (U + 1),
        has_divisor=True,
        divisor_exclusions=(U + 1,),
    ))

    # ----- extra blow-up at alpha = 0 (tilde chart) ------------------------
    U, V = syms("tU22 tV22")
    add(PlanarSystem(
        "tildeUV22", ("tU22", "tV22"),
        rhs1_num=-n * U + 2 * NN * U**2 * V - NN * U**2 + 2 * t * U * V - t * U,
        rhs1_den=t,
        rhs2_num=n * V - 2 * NN * U * V**2 + 2 * NN * U * V - t * V**2 + t * V - NN - 1,
        rhs2_den=t,
        has_divisor=True,
        alpha_fixed=Fraction(0),
    ))

    # ----- blow-up of P3 = ((1+N-alpha)/N, -(1+N-alpha)/N) -----------------
    u, v = syms("u31 v31")
    add(PlanarSystem(
        "uv31", ("u31", "v31"),
        rhs1_num=-u * (al - n + 2 * NN * v + t + t * u) + al + n - NN - 1,
        rhs1_den=t,
        rhs2_num=NN**2 * v**2 + al * (al - NN - 1)
        + NN * v * (2 * al - NN + t * u**2 + 2 * t * u + t - 1),
        rhs2_den=NN * t * (u + 1),
        has_divisor=True,
        divisor_exclusions=(u + 1,),
    ))

    U, V = syms("U31 V31")
    add(PlanarSystem(
        "UV31", ("U31", "V31"),
        rhs1_num=U**2 * (-al - n + 2 * NN * V + NN + 1) + U * (al - n + t) + t,
        rhs1_den=t,
        rhs2_num=al * (al - NN - 1)
        - NN * V * (al + U * (U + 2) * (-al - n + NN * V + NN + 1) - n),
        rhs2_den=NN * t * (U + 1),
        has_divisor=True,
        divisor_exclusions=(U + 1,),
    ))

    # ----- blow-up of P4 = (q = n/N, P = 0) --------------------------------
    U, V = syms("U41 V41")
    r1 = U * (
        U * (
            NN * V * (
                2 * (-al - NN * (al + 2 * n - 2) + n * (al + n + t - 2) + NN**2 + 1)
                + NN * V * (al + n - 2 * NN + 2 * t - 2)
            )
            + n * (-n + NN + 1) * (-al - n + NN + 1)
        )
        + NN**2 * (-al - 2 * n - 2 * NN * V + 2 * NN + t + 2)
        + t * U**2 * V**2 * _sq(n + NN * V)
    )
    r2 = U * V * (n + NN * V) * (
        U * ((-n + NN + 1) * (-al - n + NN + 1) + NN * V * (al + n - 2 * NN - 2))
        - 2 * NN**2
    ) - NN**3
    add(PlanarSystem(
        "UV41", ("U41", "V41"),
        rhs1_num=-r1,
        rhs1_den=NN * t * (U * V * (n + NN * V) + NN),
        rhs2_num=r2,
        rhs2_den=NN * t * U * (U * V * (n + NN * V) + NN),
        has_divisor=True,
        divisor_exclusions=(U,),
    ))

    # ----- P5 cascade, first choice: final chart (u54, v54) ----------------
    u, v = syms("u54 v54")
    add(PlanarSystem(
        "uv54", ("u54", "v54"),
        rhs1_num=(NN - n) * (-al - n + NN)
        - NN * u * (-v * (v + 2) * (n - NN * u) + al + n - 2 * NN),
        rhs1_den=NN * t * (v + 1),
        rhs2_num=-n * v**2 + n * v + 2 * NN * u * v**2 - 2 * NN * v - t * v + al * v - t,
        rhs2_den=t,
        has_divisor=True,
    ))

    # ----- P5 cascade, second choice: final chart (u54b, v54b) -------------
    u, v = syms("u54b v54b")
    r1 = u * (
        NN * v * (-al + 2 * n * t - n + 2 * NN + 2 * t + 1)
        + NN**2 * (t + 1)
        + (NN + 1) * t * v**2 * (-al + NN + 1)
    ) + NN * (NN - n) * (-al - n + NN) + NN * (t - 1) * t * u**2 * v**2
    r2 = (
        NN * v**2 * (
            al**2 - 2 * al + n**2 + 2 * al * n + NN * (-4 * al - 4 * n + 2 * t + 4)
            - 2 * n + 4 * NN**2 - 2 * NN * t * u - al * t + 2 * t + 1
        )
        + NN**2 * v * (-2 * al - 2 * n + 4 * NN + t + 2)
        + t * v**3 * ((NN + 1) * (-al + NN + 1) - 2 * NN * u * (-al - n + 2 * NN + 1))
        + NN**3
        + NN * t**2 * u**2 * v**4
    )
    den54b = NN * t * (v * (-al - n + 2 * NN + 1) + NN - t * u * v**2)
    add(PlanarSystem(
        "uv54b", ("u54b", "v54b"),
        rhs1_num=-r1, rhs1_den=den54b,
        rhs2_num=r2, rhs2_den=den54b,
        has_divisor=True,
    ))

    # ----- second regularisation of the P4 chart: (u42, v42) ---------------
    u, v = syms("u42 v42")
    r1 = (
        NN * u * (-al + 2 * n * t + NN**2 - al * NN + 2 * NN * t * v + 2 * NN + 1)
        + t * _sq(n + NN * v)
        + NN**3 * u**3
        + NN**2 * u**2 * (-al + 2 * NN + t + 2)
    )
    r2 = (
        -NN * v * (
            al - 2 * n**2 - 2 * al * n + NN * (al + 4 * n - 2) + 2 * n * NN * u
            + 4 * n + NN**2 * u**2 - NN**2 - 1
        )
        + NN**2 * v**2 * (al + n - 2 * NN * u - 2 * NN - 2)
        + n * (-n + NN + 1) * (-al - n + NN + 1)
    )
    den42 = NN * t * (n + NN * u + NN * v)
    add(PlanarSystem(
        "uv42", ("u42", "v42"),
        rhs1_num=r1, rhs1_den=den42,
        rhs2_num=r2, rhs2_den=den42,
        has_divisor=True,
        divisor_exclusions=(n + NN * u,),
    ))

    # ----- third-level charts off (u42, v42); these coincide with the ------
    # ----- level-one hat charts after renaming (typos in the display are ---
    # ----- resolved by that coincidence and confirmed by pushforward) ------
    for new_id, src_id in (("uv43a", "UV11"), ("uv43b", "UV21"), ("uv43c", "UV31")):
        src = reg[src_id]
        c1, c2 = src.chart
        sub = {c1: Sym("u" + new_id[2:]), c2: Sym("v" + new_id[2:])}
        add(PlanarSystem(
            new_id, ("u" + new_id[2:], "v" + new_id[2:]),
            rhs1_num=src.rhs1_num.subs(sub), rhs1_den=src.rhs1_den.subs(sub),
            rhs2_num=src.rhs2_num.subs(sub), rhs2_den=src.rhs2_den.subs(sub),
            has_divisor=True,
            divisor_exclusions=tuple(e.subs(sub) for e in src.divisor_exclusions),
        ))

    # ----- iterated regularisation of (u54b, v54b) -------------------------
    u, v = syms("u55b v55b")
    r1 = (
        -u * (
            al**2 - al + n**2 + 2 * al * n + NN * (-4 * al - 4 * n + 2 * t + 2)
            + NN * v * (-2 * al - 2 * n + 4 * NN + 1) - 2 * n * t - n
            + NN**2 * v**2 + 4 * NN**2 - al * t
        )
        + (NN - n) * (-al - n + NN)
        + t * u**2 * (-2 * al - 2 * n + 2 * NN * v + 4 * NN + t + 1)
        - t**2 * u**3
    )
    r2 = (
        NN * v * (
            al**2 - 2 * al + n**2 + 2 * al * n + NN * (-4 * al - 4 * n + 2 * t + 4)
            - 2 * t * u * (-al - n + 2 * NN + 1) - 2 * n + 4 * NN**2
            + t**2 * u**2 - al * t + 2 * t + 1
        )
        + NN**2 * v**2 * (-2 * al - 2 * n + 4 * NN - 2 * t * u + t + 2)
        + NN**3 * v**3
        + (NN + 1) * t * (-al + NN + 1)
    )
    den55b = t * (al + n - NN * v - 2 * NN + t * u - 1)
    add(PlanarSystem(
        "uv55b", ("u55b", "v55b"),
        rhs1_num=r1, rhs1_den=den55b,
        rhs2_num=r2, rhs2_den=NN * den55b,
        has_divisor=True,
        divisor_exclusions=(al + n - 2 * NN + t * u - 1,),
    ))

    u, v = syms("u56b v56b")
    r1 = u * (
        NN * v * (-al + 2 * n * t - n + 2 * NN + 2 * t + 1)
        + NN**2 * (t + 1)
        + t * v**2 * ((NN + 1) * (-al + NN + 1) + NN * (t - 1) * u)
    ) + NN * (NN - n) * (-al - n + NN)
    r2 = v * (
        v * (
            NN * (
                al**2 + n**2 + 2 * (al - 1) * n + 2 * NN * (-2 * al - 2 * n + t + 2)
                + 4 * NN**2 - al * (t + 2) + 2 * t + 1
            )
            + t * (
                2 * NN * u * (v * (al + n - 2 * NN - 1) - NN)
                + NN * t * u**2 * v**2
                + (NN + 1) * v * (-al + NN + 1)
            )
        )
        + NN**2 * (-2 * al - 2 * n + 4 * NN + t + 2)
    ) + NN**3
    den56b = NN * t * (NN - v * (al + n - 2 * NN + t * u * v - 1))
    add(PlanarSystem(
        "uv56b", ("u56b", "v56b"),
        rhs1_num=-r1, rhs1_den=den56b,
        rhs2_num=r2, rhs2_den=den56b,
        has_divisor=True,
    ))

    u, v = syms("u510b v510b")
    r1 = (
        u * (2 * n * NN * v - NN**2 + (NN + 1) * v**2 * (-al + NN + 1))
        + NN * u**2 * v * (v * (al + n - 2 * NN - 2) - 2 * NN)
        + n * NN
    )
    r2 = (
        NN**2
        + v**2 * ((NN + 1) * (-al + NN + 1) + 2 * NN * t * u)
        + NN * t * u**2 * v**3
        + NN * v * (-al + 2 * NN + t + 2)
    )
    add(PlanarSystem(
        "uv510b", ("u510b", "v510b"),
        rhs1_num=r1, rhs1_den=NN * t * v * (u * v + 1),
        rhs2_num=-r2, rhs2_den=NN * t * (u * v + 1),
        # the first equation keeps v in its denominator, so the system is not
        # finite on v = 0; the follow-up reciprocal blow-up resolves that point
        has_divisor=False,
    ))

    # ----- polynomial right-hand-side systems ------------------------------
    U, V = syms("U12 V12")
    add(PlanarSystem(
        "UV12", ("U12", "V12"),
        # quadratic factor reads (3V^2 - 4V + 1) like the sibling systems;
        # confirmed by exact pushforward of the (U11, V11) system
        rhs1_num=-NN * U * (V * (-2 * n + 4 * NN + 4) - al + n - 2 * NN + t - 2)
        - NN**2 * U**2 * (3 * V**2 - 4 * V + 1)
        - (NN + 1) * (-n + NN + 1),
        rhs1_den=NN * t,
        rhs2_num=V * (2 * NN * U - al + n - 2 * NN + t - 2)
        - V**2 * (4 * NN * U + n - 2 * NN - 2)
        + 2 * NN * U * V**3 + al,
        rhs2_den=t,
        has_divisor=True,
    ))

    U, V = syms("U22 V22")
    add(PlanarSystem(
        "UV22", ("U22", "V22"),
        rhs1_num=NN * U * (2 * V * (n + NN + 1) + al - n - 2 * NN - t - 2)
        - NN**2 * U**2 * (3 * V**2 - 4 * V + 1)
        - n * NN - n,
        rhs1_den=NN * t,
        rhs2_num=V * (2 * NN * U - al + n + 2 * NN + t + 2)
        - V**2 * (4 * NN * U + n + NN + 1)
        + 2 * NN * U * V**3 + al - NN - 1,
        rhs2_den=t,
        has_divisor=True,
    ))

    U, V = syms("U32 V32")
    add(PlanarSystem(
        "UV32", ("U32", "V32"),
        rhs1_num=-(
            NN * U * (2 * V * (al - n + NN + 1) - al + n - 2 * NN + t - 2)
            + NN**2 * U**2 * (3 * V**2 - 4 * V + 1)
            + al * (-n + NN + 1)
        ),
        rhs1_den=NN * t,
        rhs2_num=V * (2 * NN * U - al + n - 2 * NN + t - 2)
        + V**2 * (-4 * NN * U + al - n + NN + 1)
        + 2 * NN * U * V**3 + NN + 1,
        rhs2_den=t,
        has_divisor=True,
    ))

    u, v = syms("u55 v55")
    add(PlanarSystem(
        "uv55", ("u55", "v55"),
        rhs1_num=u * (v * (4 * NN - 2 * n) - al + n - 2 * NN + t)
        - NN * u**2 * (3 * v**2 - 4 * v + 1)
        + n - NN,
        rhs1_den=t,
        rhs2_num=v * (2 * NN * u + al - n + 2 * NN - t)
        + v**2 * (-4 * NN * u + n - 2 * NN)
        + 2 * NN * u * v**3 - al,
        rhs2_den=t,
        has_divisor=True,
    ))

    u, v = syms("u12b v12b")
    add(PlanarSystem(
        "uv12b", ("u12b", "v12b"),
        rhs1_num=-al + n * u - 2 * NN * u**2 * v + 2 * NN * u * v - t * u**2
        + t * u + al * u,
        rhs1_den=t,
        rhs2_num=-n * NN * v + 2 * NN**2 * u * v**2 - NN**2 * v**2 + 2 * NN * t * u * v
        - NN * t * v - NN * t - al * NN * v - t,
        rhs2_den=NN * t,
        has_divisor=True,
    ))

    # ----- base system in the reciprocal charts (derived, not displayed) ---
    _add_reciprocal_charts(reg)

    return reg


def _add_reciprocal_charts(reg: Dict[str, PlanarSystem]) -> None:
    """Derive the base system in the (q,P), (Q,p) and (Q,P) charts.

    With Q = 1/q, P = 1/p the chain rule gives Q' = -Q^2 q', P' = -P^2 p'.
    The derived right-hand sides are kept as structural fractions; numerator
    and denominator are recovered with as_num_den for indeterminacy work.
    """
    base = reg["original"]
    for chart in (("q", "P"), ("Q", "p"), ("Q", "P")):
        sub = {old: 1 / Sym(new) for old, new in zip("qp", chart) if new != old}
        rates = [r.subs(sub) if new == old else -(Sym(new)**2) * r.subs(sub)
                 for old, new, r in zip("qp", chart, (base.rhs1, base.rhs2))]
        (n1, d1), (n2, d2) = (r.as_num_den() for r in rates)
        sys_id = "original_" + "".join(chart)
        reg[sys_id] = PlanarSystem(sys_id, chart, n1, d1, n2, d2)


def get_system(system_id: str) -> PlanarSystem:
    try:
        return registry()[system_id]
    except KeyError:
        raise CatalogueError(f"unknown system id {system_id!r}") from None


def system_ids():
    return sorted(registry().keys())


def system_on_chart(chart: Tuple[str, str]) -> Optional[str]:
    """The id of the catalogued system on ``chart``, or None if no system is."""
    return next((sid for sid, s in registry().items() if s.chart == tuple(chart)), None)


# ---------------------------------------------------------------------------
# regularity on exceptional divisors
# ---------------------------------------------------------------------------


def check_regular_on_divisor(system_id: str, sampler, samples: int):
    """The rhs is finite at random points of the exceptional divisor.

    Points violating the catalogued exclusions (residual poles such as
    U = -1) are rejected before evaluation; any remaining singular
    evaluation is a genuine regularity failure.
    """
    sys = get_system(system_id)
    if not sys.has_divisor:
        raise CatalogueError(f"system {system_id} has no catalogued divisor")
    c1, c2 = sys.chart
    names = [c1, *PARAM_NAMES]
    fixed = {c2: Fraction(0)}
    if sys.alpha_fixed is not None:
        fixed["alpha"] = sys.alpha_fixed

    def reject(env):
        return (env["t"] == 0 or env["N"] == 0
                or any(e.evaluate(env) == 0 for e in sys.divisor_exclusions))

    def check(env):
        # a singular evaluation here is the failure, not a point to redraw
        try:
            sys.evaluate_rhs(env)
        except ZeroDivisionError as exc:
            return [f"{exc} at {env}"]
        return []

    return run_case(
        f"regular_on_divisor:{system_id}", sampler, samples,
        lambda: sampler.draw(names, reject=reject, fixed=fixed), check,
    )


def alpha_zero_divisor_degeneracy(sampler, samples: int):
    """At alpha = 0 the excluded pole of the (U21, V21) chart degenerates.

    For generic alpha the point (U21, V21) = (-1, 0) is a simple pole of the
    second component (numerator nonzero, denominator zero); at alpha = 0 the
    numerator vanishes too, so the point becomes a genuine indeterminacy and
    the chart stops being regular on its divisor.  This check PASSes when
    both behaviours are confirmed.
    """
    sys = get_system("UV21")

    def draw():
        env = sampler.draw(
            PARAM_NAMES,
            # N = -1 would annihilate the (N+1) factor of the residue itself
            reject=lambda e: e["t"] == 0 or e["N"] in (0, -1) or e["alpha"] == 0,
        )
        env.update({"U21": Fraction(-1), "V21": Fraction(0)})
        return env

    def check(env):
        failures = []
        num2 = sys.rhs2_num.evaluate(env)
        den2 = sys.rhs2_den.evaluate(env)
        if den2 != 0 or num2 == 0:
            failures.append(
                f"expected a simple pole at alpha != 0, got num = {num2}, den = {den2}"
            )
        env0 = dict(env)
        env0["alpha"] = Fraction(0)
        num0 = sys.rhs2_num.evaluate(env0)
        den0 = sys.rhs2_den.evaluate(env0)
        if num0 != 0 or den0 != 0:
            failures.append(
                f"expected indeterminacy at alpha = 0, got num = {num0}, den = {den0}"
            )
        return failures

    return run_case("alpha0_degeneracy:UV21", sampler, samples, draw, check)


# ---------------------------------------------------------------------------
# second-order reductions
# ---------------------------------------------------------------------------

y, yp = syms("y yp")
a5, b5, g5 = syms("a5 b5 g5")

SINGULAR_Y = (0, 1)  # PV's singular values of y: PV_RHS divides by y and by y - 1

# the fifth Painlevé equation (PV): y'' as a rational expression in (y, yp, t)
# and the parameters (a5, b5, g5), with δ₅ = −1/2; the δ₅ term is subtracted,
# which rounds as adding −1/2 times it
PV_RHS: Expr = (
    (1 / (2 * y) + 1 / (y - 1)) * yp**2
    - yp / t
    + (y - 1) ** 2 * (a5 * y + b5 / y) / t**2
    + g5 * y / t
    - Fraction(1, 2) * y * (y + 1) / (y - 1)
)


def _derive_elimination(sys: PlanarSystem, y_name: str, s_name: str) -> Expr:
    """Solve the equation governing y, linear in the eliminated coordinate.

    With rhs = num/den and num = A + B*s (den free of s), the flow condition
    y' = rhs gives s = (yp*den - A)/B.  Linearity is not checked here:
    ``check_reduction_soundness`` fails wherever the elimination does not
    invert the flow, which a term nonlinear in s makes happen.
    """
    first = sys.chart[0] == y_name
    num = sys.rhs1_num if first else sys.rhs2_num
    den = sys.rhs1_den if first else sys.rhs2_den
    if s_name in den.symbols():
        raise CatalogueError(f"{sys.id}: denominator not free of {s_name}")
    zero = Const(Fraction(0))
    a = num.subs({s_name: zero})
    # for num linear in s, d num/ds is s-free semantically, so pinning s = 0
    # in its tree only removes syntactic zero-coefficient occurrences of s
    elim = (yp * den - a) / num.diff(s_name).subs({s_name: zero})
    return elim.subs({y_name: y})


@functools.cache
def ode2_registry() -> Dict[str, ScalarODE2]:
    """Every catalogued second-order reduction by id, built on first use."""
    reg: Dict[str, ScalarODE2] = {}
    sysreg = registry()

    def add(ode_id, parent_id, reduce_coord, rhs):
        parent = sysreg[parent_id]
        if reduce_coord not in parent.chart:
            raise CatalogueError(f"{ode_id}: {reduce_coord} is not a coordinate of {parent_id}")
        # the eliminated coordinate is the parent chart's other one
        (elim_coord,) = (c for c in parent.chart if c != reduce_coord)
        elim = _derive_elimination(parent, reduce_coord, elim_coord)
        reg[ode_id] = ScalarODE2(
            ode_id, parent_id, reduce_coord, elim_coord, rhs, elim, parent.alpha_fixed
        )

    half = Const(Fraction(1, 2))

    # the level-one hat charts all share this shape; constants differ
    def level_one_rhs(quad_num, lin_coeff, const_num):
        return (
            ((1 / y + 3 * half) * yp**2) / (y + 1)
            - yp / t
            + quad_num / (2 * t**2 * (y + 1))
            + y**2 * lin_coeff / (t * (y + 1))
            + const_num / (2 * t * (y + 1))
            - ((y + 4) * y) / (2 * (y + 1))
            - 1 / ((y + 1) * y)
        )

    rhs_u11 = level_one_rhs(
        y**2 * (-al + n * y + n) * (al + n * y + n),
        al + n - 2 * NN - 1,
        2 * al + 4 * y * (al + n - 2 * NN - 1) + 2 * n - 4 * NN - 5 * t - 2,
    )
    add("ode_U11", "UV11", "U11", rhs_u11)

    rhs_u21 = level_one_rhs(
        y**2 * ((n - al) * (al + n - 2 * NN - 2) + y * (y + 2) * _sq(-n + NN + 1)),
        al + n + 1,
        2 * al + 4 * y * (al + n + 1) + 2 * n - 5 * t + 2,
    )
    add("ode_U21", "UV21", "U21", rhs_u21)

    rhs_u31 = level_one_rhs(
        y**2 * ((al + n) * (al + n - 2 * NN - 2) + y * (y + 2) * _sq(al + n - NN - 1)),
        -al + n + 1,
        -2 * al + 4 * y * (-al + n + 1) + 2 * n - 5 * t + 2,
    )
    add("ode_U31", "UV31", "U31", rhs_u31)

    # same displayed equation as ode_U11 after renaming v54 -> y
    add("ode_v54", "uv54", "v54", rhs_u11)

    # alpha = 0 tilde chart reduction
    rhs_tilde = (
        ((1 - 1 / (2 * y)) * yp**2) / (y - 1)
        - yp / t
        + (n * y**2 * (-n + 2 * NN + 2) - 2 * _sq(NN + 1) * y + _sq(NN + 1))
        / (2 * t**2 * (y - 1) * y)
        + (2 * (n + 1) * y**2) / (t * (y - 1))
        + (y * (y * (y * (2 * t * y - 2 * n - 5 * t - 2) + 4 * t) - 2 * n - t - 2))
        / (2 * t * (y - 1))
    )
    add("ode_tildeV22", "tildeUV22", "tV22", rhs_tilde)

    # polynomial-chart reductions: PV itself, at the displayed (α₅, β₅, γ₅)
    for v, a5_val, b5_val, g5_val in (
        ("V12", half * n**2, -half * al**2, al + n - 2 * NN - 1),
        ("V22", half * _sq(-n + NN + 1), -half * _sq(-al + NN + 1), al + n + 1),
        ("V32", half * _sq(-al - n + NN + 1), (-(NN**2) - 2 * NN - 1) * half, -al + n + 1),
    ):
        add(f"ode_{v}", f"U{v}", v, PV_RHS.subs({"a5": a5_val, "b5": b5_val, "g5": g5_val}))

    return reg


def check_reduction_soundness(ode_id: str, sampler, samples: int):
    """The scalar reduction reproduces the parent planar flow exactly.

    Draw (y, y', t, params), recover the eliminated coordinate from the
    elimination formula and evaluate on the parent's flow jets there
    (``PlanarSystem.along_flow``): the rate of the reduced coordinate is y',
    and the rate of the parent's equation for y is y''.  Both must equal the
    drawn y' and the catalogued second-order rhs at every sampled point.
    """
    ode = get_ode2(ode_id)
    parent = get_system(ode.parent_id)
    rhs_y = parent.rhs1 if parent.chart[0] == ode.reduce_coord else parent.rhs2

    names = ["y", "yp", "t", "n", "N", "alpha"]
    fixed = {"alpha": ode.alpha_fixed} if ode.alpha_fixed is not None else None

    def check(env):
        chart_env = dict(env)
        chart_env[ode.reduce_coord] = env["y"]
        chart_env[ode.elim_coord] = ode.elimination.evaluate(env)
        flow = parent.along_flow(chart_env)
        y_rate = rate(flow[ode.reduce_coord])
        ypp = rate(rhs_y.evaluate(flow))
        expect = ode.rhs.evaluate(env)
        failures = []
        if y_rate != env["yp"]:
            failures.append(f"elimination does not invert the flow ({y_rate} != {env['yp']})")
        if ypp != expect:
            failures.append(f"y'' = {ypp} != catalogued {expect}")
        return failures

    return run_case(
        f"reduction_soundness:{ode_id}", sampler, samples,
        lambda: sampler.draw(names, reject=lambda e: e["t"] == 0 or e["N"] == 0, fixed=fixed),
        check,
    )


def get_ode2(ode_id: str) -> ScalarODE2:
    try:
        return ode2_registry()[ode_id]
    except KeyError:
        raise CatalogueError(f"unknown reduction id {ode_id!r}") from None


def ode2_ids():
    return sorted(ode2_registry().keys())
