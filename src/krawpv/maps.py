"""Birational map registry and randomized-exact verification machinery.

Maps are stored in the blow-up convention: the forward data expresses the
*source* chart coordinates as rational expressions in the *target* chart
coordinates (plus t and parameters), e.g. q = center + u*v, p = center + v.
Maps compose by evaluation: ``apply_chain`` carries a point through a chain
map by map, and no substituted expression is built.  Correctness of each map
between two catalogued charts is certified by the pushforward check in its
forward form: the map, evaluated on first-order jets along the flow of the
system on its target chart, must move at the velocity of the system on its
source chart, exactly at random rational points.  No Jacobian is inverted.
A display-typo variant is flagged ``control`` where it is added; its checks
must fail.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .expr import Const, Expr, Sym, syms
from .jets import rate, value
from .sampling import CaseResult, Sampler, run_case
from .systems import PARAM_NAMES, PlanarSystem, get_system, system_on_chart

t, n, NN, al = syms("t n N alpha")


class MapError(Exception):
    pass


class ChartMismatchError(MapError):
    pass


@dataclass(frozen=True)
class BirationalMap:
    """source coords expressed in target coords (+ t, n, N, alpha)."""

    id: str
    source_coords: Tuple[str, str]
    target_coords: Tuple[str, str]
    forward: Mapping[str, Expr]
    # optional displayed inverse: target coords in terms of source coords
    inverse: Optional[Mapping[str, Expr]] = None
    # a display-typo variant kept as a non-degeneracy control: it must fail
    control: bool = False

    def __post_init__(self):
        if set(self.forward) != set(self.source_coords):
            raise MapError(f"{self.id}: forward must bind exactly the source coords")
        if self.inverse is not None and set(self.inverse) != set(self.target_coords):
            raise MapError(f"{self.id}: inverse must bind exactly the target coords")


def apply_map(m: BirationalMap, env: Mapping[str, Fraction]) -> Dict[str, Fraction]:
    """Image of a target-chart point (env binds target coords and params)."""
    return {name: e.evaluate(env) for name, e in m.forward.items()}


def apply_chain(chain: Sequence[BirationalMap], env: Mapping[str, Fraction]) -> Dict[str, Fraction]:
    """Image of a point under ``chain``, listed in substitution order.

    Each map's source chart must be the previous map's target chart.  The maps
    run innermost first; each one's target coords then leave the point, as
    substitution removes them, so a symbol the chain does not bind stays unbound.
    """
    if not chain:
        raise MapError("empty chain")
    for prev, m in zip(chain, chain[1:]):
        if tuple(prev.target_coords) != tuple(m.source_coords):
            raise ChartMismatchError(
                f"cannot compose {prev.id} -> {m.id}: {prev.target_coords} vs {m.source_coords}")
    point = dict(env)
    for m in reversed(chain):
        image = apply_map(m, point)
        for c in m.target_coords:
            del point[c]
        point.update(image)
    return image


# ---------------------------------------------------------------------------
# map catalogue
# ---------------------------------------------------------------------------

@functools.cache
def map_registry() -> Dict[str, BirationalMap]:
    """Every catalogued birational map by id, built on first use."""
    reg: Dict[str, BirationalMap] = {}

    def add(mid, src, tgt, forward, inverse=None, control=False):
        if mid in reg:
            raise MapError(f"duplicate map id {mid}")
        reg[mid] = BirationalMap(mid, src, tgt, forward, inverse, control)

    def S(name):
        return Sym(name)

    # --- level-one blow-ups of the base chart -----------------------------
    u, v = S("u11"), S("v11")
    add("phi11", ("q", "p"), ("u11", "v11"), {"q": u * v, "p": v})
    U, V = S("U11"), S("V11")
    add("phi11_hat", ("q", "p"), ("U11", "V11"), {"q": V, "p": U * V})

    c2 = (1 + NN) / NN
    u, v = S("u21"), S("v21")
    add("phi21", ("q", "p"), ("u21", "v21"), {"q": c2 + u * v, "p": -c2 + v})
    U, V = S("U21"), S("V21")
    add("phi21_hat", ("q", "p"), ("U21", "V21"), {"q": c2 + V, "p": -c2 + U * V})

    c3 = (1 + NN - al) / NN
    u, v = S("u31"), S("v31")
    add("phi31", ("q", "p"), ("u31", "v31"), {"q": c3 + u * v, "p": -c3 + v})
    U, V = S("U31"), S("V31")
    add("phi31_hat", ("q", "p"), ("U31", "V31"), {"q": c3 + V, "p": -c3 + U * V})

    # alpha = 0 extra blow-up off the (u21, v21) chart
    tU, tV = S("tU22"), S("tV22")
    add("tilde_phi22", ("u21", "v21"), ("tU22", "tV22"),
        {"u21": -1 + tV, "v21": tU * tV})

    # blow-up of the (q, P) indeterminacy point
    U, V = S("U41"), S("V41")
    add("phi41_hat", ("q", "P"), ("U41", "V41"), {"q": n / NN + V, "P": U * V})

    # chart swaps
    add("phi_qP", ("q", "p"), ("q", "P"), {"q": S("q"), "p": 1 / S("P")})
    add("phi_Qp", ("q", "p"), ("Q", "p"), {"q": 1 / S("Q"), "p": S("p")})
    add("phi_QP", ("q", "p"), ("Q", "P"), {"q": 1 / S("Q"), "p": 1 / S("P")})

    # --- cascade resolving (Q, P) = (0, 0): first choice -------------------
    u, v = S("u51"), S("v51")
    add("phi51", ("Q", "P"), ("u51", "v51"), {"Q": u * v, "P": v})
    U, V = S("U52"), S("V52")
    add("phi52_hat", ("u51", "v51"), ("U52", "V52"), {"u51": V, "v51": U * V})
    add("tau52_hat", ("U52", "V52"), ("U52", "V52"),
        {"U52": 1 / S("U52"), "V52": S("V52")})
    # the printed factor centers -N/t and (-1-2N+n-t+alpha)/t do not compose
    # to the printed composite below; with denominators N (not t) the factors
    # reproduce the composite exactly and the composite wins the pushforward
    # onto the (u54, v54) system, see the decisions log
    u, v = S("u53"), S("v53")
    add("phi53", ("U52", "V52"), ("u53", "v53"),
        {"U52": -t / NN + u * v, "V52": v})
    u, v = S("u54"), S("v54")
    add("phi54", ("u53", "v53"), ("u54", "v54"),
        {"u53": (-1 - 2 * NN + n - t + al) / NN + u * v, "v53": v})

    den54 = v * (NN * u * v + al + n - 2 * NN - t - 1) - t
    Q, P = S("Q"), S("P")
    add("Phi54", ("Q", "P"), ("u54", "v54"),
        {"Q": NN * v**2 / den54, "P": NN * v / den54},
        inverse={
            "u54": (Q * (P * (-al - n + 2 * NN + t + 1) + NN) + t * P**2) / (NN * Q**2),
            "v54": Q / P,
        })
    # self-consistent N<->t-swapped variant: fails the pushforward; kept only
    # as a non-degeneracy control
    den54x = v * (t * u * v + al + n - 2 * NN - t - 1) - NN
    add("Phi54_tswap", ("Q", "P"), ("u54", "v54"),
        {"Q": t * v**2 / den54x, "P": t * v / den54x},
        inverse={
            "u54": (Q * (P * (-al - n + 2 * NN + t + 1) + t) + NN * P**2) / (t * Q**2),
            "v54": Q / P,
        },
        control=True)

    # --- cascade resolving (Q, P) = (0, 0): second choice -------------------
    u, v = S("u51b"), S("v51b")
    add("phi51b", ("Q", "P"), ("u51b", "v51b"), {"Q": u * v, "P": v})
    u, v = S("u52b"), S("v52b")
    add("phi52b", ("u51b", "v51b"), ("u52b", "v52b"), {"u51b": u * v, "v51b": v})
    add("tau52b", ("u52b", "v52b"), ("u52b", "v52b"),
        {"u52b": 1 / S("u52b"), "v52b": S("v52b")})
    u, v = S("u53b"), S("v53b")
    add("phi53b", ("u52b", "v52b"), ("u53b", "v53b"),
        {"u52b": -NN / t + u * v, "v52b": v})
    u, v = S("u54b"), S("v54b")
    add("phi54b_f", ("u53b", "v53b"), ("u54b", "v54b"),
        {"u53b": (-1 - 2 * NN + n - t + al) / t + u * v, "v53b": v})

    den54b = v * (al + n - 2 * NN + t * u * v - t - 1) - NN
    add("Phi54b", ("Q", "P"), ("u54b", "v54b"),
        {"Q": t * v**2 / den54b, "P": v},
        inverse={
            "u54b": ((-al - n + 2 * NN + t + 1) * P + NN) / (t * P**2) + 1 / Q,
            "v54b": P,
        })

    u, v = S("u55b"), S("v55b")
    add("phi55b", ("u54b", "v54b"), ("u55b", "v55b"),
        {"u54b": u * v, "v54b": 1 / v})
    u, v = S("u56b"), S("v56b")
    add("phi56b", ("u55b", "v55b"), ("u56b", "v56b"),
        {"u55b": u * v, "v55b": 1 / v})

    # fourth-iteration cascade off (u56b, v56b)
    u, v = S("u57b"), S("v57b")
    add("phi57b", ("u56b", "v56b"), ("u57b", "v57b"),
        {"u56b": 1 / (u * v), "v56b": v})
    u, v = S("u58b"), S("v58b")
    add("phi58b", ("u57b", "v57b"), ("u58b", "v58b"), {"u57b": u * v, "v57b": v})
    add("tau58b", ("u58b", "v58b"), ("u58b", "v58b"),
        {"u58b": 1 / S("u58b"), "v58b": S("v58b")})
    u, v = S("u59b"), S("v59b")
    add("phi59b", ("u58b", "v58b"), ("u59b", "v59b"),
        {"u58b": NN / t + u * v, "v58b": v})
    u, v = S("u510b"), S("v510b")
    # printed factor center reads (1+2N-n+t+alpha)/t; the alpha sign there is
    # a typo -- the minus-alpha version reproduces the printed composite and
    # wins the pushforward, see the decisions log
    add("phi510b_f", ("u59b", "v59b"), ("u510b", "v510b"),
        {"u59b": (1 + 2 * NN - n + t - al) / t + u * v, "v59b": v})
    add("phi510b_f_printed", ("u59b", "v59b"), ("u510b", "v510b"),
        {"u59b": (1 + 2 * NN - n + t + al) / t + u * v, "v59b": v}, control=True)

    u56 = S("u56b")
    add("Phi510b", ("u56b", "v56b"), ("u510b", "v510b"),
        {"u56b": (v * (-al - n + 2 * NN + t * u * v + t + 1) + NN) / (t * v**2),
         "v56b": v},
        inverse={
            "u510b": u56 + (-NN + (-1 - 2 * NN + n - t + al) * S("v56b")) / (t * S("v56b")**2),
            "v510b": S("v56b"),
        })

    # printed as v510b = U11*V11, but only the reciprocal form passes the
    # pushforward and closes the five-factor decomposition, see decisions log
    U, V = S("U11"), S("V11")
    add("psi11_hat", ("u510b", "v510b"), ("U11", "V11"),
        {"u510b": V, "v510b": 1 / (U * V)})
    add("psi11_hat_printed", ("u510b", "v510b"), ("U11", "V11"),
        {"u510b": V, "v510b": U * V}, control=True)

    # --- iterated regularisation off the (q, P) cascade ---------------------
    u, v = S("u42"), S("v42")
    add("phi42", ("U41", "V41"), ("u42", "v42"),
        {"U41": 1 / (u * v), "V41": v})

    u, v = S("u43a"), S("v43a")
    add("phi43a", ("u42", "v42"), ("u43a", "v43a"),
        {"u42": u * v, "v42": -n / NN + v})
    u, v = S("u43b"), S("v43b")
    add("phi43b", ("u42", "v42"), ("u43b", "v43b"),
        {"u42": -(1 + NN) / NN + u * v, "v42": (1 + NN - n) / NN + v})
    u, v = S("u43c"), S("v43c")
    add("phi43c", ("u42", "v42"), ("u43c", "v43c"),
        {"u42": (-1 - NN + al) / NN + u * v, "v42": (1 + NN - n - al) / NN + v})

    U, V = S("U11"), S("V11")
    add("varphi11_hat", ("u42", "v42"), ("U11", "V11"),
        {"u42": U * V, "v42": -n / NN + V})
    U, V = S("U21"), S("V21")
    add("varphi21_hat", ("u42", "v42"), ("U21", "V21"),
        {"u42": -(1 + NN) / NN + U * V, "v42": (1 + NN - n) / NN + V})
    U, V = S("U31"), S("V31")
    add("varphi31_hat", ("u42", "v42"), ("U31", "V31"),
        {"u42": (-1 - NN + al) / NN + U * V, "v42": (1 + NN - n - al) / NN + V})

    # --- blow-ups to the polynomial systems ---------------------------------
    U, V = S("U12"), S("V12")
    add("phi12_hat", ("U11", "V11"), ("U12", "V12"),
        {"U11": -1 + V, "V11": (1 + NN) / NN + U * V})
    U, V = S("U22"), S("V22")
    add("phi22_hat", ("U21", "V21"), ("U22", "V22"),
        {"U21": -1 + V, "V21": -(1 + NN) / NN + U * V})
    U, V = S("U32"), S("V32")
    add("phi32_hat", ("U31", "V31"), ("U32", "V32"),
        {"U31": -1 + V, "V31": al / NN + U * V})
    u, v = S("u55"), S("v55")
    add("phi55_poly", ("u54", "v54"), ("u55", "v55"),
        {"u54": -1 + n / NN + u * v, "v54": -1 + v})
    u, v = S("u12b"), S("v12b")
    add("phi12b", ("u11", "v11"), ("u12b", "v12b"),
        {"u11": -1 + u, "v11": -(1 + NN) / NN + u * v})

    return reg


def get_map(map_id: str) -> BirationalMap:
    try:
        return map_registry()[map_id]
    except KeyError:
        raise MapError(f"unknown map id {map_id!r}") from None


def _pushforward_triple(m: BirationalMap) -> Optional[Tuple[str, str, str]]:
    """(source system, map, target system), if both of ``m``'s charts carry a catalogued system."""
    src, tgt = system_on_chart(m.source_coords), system_on_chart(m.target_coords)
    return None if src is None or tgt is None else (src, m.id, tgt)


def pushforward_triples() -> List[Tuple[str, str, str]]:
    """The triple of every map between two catalogued charts, controls included."""
    return [tr for tr in map(_pushforward_triple, map_registry().values()) if tr is not None]


# named cascades whose composite must match a catalogued closed form; a cascade
# through a control map, such as the printed (typo'd) last factor, must fail
CASCADES: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "cascade54": (("phi51", "phi52_hat", "tau52_hat", "phi53", "phi54"), "Phi54"),
    "cascade54b": (("phi51b", "phi52b", "tau52b", "phi53b", "phi54b_f"), "Phi54b"),
    "cascade510b": (("phi57b", "phi58b", "tau58b", "phi59b", "phi510b_f"), "Phi510b"),
    "cascade510b_printed": (
        ("phi57b", "phi58b", "tau58b", "phi59b", "phi510b_f_printed"), "Phi510b"),
}


@dataclass(frozen=True)
class IndeterminacyPoint:
    id: str
    system_id: str
    coords: Mapping[str, Expr]  # chart coord -> Expression in params
    alpha_fixed: Optional[Fraction] = None


INDETERMINACY_POINTS: Tuple[IndeterminacyPoint, ...] = (
    IndeterminacyPoint("P1", "original",
                       {"q": Const(Fraction(0)), "p": Const(Fraction(0))}),
    IndeterminacyPoint("P2", "original",
                       {"q": (1 + NN) / NN, "p": -(1 + NN) / NN}),
    IndeterminacyPoint("P3", "original",
                       {"q": (1 + NN - al) / NN, "p": -(1 + NN - al) / NN}),
    IndeterminacyPoint("P4", "original_qP",
                       {"q": n / NN, "P": Const(Fraction(0))}),
    IndeterminacyPoint("P5", "original_QP",
                       {"Q": Const(Fraction(0)), "P": Const(Fraction(0))}),
    IndeterminacyPoint("P22_tilde", "uv21",
                       {"u21": Const(Fraction(-1)), "v21": Const(Fraction(0))},
                       alpha_fixed=Fraction(0)),
)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _alpha_constraint(*systems: PlanarSystem) -> Optional[Fraction]:
    vals = {s.alpha_fixed for s in systems if s.alpha_fixed is not None}
    if len(vals) > 1:
        raise MapError("incompatible alpha constraints")
    return vals.pop() if vals else None


def pushforward_check(map_id: str, sampler: Sampler, samples: int) -> CaseResult:
    """The map carries the target flow onto the source flow.

    The source and target flows are the catalogued systems on the map's two
    charts; a map without a system on both raises ``MapError``.

    With source coords x = F(z, t), F evaluated on the target's flow jets
    (``PlanarSystem.along_flow``) gives F(z) in its value slots and
    J_F(z) z' + dF/dt in its rate slots.  Those rates must equal
    rhs_source(F(z)) exactly at every sampled rational point.
    """
    m = get_map(map_id)
    triple = _pushforward_triple(m)
    if triple is None:
        raise MapError(f"{map_id} does not join two catalogued charts")
    source_id, _, target_id = triple
    source, target = get_system(source_id), get_system(target_id)
    case_id = f"pushforward:{source_id}--{map_id}-->{target_id}"
    alpha_fixed = _alpha_constraint(source, target)
    fixed = None if alpha_fixed is None else {"alpha": alpha_fixed}

    def draw():
        env = sampler.draw(PARAM_NAMES, fixed=fixed)
        env.update(sampler.draw(target.chart))
        return env

    def check(env):
        image = apply_map(m, target.along_flow(env))
        rates = tuple(rate(image[c]) for c in source.chart)
        field = source.evaluate_rhs({**env, **{c: value(x) for c, x in image.items()}})
        if rates != field:
            return [f"pushed-forward rates {rates} != source field {field}"]
        return []

    return run_case(case_id, sampler, samples, draw, check)


def verify_inverse(map_id: str, sampler: Sampler, samples: int) -> CaseResult:
    """inverse∘forward is the identity at random target points.

    That one direction suffices.  A map with a left inverse has a
    two-dimensional image, so it is dominant, and then forward∘inverse is
    the identity too: it fixes every point forward(z), and those points are
    Zariski-dense in the source chart.
    """
    m = get_map(map_id)
    if m.inverse is None:
        raise MapError(f"{map_id} has no catalogued inverse")
    m_inv = BirationalMap(f"{map_id}^-1", m.target_coords, m.source_coords, m.inverse)

    def check(env):
        back = apply_chain([m_inv, m], env)
        return [] if all(back[c] == env[c] for c in m.target_coords) else ["round-trip mismatch"]

    return run_case(
        f"inverse:{map_id}", sampler, samples,
        lambda: sampler.draw(PARAM_NAMES + tuple(m.target_coords)), check,
    )


def _chains_agree(case_id, left, right, sampler, samples) -> CaseResult:
    """Two chains between the same charts agree exactly at random target points."""
    charts = tuple(left[0].source_coords), tuple(left[-1].target_coords)
    if charts != (tuple(right[0].source_coords), tuple(right[-1].target_coords)):
        raise ChartMismatchError(f"{case_id}: the two chains join different charts")

    def check(env):
        a, b = apply_chain(left, env), apply_chain(right, env)
        return [] if a == b else [f"{a} != {b}"]

    return run_case(case_id, sampler, samples, lambda: sampler.draw(PARAM_NAMES + charts[1]), check)


def verify_cascade(cascade_id: str, sampler: Sampler, samples: int) -> CaseResult:
    """The factor composition equals the catalogued closed-form composite."""
    factor_ids, composite_id = CASCADES[cascade_id]
    return _chains_agree(
        f"cascade:{cascade_id}=={composite_id}",
        [get_map(f) for f in factor_ids], [get_map(composite_id)], sampler, samples,
    )


# decomposition statements: LHS map == composition (substitution order)
DECOMPOSITIONS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "hat11_via_qP": ("phi11_hat", ("phi_qP", "phi41_hat", "phi42", "varphi11_hat")),
    "hat21_via_qP": ("phi21_hat", ("phi_qP", "phi41_hat", "phi42", "varphi21_hat")),
    "hat31_via_qP": ("phi31_hat", ("phi_qP", "phi41_hat", "phi42", "varphi31_hat")),
    "hat11_via_QP": ("phi11_hat",
                     ("phi_QP", "Phi54b", "phi55b", "phi56b", "Phi510b", "psi11_hat")),
}


# the extra blow-up factors of the qP route equal the bridge maps followed by
# the renaming of the bridge's target coords (U, V) into the factor's (u, v)
BRIDGE_RENAMES: Dict[str, Tuple[str, str, BirationalMap]] = {
    f"{a}=={b}": (a, b, BirationalMap(f"rename:{U},{V}", (U, V), (u, v), {U: Sym(u), V: Sym(v)}))
    for a, b, (U, V), (u, v) in (
        ("phi43a", "varphi11_hat", ("U11", "V11"), ("u43a", "v43a")),
        ("phi43b", "varphi21_hat", ("U21", "V21"), ("u43b", "v43b")),
        ("phi43c", "varphi31_hat", ("U31", "V31"), ("u43c", "v43c")),
    )
}


def verify_decomposition(name: str, sampler: Sampler, samples: int) -> CaseResult:
    lhs_id, chain = DECOMPOSITIONS[name]
    return _chains_agree(
        f"decomposition:{name}", [get_map(lhs_id)], [get_map(f) for f in chain],
        sampler, samples,
    )


def verify_bridge_rename(name: str, sampler: Sampler, samples: int) -> CaseResult:
    a_id, b_id, renaming = BRIDGE_RENAMES[name]
    return _chains_agree(
        f"bridge:{name}", [get_map(a_id)], [get_map(b_id), renaming], sampler, samples
    )


def verify_indeterminacy(
    point: IndeterminacyPoint, sampler: Sampler, samples: int
) -> CaseResult:
    """Numerator and denominator of some rhs component both vanish at the point."""
    sys = get_system(point.system_id)
    fixed = None if point.alpha_fixed is None else {"alpha": point.alpha_fixed}

    def check(env):
        for coord, e in point.coords.items():
            env[coord] = e.evaluate(env)
        # both components are evaluated, so a singular one redraws the point
        hits = [
            num.evaluate(env) == 0 and den.evaluate(env) == 0
            for num, den in ((sys.rhs1_num, sys.rhs1_den), (sys.rhs2_num, sys.rhs2_den))
        ]
        return [] if any(hits) else [f"no simultaneous zero at {env}"]

    return run_case(
        f"indeterminacy:{point.id}@{point.system_id}", sampler, samples,
        lambda: sampler.draw(PARAM_NAMES, fixed=fixed), check,
    )
