"""Hamiltonian forms of the polynomial-chart systems and of the base system.

Each entry pairs a Hamiltonian function H with a catalogued planar system and
certifies, by exact evaluation at random rational points, that

    prefactor * rhs1 == dH/d(coord2)   and   prefactor * rhs2 == -dH/d(coord1).

The prefactor is 1 for the polynomial charts and 1/(p+q) for the weighted
form of the base (q, p) system.  Only coordinate derivatives are compared,
so H is determined up to an arbitrary function of t.  A ``+offset`` row adds
t^3 (``T_OFFSET``) to H, whose rate is 0 by construction (``partial`` binds
only a coordinate to a jet), so the row re-checks H at other points.  An
entry flagged ``control`` is a display-typo variant, kept because its check
must fail.

The partials are the rates of H on first-order jets: binding one coordinate
c to ``Jet1.variable`` makes dH/dc the d/dt slot of H, exactly, so no
derivative tree is built and each registry tree keeps its compiled kernels
from pass to pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from .expr import ONE, Expr, syms
from .jets import Jet1, rate
from .sampling import CaseResult, Sampler, run_case
from .systems import PARAM_NAMES, get_system

t, n, NN, al = syms("t n N alpha")

# the pure function of t the suite adds to every verified H
T_OFFSET = t**3


class HamiltonianError(Exception):
    pass


@dataclass(frozen=True)
class HamiltonianEntry:
    id: str
    system_id: str
    h: Expr  # rational in the chart coordinates, t, and (n, N, alpha)
    prefactor: Expr = ONE
    # a display-typo variant kept as a non-degeneracy control: it must fail
    control: bool = False


@functools.cache
def hamiltonian_registry() -> Dict[str, HamiltonianEntry]:
    """Every catalogued Hamiltonian pairing by id, built on first use."""
    reg: Dict[str, HamiltonianEntry] = {}

    def add(entry: HamiltonianEntry):
        if entry.id in reg:
            raise ValueError(f"duplicate Hamiltonian id {entry.id}")
        reg[entry.id] = entry

    # the displayed form omits a factor V on the final term and the -alpha*U/t
    # summand; this corrected H is the unique (up to f(t)) primitive of the
    # system's first equation whose U-derivative also generates the second
    U, V = syms("U12 V12")
    add(HamiltonianEntry(
        "H12", "UV12",
        V * (NN * U * (V * (n - 2 * NN - 2) - NN * U * (V - 1) ** 2
                       + al - n + 2 * NN - t + 2)) / (NN * t)
        - (NN + 1) * (-n + NN + 1) * V / (NN * t)
        - al * U / t,
    ))
    # the display exactly as printed, kept as a non-degeneracy control
    add(HamiltonianEntry(
        "H12_displayed", "UV12",
        V * (NN * U * (V * (n - 2 * NN - 2) - NN * U * (V - 1) ** 2
                       + al - n + 2 * NN - t + 2)) / (NN * t)
        - (NN + 1) * (-n + NN + 1) / (NN * t),
        control=True,
    ))

    U, V = syms("U22 V22")
    add(HamiltonianEntry(
        "H22", "UV22",
        (NN * U * (-V * (-al + n + 2 * NN + t + 2) + V**2 * (n + NN + 1) - al + NN + 1)
         - n * (NN + 1) * V) / (NN * t)
        - NN**2 * U**2 * V * (V - 1) ** 2 / (NN * t),
    ))

    # displayed with (n - N - 1) squared and (V - 1) unsquared; only the
    # first power / squared combination generates the catalogued system
    # (the quadratic factor 3V^2 - 4V + 1 of the system is d[V(V-1)^2]/dV)
    U, V = syms("U32 V32")
    add(HamiltonianEntry(
        "H32", "UV32",
        (-NN * U * (V * (V * (al - n + NN + 1) - al + n - 2 * NN + t - 2) + NN + 1)
         + al * V * (n - NN - 1)) / (NN * t)
        - NN**2 * U**2 * V * (V - 1) ** 2 / (NN * t),
    ))
    # the two displayed variants, kept as non-degeneracy controls
    add(HamiltonianEntry(
        "H32_squared_term", "UV32",
        (-NN * U * (V * (V * (al - n + NN + 1) - al + n - 2 * NN + t - 2) + NN + 1)
         + al * V * (n - NN - 1) ** 2) / (NN * t)
        - NN**2 * U**2 * V * (V - 1) ** 2 / (NN * t),
        control=True,
    ))
    add(HamiltonianEntry(
        "H32_unsquared_factor", "UV32",
        (-NN * U * (V * (V * (al - n + NN + 1) - al + n - 2 * NN + t - 2) + NN + 1)
         + al * V * (n - NN - 1)) / (NN * t)
        - NN**2 * U**2 * V * (V - 1) / (NN * t),
        control=True,
    ))

    u, v = syms("u55 v55")
    add(HamiltonianEntry(
        "H55", "uv55",
        (v * (-u * (v * (n - 2 * NN) + NN * u * (v - 1) ** 2 + al - n + 2 * NN - t)
              + n - NN) + al * u) / t,
    ))

    u, v = syms("u12b v12b")
    add(HamiltonianEntry(
        "H12b", "uv12b",
        v * (u * (al + n - u * (NN * v + t) + NN * v + t) - al) / t + u / NN + u,
    ))

    q, p = syms("q p")
    add(HamiltonianEntry(
        "Hqp", "original",
        (NN * p * q * (al + n - 2 * NN - t - 2) + NN * p**2 * (n - NN * q)
         - q * ((NN + 1) * (-al + NN + 1) + NN * t * q)) / (NN * t * (p + q)),
        prefactor=1 / (p + q),
    ))

    return reg


def get_hamiltonian(h_id: str) -> HamiltonianEntry:
    try:
        return hamiltonian_registry()[h_id]
    except KeyError:
        raise HamiltonianError(f"unknown Hamiltonian id {h_id!r}") from None


def partial(h: Expr, c: str, env: Dict[str, Fraction], h_offset: Optional[Expr] = None):
    """d(h + h_offset)/dc at env: the rate of each tree with coordinate c bound to a jet.

    The two rates are added as values; a sum tree built per call would be
    compiled again on every call.
    """
    jet_env = {**env, c: Jet1.variable(env[c])}
    d = rate(h.evaluate(jet_env))
    if h_offset is not None:
        d += rate(h_offset.evaluate(jet_env))
    return d


def verify_hamiltonian(
    h_id: str,
    sampler: Sampler,
    samples: int,
    h_offset: Optional[Expr] = None,
) -> CaseResult:
    """prefactor-weighted system rhs equals the canonical derivatives of H.

    ``h_offset`` (a pure function of t) may be added to H; the check must be
    invariant under it since only coordinate derivatives are compared.
    """
    entry = get_hamiltonian(h_id)
    system = get_system(entry.system_id)
    c1, c2 = system.chart

    def check(env):
        r1, r2 = system.evaluate_rhs(env)
        w = entry.prefactor.evaluate(env)
        lhs1, lhs2 = w * r1, w * r2
        rhs1 = partial(entry.h, c2, env, h_offset)
        rhs2 = -partial(entry.h, c1, env, h_offset)
        if lhs1 != rhs1 or lhs2 != rhs2:
            return [f"({lhs1}, {lhs2}) != ({rhs1}, {rhs2})"]
        return []

    tag = "" if h_offset is None else "+offset"
    names = [c1, c2, *PARAM_NAMES]
    return run_case(
        f"hamiltonian:{h_id}{tag}@{entry.system_id}", sampler, samples,
        lambda: sampler.draw(names, reject=lambda e: e["t"] == 0 or e["N"] == 0),
        check,
    )
