"""Exact ground truth for the generalised Krawtchouk weight.

The weight on {0, ..., N} is w(x) = C(N,x) * t^x / (1-alpha)_x with t > 0 and
alpha < 1.  Everything here is computed in exact rational arithmetic: the
recurrence coefficients via discrete Stieltjes, the auxiliary quantities
x_n, y_n, the terminating 1F1 initial condition, the nonlinear discrete
system iteration, and residual checks for the discrete and Toda-type systems.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from .jets import Jet1, Jet2, slots, value


class OracleError(Exception):
    pass


@dataclass(frozen=True)
class WeightParams:
    N: int
    alpha: Fraction
    t: Union[Fraction, Jet1, Jet2]  # a jet carries d/dt through the oracle; guards read its value

    def __post_init__(self):
        if self.N < 1:
            raise OracleError("N must be a positive integer")
        if not self.alpha < 1:
            raise OracleError("weight requires alpha < 1")
        if not value(self.t) > 0:
            raise OracleError("weight requires t > 0")


def weight_values(w: WeightParams) -> List[Fraction]:
    """w(x) for x = 0..N; all positive for alpha < 1, t > 0.

    A running product: w(0) = 1 and w(x+1) = w(x) t (N - x)/((x + 1)(1 - alpha + x)).
    """
    out = [Fraction(1) * w.t**0]  # 1, as the jet (1, 0, ...) for a jet t
    for x in range(w.N):
        out.append(out[-1] * w.t * Fraction(w.N - x, x + 1) / (1 - w.alpha + x))
    return out


@dataclass(frozen=True)
class RecurrenceTable:
    """Monic three-term recurrence data: aa[k] = a_k^2 (aa[0] = 0), b[k] = b_k; jets for a jet t."""

    aa: Tuple[Fraction, ...]
    b: Tuple[Fraction, ...]


def _each_slot(f, x):
    """f applied to every slot of a scalar or of a jet."""
    return type(x)(*map(f, slots(x))) if isinstance(x, (Jet1, Jet2)) else f(x)


def _exact(n: int, d: int) -> int:
    """n/d for a d that divides n; a remainder is a bug in the caller, not a property of the input."""
    q, r = divmod(n, d)
    if r:
        raise OracleError(f"inexact division: {d} does not divide {n}")
    return q


def _exact_quotient(n, s):
    """n/s for ints, or jets of one order with int slots, whose quotient has int slots; checked.

    A jet s divides by the triangular rule that inverts the Leibniz rule
    n = q s slot by slot: q₀ = n₀/s₀, q₁ = (n₁ − q₀s₁)/s₀,
    q₂ = (n₂ − q₀s₂ − 2q₁s₁)/s₀, each division exact.
    """
    if not isinstance(s, (Jet1, Jet2)):
        return _exact(n, s)
    ss, q = slots(s), []
    for i, ni in enumerate(slots(n)):
        for j, qj in enumerate(q):
            ni -= math.comb(i, j) * qj * ss[i - j]
        q.append(_exact(ni, ss[0]))
    return type(s)(*q)


def _quotient(p, q):
    """p/q with ``Fraction`` slots, for ints p and q or jets of one order with int slots.

    For a jet q of order k, slot i of p/q has a denominator dividing
    q₀^(i+1), so p·q₀^(k+1)/q has integer slots: the triangular rule of
    ``_exact_quotient`` runs on integers, and each slot is reduced once.
    """
    if not isinstance(q, (Jet1, Jet2)):
        return Fraction(p, q)
    scale = q.v ** len(slots(q))
    r = _exact_quotient(type(q)(*[x * scale for x in slots(p)]), q)
    return type(q)(*[Fraction(x, scale) for x in slots(r)])


def _integer_slots(xs):
    """[L x for x in xs], with L the lcm of the slots' denominators, so every slot is an int."""
    # lcm folds pairwise: a star-argument tuple of varying length per call
    # would fill CPython's tuple free lists, which only a full collection empties
    L = functools.reduce(math.lcm, (s.denominator for x in xs for s in slots(x)))
    return [_each_slot(lambda s: s.numerator * (L // s.denominator), x) for x in xs]


def stieltjes_recurrence(w: WeightParams, nmax: int) -> RecurrenceTable:
    """a_k^2 and b_k for k <= nmax by discrete Stieltjes on the N+1 support points.

    b_k = <x P_k, P_k>/<P_k, P_k>, a_k^2 = <P_k, P_k>/<P_{k-1}, P_{k-1}>, with
    inner products as finite sums over the support.  Requires nmax <= N.

    The recurrence runs on integers, fraction-free.  Both ratios are unchanged
    when the weight is scaled by a positive constant, so the weight W is the
    weight scaled by the lcm of its denominators.  With Δ_k the k×k Hankel
    determinant of W's moments (Δ_0 = 1), Q_k = Δ_k P_k is an integer vector
    on the support, and with M_k = Σ Q_k² W = Δ_k Δ_{k+1} and X_k = Σ x Q_k² W:

        b_k = X_k/M_k,  Δ_{k+1} = M_k/Δ_k,  a_k^2 = Δ_{k+1} Δ_{k-1}/Δ_k²,
        Q_{k+1} = ((x M_k − X_k) Q_k − Δ_{k+1}² Q_{k-1})/Δ_k²,

    where both divisions by Δ's are exact, and are checked to be (see
    Bareiss 1968 for the same device in elimination).  Only b_k and a_k^2 are
    reduced, once each.  For a jet t (``Jet1`` or ``Jet2``) W, Q_k, M_k and
    Δ_k are jets with integer slots and the code is the same: a jet divisor
    divides by the triangular rule of ``_exact_quotient``.
    """
    if nmax > w.N:
        raise OracleError("nmax exceeds the number of support points minus one")
    wi = _integer_slots(weight_values(w))
    xs = range(w.N + 1)

    one = 0 * wi[0] + 1  # Δ_0 = 1, as the unit jet for a jet t
    q_prev, q = [0] * (w.N + 1), [1] * (w.N + 1)  # Q_{k-1} and Q_k
    delta_prev, delta = one, one  # Δ_{k-1} (read from k = 1 on) and Δ_k
    aa: List[Fraction] = []
    b: List[Fraction] = []
    for k in range(nmax + 1):
        qqw = [qx * qx * wx for qx, wx in zip(q, wi)]
        norm = sum(qqw)  # M_k
        if value(norm) == 0:
            raise OracleError(f"vanishing norm <P_{k},P_{k}>")
        moment = sum(x * v for x, v in zip(xs, qqw))  # X_k
        b.append(_quotient(moment, norm))
        delta_next, square = _exact_quotient(norm, delta), delta * delta
        aa.append(_quotient(delta_next * delta_prev, square) if k else 0 * b[0])
        if k == nmax:
            break
        tail = delta_next * delta_next
        q_prev, q = q, [_exact_quotient((x * norm - moment) * qx - tail * px, square)
                        for x, qx, px in zip(xs, q, q_prev)]
        delta_prev, delta = delta, delta_next
    return RecurrenceTable(tuple(aa), tuple(b))


@dataclass(frozen=True)
class XYTable:
    x: Tuple[Fraction, ...]
    y: Tuple[Fraction, ...]


def xy_quantities(r: RecurrenceTable, w: WeightParams) -> XYTable:
    """x_k = (a_k^2/t + k)/N and y_k = -(b_k + N + 1 + t - k - alpha)/N."""
    xs = [(aak / w.t + k) / w.N for k, aak in enumerate(r.aa)]
    ys = [-(bk + w.N + 1 + w.t - k - w.alpha) / w.N for k, bk in enumerate(r.b)]
    return XYTable(tuple(xs), tuple(ys))


def hyp1f1_terminating(a: int, bparam: Fraction, z: Fraction) -> Fraction:
    """M(a, b, z) = sum_{s=0}^{|a|} (a)_s/((b)_s s!) z^s for nonpositive integer a."""
    if a > 0:
        raise OracleError("terminating 1F1 requires a nonpositive integer a")
    out = term = Fraction(1)
    for s in range(-a):
        # term s+1 = term s * (a + s) z/((b + s)(s + 1)); (b)_{s+1} vanishes with b + s
        if bparam + s == 0:
            raise OracleError(f"vanishing Pochhammer (b)_{s + 1} in 1F1")
        term = term * (a + s) * z / ((bparam + s) * (s + 1))
        out += term
    return out


def initial_y0(w: WeightParams) -> Fraction:
    """Closed-form y_0 via a ratio of terminating confluent hypergeometrics."""
    denom = hyp1f1_terminating(-w.N, 1 - w.alpha, -w.t)
    if denom == 0:
        raise OracleError("vanishing M(-N, 1-alpha, -t)")
    num = hyp1f1_terminating(-w.N + 1, 2 - w.alpha, -w.t)
    return -(w.N + 1 + w.t - w.alpha) / Fraction(w.N) - (w.t / (1 - w.alpha)) * num / denom


def iterate_discrete(w: WeightParams, nmax: int) -> XYTable:
    """Solve the nonlinear discrete system forward from x_0 = 0, y_0 closed form.

    At each step the first equation is solved for x_{n+1} and the second
    (shifted to index n+1) for y_{n+1}; every pivot is guarded.  t must be a
    ``Fraction``: the guards compare exact values.

    A step runs on integers and reduces once per value.  With x_n = X/F,
    y_n = Y/E, alpha = A/C and t = T/S, P = XE + YF (so x_n + y_n = P/(FE)),
    U = (N+1)E + NY and V = ((N+1)C - A)E + NCY,

        x_{n+1} = -Y (UVFS + PTNCE)/(C E^2 P T N);

    then with x_{n+1} = X1/F1 reduced, R1 = N X1 - (N+1)F1, R2 = A F1 + C R1,
    R3 = N X1 - (n+1)F1 and P2 = X1 E + Y F1 (so x_{n+1} + y_n = P2/(F1 E)),

        y_{n+1} = X1 (R1 R2 E - C N R3 P2)/(C F1 N R3 P2).
    """
    if nmax > w.N:
        raise OracleError("nmax exceeds N")
    if not isinstance(w.t, (int, Fraction)):
        raise OracleError("the discrete iteration takes a Fraction t, not a jet")
    N = w.N
    A, C = w.alpha.numerator, w.alpha.denominator
    T, S = w.t.numerator, w.t.denominator
    xs = [Fraction(0)]
    ys = [initial_y0(w)]
    for n in range(nmax):
        X, F = xs[n].numerator, xs[n].denominator
        Y, E = ys[n].numerator, ys[n].denominator
        P = X * E + Y * F
        if P == 0:
            raise OracleError(f"vanishing pivot x_{n} + y_{n}")
        U = (N + 1) * E + N * Y
        V = ((N + 1) * C - A) * E + N * C * Y
        PTN = P * T * N
        x1 = Fraction(-Y * (U * V * F * S + PTN * C * E), C * E * E * PTN)
        xs.append(x1)
        # second equation at index n+1: (x+y_{n+1})(x+y_n) = rhs(x), x = x_{n+1}
        X1, F1 = x1.numerator, x1.denominator
        R3 = N * X1 - (n + 1) * F1
        if R3 == 0:
            raise OracleError(f"vanishing pivot N*x_{n+1} - ({n + 1})")
        P2 = X1 * E + Y * F1
        if P2 == 0:
            raise OracleError(f"vanishing pivot x_{n + 1} + y_{n}")
        R1 = N * X1 - (N + 1) * F1
        R2 = A * F1 + C * R1
        ys.append(Fraction(X1 * (R1 * R2 * E - C * N * R3 * P2), C * F1 * N * R3 * P2))
    return XYTable(tuple(xs), tuple(ys))


def discrete_residuals(xy: XYTable, w: WeightParams, n: int) -> Tuple[Fraction, Fraction]:
    """LHS - RHS of both discrete equations at index n; exact zeros certify them."""
    N = Fraction(w.N)
    al, t = w.alpha, w.t
    xn, yn = xy.x[n], xy.y[n]
    xnp1 = xy.x[n + 1]
    r1 = (xn + yn) * (xnp1 + yn) + yn * (N + 1 + N * yn) * (N + 1 - al + N * yn) / (t * N)
    if n >= 1:
        ynm1 = xy.y[n - 1]
        r2 = (xn + yn) * (xn + ynm1) - xn * (-N - 1 + N * xn) * (al - N - 1 + N * xn) / (
            N * (N * xn - n)
        )
    else:
        r2 = Fraction(0)
    return r1, r2


def jet_recurrence(w: WeightParams, nmax: int) -> RecurrenceTable:
    """``stieltjes_recurrence`` with t carried as a ``Jet1``: each entry is (value, d/dt)."""
    return stieltjes_recurrence(WeightParams(w.N, w.alpha, Jet1.variable(w.t)), nmax)


def toda_exact_residuals(r: RecurrenceTable, w: WeightParams, n: int) -> Tuple[Fraction, Fraction]:
    """LHS - RHS of both Toda equations (see ``toda_residuals``) from a ``jet_recurrence`` table.

    The first vanishes at n = 0, where a_0^2 = 0.  Exact zeros certify the flow at (w.t, n).
    """
    aa, b, t = r.aa, r.b, w.t
    r1 = aa[n].d1 - (aa[n].v / t) * (b[n].v - b[n - 1].v) if n >= 1 else Fraction(0)
    return r1, b[n].d1 - (aa[n + 1].v - aa[n].v) / t


def toda_residuals(w: WeightParams, n: int, h: Fraction) -> Tuple[float, float]:
    """Central-difference Toda residuals at (w.t, n), exact tables floated at the end.

    The float reference for ``toda_exact_residuals``.
    First residual: d/dt a_n^2 - (a_n^2/t)(b_n - b_{n-1})  (n >= 1).
    Second residual: d/dt b_n - (a_{n+1}^2 - a_n^2)/t      (n >= 0, n+1 <= N).
    """
    if n + 1 > w.N:
        raise OracleError("n+1 exceeds N; a_{n+1}^2 not defined on the support")
    if not w.t - h > 0:
        raise OracleError("t - h must stay positive")
    rp, rm, r0 = (stieltjes_recurrence(WeightParams(w.N, w.alpha, w.t + s), n + 1)
                  for s in (h, -h, 0))
    d_aa = (rp.aa[n] - rm.aa[n]) / (2 * h) if n >= 1 else Fraction(0)
    d_b = (rp.b[n] - rm.b[n]) / (2 * h)
    res1 = float(d_aa - (r0.aa[n] / w.t) * (r0.b[n] - r0.b[n - 1])) if n >= 1 else 0.0
    return res1, float(d_b - (r0.aa[n + 1] - r0.aa[n]) / w.t)


def oracle_xy(w: WeightParams, nmax: int) -> XYTable:
    """Moment/Stieltjes route to x_k, y_k (the independent oracle)."""
    return xy_quantities(stieltjes_recurrence(w, nmax), w)
