"""Exact ground truth for the generalised Krawtchouk weight.

The weight on {0, ..., N} is w(x) = C(N,x) * t^x / (1-alpha)_x with t > 0 and
alpha < 1.  Everything here is computed in exact rational arithmetic: moments,
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

from .jets import Jet1, slots, value


class OracleError(Exception):
    pass


@dataclass(frozen=True)
class WeightParams:
    N: int
    alpha: Fraction
    t: Union[Fraction, Jet1]  # a Jet1 carries d/dt through the oracle; guards read its value

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
    out = [Fraction(1) * w.t**0]  # 1, as a Jet1 (1, 0) for a jet t
    for x in range(w.N):
        out.append(out[-1] * w.t * Fraction(w.N - x, x + 1) / (1 - w.alpha + x))
    return out


@dataclass(frozen=True)
class MomentTable:
    m: Tuple[Fraction, ...]


def moments(w: WeightParams, jmax: int) -> MomentTable:
    """Power moments m_j = sum_x x^j w(x), j = 0..jmax, with 0**0 = 1."""
    if jmax < 0:
        raise OracleError("jmax must be nonnegative")
    wv = weight_values(w)
    out = []
    for j in range(jmax + 1):
        s = Fraction(0)
        for x, wx in enumerate(wv):
            s += Fraction(x) ** j * wx if not (x == 0 and j == 0) else wx
        out.append(s)
    return MomentTable(tuple(out))


def hankel_determinant(m: MomentTable, k: int) -> Fraction:
    """det(m[i+j]) for 0 <= i,j <= k, by fraction-free-ish Gaussian elimination."""
    size = k + 1
    if 2 * k >= len(m.m):
        raise OracleError("moment table too short for Hankel determinant")
    a = [[m.m[i + j] for j in range(size)] for i in range(size)]
    det = Fraction(1)
    for col in range(size):
        piv = None
        for row in range(col, size):
            if a[row][col] != 0:
                piv = row
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for row in range(col + 1, size):
            f = a[row][col] * inv
            if f == 0:
                continue
            for j in range(col, size):
                a[row][j] -= f * a[col][j]
    return det


@dataclass(frozen=True)
class RecurrenceTable:
    """Monic three-term recurrence data: aa[k] = a_k^2 (aa[0] = 0), b[k] = b_k; Jet1s for a jet t."""

    aa: Tuple[Fraction, ...]
    b: Tuple[Fraction, ...]


def _each_slot(f, x):
    """f applied to every slot of a scalar or of a ``Jet1``."""
    return Jet1(f(x.v), f(x.d1)) if isinstance(x, Jet1) else f(x)


def _quotient(p, q):
    """p/q as a ``Fraction``, or as a ``Jet1`` of ``Fraction``s, for integer(-slotted) p, q."""
    if isinstance(q, Jet1):
        return Jet1(Fraction(p.v, q.v), Fraction(p.d1 * q.v - p.v * q.d1, q.v * q.v))
    return Fraction(p, q)


def stieltjes_recurrence(w: WeightParams, nmax: int) -> RecurrenceTable:
    """a_k^2 and b_k for k <= nmax by discrete Stieltjes on the N+1 support points.

    b_k = <x P_k, P_k>/<P_k, P_k>, a_k^2 = <P_k, P_k>/<P_{k-1}, P_{k-1}>, with
    inner products as finite sums over the support.  Requires nmax <= N.

    The recurrence runs on integers.  Both ratios are unchanged when the
    weight is scaled by a positive constant, so the weight is scaled by the
    lcm of its denominators.  P_k on the support is held as an integer vector
    q over one integer d, divided by its content after each step; only each
    degree's a_k^2 and b_k become ``Fraction``s.  For a ``Jet1`` t the entries
    of q are ``Jet1``s with integer slots, and d stays an integer because the
    new vector is multiplied by the conjugate (u_0 - u_1 e) of its jet factor
    u, with (u_0 + u_1 e)(u_0 - u_1 e) = u_0^2.
    """
    if nmax > w.N:
        raise OracleError("nmax exceeds the number of support points minus one")
    wv = weight_values(w)
    # gcd and lcm fold pairwise: a star-argument tuple of varying length per call
    # would fill CPython's tuple free lists, which only a full collection empties
    scale = functools.reduce(math.lcm, (s.denominator for wx in wv for s in slots(wx)))
    wi = [_each_slot(lambda s: s.numerator * (scale // s.denominator), wx) for wx in wv]
    xs = range(w.N + 1)

    # P_{k-1} = q_prev/d_prev and P_k = q/d; norm = d^2 <P_k, P_k> on the scaled weight
    q_prev, d_prev, norm_prev = [0] * (w.N + 1), 1, 1
    q, d = [1] * (w.N + 1), 1
    aa: List[Fraction] = []
    b: List[Fraction] = []
    for k in range(nmax + 1):
        qqw = [qx * qx * wx for qx, wx in zip(q, wi)]
        norm = sum(qqw)
        if value(norm) == 0:
            raise OracleError(f"vanishing norm <P_{k},P_{k}>")
        moment = sum(x * v for x, v in zip(xs, qqw))
        b.append(_quotient(moment, norm))
        aa.append(_quotient(norm * d_prev * d_prev, norm_prev * d * d) if k else 0 * b[0])
        if k == nmax:
            break
        # P_{k+1} = (x - b_k) P_k - a_k^2 P_{k-1} over u d^2, u = norm norm_prev; both
        # terms times conj(u), so that the denominator is u_0^2 d^2
        u = norm * norm_prev
        conj = Jet1(u.v, -u.d1) if isinstance(u, Jet1) else 1
        lead = norm_prev * d * conj
        slope, shift, tail = norm * lead, moment * lead, norm * norm * d_prev * conj
        q_next = [(x * slope - shift) * qx - tail * px for x, qx, px in zip(xs, q, q_prev)]
        d_next = value(u * conj) * d * d
        g = functools.reduce(math.gcd, (s for qx in q_next for s in slots(qx)), d_next)
        q_prev, d_prev, norm_prev = q, d, norm
        q, d = [_each_slot(lambda s: s // g, qx) for qx in q_next], d_next // g
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
    (shifted to index n+1) for y_{n+1}; every pivot is guarded.
    """
    if nmax > w.N:
        raise OracleError("nmax exceeds N")
    N = Fraction(w.N)
    al, t = w.alpha, w.t
    xs = [Fraction(0)]
    ys = [initial_y0(w)]
    for n in range(nmax):
        xn, yn = xs[n], ys[n]
        piv = xn + yn
        if piv == 0:
            raise OracleError(f"vanishing pivot x_{n} + y_{n}")
        xnp1 = -(yn * (N + 1 + N * yn) * (N + 1 - al + N * yn) + yn * piv * t * N) / (
            piv * t * N
        )
        xs.append(xnp1)
        # second equation at index n+1: (x+y_{n+1})(x+y_n) = rhs(x), x = x_{n+1}
        if N * xnp1 - (n + 1) == 0:
            raise OracleError(f"vanishing pivot N*x_{n+1} - ({n + 1})")
        rhs = xnp1 * (-N - 1 + N * xnp1) * (al - N - 1 + N * xnp1) / (
            N * (N * xnp1 - (n + 1))
        )
        piv2 = xnp1 + yn
        if piv2 == 0:
            raise OracleError(f"vanishing pivot x_{n + 1} + y_{n}")
        ys.append(rhs / piv2 - xnp1)
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
