"""Exact ground truth for the generalised Krawtchouk weight.

The weight on {0, ..., N} is w(x) = C(N,x) * t^x / (1-alpha)_x with t > 0 and
alpha < 1.  Everything here is computed in exact rational arithmetic: moments,
recurrence coefficients via discrete Stieltjes, the auxiliary quantities
x_n, y_n, the terminating 1F1 initial condition, the nonlinear discrete
system iteration, and residual checks for the discrete and Toda-type systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple


class OracleError(Exception):
    pass


@dataclass(frozen=True)
class WeightParams:
    N: int
    alpha: Fraction
    t: Fraction

    def __post_init__(self):
        if self.N < 1:
            raise OracleError("N must be a positive integer")
        if not self.alpha < 1:
            raise OracleError("weight requires alpha < 1")
        if not self.t > 0:
            raise OracleError("weight requires t > 0")


def pochhammer(b: Fraction, s: int) -> Fraction:
    out = Fraction(1)
    for i in range(s):
        out *= b + i
    return out


def weight_values(w: WeightParams) -> List[Fraction]:
    """w(x) for x = 0..N; all positive for alpha < 1, t > 0."""
    return [
        Fraction(math.comb(w.N, x)) * w.t**x / pochhammer(1 - w.alpha, x)
        for x in range(w.N + 1)
    ]


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
    """Monic three-term recurrence data: aa[k] = a_k^2 (aa[0] = 0), b[k] = b_k."""

    aa: Tuple[Fraction, ...]
    b: Tuple[Fraction, ...]


def stieltjes_recurrence(w: WeightParams, nmax: int) -> RecurrenceTable:
    """a_k^2 and b_k for k <= nmax by discrete Stieltjes on the N+1 support points.

    b_k = <x P_k, P_k>/<P_k, P_k>, a_k^2 = <P_k, P_k>/<P_{k-1}, P_{k-1}>, with
    inner products as finite sums over the support.  Requires nmax <= N.
    """
    if nmax > w.N:
        raise OracleError("nmax exceeds the number of support points minus one")
    wv = weight_values(w)
    xs = [Fraction(x) for x in range(w.N + 1)]

    # P_k values on the support, maintained for k-1 and k.
    p_prev = [Fraction(0)] * (w.N + 1)
    p_cur = [Fraction(1)] * (w.N + 1)
    norm_prev = None
    norm_cur = sum(wx for wx in wv)

    aa = [Fraction(0)]
    b: List[Fraction] = []
    for k in range(nmax + 1):
        if norm_cur == 0:
            raise OracleError(f"vanishing norm <P_{k},P_{k}>")
        bk = sum(x * pv * pv * wx for x, pv, wx in zip(xs, p_cur, wv)) / norm_cur
        b.append(bk)
        if k >= 1:
            aa.append(norm_cur / norm_prev)
        if k == nmax:
            break
        ak2 = aa[k] if k >= 1 else Fraction(0)
        p_next = [
            (x - bk) * pc - ak2 * pp for x, pc, pp in zip(xs, p_cur, p_prev)
        ]
        p_prev, p_cur = p_cur, p_next
        norm_prev = norm_cur
        norm_cur = sum(pv * pv * wx for pv, wx in zip(p_cur, wv))
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
    out = Fraction(0)
    term_num = Fraction(1)  # (a)_s z^s
    for s in range(-a + 1):
        bs = pochhammer(bparam, s)
        if bs == 0:
            raise OracleError(f"vanishing Pochhammer (b)_{s} in 1F1")
        out += term_num / (bs * math.factorial(s))
        term_num *= (a + s) * z
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


def toda_tables(w: WeightParams, nmax: int, offsets) -> Dict[Fraction, RecurrenceTable]:
    """Recurrence tables up to ``nmax`` of w's N and alpha at t + s, keyed by each offset s."""
    if not (w.t - max(abs(s) for s in offsets) > 0):
        raise OracleError("t - h must stay positive")
    return {s: stieltjes_recurrence(WeightParams(w.N, w.alpha, w.t + s), nmax) for s in offsets}


def toda_residuals(w: WeightParams, n: int, h: Fraction,
                   tables: Optional[Mapping] = None) -> Tuple[float, float]:
    """Central-difference Toda residuals at (w.t, n), exact tables floated at the end.

    First residual: d/dt a_n^2 - (a_n^2/t)(b_n - b_{n-1})  (n >= 1).
    Second residual: d/dt b_n - (a_{n+1}^2 - a_n^2)/t      (n >= 0, n+1 <= N).
    ``tables``: ``toda_tables`` to n + 1 or beyond at offsets 0 and +-h (default: built here).
    """
    if n + 1 > w.N:
        raise OracleError("n+1 exceeds N; a_{n+1}^2 not defined on the support")
    if tables is None:
        tables = toda_tables(w, n + 1, (h, -h, 0))
    rp, rm, r0 = tables[h], tables[-h], tables[0]
    d_aa = (rp.aa[n] - rm.aa[n]) / (2 * h) if n >= 1 else Fraction(0)
    d_b = (rp.b[n] - rm.b[n]) / (2 * h)
    res1 = float(d_aa - (r0.aa[n] / w.t) * (r0.b[n] - r0.b[n - 1])) if n >= 1 else 0.0
    return res1, float(d_b - (r0.aa[n + 1] - r0.aa[n]) / w.t)


def oracle_xy(w: WeightParams, nmax: int) -> XYTable:
    """Moment/Stieltjes route to x_k, y_k (the independent oracle)."""
    return xy_quantities(stieltjes_recurrence(w, nmax), w)
