import math
import random
from fractions import Fraction

import pytest

from krawpv import oracle
from krawpv.jets import Jet1, Jet2, slots, value
from krawpv.oracle import (
    OracleError,
    WeightParams,
    discrete_residuals,
    hyp1f1_terminating,
    initial_y0,
    iterate_discrete,
    jet_recurrence,
    oracle_xy,
    stieltjes_recurrence,
    toda_exact_residuals,
    toda_residuals,
    weight_values,
)
from krawpv.reports import RunConfig


# an independent reference for the Stieltjes norms: power moments and their
# Hankel determinants, a_k^2 = D_k D_{k-2} / D_{k-1}^2
def moments(w, jmax):
    """Power moments m_j = sum_x x^j w(x), j = 0..jmax, with 0**0 = 1."""
    wv = weight_values(w)
    return tuple(sum(Fraction(x) ** j * wx for x, wx in enumerate(wv)) for j in range(jmax + 1))


def hankel_determinant(m, k):
    """det(m[i+j]) for 0 <= i,j <= k, by Gaussian elimination."""
    size = k + 1
    assert 2 * k < len(m), "moment table too short for the Hankel determinant"
    a = [[m[i + j] for j in range(size)] for i in range(size)]
    det = Fraction(1)
    for col in range(size):
        piv = next((row for row in range(col, size) if a[row][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for row in range(col + 1, size):
            f = a[row][col] / a[col][col]
            for j in range(col, size):
                a[row][j] -= f * a[col][j]
    return det


def test_weight_positive_on_support():
    w = WeightParams(4, Fraction(-1, 3), Fraction(3, 2))
    assert all(v > 0 for v in weight_values(w))


def test_invalid_parameters_rejected():
    with pytest.raises(OracleError):
        WeightParams(0, Fraction(0), Fraction(1))
    with pytest.raises(OracleError):
        WeightParams(2, Fraction(2), Fraction(1))
    with pytest.raises(OracleError):
        WeightParams(2, Fraction(0), Fraction(-1))
    with pytest.raises(OracleError):
        WeightParams(2, Fraction(0), Jet1.variable(Fraction(-1)))


def test_moments_match_direct_sum():
    w = WeightParams(3, Fraction(0), Fraction(1))
    m = moments(w, 2)
    wv = weight_values(w)
    assert m[0] == sum(wv)
    assert m[1] == sum(Fraction(i) * v for i, v in enumerate(wv))


def test_hankel_determinants_positive():
    w = WeightParams(4, Fraction(1, 2), Fraction(2))
    m = moments(w, 8)
    for k in range(4):
        assert hankel_determinant(m, k) > 0


def test_stieltjes_vs_hankel_norms():
    # a_k^2 = D_k D_{k-2} / D_{k-1}^2 in terms of Hankel determinants
    w = WeightParams(4, Fraction(0), Fraction(1))
    r = stieltjes_recurrence(w, 3)
    m = moments(w, 8)
    D = [hankel_determinant(m, k) for k in range(4)]
    # a_k^2 = D_k * D_{k-2} / D_{k-1}^2 with D_{-1} = 1
    assert r.aa[1] == D[1] / D[0] ** 2
    assert r.aa[2] == D[2] * D[0] / D[1] ** 2


def test_hyp1f1_terminating_small_case():
    # M(-1, b, z) = 1 - z/b
    assert hyp1f1_terminating(-1, Fraction(3), Fraction(2)) == 1 - Fraction(2, 3)


def _rising(b, s):
    """(b)_s = b (b + 1) ... (b + s - 1), term by term."""
    return math.prod((b + i for i in range(s)), start=Fraction(1))


@pytest.mark.parametrize("N, alpha, t", [
    (1, Fraction(0), Fraction(1)), (5, Fraction(-1, 3), Fraction(3, 2)),
    (12, Fraction(-997, 113), Fraction(989, 113)), (18, Fraction(7, 9), Fraction(1, 4)),
])
def test_running_products_match_the_closed_forms(N, alpha, t):
    # w(x) = C(N, x) t^x/(1 - alpha)_x and M(a, b, z) = sum (a)_s z^s/((b)_s s!)
    want = [math.comb(N, x) * t**x / _rising(1 - alpha, x) for x in range(N + 1)]
    assert weight_values(WeightParams(N, alpha, t)) == want
    jets = weight_values(WeightParams(N, alpha, Jet1.variable(t)))
    assert [j.v for j in jets] == want
    assert [j.d1 for j in jets] == [x * wx / t for x, wx in enumerate(want)]
    for a, b in ((-N, 1 - alpha), (-N + 1, 2 - alpha)):
        assert hyp1f1_terminating(a, b, -t) == sum(
            _rising(a, s) * (-t) ** s / (_rising(b, s) * math.factorial(s))
            for s in range(-a + 1))


def test_vanishing_pochhammer_names_its_index():
    # (-2)_s vanishes from s = 3 on; a series that stops at s = 2 never meets it
    assert hyp1f1_terminating(-2, Fraction(-2), Fraction(1)) == 1 + 1 + Fraction(1, 2)
    with pytest.raises(OracleError, match=r"\(b\)_3 "):
        hyp1f1_terminating(-3, Fraction(-2), Fraction(1))


def test_worked_instance():
    w = WeightParams(2, Fraction(0), Fraction(1))
    assert initial_y0(w) == Fraction(-17, 7)
    it = iterate_discrete(w, 1)
    assert it.x[1] == Fraction(69, 98)


def test_dual_routes_agree():
    for N in (1, 2, 3, 4):
        for a in (Fraction(0), Fraction(1, 2), Fraction(-1, 3)):
            for tv in (Fraction(1, 2), Fraction(1), Fraction(3)):
                w = WeightParams(N, a, tv)
                it = iterate_discrete(w, N)
                st = oracle_xy(w, N)
                assert it.x == st.x
                assert it.y == st.y


def test_discrete_residuals_exactly_zero():
    w = WeightParams(3, Fraction(1, 2), Fraction(3))
    xy = oracle_xy(w, 3)
    for n in range(3):
        r1, r2 = discrete_residuals(xy, w, n)
        assert r1 == 0 and r2 == 0


def test_toda_residuals_second_order():
    w = WeightParams(3, Fraction(0), Fraction(1))
    h = Fraction(1, 10000)
    r1, r2 = toda_residuals(w, 1, h)
    assert abs(r1) < 1e-6 and abs(r2) < 1e-6
    r1h, r2h = toda_residuals(w, 1, h / 2)
    worst, worst_h = max(abs(r1), abs(r2)), max(abs(r1h), abs(r2h))
    assert worst_h < worst / 2


def test_tables_are_prefix_stable_on_the_default_sweep():
    # the oracle suites build each weight's tables once and read prefixes of them
    for N, a, tv, _ in RunConfig().weights():
        w = WeightParams(N, a, tv)
        r, it = stieltjes_recurrence(w, N), iterate_discrete(w, N)
        for n in range(N + 1):
            rn, itn = stieltjes_recurrence(w, n), iterate_discrete(w, n)
            assert (rn.aa, rn.b) == (r.aa[:n + 1], r.b[:n + 1])
            assert (itn.x, itn.y) == (it.x[:n + 1], it.y[:n + 1])


def test_toda_residuals_reject_a_step_past_zero():
    h = Fraction(1, 10000)
    with pytest.raises(OracleError, match="t - h"):
        toda_residuals(WeightParams(2, Fraction(0), h), 0, h)


def test_jet_table_carries_the_plain_table_in_its_value_slot():
    for N, a, tv, _ in RunConfig().weights():
        w = WeightParams(N, a, tv)
        r, jr = stieltjes_recurrence(w, N), jet_recurrence(w, N)
        assert [value(x) for x in jr.aa] == list(r.aa)
        assert [value(x) for x in jr.b] == list(r.b)


def test_toda_exact_residuals_vanish_and_detect_a_doubled_t():
    # negative control: the right table read with 2t in place of t
    points = zeros = first_off = second_off = 0
    for N, a, tv, ns in RunConfig().weights():
        w, doubled = WeightParams(N, a, tv), WeightParams(N, a, 2 * tv)
        table = jet_recurrence(w, max(ns) + 1)
        for n in ns:
            points += 1
            zeros += toda_exact_residuals(table, w, n) == (0, 0)
            r1, r2 = toda_exact_residuals(table, doubled, n)
            first_off += r1 != 0
            second_off += r2 != 0
    assert (points, zeros, first_off, second_off) == (189, 189, 135, 189)


def _reference_stieltjes(w, nmax):
    """Discrete Stieltjes on Fractions (jets of them for a jet t): the reference kernel."""
    wv = weight_values(w)
    xs = [Fraction(x) for x in range(w.N + 1)]
    p_prev, p_cur = [Fraction(0)] * (w.N + 1), [Fraction(1)] * (w.N + 1)
    norm_prev, norm_cur = None, sum(wv)
    aa, b = [0 * norm_cur], []
    for k in range(nmax + 1):
        bk = sum(x * pv * pv * wx for x, pv, wx in zip(xs, p_cur, wv)) / norm_cur
        b.append(bk)
        if k >= 1:
            aa.append(norm_cur / norm_prev)
        if k == nmax:
            break
        p_next = [(x - bk) * pc - aa[k] * pp for x, pc, pp in zip(xs, p_cur, p_prev)]
        p_prev, p_cur = p_cur, p_next
        norm_prev, norm_cur = norm_cur, sum(pv * pv * wx for pv, wx in zip(p_cur, wv))
    return aa, b


def _slots(entries):
    return [slots(x) for x in entries]


# a t of each order the kernel takes: a Fraction, a Jet1 and a Jet2 of the curve parameter
T_ORDERS = {"Fraction": lambda tv: tv, "Jet1": Jet1.variable, "Jet2": Jet2.variable}


def _rational(rng, lo, hi, digits):
    """A seeded rational in [lo, hi) whose denominator has ``digits`` decimal digits."""
    q = rng.randint(10 ** (digits - 1), 10**digits - 1)
    return Fraction(rng.randint(math.ceil(lo * q), math.ceil(hi * q) - 1), q)


def _draw(rng, digits):
    return (_rational(rng, Fraction(-3), Fraction(1), digits),
            _rational(rng, Fraction(1, 4), Fraction(8), digits))


def _assert_kernel_equals_the_fraction_loop(N, a, t):
    w = WeightParams(N, a, t)
    r = stieltjes_recurrence(w, N)
    ref_aa, ref_b = _reference_stieltjes(w, N)
    assert _slots(r.aa) == _slots(ref_aa)
    assert _slots(r.b) == _slots(ref_b)


def test_integer_kernel_equals_the_fraction_loop():
    rng = random.Random(1968)
    for N in range(1, 13):
        for digits in (1, 2, 3):
            a, tv = _draw(rng, digits)
            for order in T_ORDERS.values():
                _assert_kernel_equals_the_fraction_loop(N, a, order(tv))


@pytest.mark.parametrize("order", sorted(T_ORDERS))
def test_integer_kernel_equals_the_fraction_loop_at_N_18(order):
    # the benchmark's largest N at 3-digit heights, where the digits grow most
    a, tv = _draw(random.Random(18), 3)
    _assert_kernel_equals_the_fraction_loop(18, a, T_ORDERS[order](tv))


@pytest.mark.parametrize("order", sorted(T_ORDERS))
def test_every_table_slot_is_a_fraction(order):
    # jet division on int slots would give floats (int / int), equal to nothing exact
    for N, a, tv, _ in RunConfig().weights():
        r = stieltjes_recurrence(WeightParams(N, a, T_ORDERS[order](tv)), N)
        assert {type(s) for x in r.aa + r.b for s in slots(x)} == {Fraction}


def test_norm_ratios_are_hankel_ratios_at_three_digit_heights():
    # a_k^2 = D_k D_{k-2} / D_{k-1}^2; here D[j] holds D_{j-1}, with D_{-1} = 1
    a, tv = _draw(random.Random(2004), 3)
    w = WeightParams(8, a, tv)
    r = stieltjes_recurrence(w, 8)
    m = moments(w, 16)
    D = [Fraction(1)] + [hankel_determinant(m, k) for k in range(9)]
    assert all(r.aa[k] == D[k + 1] * D[k - 1] / D[k] ** 2 for k in range(1, 9))


def test_a_doubled_derivative_slot_doubles_every_derivative():
    # t = t0 + 2s: by the chain rule d/ds = 2 d/dt and d^2/ds^2 = 4 d^2/dt^2
    rng = random.Random(2)
    for N, digits in ((4, 1), (7, 2), (10, 3)):
        a, tv = _draw(rng, digits)
        for unit, doubled, scale in ((Jet1.variable(tv), Jet1(tv, Fraction(2)), (1, 2)),
                                     (Jet2.variable(tv), Jet2(tv, Fraction(2), Fraction(0)), (1, 2, 4))):
            one = stieltjes_recurrence(WeightParams(N, a, unit), N)
            two = stieltjes_recurrence(WeightParams(N, a, doubled), N)
            assert _slots(two.aa + two.b) == [
                tuple(k * s for k, s in zip(scale, row)) for row in _slots(one.aa + one.b)]


JETS = {"Jet1": lambda r: Jet1(*r[:2]), "Jet2": lambda r: Jet2(*r[:3])}  # from a list of 3 or more


def test_an_inexact_division_raises():
    # Hankel divisibility is a theorem: a remainder means a bug, never a rounded quotient
    assert oracle._exact(-91, 7) == -13
    with pytest.raises(OracleError, match="inexact division: 7 does not divide 90"):
        oracle._exact(90, 7)
    with pytest.raises(OracleError, match="inexact division"):
        oracle._exact_quotient(90, 7)


@pytest.mark.parametrize("order", sorted(JETS))
def test_the_exact_jet_quotient_inverts_the_product_and_rejects_a_non_multiple(order):
    rng = random.Random(order)
    for _ in range(50):
        q, s = (JETS[order]([rng.randint(-10**40, 10**40) for _ in range(3)]) for _ in "qs")
        s.v = s.v if abs(s.v) > 1 else 3
        assert slots(oracle._exact_quotient(q * s, s)) == slots(q)
        # off by one in the last slot alone: the earlier slots divide, the last does not
        n = JETS[order]([*slots(q * s)[:-1], slots(q * s)[-1] + 1, 0])
        with pytest.raises(OracleError, match="inexact division"):
            oracle._exact_quotient(n, s)


@pytest.mark.parametrize("order", sorted(JETS))
def test_the_jet_quotient_is_the_fraction_jet_division(order):
    rng = random.Random(2004)
    for digits in (1, 5, 40):
        for _ in range(30):
            p, q = (JETS[order]([rng.randint(-10**digits, 10**digits) for _ in range(3)])
                    for _ in "pq")
            q.v = q.v or 1
            want = JETS[order]([Fraction(x) for x in slots(p)] + [0]) / q
            got = oracle._quotient(p, q)
            assert slots(got) == slots(want)
            assert {type(x) for x in slots(got)} == {Fraction}


def _reference_iteration(w, nmax):
    """The discrete iteration as a loop of reduced ``Fraction`` operations: the reference."""
    N = Fraction(w.N)
    al, t = w.alpha, w.t
    xs = [Fraction(0)]
    ys = [oracle.initial_y0(w)]
    for n in range(nmax):
        xn, yn = xs[n], ys[n]
        piv = xn + yn
        if piv == 0:
            raise OracleError(f"vanishing pivot x_{n} + y_{n}")
        xnp1 = -(yn * (N + 1 + N * yn) * (N + 1 - al + N * yn) + yn * piv * t * N) / (
            piv * t * N
        )
        xs.append(xnp1)
        if N * xnp1 - (n + 1) == 0:
            raise OracleError(f"vanishing pivot N*x_{n+1} - ({n + 1})")
        rhs = xnp1 * (-N - 1 + N * xnp1) * (al - N - 1 + N * xnp1) / (
            N * (N * xnp1 - (n + 1))
        )
        piv2 = xnp1 + yn
        if piv2 == 0:
            raise OracleError(f"vanishing pivot x_{n + 1} + y_{n}")
        ys.append(rhs / piv2 - xnp1)
    return tuple(xs), tuple(ys)


def _iteration_outcome(iterate, w, nmax):
    """The (x, y) tables an iteration returns, or the message of the OracleError it raises."""
    try:
        return iterate(w, nmax)
    except OracleError as exc:
        return str(exc)


def _iterate(w, nmax):
    it = iterate_discrete(w, nmax)
    return it.x, it.y


def test_integer_iteration_equals_the_fraction_loop_on_the_default_sweep():
    for N, a, tv, _ in RunConfig().weights():
        w = WeightParams(N, a, tv)
        assert _iterate(w, N) == _reference_iteration(w, N)


def test_integer_iteration_equals_the_fraction_loop_at_three_digit_heights():
    rng = random.Random(1968)
    for N in range(7, 19):
        for digits in (1, 2, 3):
            a, tv = _draw(rng, digits)
            w = WeightParams(N, a, tv)
            assert _iteration_outcome(_iterate, w, N) == _iteration_outcome(_reference_iteration, w, N)


@pytest.mark.parametrize("order", ["Jet1", "Jet2"])
def test_the_iteration_rejects_a_jet_t(order):
    # a jet's == compares identity, so the pivot guards could not see a zero value slot
    w = WeightParams(3, Fraction(1, 2), T_ORDERS[order](Fraction(2)))
    with pytest.raises(OracleError, match="Fraction t"):
        iterate_discrete(w, 2)


@pytest.mark.parametrize("alpha, t, y0, message", [
    # x_0 + y_0 = 0 at once
    (Fraction(0), Fraction(1), Fraction(0), r"vanishing pivot x_0 \+ y_0$"),
    # x_1 = -(N+1+N y_0)(N+1-alpha+N y_0)/(tN) - y_0: y_0 = -2 and t = 1/2 give x_1 = 1/2
    (Fraction(1, 2), Fraction(1, 2), Fraction(-2), r"vanishing pivot N\*x_1 - \(1\)$"),
    # y_0 = -(N+1)/N zeroes the product, so x_1 = -y_0
    (Fraction(1, 2), Fraction(1), Fraction(-3, 2), r"vanishing pivot x_1 \+ y_0$"),
])
def test_a_vanishing_pivot_is_named(monkeypatch, alpha, t, y0, message):
    monkeypatch.setattr(oracle, "initial_y0", lambda w: y0)
    w = WeightParams(2, alpha, t)
    with pytest.raises(OracleError, match=message):
        iterate_discrete(w, 2)
    with pytest.raises(OracleError, match=message):
        _reference_iteration(w, 2)
