import math
import random
from fractions import Fraction

import pytest

from krawpv.jets import Jet1, value
from krawpv.oracle import (
    OracleError,
    WeightParams,
    discrete_residuals,
    hankel_determinant,
    hyp1f1_terminating,
    initial_y0,
    iterate_discrete,
    jet_recurrence,
    moments,
    oracle_xy,
    stieltjes_recurrence,
    toda_exact_residuals,
    toda_residuals,
    weight_values,
)
from krawpv.reports import RunConfig


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
    assert m.m[0] == sum(wv)
    assert m.m[1] == sum(Fraction(i) * v for i, v in enumerate(wv))


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
    """Discrete Stieltjes on Fractions (Jet1s of them for a Jet1 t): the reference kernel."""
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


def _jet_slots(entries):
    return [(x.v, x.d1) for x in entries]


def _rational(rng, lo, hi, digits):
    """A seeded rational in [lo, hi) whose denominator has ``digits`` decimal digits."""
    q = rng.randint(10 ** (digits - 1), 10**digits - 1)
    return Fraction(rng.randint(math.ceil(lo * q), math.ceil(hi * q) - 1), q)


def _draw(rng, digits):
    return (_rational(rng, Fraction(-3), Fraction(1), digits),
            _rational(rng, Fraction(1, 4), Fraction(8), digits))


def test_integer_kernel_equals_the_fraction_loop():
    rng = random.Random(1968)
    for N in range(1, 13):
        for digits in (1, 2, 3):
            a, tv = _draw(rng, digits)
            w = WeightParams(N, a, tv)
            r = stieltjes_recurrence(w, N)
            assert [list(r.aa), list(r.b)] == list(_reference_stieltjes(w, N))
            jr = jet_recurrence(w, N)
            ref_aa, ref_b = _reference_stieltjes(WeightParams(N, a, Jet1.variable(tv)), N)
            assert _jet_slots(jr.aa) == _jet_slots(ref_aa)
            assert _jet_slots(jr.b) == _jet_slots(ref_b)


def test_norm_ratios_are_hankel_ratios_at_three_digit_heights():
    # a_k^2 = D_k D_{k-2} / D_{k-1}^2; here D[j] holds D_{j-1}, with D_{-1} = 1
    a, tv = _draw(random.Random(2004), 3)
    w = WeightParams(8, a, tv)
    r = stieltjes_recurrence(w, 8)
    m = moments(w, 16)
    D = [Fraction(1)] + [hankel_determinant(m, k) for k in range(9)]
    assert all(r.aa[k] == D[k + 1] * D[k - 1] / D[k] ** 2 for k in range(1, 9))


def test_a_doubled_derivative_slot_doubles_every_derivative():
    rng = random.Random(2)
    for N, digits in ((4, 1), (7, 2), (10, 3)):
        a, tv = _draw(rng, digits)
        one = stieltjes_recurrence(WeightParams(N, a, Jet1.variable(tv)), N)
        two = stieltjes_recurrence(WeightParams(N, a, Jet1(tv, Fraction(2))), N)
        assert _jet_slots(two.aa + two.b) == [(v, 2 * d) for v, d in _jet_slots(one.aa + one.b)]
