from fractions import Fraction

import pytest

from krawpv.oracle import (
    OracleError,
    WeightParams,
    discrete_residuals,
    hankel_determinant,
    hyp1f1_terminating,
    initial_y0,
    iterate_discrete,
    moments,
    oracle_xy,
    stieltjes_recurrence,
    toda_residuals,
    toda_tables,
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


def test_toda_residuals_read_shared_tables():
    w = WeightParams(4, Fraction(1, 2), Fraction(3))
    h = Fraction(1, 10000)
    tables = toda_tables(w, 4, (0, h, -h, h / 2, -h / 2))
    for n in range(4):
        assert toda_residuals(w, n, h, tables) == toda_residuals(w, n, h)
        assert toda_residuals(w, n, h / 2, tables) == toda_residuals(w, n, h / 2)
    with pytest.raises(OracleError, match="t - h"):
        toda_tables(WeightParams(2, Fraction(0), h), 1, (0, h, -h))
