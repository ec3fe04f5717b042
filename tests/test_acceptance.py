"""Acceptance gate: one test (one pass/fail line under ``pytest -v``) per
numbered criterion.  Each test prints a ``[criterion NN] ...: PASS/FAIL`` line
as well, so the captured output carries the verdicts explicitly."""

import json
import random
import time
from fractions import Fraction

from krawpv import hamiltonians as H
from krawpv import maps as M
from krawpv import painleve as P
from krawpv import systems as S
from krawpv.integrate import integrate_planar
from krawpv.oracle import (
    WeightParams,
    discrete_residuals,
    initial_y0,
    iterate_discrete,
    oracle_xy,
    toda_residuals,
)
from krawpv.reports import RunConfig, run_suite
from krawpv.sampling import Sampler

SWEEP_N = (1, 2, 3, 4, 5, 6)
SWEEP_ALPHA = (Fraction(0), Fraction(1, 2), Fraction(-1, 3))
SWEEP_T = (Fraction(1, 2), Fraction(1), Fraction(3))


def _sampler(tag):
    return Sampler(random.Random(f"acceptance:{tag}"))


def _finish(num, desc, ok, detail=""):
    print(f"[criterion {num:02d}] {desc}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {desc} {detail}"


def test_criterion_01_discrete_exactness():
    start = time.perf_counter()
    ok = True
    for N in SWEEP_N:
        for a in SWEEP_ALPHA:
            for tv in SWEEP_T:
                w = WeightParams(N, a, tv)
                xy = oracle_xy(w, N)
                for n in range(N):
                    r1, r2 = discrete_residuals(xy, w, n)
                    ok = ok and r1 == 0 and r2 == 0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _finish(1, "discrete residuals exactly zero on the sweep", ok,
            f"(runtime {elapsed:.2f}s)")


def test_criterion_02_dual_oracle_equivalence():
    ok = True
    for N in SWEEP_N:
        for a in SWEEP_ALPHA:
            for tv in SWEEP_T:
                w = WeightParams(N, a, tv)
                it = iterate_discrete(w, N)
                st = oracle_xy(w, N)
                ok = ok and it.x == st.x and it.y == st.y
    w = WeightParams(2, Fraction(0), Fraction(1))
    ok = ok and initial_y0(w) == Fraction(-17, 7)
    ok = ok and iterate_discrete(w, 1).x[1] == Fraction(69, 98)
    ok = ok and oracle_xy(w, 1).x[1] == Fraction(69, 98)
    _finish(2, "iteration and moment/recurrence routes agree exactly", ok)


def test_criterion_03_toda_consistency():
    h = Fraction(1, 10000)
    ok = True
    for N in SWEEP_N:
        for a in SWEEP_ALPHA:
            for tv in SWEEP_T:
                w = WeightParams(N, a, tv)
                for n in range(1, N):
                    r1, r2 = toda_residuals(w, n, h)
                    worst = max(abs(r1), abs(r2))
                    ok = ok and worst < 1e-6
                    r1h, r2h = toda_residuals(w, n, h / 2)
                    worst_h = max(abs(r1h), abs(r2h))
                    # second-order decay unless already at rounding level
                    if worst >= Fraction(1, 10**12):
                        ok = ok and worst_h <= worst / 2
    _finish(3, "Toda residuals < 1e-6 at h = 1e-4 with second-order decay", ok)


def test_criterion_04_ode_vs_oracle():
    start = time.perf_counter()
    N, n, a = 2, 1, Fraction(0)
    system = S.get_system("original")
    xy1 = oracle_xy(WeightParams(N, a, Fraction(1)), n)
    traj = integrate_planar(
        system, (float(xy1.x[n]), float(xy1.y[n])), 1.0, 2.0,
        {"n": n, "N": N, "alpha": a},
    )
    xy2 = oracle_xy(WeightParams(N, a, Fraction(2)), n)
    got = (traj.states[0][-1], traj.states[1][-1])
    want = (float(xy2.x[n]), float(xy2.y[n]))
    dev = max(
        abs(got[0] - want[0]) / max(1.0, abs(want[0])),
        abs(got[1] - want[1]) / max(1.0, abs(want[1])),
    )
    elapsed = time.perf_counter() - start
    ok = dev < 1e-7 and elapsed < 1.0
    _finish(4, "integrated base system matches the oracle at t = 2", ok,
            f"(relative deviation {dev:.3g}, runtime {elapsed:.2f}s)")


def test_criterion_05_pushforwards():
    start = time.perf_counter()
    triples = [tr for tr in M.pushforward_triples() if not M.get_map(tr[1]).control]
    ok = len(triples) >= 18
    details = []
    for _, mid, _ in triples:
        case = M.pushforward_check(mid, _sampler(f"pf:{mid}"), samples=50)
        if not case.passed:
            ok = False
            details.append(case.id)
    for cid in sorted(M.CASCADES):
        case = M.verify_cascade(cid, _sampler(f"casc:{cid}"), samples=50)
        if not case.passed:
            ok = False
            details.append(case.id)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _finish(5, "all catalogued pushforwards and cascades exact at 50 points", ok,
            f"(triples {len(triples)}, runtime {elapsed:.1f}s"
            + (f", failing {details}" if details else "") + ")")


def test_criterion_06_decompositions():
    ok = True
    for name in sorted(M.DECOMPOSITIONS):
        case = M.verify_decomposition(name, _sampler(f"dec:{name}"), samples=50)
        ok = ok and case.passed
    for name in sorted(M.BRIDGE_RENAMES):
        case = M.verify_bridge_rename(name, _sampler(f"br:{name}"), samples=50)
        ok = ok and case.passed
    _finish(6, "all four map decompositions hold exactly at 50 points", ok)


def test_criterion_07_indeterminacy():
    ok = True
    for point in M.INDETERMINACY_POINTS:
        case = M.verify_indeterminacy(point, _sampler(f"ind:{point.id}"), samples=50)
        ok = ok and case.passed
    # the second and third base points coincide when alpha = 0
    p2 = next(p for p in M.INDETERMINACY_POINTS if p.id == "P2")
    p3 = next(p for p in M.INDETERMINACY_POINTS if p.id == "P3")
    env = {"N": Fraction(5), "alpha": Fraction(0), "n": Fraction(2), "t": Fraction(1)}
    same = all(p2.coords[k].evaluate(env) == p3.coords[k].evaluate(env)
               for k in p2.coords)
    env["alpha"] = Fraction(1, 2)
    distinct = any(p2.coords[k].evaluate(env) != p3.coords[k].evaluate(env)
                   for k in p2.coords)
    ok = ok and same and distinct
    _finish(7, "indeterminacy points confirmed, with the alpha = 0 coincidence", ok)


def test_criterion_08_regularity():
    ok = True
    for sid in S.system_ids():
        if not S.get_system(sid).has_divisor:
            continue
        case = S.check_regular_on_divisor(sid, _sampler(f"reg:{sid}"), samples=50)
        ok = ok and case.passed
    # alpha = 0 breaks the hat chart at (-1, 0) while the tilde chart stays finite
    case = S.alpha_zero_divisor_degeneracy(_sampler("alpha0"), samples=20)
    ok = ok and case.passed
    case = S.check_regular_on_divisor("tildeUV22", _sampler("tilde"), samples=50)
    ok = ok and case.passed
    _finish(8, "final charts finite on their divisors; alpha = 0 degeneracy", ok)


def test_criterion_09_pv_reductions():
    ok = True
    worst = 0.0
    for rid in sorted(P.REDUCTIONS):
        case = P.mobius_reduce(rid, _sampler(f"mob:{rid}"), samples=50)
        ok = ok and case.passed
        case = P.verify_reduction_trajectory(rid, tol=1e-6)
        ok = ok and case.passed
        worst = max(worst, float(case.residual or 0.0))
    _finish(9, "second-order reductions equal the fifth Painleve equation", ok,
            f"(worst trajectory residual {worst:.3g})")


def test_criterion_10_backlund_compositions():
    ok = True
    worst = 0.0
    for cid in sorted(P.COMPOSITIONS):
        chain = P.verify_param_chain(cid, _sampler(f"chain:{cid}"), samples=50)
        closed = P.verify_closed_form(cid, _sampler(f"closed:{cid}"), samples=50)
        traj = P.verify_trajectory(cid, tol=1e-6)
        ok = ok and chain.passed and closed.passed and traj.passed
        worst = max(worst, float(traj.residual or 0.0))
    _finish(10, "all four Backlund compositions verify (chain, map, trajectory)",
            ok, f"(worst trajectory residual {worst:.3g})")


def test_criterion_11_hamiltonians():
    from krawpv.expr import syms

    (t,) = syms("t")
    verified = [hid for hid, e in H.hamiltonian_registry().items() if not e.control]
    ok = len(verified) == 6
    for hid in verified:
        case = H.verify_hamiltonian(hid, _sampler(f"ham:{hid}"), samples=50)
        ok = ok and case.passed
        case = H.verify_hamiltonian(hid, _sampler(f"off:{hid}"), samples=50,
                                    h_offset=t**3)
        ok = ok and case.passed
    _finish(11, "all six Hamiltonian pairings verify, offset-invariant", ok)


def test_criterion_12_determinism():
    cfg = RunConfig(seed=20260823, samples=10)
    out1 = json.dumps(run_suite("all", cfg).to_dict(), sort_keys=True)
    out2 = json.dumps(run_suite("all", cfg).to_dict(), sort_keys=True)
    report = json.loads(out1)
    ok = out1 == out2 and report["overall"] == "PASS"
    _finish(12, "rerunning the full suite with one seed is byte-identical", ok)
