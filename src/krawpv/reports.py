"""Verification suites and machine-readable reports.

Each suite assembles CaseResults from the library modules.  A run is fully
determined by (suite, seed, config): every case gets its own RNG seeded from
the global seed and the case id, so reports are byte-identical across reruns.
No wall-clock time is recorded or serialized.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .sampling import CaseResult, Sampler

CONTROL_SAMPLES = 10  # points at which a typo control's check runs; it must fail at them


class UsageError(Exception):
    pass


def check_window(from_t: float, to_t: float) -> None:
    """An integration window needs finite from_t > 0 and to_t > 0 that differ."""
    if not all(math.isfinite(x) and x > 0 for x in (from_t, to_t)):
        raise UsageError(
            f"the integration window needs finite from_t > 0 and to_t > 0, "
            f"got {from_t} and {to_t}"
        )
    if from_t == to_t:
        raise UsageError(f"the integration window [{from_t}, {to_t}] has zero length")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 20260823
    samples: int = 50
    tol: float = 1e-6
    Ns: Tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    ns: Optional[Tuple[int, ...]] = None  # default: all 0 <= n < N
    alphas: Tuple[Fraction, ...] = (Fraction(0), Fraction(1, 2), Fraction(-1, 3))
    ts: Tuple[Fraction, ...] = (Fraction(1, 2), Fraction(1), Fraction(3))
    from_t: float = 1.0
    to_t: float = 2.0

    def __post_init__(self):
        # written as `not (x > bound)` so that NaN is rejected too
        if not self.samples >= 1:
            raise UsageError(f"samples must be at least 1, got {self.samples}")
        if not all(N >= 1 for N in self.Ns):
            raise UsageError(f"every N must be at least 1, got {list(self.Ns)}")
        if not all(a < 1 for a in self.alphas):
            raise UsageError("the weight requires every alpha < 1")
        if not all(tv > 0 for tv in self.ts):
            raise UsageError("the weight requires every t > 0")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise UsageError(f"tol must be finite and positive, got {self.tol}")
        check_window(self.from_t, self.to_t)
        if next(self.weights(), None) is None:
            raise UsageError("the parameter sweep (N, n, alpha, t) is empty")

    def weights(self):
        """Each distinct weight (N, alpha, t) with a valid degree, and its distinct degrees ``ns``.

        A degree n is valid when 0 <= n < N; a value repeated in a sweep list counts once.
        """
        Ns, alphas, ts = (dict.fromkeys(v) for v in (self.Ns, self.alphas, self.ts))
        for N, a, tv in itertools.product(Ns, alphas, ts):
            ns = tuple(n for n in dict.fromkeys(self.ns if self.ns is not None else range(N))
                       if 0 <= n < N)
            if ns:
                yield N, a, tv, ns


@dataclass
class SuiteReport:
    suite: str
    seed: int
    cases: List[CaseResult] = field(default_factory=list)

    @property
    def overall(self) -> str:
        return "PASS" if all(c.status == "PASS" for c in self.cases) else "FAIL"

    def to_dict(self) -> Dict:
        cases = []
        for c in sorted(self.cases, key=lambda c: c.id):
            row = {
                "id": c.id,
                "status": c.status,
                "residual": c.residual,
                "samples": c.samples,
                "resamples": c.resamples,
            }
            if c.failures:
                row["failures"] = c.failures
            cases.append(row)
        return {"suite": self.suite, "seed": self.seed, "cases": cases,
                "overall": self.overall}


def _sampler(cfg: RunConfig, case_id: str) -> Sampler:
    return Sampler(random.Random(f"{cfg.seed}:{case_id}"))


def _control_or_case(control: bool, check: Callable, key: str, sampler: Sampler,
                     cfg: RunConfig) -> CaseResult:
    """``check(key, sampler, samples)``; a control runs at ``CONTROL_SAMPLES`` and must fail."""
    if control:
        return _expect_fail(check(key, sampler, CONTROL_SAMPLES))
    return check(key, sampler, cfg.samples)


def _expect_fail(case: CaseResult) -> CaseResult:
    """Wrap a non-degeneracy control: PASS iff the underlying check FAILs on samples."""
    out = CaseResult(
        f"control:{case.id}",
        "PASS" if case.status == "FAIL" and case.samples > 0 else "FAIL",
        samples=case.samples,
        resamples=case.resamples,
    )
    if case.status != "FAIL":
        out.failures.append("control check unexpectedly passed")
    elif case.samples == 0:
        out.failures += ["control check failed before any sample", *case.failures]
    return out


def _fraction_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# suite bodies
# ---------------------------------------------------------------------------

def _weight_cases(cfg: RunConfig, name: str, tables: Callable, case: Callable) -> List[CaseResult]:
    """One case per sweep point: ``tables(w, max(ns) + 1)`` once per weight, then ``case``.

    ``case(cid, w, n, built)`` reads the prefix its ``n`` needs.  Stieltjes and the
    iteration run forward, so that prefix is the table built to n + 1 alone.
    """
    from .oracle import WeightParams

    cases: List[CaseResult] = []
    for N, a, tv, ns in cfg.weights():
        w = WeightParams(N, a, tv)
        built = tables(w, max(ns) + 1)
        for n in ns:
            cid = f"{name}_N{N}_n{n}_a{_fraction_str(a)}_t{_fraction_str(tv)}"
            cases.append(case(cid, w, n, built))
    return cases


def _suite_oracle(cfg: RunConfig) -> List[CaseResult]:
    from .oracle import WeightParams, initial_y0, iterate_discrete, oracle_xy

    # worked instance: N = 2, alpha = 0, t = 1
    w = WeightParams(2, Fraction(0), Fraction(1))
    got_y0 = initial_y0(w)
    got_x1 = iterate_discrete(w, 1).x[1]
    worked = CaseResult("oracle:worked_instance_N2_a0_t1", "PASS", samples=2)
    if got_y0 != Fraction(-17, 7) or got_x1 != Fraction(69, 98):
        worked.status = "FAIL"
        worked.failures.append(f"y0 = {got_y0}, x1 = {got_x1}")

    def dual_route(cid, w, n, tables):
        it, st = tables
        c = CaseResult(cid, "PASS", samples=n + 2)
        for k in range(n + 2):
            if it.x[k] != st.x[k] or it.y[k] != st.y[k]:
                c.status = "FAIL"
                c.failures.append(
                    f"k = {k}: iterated ({it.x[k]}, {it.y[k]}) != "
                    f"stieltjes ({st.x[k]}, {st.y[k]})"
                )
        return c

    return [worked] + _weight_cases(
        cfg, "oracle:dual_route",
        lambda w, nmax: (iterate_discrete(w, nmax), oracle_xy(w, nmax)), dual_route,
    )


def _exact_pair(residuals: Callable, samples: int) -> Callable:
    """A ``_weight_cases`` case: PASS iff both exact ``residuals(table, w, n)`` are zero."""
    def case(cid, w, n, table):
        c = CaseResult(cid, "PASS", samples=samples)
        r1, r2 = residuals(table, w, n)
        if r1 != 0 or r2 != 0:
            c.status = "FAIL"
            c.residual = str(max(abs(r1), abs(r2)))
            c.failures.append(f"residuals ({r1}, {r2})")
        return c

    return case


def _suite_discrete(cfg: RunConfig) -> List[CaseResult]:
    from .oracle import discrete_residuals, oracle_xy

    return _weight_cases(cfg, "discrete:residuals", oracle_xy, _exact_pair(discrete_residuals, 1))


def _suite_toda(cfg: RunConfig) -> List[CaseResult]:
    from .oracle import jet_recurrence, toda_exact_residuals

    # one sample per Toda equation, as the float check counted them
    return _weight_cases(cfg, "toda:residuals", jet_recurrence, _exact_pair(toda_exact_residuals, 2))


def _suite_transforms(cfg: RunConfig) -> List[CaseResult]:
    from . import maps as M

    # a control map is a typo'd variant: its pushforward must fail, as must a cascade through it
    cases = [_control_or_case(M.get_map(mid).control, M.pushforward_check, mid,
                              _sampler(cfg, f"pushforward:{src}--{mid}-->{tgt}"), cfg)
             for src, mid, tgt in M.pushforward_triples()]
    for mid, m in sorted(M.map_registry().items()):
        if m.inverse is not None and not m.control:
            cases.append(M.verify_inverse(mid, _sampler(cfg, f"inverse:{mid}"), cfg.samples))
    for cid, (factors, composite) in sorted(M.CASCADES.items()):
        control = any(M.get_map(m).control for m in (*factors, composite))
        cases.append(_control_or_case(control, M.verify_cascade, cid,
                                      _sampler(cfg, f"cascade:{cid}"), cfg))
    return cases


def _suite_decompositions(cfg: RunConfig) -> List[CaseResult]:
    from . import maps as M

    cases: List[CaseResult] = []
    for did in sorted(M.DECOMPOSITIONS):
        cases.append(
            M.verify_decomposition(did, _sampler(cfg, f"decomposition:{did}"), cfg.samples)
        )
    for bid in sorted(M.BRIDGE_RENAMES):
        cases.append(
            M.verify_bridge_rename(bid, _sampler(cfg, f"bridge:{bid}"), cfg.samples)
        )
    return cases


def _suite_regularity(cfg: RunConfig) -> List[CaseResult]:
    from . import maps as M
    from . import systems as S

    cases: List[CaseResult] = []
    for sid in S.system_ids():
        if S.get_system(sid).has_divisor:
            cases.append(
                S.check_regular_on_divisor(
                    sid, _sampler(cfg, f"regular:{sid}"), cfg.samples
                )
            )
    cases.append(S.alpha_zero_divisor_degeneracy(_sampler(cfg, "alpha0_degeneracy")))
    for pid in M.INDETERMINACY_POINTS:
        cases.append(
            M.verify_indeterminacy(
                pid, _sampler(cfg, f"indeterminacy:{pid.id}"), cfg.samples
            )
        )
    return cases


def _suite_pv(cfg: RunConfig) -> List[CaseResult]:
    from . import painleve as P
    from . import systems as S

    cases: List[CaseResult] = []
    for oid in S.ode2_ids():
        cases.append(
            S.check_reduction_soundness(oid, _sampler(cfg, f"soundness:{oid}"), cfg.samples)
        )
    for rid in sorted(P.REDUCTIONS):
        cases.append(P.mobius_reduce(rid, _sampler(cfg, f"mobius:{rid}"), cfg.samples))
    for rid in sorted(P.REDUCTIONS):
        cases.append(
            P.verify_reduction_trajectory(
                rid, t0=cfg.from_t, t1=cfg.to_t, tol=cfg.tol
            )
        )
    return cases


def _suite_backlund(cfg: RunConfig) -> List[CaseResult]:
    from . import painleve as P

    cases: List[CaseResult] = []
    for cid in sorted(P.COMPOSITIONS):
        cases.append(P.verify_param_chain(cid, _sampler(cfg, f"chain:{cid}"), cfg.samples))
        cases.append(P.verify_closed_form(cid, _sampler(cfg, f"closed:{cid}"), cfg.samples))
        cases.append(
            P.verify_trajectory(cid, t0=cfg.from_t, t1=cfg.to_t, tol=cfg.tol)
        )
    return cases


def _suite_hamiltonian(cfg: RunConfig) -> List[CaseResult]:
    from . import hamiltonians as H

    cases: List[CaseResult] = []
    for hid, entry in H.hamiltonian_registry().items():
        # a typo'd display must fail; a verified H must also hold with T_OFFSET added
        cases.append(_control_or_case(entry.control, H.verify_hamiltonian, hid,
                                      _sampler(cfg, f"ham:{hid}"), cfg))
        if not entry.control:
            cases.append(H.verify_hamiltonian(hid, _sampler(cfg, f"ham_offset:{hid}"),
                                              cfg.samples, h_offset=H.T_OFFSET))
    return cases


SUITES: Dict[str, Callable[[RunConfig], List[CaseResult]]] = {
    "oracle": _suite_oracle,
    "discrete": _suite_discrete,
    "toda": _suite_toda,
    "transforms": _suite_transforms,
    "decompositions": _suite_decompositions,
    "regularity": _suite_regularity,
    "pv": _suite_pv,
    "backlund": _suite_backlund,
    "hamiltonian": _suite_hamiltonian,
}


def run_suite(name: str, cfg: RunConfig) -> SuiteReport:
    if name == "all":
        report = SuiteReport("all", cfg.seed)
        for suite in SUITES.values():
            report.cases.extend(suite(cfg))
        return report
    if name not in SUITES:
        raise UsageError(
            f"unknown suite {name!r}; choose from {', '.join([*SUITES, 'all'])}"
        )
    return SuiteReport(name, cfg.seed, SUITES[name](cfg))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit_report(report: SuiteReport, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "status", "residual", "samples", "resamples", "failures"])
        for c in sorted(report.cases, key=lambda c: c.id):
            writer.writerow([c.id, c.status, c.residual, c.samples, c.resamples,
                             "; ".join(c.failures)])
        writer.writerow(["overall", report.overall, "", "", "", ""])
        return buf.getvalue()
    if fmt == "text":
        lines = [f"suite: {report.suite}", f"seed: {report.seed}"]
        for c in sorted(report.cases, key=lambda c: c.id):
            lines.append(
                f"{c.status:4s} {c.id} samples={c.samples} "
                f"resamples={c.resamples} residual={c.residual}"
            )
            for f in c.failures:
                lines.append(f"      {f}")
        lines.append(report.overall)
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown format {fmt!r}; choose json, csv or text")
