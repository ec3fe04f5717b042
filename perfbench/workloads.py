"""The three benchmark workloads: seeded inputs, one pass, and the verdict gate.

Each workload is a closed loop: a batch verifier that starts a case only
after the previous one returned.  ``WORKLOADS[name](seed)`` builds the
inputs from the seed alone; ``run_pass`` runs the whole fixed work once and
returns the program's verdicts with per-case latencies.  A case lasts from
its start to the next case's start, so the latencies of a pass add up to
its wall time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from tracing import CONTROL_PREFIX, Recorder, clock

TOL = 1e-6  # the CLI's default float tolerance
PV_CHECKS = 20  # interior residual checks per PV trajectory case (library default)
BASE_CHECKS = 8  # interior oracle comparisons per base-system trajectory case


class BenchmarkError(RuntimeError):
    """The benchmark could not measure what it claims to measure."""


@dataclass(frozen=True)
class Verdict:
    id: str
    status: str
    samples: int
    resamples: int


# expected status and the accepted sample counts
Expectation = Callable[[Verdict], Tuple[str, range]]
POSITIVE = range(1, 2**63)  # any non-vacuous count


def exactly(n: int) -> range:
    return range(n, n + 1)


@dataclass
class PassResult:
    wall_s: float
    verdicts: List[Verdict]
    latencies: List[float]  # seconds per case, in case order; they add up to wall_s
    errors: List[str]  # cases that raised
    recorder: Recorder

    @property
    def samples(self) -> int:
        return sum(v.samples for v in self.verdicts)

    def digest(self) -> str:
        """Hash of (case id, status, samples, resamples): equal seeds must give equal digests."""
        rows = sorted((v.id, v.status, v.samples, v.resamples) for v in self.verdicts)
        return hashlib.sha256(json.dumps([rows, self.errors]).encode()).hexdigest()


def unexpected(verdicts: List[Verdict], expect: Expectation) -> List[str]:
    """Verdicts whose status or sample count differs from the expectation."""
    bad = []
    for v in verdicts:
        status, samples = expect(v)
        if v.status != status:
            bad.append(f"{v.id}: {v.status}, expected {status}")
        elif v.samples not in samples:
            bad.append(f"{v.id}: {v.samples} samples, expected {samples.start}"
                       + ("" if len(samples) == 1 else " or more"))
    return bad


def gate_self_test(verdicts: List[Verdict], expect: Expectation) -> bool:
    """The gate catches a known-wrong expectation: the first case's status flipped."""
    if not verdicts:
        return False
    first = verdicts[0]

    def wrong(v: Verdict) -> Tuple[str, range]:
        status, samples = expect(v)
        if v is first:
            status = "FAIL" if status == "PASS" else "PASS"
        return status, samples

    return len(unexpected(verdicts, wrong)) == len(unexpected(verdicts, expect)) + 1


def _verdict(case) -> Verdict:
    return Verdict(case.id, case.status, case.samples, case.resamples)


def _rational(rng: random.Random, lo: Fraction, hi: Fraction, digits: int) -> Fraction:
    """A seeded rational in [lo, hi) whose denominator has ``digits`` decimal digits.

    Numerator and denominator are drawn coprime, so that no draw loses
    digits to cancellation and every draw of a height class costs alike.
    """
    while True:
        q = rng.randint(10 ** (digits - 1), 10**digits - 1)
        p_lo = -((-lo.numerator * q) // lo.denominator)  # ceil(lo * q)
        p_hi = (hi.numerator * q - 1) // hi.denominator  # largest p with p/q < hi
        p = rng.randint(p_lo, p_hi)
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


# ---------------------------------------------------------------------------
# suite_all: the real CLI traffic
# ---------------------------------------------------------------------------

# cases that draw exactly ``samples`` identity-test points
IDENTITY_PREFIXES = (
    "pushforward:", "inverse:", "cascade:", "decomposition:", "bridge:",
    "regular_on_divisor:", "indeterminacy:", "reduction_soundness:",
    "reduction_to_pv:", "param_chain:", "closed_form:", "hamiltonian:",
)


class SuiteAll:
    """``krawpv --suite all`` with the default sweep and samples, in process."""

    name = "suite_all"
    probe_kernel = "fraction"  # speed.py: exact Fraction evaluation is half its time
    detect_cases = True
    samples = 50  # the CLI default

    def __init__(self, seed: int):
        self.krawpv_seed = random.Random(f"suite_all:{seed}").randrange(2**31)

    def describe(self) -> str:
        return f"krawpv --suite all --seed {self.krawpv_seed}"

    def expect(self, v: Verdict) -> Tuple[str, range]:
        # negative controls are wrapped so that PASS means the typo variant
        # failed; a typo'd map into the wrong chart fails before any sample
        if v.id.startswith(CONTROL_PREFIX):
            return "PASS", range(0, 2**63)
        if v.id.startswith(IDENTITY_PREFIXES):
            return "PASS", exactly(self.samples)
        return "PASS", POSITIVE

    def run_pass(self, rec: Recorder) -> PassResult:
        import krawpv.cli as cli

        out = io.StringIO()
        with rec:
            start = clock()
            with contextlib.redirect_stdout(out):
                code = cli.main(["--suite", "all", "--seed", str(self.krawpv_seed)])
            end = clock()
        cases = json.loads(out.getvalue())["cases"]
        verdicts = [Verdict(c["id"], c["status"], c["samples"], c["resamples"]) for c in cases]
        errors = [] if code == 0 else [f"krawpv exited with code {code}"]
        if sorted(rec.case_ids, key=str) != sorted(v.id for v in verdicts):
            raise BenchmarkError(
                f"case boundaries ({len(rec.case_ids)}) do not match the report "
                f"({len(verdicts)} cases); the case hooks are out of date"
            )
        return PassResult(end - start, verdicts, rec.case_latencies(start, end), errors, rec)


# ---------------------------------------------------------------------------
# oracle_large_N: exact oracle suites beyond the default sweep
# ---------------------------------------------------------------------------

ORACLE_SUITES = ("oracle", "discrete", "toda")
ORACLE_N_SCHEDULE = tuple(range(7, 19))
ORACLE_HEIGHTS = (1, 2, 3)  # decimal digits of the denominators of alpha and t


class OracleLargeN:
    """The oracle, discrete and toda suites through ``reports.run_suite``, one point per call.

    Every N of the schedule is paired with every height class, and the
    degree index n is the centre of one third of [0, N), rotating so that
    each height class meets each third equally often.  The seed draws alpha
    and t; the cost of a pass, which grows with N, n and height, then varies
    little from seed to seed.
    """

    name = "oracle_large_N"
    probe_kernel = "float"  # speed.py: of the kernels tried, it tracked these passes best
    detect_cases = False

    def __init__(self, seed: int):
        rng = random.Random(f"oracle_large_N:{seed}")
        self.points = []
        for i, N in enumerate(ORACLE_N_SCHEDULE):
            for j, h in enumerate(ORACLE_HEIGHTS):
                third = (i + j) % 3
                n = (2 * third + 1) * N // 6
                alpha = _rational(rng, Fraction(-3), Fraction(1), h)
                t = _rational(rng, Fraction(1, 4), Fraction(8), h)
                self.points.append((N, n, alpha, t))
        rng.shuffle(self.points)
        self.seed = seed

    def describe(self) -> str:
        return (f"{len(self.points)} sweep points x {len(ORACLE_SUITES)} suites, "
                f"N up to {max(ORACLE_N_SCHEDULE)}")

    def expect(self, v: Verdict) -> Tuple[str, range]:
        return "PASS", POSITIVE

    def run_pass(self, rec: Recorder) -> PassResult:
        import krawpv.reports as reports

        verdicts: List[Verdict] = []
        errors: List[str] = []
        with rec:
            start = clock()
            for suite in ORACLE_SUITES:
                for i, (N, n, alpha, t) in enumerate(self.points):
                    cfg = reports.RunConfig(seed=self.seed, Ns=(N,), ns=(n,),
                                            alphas=(alpha,), ts=(t,))
                    rec.begin_case(f"{suite}#{i}")
                    try:
                        report = reports.run_suite(suite, cfg)
                    except Exception as exc:  # a raising case counts as failed
                        errors.append(f"{suite} at {(N, n, alpha, t)}: {exc!r}")
                        continue
                    want = 2 if suite == "oracle" else 1  # oracle adds its worked instance
                    if len(report.cases) != want:
                        errors.append(f"{suite} at {(N, n, alpha, t)}: "
                                      f"{len(report.cases)} cases, expected {want}")
                    verdicts.extend(_verdict(c) for c in report.cases)
            end = clock()
        return PassResult(end - start, verdicts, rec.case_latencies(start, end), errors, rec)


# ---------------------------------------------------------------------------
# float_trajectories: integrator-driven checks
# ---------------------------------------------------------------------------

GUARD_MARGIN = 0.25  # distance kept from every guard level at the initial time
CLEAR_FACTOR = 2.0  # safety factor of the second-order clearance test
PIVOT_MARGIN = Fraction(1, 8)  # |q + p| kept along the base-system window
PV_REPEATS = 16  # seeded cases per composition and per reduction
PV_NS = (2, 3, 4, 5)  # N of the PV draws, in turn
BASE_CASES = 64
BASE_NS = (2, 3, 4, 5, 6, 7, 8)  # N of the base-system draws, in turn


def _dyadic(rng: random.Random, lo: Fraction, hi: Fraction, bits: int) -> Fraction:
    """Seeded multiple of 2**-bits in [lo, hi]: exact as a float, small as a Fraction."""
    scale = 2**bits
    return Fraction(rng.randint(int(lo * scale), int(hi * scale)), scale)


def _far(value: float, levels, margin: float) -> bool:
    return all(abs(value - level) >= margin for level in levels)


def _keeps_clear(jet, levels, span: float) -> bool:
    """Second-order test that a quantity stays away from ``levels`` over a window.

    ``jet`` holds the value and first two t-derivatives at the window's
    start; the distance to every level must exceed CLEAR_FACTOR times the
    change its expansion v + v' s + v'' s**2/2 allows for 0 <= s <= span.
    """
    v, d1, d2 = jet
    return _far(v, levels, CLEAR_FACTOR * (abs(d1) * span + abs(d2) * span**2 / 2))


def _pv_start(params_id: str, kw: Dict, alpha_fixed=None):
    """Float parameters, PV quadruple and the completed initial PV jet of a draw."""
    from krawpv import painleve

    env = {"n": float(kw["n_val"]), "N": float(kw["N_val"]), "alpha": float(kw["alpha_val"])}
    if alpha_fixed is not None:
        env["alpha"] = float(alpha_fixed)
    params = painleve.pv_params_for(params_id).evaluate(env)
    return env, params, painleve.complete_jet(kw["t0"], kw["y0"], kw["yp0"], params)


class FloatTrajectories:
    """PV composition and reduction trajectories, and base-system ODE-vs-oracle runs.

    Seeded cases are drawn inside the domain where the float checks are well
    defined (see ``_composition_admissible`` and ``_reduction_admissible``),
    so they integrate cleanly.  Guard events and abort-and-shrink come from
    the anchor cases: every composition and reduction once at the library's
    default window and initial data, the ones ``krawpv --suite all`` runs.
    N is not drawn but taken in turn from PV_NS and BASE_NS: a case's cost
    grows with N, and a drawn N made the slow tail depend on the seed.
    """

    name = "float_trajectories"
    probe_kernel = "float"  # speed.py: float evaluation and the integrator's interpreted loops
    detect_cases = False

    def __init__(self, seed: int):
        from krawpv import oracle, painleve

        rng = random.Random(f"float_trajectories:{seed}")
        self.cases: List[Tuple[str, str, Dict]] = []
        for k in range(PV_REPEATS):
            N = PV_NS[k % len(PV_NS)]
            for cid in sorted(painleve.COMPOSITIONS):
                comp = painleve.COMPOSITIONS[cid]
                self.cases.append(("composition", cid, self._pv_draw(
                    rng, N, lambda kw, c=comp: self._composition_admissible(c, kw))))
            for rid in sorted(painleve.REDUCTIONS):
                red = painleve.REDUCTIONS[rid]
                self.cases.append(("reduction", rid, self._pv_draw(
                    rng, N, lambda kw, r=red: self._reduction_admissible(r, kw))))
        base = []
        while len(base) < BASE_CASES:
            N = BASE_NS[len(base) % len(BASE_NS)]
            n = rng.randint(0, N - 1)
            alpha = Fraction(rng.randint(-12, 11), 12)
            t0 = _dyadic(rng, Fraction(1, 2), Fraction(3), 3)
            t1 = t0 + _dyadic(rng, Fraction(1, 4), Fraction(1), 4)
            times = [t0 + (t1 - t0) * j / BASE_CHECKS for j in range(BASE_CHECKS + 1)]
            # the rhs has the denominator N t (q + p): the oracle orbit must
            # keep clear of q + p = 0 for a float comparison to be meaningful
            pivots = []
            for tv in times:
                xy = oracle.oracle_xy(oracle.WeightParams(N, alpha, tv), n)
                pivots.append(abs(xy.x[n] + xy.y[n]))
            if min(pivots) < PIVOT_MARGIN:
                continue
            base.append(("base", f"base_N{N}_n{n}_a{alpha}_t{t0}",
                         {"N": N, "n": n, "alpha": alpha, "t0": t0, "t1": t1,
                          "times": times[1:]}))
        # interleave the base runs with the PV cases
        stride = max(1, len(self.cases) // len(base))
        for k, case in enumerate(base):
            self.cases.insert(k * (stride + 1), case)
        self.cases += [("composition", cid, {}) for cid in sorted(painleve.COMPOSITIONS)]
        self.cases += [("reduction", rid, {}) for rid in sorted(painleve.REDUCTIONS)]

    @staticmethod
    def _pv_draw(rng: random.Random, N: int, admissible) -> Dict:
        """Seeded n, alpha, window and PV-side initial data for N, redrawn until admissible."""
        while True:
            n = rng.randint(0, N - 1)
            alpha = Fraction(rng.randint(1, 11), 12)
            t0 = _dyadic(rng, Fraction(1), Fraction(3), 4)
            t1 = t0 + _dyadic(rng, Fraction(1, 8), Fraction(1, 2), 5)
            y0 = _dyadic(rng, Fraction(-2), Fraction(3), 6)
            yp0 = _dyadic(rng, Fraction(-1, 2), Fraction(1, 2), 6)
            kw = {"n_val": n, "N_val": N, "alpha_val": alpha, "t0": float(t0),
                  "t1": float(t1), "y0": float(y0), "yp0": float(yp0), "tol": TOL}
            # the PV equation is singular at y in {0, 1}
            if _far(kw["y0"], (0, 1), GUARD_MARGIN) and admissible(kw):
                return kw

    @staticmethod
    def _composition_admissible(composition, kw) -> bool:
        """The PV solution keeps clear of {0, 1} and its closed-form image of a pole.

        The image is undefined where the closed form's denominator D
        vanishes, and near there its PV residual is rounding noise at huge
        values.  D, D' and D'' at t0 follow exactly from the initial PV jet.
        """
        from krawpv import painleve

        env, params, jet = _pv_start(composition.source_params, kw)
        span = kw["t1"] - kw["t0"]
        den = painleve.transform_jet(composition.closed_form.as_num_den()[1], jet, params,
                                     extra=env)
        return (_keeps_clear((jet.y, jet.yp, jet.ypp), (0, 1), span)
                and _keeps_clear((den.y, den.yp, den.ypp), (0,), span))

    @staticmethod
    def _reduction_admissible(reduction, kw) -> bool:
        """Both sides of the Möbius shift keep clear of their guard levels.

        The chart side is guarded at {0, 1, -1}.  Without the initial-value
        margin, ode_U21 with y0 = 2 starts on the guard u = 1 and aborts at
        t0 with "no singularity-free window".
        """
        from krawpv.jets import Jet2
        from krawpv.systems import get_ode2

        ode = get_ode2(reduction.ode_id)
        _, _, jet = _pv_start(reduction.params_id, kw, ode.alpha_fixed)
        u = reduction.transform(Jet2(jet.y, jet.yp, jet.ypp))
        span = kw["t1"] - kw["t0"]
        return (_far(u.v, (0, 1, -1), GUARD_MARGIN)
                and _keeps_clear((jet.y, jet.yp, jet.ypp), (0, 1), span)
                and _keeps_clear((u.v, u.d1, u.d2), (0, 1, -1), span))

    def describe(self) -> str:
        kinds = {}
        for kind, _, _ in self.cases:
            kinds[kind] = kinds.get(kind, 0) + 1
        return ", ".join(f"{v} {k}" for k, v in sorted(kinds.items()))

    def expect(self, v: Verdict) -> Tuple[str, range]:
        return "PASS", exactly(BASE_CHECKS if v.id.startswith("base_") else PV_CHECKS)

    @staticmethod
    def _base_case(case_id: str, N, n, alpha, t0, t1, times):
        import krawpv.integrate as integrate
        from krawpv import oracle, systems

        def exact(tv):
            xy = oracle.oracle_xy(oracle.WeightParams(N, alpha, Fraction(tv)), n)
            return xy.x[n], xy.y[n]

        start = exact(float(t0))
        traj = integrate.integrate_planar(
            systems.get_system("original"), tuple(float(s) for s in start),
            float(t0), float(t1), {"n": n, "N": N, "alpha": alpha},
        )
        return integrate.compare_trajectories(
            traj, exact, TOL, [float(tv) for tv in times], case_id)

    def run_pass(self, rec: Recorder) -> PassResult:
        from krawpv import painleve

        verdicts: List[Verdict] = []
        errors: List[str] = []
        with rec:
            start = clock()
            for kind, cid, kw in self.cases:
                rec.begin_case(f"{kind}:{cid}")
                try:
                    if kind == "composition":
                        case = painleve.verify_trajectory(cid, **kw)
                    elif kind == "reduction":
                        case = painleve.verify_reduction_trajectory(cid, **kw)
                    else:
                        case = self._base_case(cid, **kw)
                    verdicts.append(_verdict(case))
                except Exception as exc:  # a raising case counts as failed
                    errors.append(f"{kind}:{cid} {kw}: {exc!r}")
            end = clock()
        return PassResult(end - start, verdicts, rec.case_latencies(start, end), errors, rec)


WORKLOADS = {w.name: w for w in (SuiteAll, OracleLargeN, FloatTrajectories)}
