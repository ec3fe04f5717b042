"""Spans, counters and case boundaries recorded around calls into krawpv.

Everything here wraps the program from the outside: a ``Recorder`` replaces
public module attributes (and two class attributes) with thin wrappers for
the duration of one pass and restores them afterwards.  The program's source
is never touched.  Spans live in memory; ``Recorder.spans`` is written out by
the benchmark when the run ends.

Three things are recorded:

* case boundaries, used for per-case latency in the ``suite_all`` workload,
  where the cases run inside ``krawpv.cli.main``;
* with a probe kernel named (untraced passes), a speed probe at a case
  boundary at most every PROBE_EVERY_S, whose time is left out of the case
  latencies;
* with tracing on, one span per call of a wrapped public function (name,
  start, end, parent span, case index) and counters taken at the same
  boundaries (draws, ``nfev``, guard aborts, compile calls, ...).

A wrapped attribute that does not exist raises ``MissingHook``, so a renamed
or deleted public function stops the run instead of reading as zero work.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import speed
from speed import PROBE_EVERY_S, clock


class MissingHook(RuntimeError):
    """A public function the benchmark wraps is not where it should be."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "case", "child")

    def __init__(self, name: str, start: float, parent: int, case: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.case = case
        self.child = 0.0  # time covered by direct child spans

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.case]


# Case-level entry points: one call is one verification case of the report.
CASE_FUNCTIONS = {
    "maps": ("pushforward_check", "verify_inverse", "verify_cascade",
             "verify_decomposition", "verify_bridge_rename", "verify_indeterminacy"),
    "systems": ("check_regular_on_divisor", "alpha_zero_divisor_degeneracy",
                "check_reduction_soundness"),
    "hamiltonians": ("verify_hamiltonian",),
    "painleve": ("mobius_reduce", "verify_param_chain", "verify_closed_form",
                 "verify_trajectory", "verify_reduction_trajectory"),
}

INTEGRATE_ENTRY = ("integrate_planar", "integrate_ode2", "integrate_pv")

# the _expect_fail wrapper in reports renames the case it wraps
CONTROL_PREFIX = "control:"


def numerator_digits(table) -> int:
    """Decimal digits of the largest numerator in an x/y table."""
    big = max(abs(v.numerator) for v in (*table.x, *table.y))
    return len(str(big))


class Recorder:
    """Patches krawpv for one pass; ``with recorder:`` installs and restores."""

    def __init__(self, trace: bool, detect_cases: bool, probe: Optional[str] = None):
        self.trace = trace
        self.detect_cases = detect_cases
        self.probe = probe  # name of the speed probe kernel, or None for no probes
        # speed probes taken at case boundaries: (start time, seconds taken)
        self.probes: List[Tuple[float, float]] = []
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        # case boundaries: start time and report id of each case, in order
        self.case_starts: List[float] = []
        self.case_ids: List[Optional[str]] = []
        self.case_depth = 0
        self.integrations_per_case: Dict[int, int] = defaultdict(int)
        self._saved: list = []

    # -- case bookkeeping --------------------------------------------------

    @property
    def case(self) -> int:
        return len(self.case_starts) - 1

    def begin_case(self, case_id: Optional[str]) -> None:
        if self.probe and (not self.probes or clock() - sum(self.probes[-1]) >= PROBE_EVERY_S):
            self.probes.append(speed.probe(self.probe))
        self.case_starts.append(clock())
        self.case_ids.append(case_id)

    def case_latencies(self, pass_start: float, pass_end: float) -> List[float]:
        """Seconds per case: from its start to the next case's start, probes left out.

        Work done before the first case starts (for example the oracle
        suite's worked instance, computed before its CaseResult exists)
        belongs to the first case.  A speed probe runs just before a case
        starts, so its time is taken off the case before.
        """
        bounds = list(self.case_starts) + [pass_end]
        if bounds:
            bounds[0] = pass_start
        out = [b - a for a, b in zip(bounds, bounds[1:])]
        for start, took in self.probes:
            out[max(0, bisect.bisect_right(bounds, start) - 1)] -= took
        return out

    def reference_scales(self) -> List[float]:
        """Per case, the factor from measured to reference seconds (see speed.py)."""
        return speed.scales(self.probe, self.case_starts, self.probes)

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, clock(), parent, self.case))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = clock()
        self.stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.end - span.start
        return span

    # -- patching --------------------------------------------------------

    def _replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr, None)
        if original is None or not callable(original):
            label = getattr(owner, "__name__", repr(owner))
            raise MissingHook(f"{label}.{attr} is missing; the benchmark cannot trace it")
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _spanned(self, name: str, fn: Callable, on_call=None, on_result=None) -> Callable:
        rec = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call()
            idx = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _wrap(self, owner, attr: str, name: str, on_call=None, on_result=None) -> None:
        self._replace(owner, attr, lambda f: self._spanned(name, f, on_call, on_result))

    def _case_level(self, name: str, fn: Callable) -> Callable:
        rec = self
        layer = name.split(".", 1)[0]
        inner = self._spanned(name, fn) if self.trace else fn

        def wrapper(*args, **kwargs):
            outermost = rec.case_depth == 0
            if outermost and rec.detect_cases:
                rec.begin_case(None)
            rec.case_depth += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                rec.case_depth -= 1
            if outermost and rec.detect_cases:
                rec.case_ids[-1] = result.id
            if outermost and rec.trace:
                rec.counts[f"{layer}.samples"] += result.samples
            return result

        return wrapper

    def __enter__(self) -> "Recorder":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _install(self) -> None:
        import krawpv.cli as cli
        import krawpv.integrate as integrate
        import krawpv.reports as reports
        import krawpv.sampling as sampling
        from krawpv import hamiltonians, maps, oracle, painleve, systems

        modules = {"maps": maps, "systems": systems, "hamiltonians": hamiltonians,
                   "painleve": painleve}
        rec = self

        if self.detect_cases or self.trace:
            for mod, names in CASE_FUNCTIONS.items():
                for fn in names:
                    self._replace(modules[mod], fn,
                                  lambda f, n=f"{mod}.{fn}": self._case_level(n, f))

        if self.detect_cases:
            def case_result_init(original):
                def __init__(obj, *args, **kwargs):
                    original(obj, *args, **kwargs)
                    if rec.case_depth:
                        return
                    if obj.id.startswith(CONTROL_PREFIX) and rec.case_ids:
                        rec.case_ids[-1] = obj.id
                    else:
                        rec.begin_case(obj.id)
                return __init__

            self._replace(sampling.CaseResult, "__init__", case_result_init)

        if not self.trace:
            return

        counts = self.counts

        def count(key):
            def bump():
                counts[key] += 1
            return bump

        def table_digits(table):
            counts["oracle.max_digits"] = max(counts["oracle.max_digits"],
                                              numerator_digits(table))

        def solver_stats(sol):
            counts["integrate.nfev"] += sol.nfev
            if sol.status == 1:  # a terminal guard event stopped the solve
                counts["integrate.guard_aborts"] += 1

        def integration_call():
            counts["integrate.calls"] += 1
            rec.integrations_per_case[rec.case] += 1

        # cli and reports: the entry point and the suite runner it calls
        self._wrap(cli, "main", "cli.main")
        self._wrap(cli, "run_suite", "reports.run_suite")
        self._wrap(cli, "emit_report", "reports.emit_report")
        self._wrap(reports, "run_suite", "reports.run_suite")

        self._wrap(oracle, "stieltjes_recurrence", "oracle.stieltjes_recurrence",
                   on_call=count("oracle.stieltjes_calls"))
        self._wrap(oracle, "oracle_xy", "oracle.oracle_xy", on_result=table_digits)
        self._wrap(oracle, "iterate_discrete", "oracle.iterate_discrete",
                   on_result=table_digits)
        self._wrap(oracle, "discrete_residuals", "oracle.discrete_residuals")
        self._wrap(oracle, "toda_residuals", "oracle.toda_residuals")

        for fn in INTEGRATE_ENTRY:
            self._wrap(integrate, fn, f"integrate.{fn}", on_call=integration_call)
        self._wrap(integrate, "compare_trajectories", "integrate.compare_trajectories")
        # both are bound by name inside krawpv.integrate
        self._wrap(integrate, "solve_ivp", "integrate.solve_ivp", on_result=solver_stats)
        self._wrap(integrate, "compile_float", "expr.compile_float",
                   on_call=count("expr.compile_calls"))

        draws = count("sampling.draws")

        def draw(f):
            def wrapper(*args, **kwargs):
                draws()
                return f(*args, **kwargs)
            return wrapper

        self._replace(sampling.Sampler, "draw", draw)
