"""krawpv benchmark: run one seeded workload and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload suite_all --seed 1 --seconds 25 --trace 0

Workloads: suite_all, oracle_large_N, float_trajectories (see
perfbench/README.md).  The program is imported from ./src; nothing is
installed.  A run times the program's set-up in fresh interpreters, repeats
passes over the workload's fixed work until --seconds have passed, and
checks every verdict of every pass.  With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json, measured with tracing off; with
--trace 1 it alternates untraced and traced passes, reports the per-layer
metrics, and writes the spans to .perfbench/trace-<workload>-seed<seed>.json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit code 0 on a completed run (whether or not it was correct), 1 when the
benchmark itself cannot measure, 2 on a usage error or a missing program.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

MIN_PASSES = 3  # untraced run: per-case median of at least three passes
MIN_TRACED_RUN_PASSES = 4  # traced run: two untraced and two traced at least


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(workload, seconds: float, trace: bool):
    """Passes until ``seconds`` have gone by; in a traced run every second pass is traced.

    Untraced passes take speed probes.  No warm-up pass is needed: a first
    pass's one-off costs land on a few cases, and each case is reported by
    its median repetition.
    """
    from tracing import Recorder, clock

    results: List[Tuple[bool, object]] = []
    min_passes = MIN_TRACED_RUN_PASSES if trace else MIN_PASSES
    start = clock()
    while len(results) < min_passes or clock() - start < seconds:
        traced = trace and len(results) % 2 == 1
        rec = Recorder(trace=traced, detect_cases=workload.detect_cases,
                       probe=None if traced else workload.probe_kernel)
        results.append((traced, workload.run_pass(rec)))
    return results


def case_medians(passes, reference: bool) -> List[float]:
    """Each case's median latency over the passes, in reference seconds if asked.

    Every pass runs the same cases in the same order (fixed inputs, a
    deterministic program; the digest check confirms the verdicts agree)
    and a pass's latencies add up to its wall time less its speed probes.
    Other tenants of the machine slow everything by up to about 2.3x, in
    phases of seconds to minutes; scaled by the speed probes next to it
    (speed.py), a case's latency is its cost on the reference machine when
    quiet, and the sum over cases is the time of one pass there.
    """
    from workloads import BenchmarkError

    counts = {len(p.latencies) for p in passes}
    if len(counts) != 1:
        raise BenchmarkError(f"passes have different case counts: {sorted(counts)}")
    rows = []
    for p in passes:
        scales = p.recorder.reference_scales() if reference else [1.0] * len(p.latencies)
        rows.append([lat * k for lat, k in zip(p.latencies, scales)])
    return [statistics.median(col) for col in zip(*rows)]


def layer_metrics(result) -> Dict[str, float]:
    """Per-layer metrics of one traced pass; every ``_s`` figure is self time."""
    from tracing import CASE_FUNCTIONS

    rec = result.recorder
    self_s: Dict[str, float] = defaultdict(float)
    solve_s = 0.0
    for span in rec.spans:
        self_s[span.name] += span.self_s
        if span.name == "integrate.solve_ivp":
            solve_s += span.end - span.start
    counts = rec.counts

    def fns(mod, names=None):
        return sum(self_s[f"{mod}.{f}"] for f in (names or CASE_FUNCTIONS[mod]))

    samples = result.samples
    resamples = sum(v.resamples for v in result.verdicts)
    nfev = counts["integrate.nfev"]
    return {
        "reports.run_suite_s": self_s["reports.run_suite"],
        "reports.emit_s": self_s["reports.emit_report"],
        "cli.main_s": self_s["cli.main"],
        "sampling.draws": counts["sampling.draws"],
        "sampling.resamples": resamples,
        "sampling.accept_ratio": samples / (samples + resamples) if samples else 0.0,
        "expr.compile_calls": counts["expr.compile_calls"],
        "expr.compile_s": self_s["expr.compile_float"],
        "oracle.stieltjes_calls": counts["oracle.stieltjes_calls"],
        "oracle.stieltjes_s": self_s["oracle.stieltjes_recurrence"],
        "oracle.iterate_s": self_s["oracle.iterate_discrete"],
        "oracle.toda_s": self_s["oracle.toda_residuals"],
        "oracle.max_digits": counts["oracle.max_digits"],
        "systems.check_s": fns("systems"),
        "maps.check_s": fns("maps"),
        "maps.samples": counts["maps.samples"],
        "hamiltonians.check_s": fns("hamiltonians"),
        "painleve.exact_s": fns("painleve", ("mobius_reduce", "verify_param_chain",
                                             "verify_closed_form")),
        "painleve.trajectory_s": fns("painleve", ("verify_trajectory",
                                                  "verify_reduction_trajectory")),
        "integrate.calls": counts["integrate.calls"],
        "integrate.solve_s": solve_s,
        "integrate.nfev": nfev,
        "integrate.rhs_us": solve_s / nfev * 1e6 if nfev else 0.0,
        "integrate.guard_aborts": counts["integrate.guard_aborts"],
        "integrate.shrinks": sum(c - 1 for c in rec.integrations_per_case.values() if c > 1),
    }


def layer_self_times(result) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for span in result.recorder.spans:
        out[span.layer] += span.self_s
    return dict(out)


def write_trace(path: Path, workload, seed: int, traced) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload.name,
        "seed": seed,
        "span_fields": ["name", "start", "end", "parent", "case"],
        "passes": [
            {
                "wall_s": r.wall_s,
                "self_s_by_layer": layer_self_times(r),
                "case_ids": r.recorder.case_ids,
                "spans": [s.as_list() for s in r.recorder.spans],
            }
            for r in traced
        ],
    }
    path.write_text(json.dumps(doc))


def check(workload, passes) -> Tuple[int, int, List[str]]:
    """Cases attempted, cases failed, and every problem found in the passes."""
    from workloads import gate_self_test, unexpected

    attempted = failed = 0
    problems: List[str] = []
    for r in passes:
        bad = unexpected(r.verdicts, workload.expect) + r.errors
        attempted += len(r.verdicts) + len(r.errors)
        failed += len(bad)
        problems.extend(bad)
    digests = {r.digest() for r in passes}
    if len(digests) != 1:
        problems.append(f"passes with the same seed disagree: {len(digests)} digests")
    if not gate_self_test(passes[0].verdicts, workload.expect):
        problems.append("gate self-test: a known-wrong expectation was not caught")
    return attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "krawpv" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'krawpv'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import krawpv

    if Path(krawpv.__file__).resolve().parent != (SRC / "krawpv").resolve():
        print(f"perfbench: imported krawpv from {krawpv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import probes
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = bool(args.trace)

    from krawpv import hamiltonians, maps, systems

    # set-up a CLI user pays on every call is measured separately, below
    systems.ode2_registry()
    maps.map_registry()
    hamiltonians.hamiltonian_registry()

    workload = WORKLOADS[args.workload](args.seed)
    setups = probes.setup_times(SRC)
    results = measure(workload, args.seconds, trace)
    plain = [r for traced, r in results if not traced]
    traced = [r for traced, r in results if traced]

    attempted, failed, problems = check(workload, [r for _, r in results])
    correct = failed == 0 and not problems

    # -- metrics ------------------------------------------------------------
    walls = [r.wall_s for r in plain]
    if trace:
        per_pass = [layer_metrics(r) for r in traced]
        metrics = {k: statistics.median([m[k] for m in per_pass]) for k in per_pass[0]}
        for key in setups[0]:
            metrics[key] = statistics.median([s[key] for s in setups])
        metrics.update(probes.expr_probe(args.seed))
        metrics.update(probes.jets_probe(args.seed))
        metrics["trace.overhead_s"] = (sum(case_medians(traced, reference=False))
                                       - sum(case_medians(plain, reference=False)))
        declared = spec["per_layer"]
    else:
        latencies = case_medians(plain, reference=True)
        wall_s = sum(latencies)
        metrics = {
            "wall_s": wall_s,
            "samples_per_s": plain[0].samples / wall_s,
            "case_p50_ms": statistics.median(latencies) * 1e3,
            "case_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3,
            "setup_s": statistics.median([sum(s.values()) for s in setups]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = spec["end_to_end"]

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        print(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 1

    # -- report -------------------------------------------------------------
    print(f"workload {workload.name} seed {args.seed}: {workload.describe()}")
    print(f"passes {len(plain)} untraced, {len(traced)} traced; "
          f"untraced wall_s {[round(w, 3) for w in walls]}")
    if trace:
        path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        write_trace(path, workload, args.seed, traced)
        self_s = layer_self_times(traced[-1])
        print("self time by layer, last traced pass: " + ", ".join(
            f"{k} {v:.3f} s" for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])))
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        print(f"per-case median latency over {len(plain)} passes of {len(latencies)} cases, "
              f"in reference seconds")
    print(f"fail_share {failed / attempted if attempted else 1.0:.4g} "
          f"({failed} of {attempted} cases)")
    for p in problems[:20]:
        print(f"  problem: {p}")
    units = {m["name"]: m["unit"] for m in declared}
    for name in names:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
