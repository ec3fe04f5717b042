"""Set-up timing in fresh interpreters, and microbenchmarks of the expr and jets layers."""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

from tracing import clock

SETUP_RUNS = 5
PROBE_REPEATS = 5
PROBE_POINTS = 3  # seeded points per catalogue right-hand side
JET_PAIRS = 200
FLOAT_REPS = 20  # float evaluation is cheap; repeat it to time a longer stretch


def setup_times(src: Path) -> List[Dict[str, float]]:
    """Run the set-up probe SETUP_RUNS times, each in a new interpreter."""
    script = Path(__file__).with_name("setup_probe.py")
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(script), str(src)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _median_rate(fn, calls: int) -> float:
    """Median over PROBE_REPEATS of microseconds per call of ``fn()`` doing ``calls`` calls."""
    per = []
    for _ in range(PROBE_REPEATS):
        start = clock()
        fn()
        per.append((clock() - start) / calls * 1e6)
    return statistics.median(per)


def _rand(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-99, 99), rng.randint(1, 99))


def expr_probe(seed: int) -> Dict[str, float]:
    """Evaluate and differentiate the rhs of every catalogue system.

    Each rhs is evaluated at PROBE_POINTS seeded rational points where it is
    finite, in four modes: exact Fraction tree walk, order-2 jets with
    Fraction slots, float tree walk, and the compiled float closure the
    integrator uses.
    """
    from krawpv import systems
    from krawpv.expr import EvaluationDivisionError, compile_float
    from krawpv.jets import Jet2, JetDivisionError

    rng = random.Random(f"expr-probe:{seed}")
    items = []  # (expr, names, fraction env)
    for sid in systems.system_ids():
        system = systems.get_system(sid)
        names = list(system.chart) + ["t", "n", "N", "alpha"]
        for rhs in (system.rhs1, system.rhs2):
            found = 0
            while found < PROBE_POINTS:
                env = {nm: _rand(rng) for nm in names}
                try:
                    rhs.evaluate(env)
                except (ZeroDivisionError, EvaluationDivisionError):
                    continue
                items.append((rhs, names, env))
                found += 1

    jet_items = []
    for rhs, names, env in items:
        while True:
            jenv = {nm: Jet2(v, _rand(rng), _rand(rng)) for nm, v in env.items()}
            try:
                rhs.evaluate(jenv)
            except (JetDivisionError, EvaluationDivisionError):
                continue
            jet_items.append((rhs, jenv))
            break
    float_items = [(rhs, {k: float(v) for k, v in env.items()}) for rhs, _, env in items]
    compiled = [(compile_float(rhs, names), [float(env[k]) for k in names])
                for rhs, names, env in items]

    def eval_all(pairs, reps=1):
        def run():
            for _ in range(reps):
                for rhs, env in pairs:
                    rhs.evaluate(env)
        return run

    def call_compiled():
        for _ in range(FLOAT_REPS):
            for fn, args in compiled:
                fn(*args)

    def diff_catalogue():
        for sid in systems.system_ids():
            system = systems.get_system(sid)
            for rhs in (system.rhs1, system.rhs2):
                for name in (*system.chart, "t"):
                    rhs.diff(name)

    n = len(items)
    return {
        "expr.eval_fraction_us": _median_rate(
            eval_all([(rhs, env) for rhs, _, env in items]), n),
        "expr.eval_jet_us": _median_rate(eval_all(jet_items), n),
        "expr.eval_float_us": _median_rate(eval_all(float_items, FLOAT_REPS), n * FLOAT_REPS),
        "expr.eval_compiled_us": _median_rate(call_compiled, n * FLOAT_REPS),
        "expr.diff_catalogue_ms": _median_rate(diff_catalogue, 1) / 1e3,
    }


def jets_probe(seed: int) -> Dict[str, float]:
    """Product and quotient of order-2 jets with seeded Fraction slots."""
    from krawpv.jets import Jet2

    rng = random.Random(f"jets-probe:{seed}")
    pairs = []
    while len(pairs) < JET_PAIRS:
        a = Jet2(_rand(rng), _rand(rng), _rand(rng))
        b = Jet2(_rand(rng), _rand(rng), _rand(rng))
        if b.v != 0:
            pairs.append((a, b))

    def mul():
        for a, b in pairs:
            a * b

    def div():
        for a, b in pairs:
            a / b

    return {
        "jets.mul_us": _median_rate(mul, len(pairs)),
        "jets.div_us": _median_rate(div, len(pairs)),
    }
