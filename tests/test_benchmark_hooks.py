"""The benchmark's hold on the package: every name it wraps or calls must still be there.

``perfbench/`` imports its modules by their bare names, so its directory goes
on ``sys.path``.  A renamed public function makes ``Recorder`` raise
``MissingHook``; a renamed accessor makes building a workload's inputs raise;
a probe binding of neither arithmetic domain, or a deleted ``Expr.diff``, makes
a layer probe raise.
"""

import hashlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import probes
        import tracing
        import workloads

        yield tracing, workloads, probes
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_function_is_there_and_put_back(perfbench):
    tracing, _, _ = perfbench
    from krawpv import integrate, painleve

    originals = (painleve.mobius_reduce, integrate.integrate_pv, integrate.solve_ivp)
    with tracing.Recorder(trace=True, detect_cases=True):
        assert painleve.mobius_reduce is not originals[0]
    assert (painleve.mobius_reduce, integrate.integrate_pv, integrate.solve_ivp) == originals


def test_the_float_trajectory_inputs_are_the_seeds_alone(perfbench):
    # the seeded draws read PV's parameters, the completed jets and the
    # reductions' shifts in float, so their bits fix every case
    _, workloads, _ = perfbench
    cases = workloads.FloatTrajectories(3).cases
    kinds = {kind: sum(1 for k, _, _ in cases if k == kind) for kind in ("composition",
                                                                        "reduction", "base")}
    assert kinds == {"composition": 68, "reduction": 153, "base": 64}
    assert hashlib.sha256(repr(cases).encode()).hexdigest() == (
        "03f5b7d9b884a3d934814f16190eb023e87204b81cfd11b768daa929b256ace3")


def test_the_layer_probes_run(perfbench):
    # Fraction, Fraction-Jet2, float and compiled bindings of every catalogue rhs, its
    # derivative trees, and products and quotients of Jet2s
    _, _, probes = perfbench
    timings = {**probes.expr_probe(3), **probes.jets_probe(3)}
    assert set(timings) == {"expr.eval_fraction_us", "expr.eval_jet_us", "expr.eval_float_us",
                            "expr.eval_compiled_us", "expr.diff_catalogue_ms", "jets.mul_us",
                            "jets.div_us"}
    assert all(value > 0 for value in timings.values()), timings
