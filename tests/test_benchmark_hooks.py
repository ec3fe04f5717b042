"""The benchmark's hold on the package: every name it wraps or calls must still be there.

``perfbench/`` imports its modules by their bare names, so its directory goes
on ``sys.path``.  A renamed public function makes ``Recorder`` raise
``MissingHook``; a renamed accessor makes building a workload's inputs raise.
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
        import tracing
        import workloads

        yield tracing, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_function_is_there_and_put_back(perfbench):
    tracing, _ = perfbench
    from krawpv import integrate, painleve

    originals = (painleve.mobius_reduce, integrate.integrate_pv, integrate.solve_ivp)
    with tracing.Recorder(trace=True, detect_cases=True):
        assert painleve.mobius_reduce is not originals[0]
    assert (painleve.mobius_reduce, integrate.integrate_pv, integrate.solve_ivp) == originals


def test_the_float_trajectory_inputs_are_the_seeds_alone(perfbench):
    # the seeded draws read PV's parameters, the completed jets and the
    # reductions' shifts in float, so their bits fix every case
    _, workloads = perfbench
    cases = workloads.FloatTrajectories(3).cases
    kinds = {kind: sum(1 for k, _, _ in cases if k == kind) for kind in ("composition",
                                                                        "reduction", "base")}
    assert kinds == {"composition": 68, "reduction": 153, "base": 64}
    assert hashlib.sha256(repr(cases).encode()).hexdigest() == (
        "03f5b7d9b884a3d934814f16190eb023e87204b81cfd11b768daa929b256ace3")
