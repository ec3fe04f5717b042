import random
from fractions import Fraction

import pytest

from krawpv import expr
from krawpv.hamiltonians import (
    T_OFFSET,
    HamiltonianError,
    get_hamiltonian,
    hamiltonian_registry,
    partial,
    verify_hamiltonian,
)
from krawpv.reports import RunConfig, run_suite
from krawpv.sampling import Sampler
from krawpv.systems import get_system


def sampler(seed):
    return Sampler(random.Random(seed))


def test_unknown_id():
    with pytest.raises(HamiltonianError):
        get_hamiltonian("nope")


VERIFIED_IDS = sorted(hid for hid, e in hamiltonian_registry().items() if not e.control)
CONTROL_IDS = sorted(hid for hid, e in hamiltonian_registry().items() if e.control)


def test_registry_contains_verified_ids():
    assert VERIFIED_IDS == sorted(["H12", "H22", "H32", "H55", "H12b", "Hqp"])
    assert CONTROL_IDS == ["H12_displayed", "H32_squared_term", "H32_unsquared_factor"]


@pytest.mark.parametrize("h_id", VERIFIED_IDS)
def test_canonical_pairings(h_id):
    case = verify_hamiltonian(h_id, sampler(f"ham:{h_id}"), samples=30)
    assert case.passed, case.failures[:3]


@pytest.mark.parametrize("h_id", VERIFIED_IDS)
def test_offset_invariance(h_id):
    # adding a pure function of t cannot change the coordinate derivatives
    case = verify_hamiltonian(
        h_id, sampler(f"off:{h_id}"), samples=10, h_offset=T_OFFSET
    )
    assert case.passed, case.failures[:3]


def test_sign_flip_fails():
    entry = get_hamiltonian("H22")
    case = verify_hamiltonian("H22", sampler("flip"), samples=10, h_offset=-2 * entry.h)
    assert case.status == "FAIL"


@pytest.mark.parametrize("h_id", CONTROL_IDS)
def test_uncorrected_variants_fail(h_id):
    case = verify_hamiltonian(h_id, sampler(f"bad:{h_id}"), samples=10)
    assert case.status == "FAIL"


def test_prefactor_entry_needs_its_weight():
    entry = get_hamiltonian("Hqp")
    assert entry.prefactor.to_prefix() != "1"


@pytest.mark.parametrize("h_id", sorted(hamiltonian_registry()))
def test_jet_partials_equal_diff_trees(h_id):
    # the reference: the symbolic derivative of the summed tree, evaluated exactly
    entry = get_hamiltonian(h_id)
    chart = get_system(entry.system_id).chart
    points = sampler(f"partial:{h_id}")
    names = [*chart, "t", "n", "N", "alpha"]
    for h_offset in (None, T_OFFSET, -2 * entry.h):
        h = entry.h if h_offset is None else entry.h + h_offset
        diffs = {c: h.diff(c) for c in chart}
        checked = 0
        while checked < 5:
            env = points.draw(names, reject=lambda e: e["t"] == 0 or e["N"] == 0)
            try:
                expected = {c: diffs[c].evaluate(env) for c in chart}
            except ZeroDivisionError:
                continue
            for c in chart:
                got = partial(entry.h, c, env, h_offset)
                assert isinstance(got, Fraction) and got == expected[c], (c, env)
            checked += 1


def test_warm_suite_defines_no_function(monkeypatch):
    # the first pass compiles every tree it evaluates; the second must find them all compiled
    cfg = RunConfig(samples=2)
    run_suite("all", cfg)
    defined = []
    define = expr._define
    monkeypatch.setattr(expr, "_define", lambda *args: defined.append(args[0]) or define(*args))
    report = run_suite("all", cfg)
    assert report.cases and defined == []
