import random
from fractions import Fraction

import pytest

from krawpv.expr import syms
from krawpv.hamiltonians import (
    VERIFIED_IDS,
    HamiltonianError,
    get_hamiltonian,
    hamiltonian_registry,
    verify_hamiltonian,
)
from krawpv.sampling import Sampler

(t,) = syms("t")


def sampler(seed):
    return Sampler(random.Random(seed))


def test_unknown_id():
    with pytest.raises(HamiltonianError):
        get_hamiltonian("nope")


def test_registry_contains_verified_ids():
    ids = sorted(hamiltonian_registry())
    for hid in VERIFIED_IDS:
        assert hid in ids


@pytest.mark.parametrize("h_id", VERIFIED_IDS)
def test_canonical_pairings(h_id):
    case = verify_hamiltonian(h_id, sampler(f"ham:{h_id}"), samples=30)
    assert case.passed, case.failures[:3]


@pytest.mark.parametrize("h_id", VERIFIED_IDS)
def test_offset_invariance(h_id):
    # adding a pure function of t cannot change the coordinate derivatives
    case = verify_hamiltonian(
        h_id, sampler(f"off:{h_id}"), samples=10, h_offset=t**3
    )
    assert case.passed, case.failures[:3]


def test_sign_flip_fails():
    entry = get_hamiltonian("H22")
    case = verify_hamiltonian("H22", sampler("flip"), samples=10, h_offset=-2 * entry.h)
    assert case.status == "FAIL"


@pytest.mark.parametrize(
    "h_id", ["H12_displayed", "H32_squared_term", "H32_unsquared_factor"]
)
def test_uncorrected_variants_fail(h_id):
    case = verify_hamiltonian(h_id, sampler(f"bad:{h_id}"), samples=10)
    assert case.status == "FAIL"


def test_prefactor_entry_needs_its_weight():
    entry = get_hamiltonian("Hqp")
    assert entry.prefactor.to_prefix() != "1"
