import dataclasses
import random
from fractions import Fraction

import pytest

from krawpv import maps, systems
from krawpv.expr import Sym, syms
from krawpv.maps import (
    BRIDGE_RENAMES,
    CASCADES,
    DECOMPOSITIONS,
    INDETERMINACY_POINTS,
    ChartMismatchError,
    MapError,
    apply_chain,
    apply_map,
    get_map,
    pushforward_check,
    pushforward_triples,
    verify_bridge_rename,
    verify_cascade,
    verify_decomposition,
    verify_indeterminacy,
    verify_inverse,
)
from krawpv.sampling import Sampler


def sampler(seed):
    return Sampler(random.Random(seed))


def test_unknown_map_id():
    with pytest.raises(MapError):
        get_map("nope")


def test_apply_map_simple_point():
    m = get_map("phi11")
    env = {"u11": Fraction(2), "v11": Fraction(3), "t": Fraction(1),
           "n": Fraction(1), "N": Fraction(2), "alpha": Fraction(0)}
    out = apply_map(m, env)
    assert set(out) == {"q", "p"}


CHAINS = {
    **{cid: factors for cid, (factors, _) in CASCADES.items()},
    **{name: chain for name, (_, chain) in DECOMPOSITIONS.items()},
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_chain_evaluation_is_substitution(name):
    """apply_chain equals the chain composed by iterated substitution."""
    chain = [get_map(m) for m in CHAINS[name]]
    composite = dict(chain[0].forward)
    for m in chain[1:]:
        composite = {k: e.subs(m.forward) for k, e in composite.items()}
    rng = sampler(f"chain:{name}")
    checked = 0
    for _ in range(30):
        env = rng.draw(systems.PARAM_NAMES + tuple(chain[-1].target_coords))
        try:
            expected = {k: e.evaluate(env) for k, e in composite.items()}
        except ZeroDivisionError:
            continue
        assert apply_chain(chain, env) == expected
        checked += 1
    assert checked >= 25


def test_chain_with_unjoined_charts_raises():
    with pytest.raises(ChartMismatchError, match="phi_qP -> phi11"):
        apply_chain([get_map("phi_qP"), get_map("phi11")], {})


# the certified (source system, map, target system) triples, spelled out so
# that a map added between two catalogued charts shows here as a deliberate change
CERTIFIED_TRIPLES = {
    ("original", "phi11", "uv11"),
    ("original", "phi11_hat", "UV11"),
    ("original", "phi21", "uv21"),
    ("original", "phi21_hat", "UV21"),
    ("original", "phi31", "uv31"),
    ("original", "phi31_hat", "UV31"),
    ("uv21", "tilde_phi22", "tildeUV22"),
    ("original", "phi_qP", "original_qP"),
    ("original", "phi_Qp", "original_Qp"),
    ("original", "phi_QP", "original_QP"),
    ("original_qP", "phi41_hat", "UV41"),
    ("original_QP", "Phi54", "uv54"),
    ("original_QP", "Phi54b", "uv54b"),
    ("UV41", "phi42", "uv42"),
    ("uv42", "phi43a", "uv43a"),
    ("uv42", "phi43b", "uv43b"),
    ("uv42", "phi43c", "uv43c"),
    ("uv42", "varphi11_hat", "UV11"),
    ("uv42", "varphi21_hat", "UV21"),
    ("uv42", "varphi31_hat", "UV31"),
    ("uv54b", "phi55b", "uv55b"),
    ("uv55b", "phi56b", "uv56b"),
    ("uv56b", "Phi510b", "uv510b"),
    ("uv510b", "psi11_hat", "UV11"),
    ("UV11", "phi12_hat", "UV12"),
    ("UV21", "phi22_hat", "UV22"),
    ("UV31", "phi32_hat", "UV32"),
    ("uv54", "phi55_poly", "uv55"),
    ("uv11", "phi12b", "uv12b"),
}
CONTROL_TRIPLES = {
    ("original_QP", "Phi54_tswap", "uv54"),
    ("uv510b", "psi11_hat_printed", "UV11"),
}


def test_pushforward_triples_are_the_certified_ones_and_the_controls():
    triples = pushforward_triples()
    assert len(triples) == len(set(triples)) == 31
    assert set(triples) == CERTIFIED_TRIPLES | CONTROL_TRIPLES
    assert {tr for tr in triples if get_map(tr[1]).control} == CONTROL_TRIPLES


@pytest.mark.parametrize(
    "triple", [tr for tr in pushforward_triples() if not get_map(tr[1]).control],
    ids=lambda t: "-".join(t),
)
def test_pushforward(triple):
    src, mid, tgt = triple
    case = pushforward_check(mid, sampler(f"pf:{mid}"), samples=20)
    assert case.id == f"pushforward:{src}--{mid}-->{tgt}"
    assert case.passed, case.failures[:3]


def test_pushforward_of_a_map_off_the_catalogued_charts_raises():
    # phi51's target chart (u51, v51) carries no catalogued system
    with pytest.raises(MapError, match="phi51 does not join two catalogued charts"):
        pushforward_check("phi51", sampler("bad"))


def test_swapped_center_variant_fails_pushforward():
    case = pushforward_check("Phi54_tswap", sampler("tswap"), samples=10)
    assert case.status == "FAIL"


def test_printed_reciprocal_variant_fails_pushforward():
    case = pushforward_check("psi11_hat_printed", sampler("printed"), samples=10)
    assert case.status == "FAIL"


@pytest.mark.parametrize("triple", [
    ("original", "phi11", "uv11"),
    ("original_QP", "Phi54", "uv54"),  # F depends on t
])
def test_target_field_off_by_t_fails_every_sample(monkeypatch, triple):
    src, mid, tgt = triple
    target = systems.get_system(tgt)
    (t,) = syms("t")
    bad = dataclasses.replace(target, rhs2_num=target.rhs2_num + t * target.rhs2_den)
    monkeypatch.setitem(systems.registry(), tgt, bad)
    case = pushforward_check(mid, sampler(f"off:{mid}"), samples=10)
    assert case.status == "FAIL" and case.samples == 10
    assert [f.split(":")[0] for f in case.failures] == [f"sample {k}" for k in range(1, 11)]


@pytest.mark.parametrize("map_id", ["Phi54", "Phi54b", "Phi510b"])
def test_inverses_round_trip(map_id):
    case = verify_inverse(map_id, sampler(f"inv:{map_id}"), samples=20)
    assert case.passed, case.failures[:3]


def _is_control_cascade(cascade_id):
    """A cascade through a control map is a control."""
    factors, composite = CASCADES[cascade_id]
    return any(get_map(m).control for m in (*factors, composite))


@pytest.mark.parametrize("cascade_id", sorted(c for c in CASCADES if not _is_control_cascade(c)))
def test_cascades_match_closed_forms(cascade_id):
    case = verify_cascade(cascade_id, sampler(f"casc:{cascade_id}"), samples=20)
    assert case.passed, case.failures[:3]


@pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
def test_decompositions(name):
    case = verify_decomposition(name, sampler(f"dec:{name}"), samples=20)
    assert case.passed, case.failures[:3]


@pytest.mark.parametrize("name", sorted(BRIDGE_RENAMES))
def test_bridge_renames(name):
    case = verify_bridge_rename(name, sampler(f"br:{name}"), samples=20)
    assert case.passed, case.failures[:3]


def _fails_most_samples(case, samples):
    # a sample can agree by chance (psi11_hat_printed agrees wherever U*V = +-1)
    return case.status == "FAIL" and case.samples == samples and len(case.failures) > samples // 2


def test_swapped_inverse_fails_round_trip(monkeypatch):
    wrong = dataclasses.replace(get_map("Phi54"), inverse=get_map("Phi54_tswap").inverse)
    monkeypatch.setitem(maps.map_registry(), "Phi54", wrong)
    case = verify_inverse("Phi54", sampler("inv:swapped"), samples=10)
    assert _fails_most_samples(case, 10), case


def test_the_cascade_through_the_printed_factor_is_the_control_and_fails():
    assert [c for c in sorted(CASCADES) if _is_control_cascade(c)] == ["cascade510b_printed"]
    factors, _ = CASCADES["cascade510b_printed"]
    assert [m for m in factors if get_map(m).control] == ["phi510b_f_printed"]
    case = verify_cascade("cascade510b_printed", sampler("casc:printed"), samples=10)
    assert _fails_most_samples(case, 10), case


def test_printed_last_factor_fails_decomposition(monkeypatch):
    lhs, chain = DECOMPOSITIONS["hat11_via_QP"]
    assert chain[-1] == "psi11_hat"
    monkeypatch.setitem(DECOMPOSITIONS, "hat11_via_QP", (lhs, chain[:-1] + ("psi11_hat_printed",)))
    case = verify_decomposition("hat11_via_QP", sampler("dec:printed"), samples=10)
    assert _fails_most_samples(case, 10), case


def test_bridge_with_swapped_renaming_fails(monkeypatch):
    name = "phi43a==varphi11_hat"
    a_id, b_id, renaming = BRIDGE_RENAMES[name]
    swapped = dataclasses.replace(renaming, forward={"U11": Sym("v43a"), "V11": Sym("u43a")})
    monkeypatch.setitem(BRIDGE_RENAMES, name, (a_id, b_id, swapped))
    case = verify_bridge_rename(name, sampler("br:swapped"), samples=10)
    assert _fails_most_samples(case, 10), case


@pytest.mark.parametrize("point", INDETERMINACY_POINTS, ids=lambda p: p.id)
def test_indeterminacy_points(point):
    case = verify_indeterminacy(point, sampler(f"ind:{point.id}"), samples=20)
    assert case.passed, case.failures[:3]
