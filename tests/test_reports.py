import csv
import io
import json
from collections import Counter
from fractions import Fraction

import pytest

from krawpv import hamiltonians, maps, oracle, reports
from krawpv.reports import (
    CONTROL_SAMPLES,
    RunConfig,
    SuiteReport,
    _expect_fail,
    emit_report,
    run_suite,
)
from krawpv.sampling import CaseResult


def test_json_failures_only_on_cases_that_have_them():
    report = SuiteReport("x", 1, [
        CaseResult("a", "PASS", samples=3),
        CaseResult("b", "FAIL", samples=3, failures=["sample 2: off by one"]),
    ])
    a, b = json.loads(emit_report(report))["cases"]
    assert "failures" not in a
    assert b["failures"] == ["sample 2: off by one"]


def test_csv_failures_column_carries_the_messages():
    report = SuiteReport("x", 1, [
        CaseResult("a", "PASS", samples=3),
        CaseResult("b", "FAIL", samples=3, failures=["sample 2: off by one", "sample 3: x, y"]),
    ])
    header, a, b, overall = csv.reader(io.StringIO(emit_report(report, "csv")))
    assert header == ["id", "status", "residual", "samples", "resamples", "failures"]
    assert a == ["a", "PASS", "0", "3", "0", ""]
    assert b == ["b", "FAIL", "0", "3", "0", "sample 2: off by one; sample 3: x, y"]
    assert overall == ["overall", "FAIL", "", "", "", ""]


def test_overall_passes_only_when_every_case_passes():
    assert SuiteReport("x", 1, [CaseResult("a", "PASS", samples=3)]).overall == "PASS"
    report = SuiteReport("x", 1, [CaseResult("a", "PASS", samples=3), CaseResult("b", "SKIP")])
    assert report.overall == "FAIL"


def test_control_passes_only_when_its_check_fails_on_samples():
    sampled = _expect_fail(CaseResult("c", "FAIL", samples=10, failures=["sample 1: x"]))
    assert (sampled.id, sampled.status, sampled.samples) == ("control:c", "PASS", 10)
    passed = _expect_fail(CaseResult("c", "PASS", samples=10))
    assert passed.status == "FAIL"
    assert passed.failures == ["control check unexpectedly passed"]
    vacuous = _expect_fail(CaseResult("c", "FAIL", samples=0, failures=["chart mismatch"]))
    assert vacuous.status == "FAIL"
    assert vacuous.failures == ["control check failed before any sample", "chart mismatch"]


def test_every_control_fails_on_sampled_points():
    for suite in ("transforms", "hamiltonian"):
        cases = run_suite(suite, RunConfig(samples=1)).cases
        controls = [c for c in cases if c.id.startswith("control:")]
        assert len(controls) == 3
        assert all(c.status == "PASS" and c.samples == 10 for c in controls), controls


def test_the_default_reports_hold_the_controls_the_flags_derive():
    # a flagged map's pushforward, a cascade through a flagged map, a flagged Hamiltonian
    get = maps.get_map
    transforms = {f"control:pushforward:{src}--{mid}-->{tgt}"
                  for src, mid, tgt in maps.pushforward_triples() if get(mid).control}
    transforms |= {f"control:cascade:{cid}=={composite}"
                   for cid, (factors, composite) in maps.CASCADES.items()
                   if any(get(m).control for m in (*factors, composite))}
    hamiltonian = {f"control:hamiltonian:{hid}@{entry.system_id}"
                   for hid, entry in hamiltonians.hamiltonian_registry().items() if entry.control}
    for suite, want in (("transforms", transforms), ("hamiltonian", hamiltonian)):
        controls = [c for c in run_suite(suite, RunConfig()).cases if c.id.startswith("control:")]
        assert len(want) == 3 and sorted(c.id for c in controls) == sorted(want)
        assert all(c.status == "PASS" and c.samples == CONTROL_SAMPLES for c in controls), controls


def test_samples_reaches_every_sampled_case():
    # a control runs at CONTROL_SAMPLES, a weight case counts its residuals and a
    # trajectory case its check times; every case of the 13 sampled kinds draws `samples`
    unsampled = ("control:", "oracle:", "discrete:", "toda:", "trajectory:",
                 "reduction_trajectory:")
    sampled = [c for c in run_suite("all", RunConfig(samples=7)).cases
               if not c.id.startswith(unsampled)]
    assert {c.id.split(":")[0] for c in sampled} == {
        "pushforward", "inverse", "cascade", "decomposition", "bridge", "regular_on_divisor",
        "alpha0_degeneracy", "indeterminacy", "reduction_soundness", "reduction_to_pv",
        "param_chain", "closed_form", "hamiltonian"}
    assert [(c.id, c.samples) for c in sampled if c.samples != 7] == []


def _product(cfg):
    """The sweep points (N, n, alpha, t): the nested product over the config's distinct values."""
    for N in dict.fromkeys(cfg.Ns):
        for n in dict.fromkeys(cfg.ns if cfg.ns is not None else range(N)):
            if 0 <= n < N:
                for a in dict.fromkeys(cfg.alphas):
                    for tv in dict.fromkeys(cfg.ts):
                        yield N, n, a, tv


@pytest.mark.parametrize("kwargs", [
    {},
    # repeated N and n, an n out of range on both sides
    {"Ns": (3, 1, 3), "ns": (2, 2, 0, 5, -1), "alphas": (Fraction(0), Fraction(0))},
    # N = 1 has no valid n
    {"Ns": (1, 4), "ns": (2,), "ts": (Fraction(1),)},
])
def test_weights_yield_the_sweep_points(kwargs):
    cfg = RunConfig(**kwargs)
    weights = list(cfg.weights())
    assert all(ns and all(0 <= n < N for n in ns) for N, _, _, ns in weights)
    points = [(N, n, a, tv) for N, a, tv, ns in weights for n in ns]
    assert Counter(points) == Counter(_product(cfg))


def test_a_repeated_sweep_value_runs_once():
    # the rule lives in RunConfig, so a library caller gets it as the CLI does
    cfg = RunConfig(Ns=(2, 2), ns=(1, 1), alphas=(Fraction(1, 2), Fraction(2, 4)),
                    ts=(Fraction(1), Fraction(1)))
    assert list(cfg.weights()) == [(2, Fraction(1, 2), Fraction(1), (1,))]
    assert [c.id for c in run_suite("discrete", cfg).cases] == [
        "discrete:residuals_N2_n1_a1/2_t1/1"]


@pytest.mark.parametrize("suite, stieltjes, iterations", [
    ("oracle", 9, 10),  # the worked instance iterates once more
    ("discrete", 9, 0),
    ("toda", 9, 0),  # one table with t a first-order jet
])
def test_each_weight_builds_its_tables_once(monkeypatch, suite, stieltjes, iterations):
    calls = Counter()
    for name in ("stieltjes_recurrence", "iterate_discrete"):
        def spy(*args, _name=name, _f=getattr(oracle, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(oracle, name, spy)
    report = run_suite(suite, RunConfig(Ns=(3,)))  # 9 weights, 27 points
    assert report.overall == "PASS"
    assert len(report.cases) == 27 + (suite == "oracle")
    assert calls["stieltjes_recurrence"] == stieltjes
    assert calls["iterate_discrete"] == iterations


def test_no_two_cases_share_a_draw_stream(monkeypatch):
    # each sampled case's RNG is seeded from the seed and its key: equal keys would
    # make two cases draw the same points
    keys = []
    real = reports._sampler

    def recording(cfg, key):
        keys.append(key)
        return real(cfg, key)

    monkeypatch.setattr(reports, "_sampler", recording)
    run_suite("all", RunConfig(samples=1))
    assert keys and len(set(keys)) == len(keys), Counter(keys).most_common(3)
