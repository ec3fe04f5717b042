import json

from krawpv.reports import RunConfig, SuiteReport, _expect_fail, emit_report, run_suite
from krawpv.sampling import CaseResult


def test_json_failures_only_on_cases_that_have_them():
    report = SuiteReport("x", 1, [
        CaseResult("a", "PASS", samples=3),
        CaseResult("b", "FAIL", samples=3, failures=["sample 2: off by one"]),
    ])
    a, b = json.loads(emit_report(report))["cases"]
    assert "failures" not in a
    assert b["failures"] == ["sample 2: off by one"]
    assert emit_report(report, "csv").splitlines()[0] == "id,status,residual,samples,resamples"


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
