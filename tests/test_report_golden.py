import hashlib
import json

from krawpv.reports import RunConfig, run_suite

# sha256 of the JSON list of sorted (id, status, samples, resamples) rows of
# every case in the "all" suite at the default seed with 10 samples per check.
# Float residuals are left out: they may differ across numpy/scipy builds.
GOLDEN_ROWS_SHA256 = "fa015f4904824d4d2e375f38ccec7fc137953861ae3fa2d79a76b8f54727de7c"


def test_all_suite_verdict_rows_match_golden():
    report = run_suite("all", RunConfig(samples=10))
    rows = sorted((c.id, c.status, c.samples, c.resamples) for c in report.cases)
    assert len(rows) == 694
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == GOLDEN_ROWS_SHA256
