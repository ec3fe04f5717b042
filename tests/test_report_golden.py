import hashlib
import json

from krawpv.cli import main
from krawpv.reports import RunConfig, run_suite

# sha256 of the JSON list of sorted (id, status, samples, resamples) rows of
# every case in the "all" suite at the default seed with 10 samples per check.
# Float residuals are left out: they depend on the last bits of float
# arithmetic, which a change of integrator or platform may move.
GOLDEN_ROWS_SHA256 = "fa015f4904824d4d2e375f38ccec7fc137953861ae3fa2d79a76b8f54727de7c"

# sha256 of the `--dump-catalogue` output: it pins the prefix format and every
# tree that substitution and numerator/denominator clearing build for the 26
# systems, the reciprocal charts and renamed charts included.
GOLDEN_CATALOGUE_SHA256 = "59626fca469934766e7687b7aacb98be29a12efb7fb8364e3a2c2ca3273bdf0b"


def test_all_suite_verdict_rows_match_golden():
    report = run_suite("all", RunConfig(samples=10))
    rows = sorted((c.id, c.status, c.samples, c.resamples) for c in report.cases)
    assert len(rows) == 694
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == GOLDEN_ROWS_SHA256


def test_catalogue_dump_matches_golden(capsys):
    assert main(["--dump-catalogue"]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)) == 26
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CATALOGUE_SHA256
