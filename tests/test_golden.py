"""Golden-output guard: the smoke-size workloads of bench/golden.json, in-process.

`classify` and `tower-report` must print byte-identical canonical JSON; a
`verify` run must pass and run every golden check at least as often as
stored, the gate the benchmark applies to its samples.  The file is only
read here; the full-size digests are checked by a CI step.  The full check
listing of a small `verify --all` grid is pinned inline, since the ledger
gate alone would not see a changed detail or status string, and so is a
`tower-report` whose cells are mostly outside the tower hypothesis, and a
`classify` grid that reaches a, b >= 2, which no golden digest covers.
"""

import hashlib
import json
from pathlib import Path

import pytest

from scroll_ulrich.cli import EXIT_OK, main

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())
SMOKE = (
    "classify --a 0 --b 0 --c 3..4",
    "tower-report --a 0 --b 1 --c 3 --rmax 6",
    "verify --a 0 --b 0 --c 1..2",
)
VERIFY_ALL = "verify --a 0..1 --b 0..1 --normalize --all"
VERIFY_ALL_SHA256 = "107b558c0ec65acf863aa188960a8ff25929d1cae3aa9f2e9fe3b32229abd8c0"
TOWER_OUTSIDE = "tower-report --a 0..2 --b 0..2 --rmax 12"
TOWER_OUTSIDE_SHA256 = "bbd019d8da86638803b914a521809cb2d47bea047ffecf994a43403fb1d06129"
CLASSIFY_WIDE = "classify --a 0..3 --b 0..3 --normalize"
CLASSIFY_WIDE_SHA256 = "3811c93a17f475720cbf6ba5e07b96ba654b6c435ed984bea5f72995c163f01a"


@pytest.mark.parametrize("key", SMOKE)
def test_smoke_output_matches_golden(key, capsys):
    code = main(key.split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    expect = GOLDEN[key]
    if "sha256" in expect:
        assert hashlib.sha256(out.encode()).hexdigest() == expect["sha256"]
        return
    report = json.loads(out)
    ledger = next(t for t in report["tables"] if t["name"] == "ledger")
    runs = {row[0]: row[1] for row in ledger["rows"]}
    assert report["meta"]["failed"] == 0
    assert {name: n for name, n in expect["ledger"].items() if runs.get(name, 0) < n} == {}


def _sha256(argv, capsys):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    return hashlib.sha256(out.encode()).hexdigest()


def test_verify_listing_is_byte_identical(capsys):
    assert _sha256(VERIFY_ALL, capsys) == VERIFY_ALL_SHA256


def test_tower_report_outside_hypothesis_is_byte_identical(capsys):
    assert _sha256(TOWER_OUTSIDE, capsys) == TOWER_OUTSIDE_SHA256


def test_classify_wide_grid_is_byte_identical(capsys):
    assert _sha256(CLASSIFY_WIDE, capsys) == CLASSIFY_WIDE_SHA256
