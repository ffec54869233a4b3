"""Golden-output guard: every pinned digest and the golden ledgers, in-process.

`golden_digests.txt` is the one table of pinned outputs, one `sha256 argv`
line each.  Each of its argvs, and each `sha256` key of bench/golden.json,
must exit 0 and print byte-identical output.  Each `ledger` key of
bench/golden.json is a `verify` run that must pass and run every golden
check at least as often as stored, the gate the benchmark applies to its
samples.  bench/golden.json is only read here.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from scroll_ulrich.cli import EXIT_OK, main

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())
PIN_LINES = Path(__file__).with_name("golden_digests.txt").read_text().splitlines()
PINS = [tuple(line.split(" ", 1)[::-1]) for line in PIN_LINES]  # (argv, sha256)
DIGESTS = PINS + [(argv, want["sha256"]) for argv, want in GOLDEN.items() if "sha256" in want]
LEDGERS = [(argv, want["ledger"]) for argv, want in GOLDEN.items() if "ledger" in want]


def _run(argv, capsys):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    return out


@pytest.mark.parametrize("argv, sha256", DIGESTS, ids=[argv for argv, _ in DIGESTS])
def test_output_is_byte_identical(argv, sha256, capsys):
    assert hashlib.sha256(_run(argv, capsys).encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv, ledger", LEDGERS, ids=[argv for argv, _ in LEDGERS])
def test_verify_ledger_meets_golden(argv, ledger, capsys):
    report = json.loads(_run(argv, capsys))
    table = next(t for t in report["tables"] if t["name"] == "ledger")
    runs = {row[0]: row[1] for row in table["rows"]}
    assert report["meta"]["failed"] == 0
    assert {name: n for name, n in ledger.items() if runs.get(name, 0) < n} == {}


def test_pins_are_one_table():
    assert [line for line in PIN_LINES if not re.fullmatch(r"[0-9a-f]{64} \S.*", line)] == []
    argvs = [argv for argv, _ in PINS]
    assert len(set(argvs)) == len(argvs)
    assert set(argvs).isdisjoint(GOLDEN)
