"""The benchmark's own test, at smoke size.

    python3 -m pytest bench/test_bench.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
from workloads import WORKLOADS, cohom_queries, reference_h  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[0])["record"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in wanted)
    assert record["environment"]["seed"] == 3 and record["environment"]["jobs"] == 1
    if trace == "1":
        # iter_tower does not exist yet and verify_scan_bounds lives in ulrich
        assert {"tower.iter_tower", "verify.verify_scan_bounds"} <= set(record["absent_functions"])


def _smoke_sample(name: str, queries: list) -> tuple[dict, tuple[str, ...], int]:
    import run

    argv, ops = WORKLOADS[name].size(smoke=True)
    sample = run.spawn({"argv": list(argv), "queries": queries, "trace": False, "ops": ops}, 60)
    return sample, argv, ops


def test_wrong_output_fails_the_gate():
    import run

    golden = json.loads(run.GOLDEN.read_text())

    sample, argv, ops = _smoke_sample("tower-deep", [])
    assert run.failed_ops(sample, ops, argv, golden, []) == 0
    sample["stdout"] = sample["stdout"].replace('"rmax": 6', '"rmax": 7')
    assert run.failed_ops(sample, ops, argv, golden, []) == ops

    sample, argv, ops = _smoke_sample("verify-grid", [])
    assert run.failed_ops(sample, ops, argv, golden, []) == 0
    report = json.loads(sample["stdout"])
    ledger = next(t for t in report["tables"] if t["name"] == "ledger")
    dropped = dict(sample, stdout=json.dumps(report).replace(json.dumps(ledger["rows"][0]) + ", ", ""))
    assert len(run.ledger_runs(dropped["stdout"])) == len(ledger["rows"]) - 1
    assert run.failed_ops(dropped, ops, argv, golden, []) == ops
    ledger["rows"][0][1] -= 1  # one run fewer of a check
    assert run.failed_ops(dict(sample, stdout=json.dumps(report)), ops, argv, golden, []) == ops

    queries = cohom_queries(3, WORKLOADS["cohom-batch"].smoke_ops)
    reference = [reference_h(a, b, x, y, z) for a, b, _, x, y, z in queries]
    sample, argv, ops = _smoke_sample("cohom-batch", queries)
    assert run.failed_ops(sample, ops, argv, golden, reference) == 0
    sample["answers"][5][0] += 1
    assert run.failed_ops(sample, ops, argv, golden, reference) == 1


def test_missing_function_is_reported_absent(monkeypatch):
    import scroll_ulrich.cohomology as cohomology

    layers = dict(tracer.LAYERS, cohomology=tracer.LAYERS["cohomology"] + ("no_such_function",))
    monkeypatch.setattr(tracer, "LAYERS", layers)
    original = cohomology.h_scroll
    t = tracer.Tracer()
    t.install()
    try:
        from scroll_ulrich import DivisorClass, ScrollParams, ulrich

        ulrich.is_ulrich_line(ScrollParams(0, 0, 1), DivisorClass(2, 0, 1))
    finally:
        t.uninstall()
    assert cohomology.h_scroll is original
    assert "cohomology.no_such_function" in t.absent
    metrics = t.metrics(ops=1)
    assert metrics["ulrich.is_ulrich_line.calls"] == 1
    assert metrics["ulrich.is_ulrich_line.hit_ratio"] == 1.0
    assert metrics["cohomology.h_scroll.calls"] == 3
    assert metrics["trace.absent_functions"] == len(t.absent)


def test_reference_oracle_matches_program_on_small_classes():
    from scroll_ulrich import DivisorClass, ScrollParams, h_scroll

    rng = random.Random(0)
    for _ in range(3000):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        x, y, z = rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-25, 25)
        got = h_scroll(ScrollParams(a, b, a + b + 1), DivisorClass(x, y, z)).as_tuple()
        assert reference_h(a, b, x, y, z) == got, (a, b, x, y, z)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "tower-deep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
