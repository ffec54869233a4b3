"""Cold-process benchmark of scroll-ulrich: one workload per invocation.

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

Every sample is a fresh Python process (bench/child.py) with
SCROLL_ULRICH_JOBS=1, started one at a time, as every CLI call starts cold.
Samples repeat until --seconds have passed.  Each sample's output is checked
against the golden files and the cohomology oracle.  Untraced samples time a
calibration chunk as they run (see child.py); their times are scaled to the
reference speed REFERENCE_CHUNK_NS before the median is taken.  With
--trace 1, traced samples alternate with untraced ones and the per-layer
metrics are reported.

Prints one JSON line with the environment record and every figure, then, as
the last line, {"correct", "attempted", "failed", "metrics"}.  Exits 2
without a result when the program cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import HELD_OUT_SEED, WORKLOADS, cohom_queries, reference_h

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
MIN_ROUNDS = 2  # however short --seconds is
BUDGET_S = 160  # a run must end within 180 s; nothing may still run after this
# The calibration chunk's time on the host the benchmark was written on, in a
# typical phase: scaled times read as seconds on a host that runs it this fast.
REFERENCE_CHUNK_NS = 350_000
STARTED = time.monotonic()

# Figures printed in the record only.  The raw times and the chunk time show
# how the scaled figures came about.  The query percentiles exist for
# cohom-batch only, and BENCHMARK.json's end-to-end list may name only metrics
# that every workload reports.
EXTRA_UNITS = {
    "wall_s": "s", "raw_setup_s": "s", "calibration_us": "us",
    "query_p50_ms": "ms", "query_p99_ms": "ms", "failed_ratio": "ratio",
}


class SetupError(Exception):
    """The program cannot be run from this checkout; no result is printed."""


def _child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        SCROLL_ULRICH_JOBS="1",
        PYTHONHASHSEED="0",
    )


def _remaining_s() -> float:
    return BUDGET_S - (time.monotonic() - STARTED)


def warm_up() -> None:
    """Import the program once, so bytecode is compiled before any sample."""
    proc = subprocess.run(
        [sys.executable, "-c", "import scroll_ulrich.cli; print(scroll_ulrich.cli.__file__)"],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise SetupError(f"cannot import scroll_ulrich from {SRC}:\n{proc.stderr.strip()}")
    if Path(proc.stdout.strip()).resolve().parent.parent != SRC:
        raise SetupError(f"scroll_ulrich was imported from {proc.stdout.strip()}, not {SRC}")


def spawn(spec: dict, timeout: float) -> dict | None:
    """Run one sample; None if the process failed, overran or printed no result."""
    spawned_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spawned_ns), "0" if spec["trace"] else "1"],
            input=json.dumps(spec), env=_child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"sample overran {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"sample exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        print("sample printed no result", file=sys.stderr)
        return None


def ledger_runs(stdout: str) -> dict[str, int]:
    """{check name: runs} from the ledger table of a verify report."""
    ledger = next(t for t in json.loads(stdout)["tables"] if t["name"] == "ledger")
    return {row[0]: row[1] for row in ledger["rows"]}


def failed_ops(sample: dict | None, ops: int, argv: tuple[str, ...], golden: dict,
               reference: list[tuple[int, ...]]) -> int:
    """Operations of one sample whose output fails the correctness gate."""
    if sample is None:
        return ops
    if reference:
        answers = [tuple(v) for v in sample["answers"]]
        bad = sum(got != want or not ok
                  for got, want, ok in zip(answers, reference, sample["oracle_ok"]))
        return bad + ops - len(answers)
    expect = golden[" ".join(argv)]
    if sample["exit"] != 0:
        return ops
    if "sha256" in expect:
        return 0 if hashlib.sha256(sample["stdout"].encode()).hexdigest() == expect["sha256"] else ops
    # verify: no failed check, and every check of the golden ledger still runs
    # at least as often, so that dropping checks cannot read as a speed-up.
    try:
        runs = ledger_runs(sample["stdout"])
        failed_checks = json.loads(sample["stdout"])["meta"]["failed"]
    except (KeyError, StopIteration, TypeError, ValueError):
        return ops
    covered = all(runs.get(name, 0) >= n for name, n in expect["ledger"].items())
    return 0 if failed_checks == 0 and covered else ops


def collect(argv, ops, queries, trace: bool, seconds: float) -> list[tuple[bool, dict | None]]:
    """(traced, sample) pairs: rounds of one untraced (and one traced) sample.

    A new round starts only if it should end within --seconds, judged by the
    mean round so far, so that a run's length stays close to --seconds.
    """
    kinds = (False, True) if trace else (False,)
    start = time.monotonic()
    samples = []
    rounds = 0
    while True:
        for traced in kinds:
            spec = {"argv": list(argv), "queries": queries, "trace": traced, "ops": ops}
            sample = spawn(spec, _remaining_s()) if _remaining_s() > 0 else None
            samples.append((traced, sample))
            if sample is None:
                return samples
        rounds += 1
        elapsed = time.monotonic() - start
        mean_round = elapsed / rounds
        if rounds >= MIN_ROUNDS and (elapsed + mean_round > seconds or mean_round > _remaining_s()):
            return samples


def _percentile(values: list[int], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def speed_scale(sample: dict) -> float:
    """Reference over measured speed: the middle half of the chunk times."""
    ticks = sorted(sample["calibration_ns"])
    quarter = len(ticks) // 4
    return REFERENCE_CHUNK_NS / statistics.mean(ticks[quarter:len(ticks) - quarter])


def summarise(samples: list[tuple[bool, dict]], queries: bool) -> dict[str, float]:
    """Medians over the samples that completed; a kind with none is left out."""
    plain = [s for traced, s in samples if not traced]
    traced = [s for t, s in samples if t]
    figures = {}
    if plain:
        scales = [speed_scale(s) for s in plain]
        figures["norm_wall_s"] = statistics.median(
            s["body_ns"] * k for s, k in zip(plain, scales)) / 1e9
        figures["setup_s"] = statistics.median(
            s["setup_ns"] * k for s, k in zip(plain, scales)) / 1e9
        figures["wall_s"] = statistics.median(s["body_ns"] for s in plain) / 1e9
        figures["raw_setup_s"] = statistics.median(s["setup_ns"] for s in plain) / 1e9
        figures["calibration_us"] = statistics.median(REFERENCE_CHUNK_NS / k for k in scales) / 1e3
        figures["peak_rss_mb"] = statistics.median(s["rss_kb"] for s in plain) / 1024
        if queries:
            for pct in (50, 99):
                figures[f"query_p{pct}_ms"] = statistics.median(
                    _percentile(s["latency_ns"], pct) for s in plain) / 1e6
    if traced:
        for name in traced[0]["trace"]:
            figures[name] = statistics.median(s["trace"][name] for s in traced)
        if plain:
            figures["trace.overhead_ratio"] = (
                statistics.median(s["body_ns"] for s in traced) / 1e9 / figures["wall_s"])
    return figures


def environment(seed: int, smoke: bool) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read_lines("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "scroll_ulrich").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "smoke": smoke,
        "jobs": 1,
    }


def _read_lines(path: str) -> list[str]:
    try:
        with open(path) as fh:
            return fh.readlines()
    except OSError:
        return []


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="input seed (cohom-batch)")
    parser.add_argument("--seconds", type=float, default=30, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced samples")
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    cli_argv, ops = workload.size(args.smoke)
    try:
        warm_up()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads(GOLDEN.read_text())
    queries = cohom_queries(args.seed, ops) if not cli_argv else []
    reference = [reference_h(a, b, x, y, z) for a, b, _, x, y, z in queries]

    samples = collect(cli_argv, ops, queries, bool(args.trace), args.seconds)
    failed = sum(failed_ops(s, ops, cli_argv, golden, reference) for _, s in samples)
    attempted = ops * len(samples)
    figures = summarise([(t, s) for t, s in samples if s is not None], bool(queries))
    figures["failed_ratio"] = failed / attempted

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    record = {
        "workload": workload.name,
        "argv": list(cli_argv),
        "ops_per_sample": ops,
        "samples": {"untraced": sum(not t for t, _ in samples), "traced": sum(t for t, _ in samples)},
        "environment": environment(args.seed, args.smoke),
        "figures": {n: {"value": v, "unit": units[n]} for n, v in figures.items()},
        "absent_functions": next((s["absent"] for t, s in samples if t and s), []),
        "wall_s_per_sample": [s["body_ns"] / 1e9 for t, s in samples if s and not t],
        "speed_scale_per_sample": [speed_scale(s) for t, s in samples if s and not t],
        "setup_s_per_sample": [s["setup_ns"] / 1e9 for _, s in samples if s],
    }
    if queries:
        record["answers_sha256"] = hashlib.sha256(json.dumps(reference).encode()).hexdigest()
    print(json.dumps({"record": record}, sort_keys=True))
    for name, value in figures.items():
        print(f"{name:44s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and all(n in figures for n in wanted),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": figures[n], "unit": units[n]} for n in wanted if n in figures},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
