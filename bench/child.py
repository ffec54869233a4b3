"""One benchmark sample in a fresh process, started by run.py.

    child.py SPAWN_NS CALIBRATE < spec.json

Reads the sample's spec as JSON on stdin and writes its measurements as one
JSON line on stdout.  The program is imported first, so that set-up time is
the time from spawn until `import scroll_ulrich.cli` completes; SPAWN_NS is
the spawn time on the monotonic clock, which is shared between processes.

With CALIBRATE=1, a timer interrupts the process every CALIBRATION_PERIOD_S,
from before the import to the end of the body, and times one fixed chunk of
big-integer arithmetic that shares no code with the program.  On a shared
2-vCPU KVM guest (Xeon, 2.1 GHz) the speed of a vCPU moved by up to 40%
within seconds, and the chunk's time moved with the program's (correlation
about 0.9), so run.py divides by the chunk's time to scale each sample to a
fixed reference speed.  The chunks cost about 2% of the sample's time.
"""

import signal
import sys
import time

CALIBRATION_PERIOD_S = 0.02
calibration_ns: list[int] = []


def calibration_chunk() -> int:
    x = 3**200
    for i in range(300):
        x = (x * 12345678901 + i) % 7**230  # the power too is computed each time
    return x


def _on_tick(signum, frame) -> None:
    start = time.perf_counter_ns()
    calibration_chunk()
    calibration_ns.append(time.perf_counter_ns() - start)


if sys.argv[2] == "1":
    signal.signal(signal.SIGALRM, _on_tick)
    # The first tick comes at once, so every sample has at least one chunk.
    signal.setitimer(signal.ITIMER_REAL, 1e-6, CALIBRATION_PERIOD_S)

import scroll_ulrich.cli  # noqa: E402

IMPORTED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import scroll_ulrich  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter_ns()
        code = scroll_ulrich.cli.main(argv)
        body_ns = time.perf_counter_ns() - start
    return {"body_ns": body_ns, "exit": code, "stdout": buf.getvalue()}


def run_queries(queries: list[list[int]]) -> dict:
    # Looked up here, after the tracer may have replaced it.
    h_scroll = scroll_ulrich.h_scroll
    inputs = [
        (scroll_ulrich.ScrollParams(a, b, c), scroll_ulrich.DivisorClass(x, y, z))
        for a, b, c, x, y, z in queries
    ]
    answers, latency_ns = [], []
    clock = time.perf_counter_ns
    start = clock()
    for params, div in inputs:
        t = clock()
        answers.append(h_scroll(params, div))
        latency_ns.append(clock() - t)
    body_ns = clock() - start
    return {"body_ns": body_ns, "latency_ns": latency_ns, "inputs": inputs, "answers": answers}


def oracle_checks(sample: dict) -> None:
    """The program's own identities on each answer: Riemann-Roch and Serre duality."""
    from scroll_ulrich import chi_closed_form, h_scroll, serre_dual

    sample["oracle_ok"] = [
        vec.chi == chi_closed_form(p, d) and h_scroll(p, serre_dual(p, d)) == vec.reversed()
        for (p, d), vec in zip(sample.pop("inputs"), sample["answers"])
    ]
    sample["answers"] = [vec.as_tuple() for vec in sample["answers"]]


def main() -> None:
    spec = json.load(sys.stdin)
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    if spec["queries"]:
        sample = run_queries(spec["queries"])
    else:
        sample = run_cli(spec["argv"])
    signal.setitimer(signal.ITIMER_REAL, 0)
    sample["calibration_ns"] = calibration_ns
    sample["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
        sample["trace"] = tracer.metrics(spec["ops"])
        sample["absent"] = tracer.absent
    if spec["queries"]:
        oracle_checks(sample)
    sample["setup_ns"] = IMPORTED_NS - int(sys.argv[1])
    json.dump(sample, sys.stdout)


if __name__ == "__main__":
    main()
