"""One workload in one process: set-up, a fixed number of timed or
traced rounds, checks, and the result line.  run.py starts it with the environment it needs;
run it through run.py.

Usage: worker.py <workload> <seed> <seconds> <trace 0|1>
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# causes that mean the program answered, and answered wrongly
WRONG = {"wrong", "not-a-probability", "changed-between-rounds"}


def timed_round(wl, ops):
    answers, times = [], []
    gc.collect()
    start = perf_counter()
    for op in ops:
        t = perf_counter()
        try:
            answer = wl.run(op)
        except Exception as exc:  # the operation failed; judged below
            answer = exc
        times.append(perf_counter() - t)
        answers.append(answer)
    return perf_counter() - start, times, answers


def traced_round(wl, ops, tr, rnd: int):
    """The same calls as timed_round, with the program's layer functions
    wrapped in span-recording ones for the round's length."""
    tr.round = rnd
    answers = []
    gc.collect()
    with tr.installed():
        start = perf_counter()
        for op in ops:
            try:
                with tr.operation(f"r{rnd}/{op.label}"):
                    answer = wl.run(op)
            except Exception as exc:  # the operation failed; judged below
                answer = exc
            answers.append(answer)
        wall = perf_counter() - start
    return wall, answers


def judge(wl, ops, rounds) -> Counter:
    """Failure causes over every round: an exception's type, undefined,
    or a wrong answer.  Every round must repeat the first one's answers."""
    causes: Counter = Counter()
    shown = set()
    for answers in rounds:
        for op, answer, first in zip(ops, answers, rounds[0]):
            if isinstance(answer, Exception):
                cause = type(answer).__name__
                if cause not in shown:
                    shown.add(cause)
                    traceback.print_exception(answer, file=sys.stderr)
            else:
                cause = wl.judge(op, answer)
                if cause is None and answer != first:
                    cause = "changed-between-rounds"
            if cause is not None:
                causes[cause] += 1
    return causes


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    t0 = perf_counter()
    import cnfbelief
    import_s = perf_counter() - t0
    if Path(cnfbelief.__file__).resolve().parent != ROOT / "src" / "cnfbelief":
        print(f"error: imported cnfbelief from {cnfbelief.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    import spec
    from tracing import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    setup_times = []
    for _ in range(spec.SETUP_REPEATS):
        gc.collect()
        t = perf_counter()
        ops = wl.setup(seed)
        setup_times.append(perf_counter() - t)

    rounds = []
    if not trace:
        walls, op_times = [], []
        for _ in range(spec.rounds(name, seconds)):
            wall, times, answers = timed_round(wl, ops)
            walls.append(wall)
            op_times += times
            rounds.append(answers)
        print("round walls: " + " ".join(f"{w:.3f}" for w in walls))
        metrics = {
            "batch_s": statistics.median(walls),
            "query_p50_s": statistics.median(op_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": import_s + statistics.median(setup_times),
        }
        units = {n: u for n, u, _, _ in spec.END_TO_END}
    else:
        tr = Tracer()
        untraced, traced = [], []
        for rnd in range(spec.traced_pairs(name, seconds)):
            wall, _, answers = timed_round(wl, ops)
            untraced.append(wall)
            rounds.append(answers)
            wall, answers = traced_round(wl, ops, tr, rnd)
            traced.append(wall)
            rounds.append(answers)
        print("round walls untraced: " + " ".join(f"{w:.3f}" for w in untraced)
              + "; traced: " + " ".join(f"{w:.3f}" for w in traced))
        alloc = Tracer(alloc=True)
        rounds.append(traced_round(wl, ops, alloc, 0)[1])
        tr.write(HERE / "out" / f"spans-{name}-seed{seed}.jsonl")
        units = {n: u for n, u, _ in spec.PER_LAYER}
        metrics = per_layer_metrics(tr, alloc.peak_alloc, traced, untraced, list(units))

    causes = judge(wl, ops, rounds)
    try:
        problems = wl.self_test(ops, rounds[0]) + wl.invariants(ops, rounds[0], seed)
    except Exception as exc:  # a check that cannot run is a failed check
        traceback.print_exception(exc, file=sys.stderr)
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    attempted = len(ops) * len(rounds)
    failed = sum(causes.values())
    detail = ", ".join(f"{c}: {k}" for c, k in sorted(causes.items()))
    print(f"{name} seed={seed} trace={int(trace)}: {len(rounds)} rounds of {len(ops)} operations; "
          f"attempted {attempted}, failed {failed}" + (f" ({detail})" if detail else ""))
    for metric, value in metrics.items():
        print(f"  {metric:<30} {value:>16.6f} {units[metric]}")
    result = {
        "correct": not problems and not (WRONG & causes.keys()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
