"""Benchmark launcher.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs each workload in a process of its own (so peak_rss_mb belongs to
that workload alone), with the BLAS/OpenMP thread pools capped at the
CPUs this process may use and an address-space limit, so that an
instance sized wrongly fails with MemoryError instead of taking the
machine's memory.  The last line of standard output is the result as
one JSON object.  The package is imported from ``src/`` of the checkout
this file sits in; without it the launcher exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ADDRESS_SPACE_CAP = 4 << 30
WORKER_TIMEOUT_S = 175


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def run_worker(workload: str, seed: int, seconds: int, trace: int, capture: bool):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: str(len(os.sched_getaffinity(0))) for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), str(trace)]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, preexec_fn=_limit_memory,
                          stdout=subprocess.PIPE if capture else None, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"error: {workload} ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1, None
    return proc.returncode, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cnfbelief" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'cnfbelief'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_worker(args.workload, args.seed, args.seconds, args.trace, capture=False)[0]

    # every workload in turn; the last line sums the counts and prefixes
    # each metric with its workload
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec.WORKLOADS:
        code, out = run_worker(name, args.seed, args.seconds, args.trace, capture=True)
        sys.stdout.write(out or "")
        if code != 0:
            return code
        result = json.loads(out.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
