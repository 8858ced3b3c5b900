"""What the benchmark measures: workloads, metrics and bounds.

``python3 perfbench/spec.py`` writes BENCHMARK.json at the repository
root from these definitions; it imports nothing from the package.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 30
SETUP_REPEATS = 3

# Seconds one round of each workload's batch took at the parent commit
# (README, reference figures).  A run makes a fixed number of rounds
# derived from --seconds and these constants, never from the clock, so
# attempted and failed are the same in every run of one --seconds however
# fast the program or the machine is.
ROUND_S = {"forest-belief": 4.0, "wide-tables": 4.4, "det-propagation": 2.4}


def rounds(workload: str, seconds: float) -> int:
    """Timed rounds in a run of about ``seconds`` at the parent."""
    return max(1, round(seconds / ROUND_S[workload]))


def traced_pairs(workload: str, seconds: float) -> int:
    """(untraced, traced) round pairs in a traced run."""
    return max(1, round(seconds / (2 * ROUND_S[workload])))


WORKLOADS = {
    "forest-belief": "belief queries on a 2000-variable forest: min_degree_order does ~80% of "
                     "the work and the kernel almost none, so ordering changes show here only",
    "wide-tables": "evaluate cpe on n=90 f=4 with 30 clauses: the summation kernel does ~99% "
                   "of the work at mf 15-24, so kernel changes show here and graph work does not",
    "det-propagation": "evaluate cpe-d i_bound=2 on n=400 f=4 d=0.9: clause extraction, unit "
                       "propagation and bounded resolution dominate, the kernel is a small share",
}

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("batch_s", "s", "lower", 0.25),
    ("query_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

PER_LAYER = [
    ("fileio.parse_s", "s", "lower"),
    ("graphs.augment_s", "s", "lower"),
    ("graphs.order_s", "s", "lower"),
    ("transforms.extract_s", "s", "lower"),
    ("transforms.extracted_clauses", "count", "higher"),
    ("transforms.belief_s", "s", "lower"),
    ("engine.run_s", "s", "lower"),
    ("engine.eliminate_s", "s", "lower"),
    ("engine.widths_s", "s", "lower"),
    ("engine.table_entries", "count", "lower"),
    ("engine.peak_alloc_mb", "MB", "lower"),
    ("engine.mf", "count", "lower"),
    ("engine.width_static", "count", "lower"),
    ("engine.width_posthoc", "count", "lower"),
    ("engine.buckets_summed", "count", "lower"),
    ("engine.buckets_observed", "count", "higher"),
    ("resolution.derived_clauses", "count", "lower"),
    ("resolution.derived_units", "count", "higher"),
    ("resolution.unit_yield", "ratio", "higher"),
    ("unaccounted_s", "s", "lower"),
    ("trace.batch_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
