"""Golden regression over a fixed generated set.

One sha256 pins the results, log results, statistics and bucket traces
of every evaluator under four engine configurations, so a refactor of
the elimination pass that changes any number, counter or trace line
fails here.  Timing is left out; the result is hashed to 12 significant
digits (its exact float is not), log_result to 10.
"""

import hashlib

from cnfbelief import (
    EngineConfig,
    evaluate,
    extract_clauses,
    gen_network,
    gen_query,
    run_trace,
)

GOLDEN_SHA256 = "5957c88315d32cef9e434f0f76922cbd6f41675838f8f51b8b96a3d76ce8c40a"

CONFIGS = (
    EngineConfig(),
    EngineConfig(i_bound=2),
    EngineConfig(i_bound=None),
    EngineConfig(dynamic_reorder=False),
)


def _stats_line(prob, stats) -> str:
    fields = {k: v for k, v in stats.as_dict().items() if k not in ("time_s", "result")}
    return f"p={prob:.12g} log={stats.log_result:.10g} {sorted(fields.items())}"


def _golden_lines():
    for k in range(60):
        net = gen_network(6 + k % 30, 2 + k % 3, (0, .5, .9)[k % 3], 3000 + k)
        phi = gen_query(net, c=k % 7, e=k % 5, seed=4000 + k)
        extended = phi.conjoin(extract_clauses(net))
        for i, cfg in enumerate(CONFIGS):
            for alg in ("cpe", "cpe-d", "hidden"):
                prob, stats = evaluate(net, phi, alg, cfg)
                yield f"{k} {i} {alg} {_stats_line(prob, stats)}"
                if alg != "cpe":  # cpe's trace is run_trace's, below
                    for entry in stats.trace:
                        yield entry.format()
            for name, query in (("phi", phi), ("phi+extracted", extended)):
                prob, stats, trace = run_trace(net, query, cfg=cfg)
                yield f"{k} {i} trace {name} {_stats_line(prob, stats)}"
                for entry in trace:
                    yield entry.format()


def golden_digest() -> str:
    digest = hashlib.sha256()
    for line in _golden_lines():
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_golden_runs_hash():
    assert golden_digest() == GOLDEN_SHA256


if __name__ == "__main__":
    # print the hashed lines, so two checkouts can be diffed line by line:
    # PYTHONPATH=src python tests/test_golden_runs.py > golden.txt
    for line in _golden_lines():
        print(line)
