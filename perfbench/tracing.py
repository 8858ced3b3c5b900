"""Spans recorded around calls into the package's layers, and the
per-layer metrics derived from them.

The traced run calls the program exactly as the timed run does.  For the
length of a traced round, ``Tracer.installed`` replaces the functions
named in ``TRACED`` with span-recording wrappers, in every module of the
package that holds them, so the program's own calls between its layers
(``belief_given_cnf`` -> ``evaluate`` -> ``extract_clauses``,
``engine._execute`` -> ``augmented_graph`` / ``min_degree_order``) are
timed from outside, wherever the program makes them.  ``_execute`` is
the one private name: it is the function ``elim_cpe`` and ``run_trace``
share, and the only one that hands back the bucket trace.  Spans are
kept in memory and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter

from cnfbelief import engine, fileio, graphs, transforms

# (module that defines it, function name) -> span name
TRACED = {
    (fileio, "parse_network"): "fileio.parse_network",
    (fileio, "parse_dimacs"): "fileio.parse_dimacs",
    (transforms, "belief_given_cnf"): "transforms.belief_given_cnf",
    (transforms, "evaluate"): "transforms.evaluate",
    (transforms, "extract_clauses"): "transforms.extract_clauses",
    (graphs, "augmented_graph"): "graphs.augmented_graph",
    (graphs, "min_degree_order"): "graphs.min_degree_order",
    (engine, "_execute"): "engine.execute",
}
EXECUTE = "engine.execute"
ELIMINATE = "engine.eliminate"

# span name -> the per-layer metric its length adds to
SPAN_METRIC = {
    "fileio.parse_network": "fileio.parse_s",
    "fileio.parse_dimacs": "fileio.parse_s",
    "graphs.augmented_graph": "graphs.augment_s",
    "graphs.min_degree_order": "graphs.order_s",
    "transforms.extract_clauses": "transforms.extract_s",
    "transforms.belief_given_cnf": "transforms.belief_s",
    ELIMINATE: "engine.eliminate_s",
}
OPERATION = "operation"


class Tracer:
    """Collects spans and engine counts, one traced round at a time.

    A span is a dict: id, name, start and end (seconds since the tracer
    was made), parent (a span id, or None for an operation), op (the
    operation's label) and round.  With ``alloc`` set, each
    ``engine._execute`` call also runs under tracemalloc and only its
    peak is kept.
    """

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list[dict] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.peak_alloc = 0
        self.round = 0
        self._open: list[int] = []
        self._op = None
        self._t0 = perf_counter()

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "start": perf_counter() - self._t0,
                  "end": None, "parent": self._open[-1] if self._open else None,
                  "op": self._op, "round": self.round}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter() - self._t0
            self._open.pop()

    @contextmanager
    def operation(self, label: str):
        self._op = label
        with self.span(OPERATION):
            yield

    @contextmanager
    def installed(self):
        """Wrap every function in TRACED, in each loaded module of the
        package that holds it, and put the originals back on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cnfbelief" or name.startswith("cnfbelief.")]
        saved = []
        for (home, name), span_name in TRACED.items():
            original = getattr(home, name)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, span_name: str, fn):
        if span_name == EXECUTE:
            return self._wrap_execute(fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(span_name):
                result = fn(*args, **kwargs)
            if span_name == "transforms.extract_clauses":
                self.count("transforms.extracted_clauses", len(result))
            return result
        return traced

    def _wrap_execute(self, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            if self.alloc:
                tracemalloc.start()
            try:
                with self.span(EXECUTE) as record:
                    prob, stats, entries = fn(*args, **kwargs)
            finally:
                if self.alloc:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            self._place_eliminate(record, stats.elapsed)
            self.add_run(stats, entries)
            return prob, stats, entries
        return traced

    def _place_eliminate(self, parent: dict, duration: float) -> None:
        """The elimination pass as a child of its _execute span.  The
        program reports its length (RunStats.elapsed) but not its start;
        it starts after the ordering, so it is placed right after the
        last child recorded so far."""
        children = [s for s in self.spans[parent["id"] + 1:] if s["parent"] == parent["id"]]
        start = max([parent["start"]] + [s["end"] for s in children])
        self.spans.append({"id": len(self.spans), "name": ELIMINATE, "start": start,
                           "end": start + duration, "parent": parent["id"],
                           "op": parent["op"], "round": parent["round"], "placed": True})

    def count(self, name: str, value: float) -> None:
        self.counts[self.round][name] += value

    def add_run(self, stats, entries) -> None:
        c = self.counts[self.round]
        summed = [e for e in entries if e.action == "sum"]
        c["engine.table_entries"] += sum(2 ** (len(e.scope) + 1) for e in summed)
        c["engine.buckets_summed"] += len(summed)
        c["engine.buckets_observed"] += stats.observed
        c["resolution.derived_clauses"] += stats.derived_clauses
        c["resolution.derived_units"] += stats.derived_units
        for key, value in (("engine.mf", stats.mf), ("engine.width_static", stats.width_static),
                           ("engine.width_posthoc", stats.width_posthoc)):
            if value is not None:
                c[key] = max(c[key], value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def layer_times(spans: list[dict]) -> dict[int, dict[str, float]]:
    """Per round: summed span time for each layer metric; the engine's
    own time (``_execute`` spans less the graph calls made inside them);
    and the operation time no direct child span of the operation covers."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        length = s["end"] - s["start"]
        row = out[s["round"]]
        if s["name"] in SPAN_METRIC:
            row[SPAN_METRIC[s["name"]]] += length
        if s["name"] == OPERATION:
            row["unaccounted_s"] += length
            continue
        parent = spans[s["parent"]]["name"]
        if s["name"] == EXECUTE:
            row["engine.run_s"] += length
        elif parent == EXECUTE and s["name"].startswith("graphs."):
            row["engine.run_s"] -= length
        if parent == OPERATION:
            row["unaccounted_s"] -= length
    for row in out.values():
        row["engine.widths_s"] = row["engine.run_s"] - row["engine.eliminate_s"]
    return out


def per_layer_metrics(tr: Tracer, peak_alloc: int, traced_walls: list[float],
                      untraced_walls: list[float], names: list[str]) -> dict[str, float]:
    """Median over traced rounds of each time, counts of one round (every
    round does the same work), and the tracing overhead."""
    times = layer_times(tr.spans)
    counts = tr.counts[0]
    metrics = {}
    for name in names:
        if name in counts:
            metrics[name] = counts[name]
        elif any(name in row for row in times.values()):
            metrics[name] = statistics.median(row[name] for row in times.values())
        else:
            metrics[name] = 0.0
    derived = counts.get("resolution.derived_clauses", 0)
    metrics["resolution.unit_yield"] = counts.get("resolution.derived_units", 0) / derived if derived else 0.0
    traced, untraced = statistics.median(traced_walls), statistics.median(untraced_walls)
    metrics["engine.peak_alloc_mb"] = peak_alloc / 2 ** 20
    metrics["trace.batch_s"] = traced
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return metrics
