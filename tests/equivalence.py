"""Equivalence run: what a refactor changed, over one fixed recipe.

Each instance seed s draws, from ``random.Random(s)``, a network
``gen_network(n, f, d, s)`` with n in 3-40, f in 1-4 and d in
{0, 0.1, 0.3, 0.6, 0.9}, a query ``gen_query(net, c, e, s)`` with c in
0-5 and e in 0-n/2 (``extract_clauses(net)`` conjoined when s is a
multiple of 5), and 3 belief variables.  cpe, cpe-d and hidden each
run under the default config, ``i_bound=2`` and
``dynamic_reorder=False``.  Every output is one line in one section:

* evaluate: the stats of each ``evaluate``, every field but the
  timings and the trace, by repr;
* trace: the bucket trace of each ``evaluate``;
* belief: the repr of each belief answer with its logs
  (``transforms._belief``);
* requisite: for each belief run, each ``transforms._requisite`` call,
  "cut" when it returned a part and "fallback" when it returned None.

After the lines comes one sha256 per section, so two checkouts can be
compared by their last lines and, where those differ, diffed line by
line:

    PYTHONPATH=src python tests/equivalence.py --count 3000 > eq.txt
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import random
from typing import Iterator

from cnfbelief import EngineConfig, evaluate, extract_clauses, gen_network, gen_query
from cnfbelief import transforms

SECTIONS = ("evaluate", "trace", "belief", "requisite")
CONFIGS = (EngineConfig(), EngineConfig(i_bound=2), EngineConfig(dynamic_reorder=False))
ALGS = ("cpe", "cpe-d", "hidden")
UNHASHED = {"elapsed", "extract_s", "propagate_s", "trace"}


def instance(seed: int):
    """The network, query and belief variables of instance ``seed``."""
    rng = random.Random(seed)
    n, f = rng.randint(3, 40), rng.randint(1, 4)
    net = gen_network(n, f, rng.choice((0, 0.1, 0.3, 0.6, 0.9)), seed)
    phi = gen_query(net, rng.randint(0, 5), rng.randint(0, n // 2), seed)
    if seed % 5 == 0:
        phi = phi.conjoin(extract_clauses(net))
    return net, phi, rng.sample(range(n), 3)


def _attempt(call):
    try:
        return call(), None
    except Exception as exc:  # a refusal is an output too
        return None, f"error {type(exc).__name__}: {exc}"


def lines(start: int, count: int) -> Iterator[tuple[str, str]]:
    """(section, line) for every output of seeds start .. start+count-1."""
    requisite = transforms._requisite
    calls: list[str] = []

    def recording(*args):
        part = requisite(*args)
        calls.append("fallback" if part is None else "cut")
        return part

    transforms._requisite = recording
    try:
        for seed in range(start, start + count):
            net, phi, variables = instance(seed)
            for i, cfg in enumerate(CONFIGS):
                for alg in ALGS:
                    key = f"{seed} {i} {alg}"
                    stats, error = _attempt(lambda: evaluate(net, phi, alg, cfg)[1])
                    if error:
                        yield "evaluate", f"{key} {error}"
                    else:
                        fields = [(f.name, getattr(stats, f.name))
                                  for f in dataclasses.fields(stats) if f.name not in UNHASHED]
                        yield "evaluate", f"{key} {fields!r}"
                        for entry in stats.trace:
                            yield "trace", f"{key} {entry.format()}"
                    for var in variables:
                        calls.clear()
                        answer, error = _attempt(
                            lambda: transforms._belief(net, phi, var, alg, cfg))
                        yield "belief", f"{key} {var} {error or repr(answer)}"
                        for call in calls:
                            yield "requisite", f"{key} {var} {call}"
    finally:
        transforms._requisite = requisite


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--start", type=int, default=0, help="first instance seed")
    parser.add_argument("--count", type=int, default=3000, help="number of instances")
    args = parser.parse_args()
    digests = {section: hashlib.sha256() for section in SECTIONS}
    counts = dict.fromkeys(SECTIONS, 0)
    for section, line in lines(args.start, args.count):
        print(section, line)
        digests[section].update(line.encode() + b"\n")
        counts[section] += 1
    for section in SECTIONS:
        print(f"sha256 {section} {digests[section].hexdigest()} lines {counts[section]}")


if __name__ == "__main__":
    main()
