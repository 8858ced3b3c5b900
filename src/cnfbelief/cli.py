"""Command-line front end.

Subcommands: eval (probability of a CNF file under a network file),
belief (conditional distribution of one variable), gen (write a random
instance), bench (run a JSON-described batch and write a CSV).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .engine import EngineConfig
from .fileio import (
    ParseError,
    parse_dimacs,
    parse_network,
    parse_order,
    serialize_cnf,
    serialize_network,
)
from .generator import RNG_ALGORITHM, gen_network, gen_query
from .model import ModelError
from .transforms import ALGORITHMS, _belief, evaluate

BENCH_COLUMNS = ["instance", "alg", "i_bound", "time_s", "mf", "C", "U", "F", "O",
                 "width_static", "width_posthoc", "log_result", "result"]


def format_probability(p: float, log_p: float = -math.inf) -> str:
    """Fixed 12 significant digits, e.g. 0.680000000000.  Below the
    smallest normal float, where exp lost the digits or underflowed to
    0, a finite natural log ``log_p`` gives them instead, as a mantissa
    and a base-10 exponent (1.00000000000e-400); a probability that is
    exactly 0 (``log_p`` -inf) prints 0.00000000000."""
    if p >= sys.float_info.min or log_p == -math.inf:
        return format(p, "#.12g")
    log10 = log_p / math.log(10)
    exponent = math.floor(log10)
    mantissa = format(10 ** (log10 - exponent), ".11f")
    if mantissa.startswith("10"):  # rounded up to the next power of 10
        mantissa, exponent = format(1, ".11f"), exponent + 1
    return f"{mantissa}e{exponent}"


def _i_bound(text: str):
    if text == "unbounded":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"i-bound must be an integer or 'unbounded', got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("i-bound must be >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnfbelief",
        description="Exact probability of CNF queries over binary belief networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--net", required=True, help="network file")
    common.add_argument("--cnf", required=True, help="DIMACS query file")
    common.add_argument("--alg", choices=ALGORITHMS, default="cpe")
    common.add_argument("--i-bound", type=_i_bound, default=0, metavar="N|unbounded",
                        help="resolvent size cap for in-bucket resolution (default 0: off)")
    common.add_argument("--no-reorder", action="store_true",
                        help="disable promotion of unit-clause buckets")

    p_eval = sub.add_parser("eval", parents=[common],
                            help="print P(cnf) under the network")
    p_eval.add_argument("--order-file",
                        help="explicit ordering, first-to-last (cpe and cpe-d only)")
    p_eval.add_argument("--trace", action="store_true", help="print the bucket log first")
    p_eval.add_argument("--stats", choices=["human", "csv", "json"],
                        help="print run statistics after the probability")
    p_eval.set_defaults(func=_cmd_eval)

    p_belief = sub.add_parser("belief", parents=[common],
                              help="print P(var | cnf) for one variable")
    p_belief.add_argument("--var", type=int, required=True, help="variable id (0-based)")
    p_belief.set_defaults(func=_cmd_belief)

    p_gen = sub.add_parser("gen", help="write a random <prefix>.net and <prefix>.cnf")
    p_gen.add_argument("--vars", type=int, required=True)
    p_gen.add_argument("--max-family", type=int, default=3,
                       help="max CPT family size incl. the child (default 3)")
    p_gen.add_argument("--det-frac", type=float, default=0.0,
                       help="probability that a CPT row is deterministic (default 0)")
    p_gen.add_argument("--clauses", type=int, default=0, help="ternary clause count")
    p_gen.add_argument("--obs", type=int, default=0, help="observation count")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-prefix", default="instance")
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="run a JSON batch spec, write a CSV")
    p_bench.add_argument("--spec", required=True, help="JSON file, see README")
    p_bench.add_argument("--csv", required=True, help="output CSV path")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def _load_inputs(args):
    net = parse_network(Path(args.net).read_text())
    phi = parse_dimacs(Path(args.cnf).read_text())
    cfg = EngineConfig(i_bound=args.i_bound, dynamic_reorder=not args.no_reorder)
    return net, phi, cfg


def _cmd_eval(args) -> int:
    net, phi, cfg = _load_inputs(args)
    ordering = None
    if args.order_file:
        ordering = parse_order(Path(args.order_file).read_text(), net.n)
    if args.trace and args.alg == "brute":
        print("error: --trace is not available for --alg brute", file=sys.stderr)
        return 2
    prob, stats = evaluate(net, phi, args.alg, cfg, ordering)
    if args.trace:
        for entry in stats.trace:
            print(entry.format())
    print(format_probability(prob, stats.log_result))
    if args.stats:
        _print_stats(stats, args.stats)
    return 0


def _formatted(stats) -> dict:
    """``stats.as_dict()`` as printed: result to 12 significant
    digits (from log_result where it underflows), time_s to the
    millisecond."""
    values = stats.as_dict()
    values["result"] = format_probability(values["result"], stats.log_result)
    values["time_s"] = f"{values['time_s']:.3f}"
    return values


def _print_stats(stats, mode: str) -> None:
    """Print ``stats.as_dict()``; json adds the pre-pass timings
    ``extract_s`` and ``propagate_s``, then json and human add
    ``entries_static``, ``forced`` and ``log_result`` (null in JSON,
    -inf in human, at probability 0)."""
    log_result = stats.log_result
    if mode == "json":
        values = stats.as_dict()
        values["extract_s"] = stats.extract_s
        values["propagate_s"] = stats.propagate_s
        values["entries_static"] = stats.entries_static
        values["forced"] = stats.forced
        values["log_result"] = log_result if math.isfinite(log_result) else None
        print(json.dumps(values))
        return
    shown = _formatted(stats)
    if mode == "csv":
        keys = list(shown)
        print(",".join(keys))
        print(",".join(str(shown[k]) for k in keys))
    else:
        shown["entries_static"] = stats.entries_static
        shown["forced"] = stats.forced
        shown["log_result"] = f"{log_result:.12g}"
        print(" ".join(f"{k}={shown[k]}" for k in shown if k != "result"))


def _cmd_belief(args) -> int:
    net, phi, cfg = _load_inputs(args)
    found = _belief(net, phi, args.var, args.alg, cfg)
    if found is None:
        print("undefined (the query has probability 0)")
        return 0
    for value, (p, log_p) in enumerate(zip(*found)):
        print(f"P(var {args.var} = {value} | cnf) = {format_probability(p, log_p)}")
    return 0


def _cmd_gen(args) -> int:
    net = gen_network(args.vars, args.max_family, args.det_frac, args.seed)
    phi = gen_query(net, args.clauses, args.obs, args.seed + 1)
    params = (f"n={args.vars} f={args.max_family} d={args.det_frac} "
              f"c={args.clauses} e={args.obs} seed={args.seed}")
    header = [params, f"rng {RNG_ALGORITHM}"]
    net_path = Path(args.out_prefix + ".net")
    cnf_path = Path(args.out_prefix + ".cnf")
    net_path.write_text(serialize_network(net, header=header))
    cnf_path.write_text(serialize_cnf(phi, n_vars=net.n, header=header))
    print(net_path)
    print(cnf_path)
    return 0


def _cmd_bench(args) -> int:
    spec = json.loads(Path(args.spec).read_text())
    if not isinstance(spec, dict):
        raise ValueError("bench spec must be a JSON object")
    batches = spec["batches"]
    algorithms = spec["algorithms"]
    for key, items in (("batches", batches), ("algorithms", algorithms)):
        if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
            raise ValueError(f"bench spec {key} must be a list of objects")
    for batch in batches:
        if not isinstance(batch["seeds"], list):
            raise ValueError(f"bench batch seeds must be a list, got {batch['seeds']!r}")
    rows = []
    for batch in batches:
        name = batch.get("name") or (
            f"n{batch['n']}f{batch['f']}d{batch['d']}"
            f"c{batch.get('c', 0)}e{batch.get('e', 0)}")
        for seed in batch["seeds"]:
            net = gen_network(batch["n"], batch["f"], batch["d"], seed)
            phi = gen_query(net, batch.get("c", 0), batch.get("e", 0), seed + 1)
            for entry in algorithms:
                alg = entry["alg"]
                bound = entry.get("i_bound", 0)
                if bound == "unbounded":
                    bound = None
                cfg = EngineConfig(i_bound=bound,
                                   dynamic_reorder=entry.get("reorder", True))
                _, stats = evaluate(net, phi, alg, cfg)
                if alg in ("cpe", "cpe-d"):
                    bound_cell = "unbounded" if bound is None else str(bound)
                else:
                    bound_cell = "-"
                rows.append({"instance": f"{name}-s{seed}", "alg": alg,
                             "i_bound": bound_cell, **_formatted(stats),
                             "log_result": f"{stats.log_result:.12g}"})
    with open(args.csv, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=BENCH_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    print(f"{len(rows)} rows -> {args.csv}")
    return 0


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ParseError, ModelError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # ResourceLimitError, or any allocation that fails
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())
