"""Command-line front end.

Subcommands: eval (probability of a CNF file under a network file),
belief (conditional distribution of one variable), gen (write a random
instance), bench (run a JSON-described batch and write a CSV).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .engine import EngineConfig
from .fileio import ParseError, parse_dimacs, parse_network, serialize_cnf, serialize_network
from .generator import RNG_ALGORITHM, gen_network, gen_query
from .graphs import parse_order
from .model import ModelError
from .transforms import ALGORITHMS, belief_given_cnf, evaluate

BENCH_COLUMNS = ["instance", "alg", "i_bound", "time_s", "mf", "C", "U", "F", "O", "result"]


def format_probability(p: float) -> str:
    """Fixed 12 significant digits, e.g. 0.680000000000."""
    return format(p, "#.12g")


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
    for v in phi.variables():
        if v >= net.n:
            raise ParseError(f"query variable {v + 1} unknown to the network")
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
    print(format_probability(prob))
    if args.stats:
        _print_stats(stats, args.stats)
    return 0


def _print_stats(stats, mode: str) -> None:
    values = stats.as_dict()
    if mode == "json":
        print(json.dumps(values))
        return
    shown = dict(values)
    shown["result"] = format_probability(values["result"])
    shown["time_s"] = f"{values['time_s']:.3f}"
    if mode == "csv":
        keys = list(shown)
        print(",".join(keys))
        print(",".join(str(shown[k]) for k in keys))
    else:
        print(" ".join(f"{k}={shown[k]}" for k in shown if k != "result"))


def _cmd_belief(args) -> int:
    net, phi, cfg = _load_inputs(args)
    if not 0 <= args.var < net.n:
        print(f"error: variable {args.var} outside the network", file=sys.stderr)
        return 1
    dist = belief_given_cnf(net, phi, args.var, args.alg, cfg)
    if dist is None:
        print("undefined (the query has probability 0)")
        return 0
    for value in (0, 1):
        print(f"P(var {args.var} = {value} | cnf) = {format_probability(dist[value])}")
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
    batches = spec["batches"]
    algorithms = spec["algorithms"]
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
                prob, stats = evaluate(net, phi, alg, cfg)
                if alg in ("cpe", "cpe-d"):
                    bound_cell = "unbounded" if bound is None else str(bound)
                else:
                    bound_cell = "-"
                rows.append({
                    "instance": f"{name}-s{seed}",
                    "alg": alg,
                    "i_bound": bound_cell,
                    "time_s": f"{stats.elapsed:.3f}",
                    "mf": stats.mf,
                    "C": stats.derived_clauses,
                    "U": stats.derived_units,
                    "F": stats.extracted,
                    "O": stats.observed,
                    "result": format_probability(prob),
                })
    with open(args.csv, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=BENCH_COLUMNS)
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


def main() -> None:
    sys.exit(run_cli())
