import csv
import json

import pytest

from cnfbelief import serialize_cnf, serialize_network
from cnfbelief.cli import BENCH_COLUMNS, format_probability, run_cli
from cnfbelief.generator import gen_network, gen_query
from cnfbelief.fileio import parse_dimacs, parse_network

from conftest import formula, clause

TRACE_42 = """\
bucket=5 action=sum scope=4,3 derived=
bucket=4 action=sum scope=1,2,3 derived=
bucket=3 action=sum scope=0,1,2 derived=
bucket=1 action=sum scope=0,2 derived=
bucket=2 action=sum scope=0 derived=
bucket=0 action=sum scope= derived=
"""


@pytest.fixture
def two_node_files(tmp_path, net2):
    net_path = tmp_path / "two.net"
    net_path.write_text(serialize_network(net2))
    cnf_path = tmp_path / "aorb.cnf"
    cnf_path.write_text("p cnf 2 1\n1 2 0\n")
    return str(net_path), str(cnf_path)


@pytest.fixture
def six_node_files(tmp_path, pos_net, phi42):
    net_path = tmp_path / "six.net"
    net_path.write_text(serialize_network(pos_net))
    cnf_path = tmp_path / "query.cnf"
    cnf_path.write_text(serialize_cnf(phi42, n_vars=pos_net.n))
    order_path = tmp_path / "d1.order"
    order_path.write_text("0 2 1 3 4 5\n")
    return str(net_path), str(cnf_path), str(order_path)


class TestFormatProbability:
    def test_twelve_significant_digits(self):
        assert format_probability(0.68) == "0.680000000000"
        assert format_probability(1.0) == "1.00000000000"
        assert format_probability(0.0) == "0.00000000000"
        assert format_probability(0.3539500000000001) == "0.353950000000"

    def test_tiny_values_keep_exponent(self):
        assert format_probability(5e-15) == "5.00000000000e-15"


class TestEval:
    def test_basic(self, two_node_files, capsys):
        net, cnf = two_node_files
        assert run_cli(["eval", "--net", net, "--cnf", cnf]) == 0
        assert capsys.readouterr().out == "0.680000000000\n"

    def test_all_algorithms_print_the_same_probability(self, two_node_files, capsys):
        net, cnf = two_node_files
        lines = set()
        for alg in ("cpe", "cpe-d", "hidden", "brute"):
            assert run_cli(["eval", "--net", net, "--cnf", cnf, "--alg", alg]) == 0
            lines.add(capsys.readouterr().out)
        assert lines == {"0.680000000000\n"}

    def test_trace_with_order_file(self, six_node_files, capsys):
        net, cnf, order = six_node_files
        code = run_cli(["eval", "--net", net, "--cnf", cnf,
                        "--order-file", order, "--trace"])
        assert code == 0
        assert capsys.readouterr().out == TRACE_42 + "0.381171500000\n"

    def test_trace_for_every_elimination_algorithm(self, six_node_files, capsys):
        net, cnf, _ = six_node_files
        for alg in ("cpe-d", "hidden"):
            assert run_cli(["eval", "--net", net, "--cnf", cnf, "--alg", alg, "--trace"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[-1] == "0.381171500000"
            assert lines[:-1] and all(line.startswith("bucket=") for line in lines[:-1])

    def test_trace_rejected_for_brute(self, two_node_files, capsys):
        net, cnf = two_node_files
        code = run_cli(["eval", "--net", net, "--cnf", cnf,
                        "--alg", "brute", "--trace"])
        assert code == 2
        assert "--trace" in capsys.readouterr().err

    def test_stats_json(self, six_node_files, capsys):
        net, cnf, order = six_node_files
        code = run_cli(["eval", "--net", net, "--cnf", cnf,
                        "--order-file", order, "--stats", "json"])
        assert code == 0
        prob_line, stats_line = capsys.readouterr().out.splitlines()
        assert prob_line == "0.381171500000"
        stats = json.loads(stats_line)
        assert list(stats) == ["result", "time_s", "mf", "C", "U", "F", "O",
                               "width_static", "width_posthoc"]
        assert stats["mf"] == 3
        assert stats["width_static"] == 3
        assert stats["O"] == 0

    def test_stats_csv(self, two_node_files, capsys):
        net, cnf = two_node_files
        assert run_cli(["eval", "--net", net, "--cnf", cnf, "--stats", "csv"]) == 0
        _, header, row = capsys.readouterr().out.splitlines()
        assert header == "result,time_s,mf,C,U,F,O,width_static,width_posthoc"
        assert row.startswith("0.680000000000,")

    def test_stats_human(self, two_node_files, capsys):
        net, cnf = two_node_files
        assert run_cli(["eval", "--net", net, "--cnf", cnf, "--stats", "human"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert "mf=" in last and "time_s=" in last
        assert "result=" not in last

    def test_i_bound_unbounded(self, six_node_files, capsys):
        net, cnf, _ = six_node_files
        code = run_cli(["eval", "--net", net, "--cnf", cnf,
                        "--i-bound", "unbounded"])
        assert code == 0
        assert capsys.readouterr().out == "0.381171500000\n"

    def test_no_reorder_flag(self, six_node_files, capsys):
        net, cnf, _ = six_node_files
        assert run_cli(["eval", "--net", net, "--cnf", cnf, "--no-reorder"]) == 0
        assert capsys.readouterr().out == "0.381171500000\n"


class TestBelief:
    def test_posterior_lines(self, two_node_files, capsys):
        net, cnf = two_node_files
        assert run_cli(["belief", "--net", net, "--cnf", cnf, "--var", "0"]) == 0
        assert capsys.readouterr().out == (
            "P(var 0 = 0 | cnf) = 0.117647058824\n"
            "P(var 0 = 1 | cnf) = 0.882352941176\n"
        )

    def test_zero_probability_condition(self, tmp_path, net2, capsys):
        net_path = tmp_path / "n.net"
        net_path.write_text(serialize_network(net2))
        cnf_path = tmp_path / "unsat.cnf"
        cnf_path.write_text("p cnf 2 2\n1 0\n-1 0\n")
        code = run_cli(["belief", "--net", str(net_path), "--cnf", str(cnf_path),
                        "--var", "1"])
        assert code == 0
        assert capsys.readouterr().out == "undefined (the query has probability 0)\n"

    def test_variable_out_of_range(self, two_node_files, capsys):
        net, cnf = two_node_files
        assert run_cli(["belief", "--net", net, "--cnf", cnf, "--var", "7"]) == 1
        assert "outside" in capsys.readouterr().err


class TestGen:
    def test_writes_matching_instance(self, tmp_path, capsys):
        prefix = tmp_path / "inst9"
        code = run_cli(["gen", "--vars", "6", "--max-family", "3",
                        "--det-frac", "0.5", "--clauses", "2", "--obs", "1",
                        "--seed", "9", "--out-prefix", str(prefix)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [str(prefix) + ".net", str(prefix) + ".cnf"]
        net = parse_network((tmp_path / "inst9.net").read_text())
        phi = parse_dimacs((tmp_path / "inst9.cnf").read_text())
        wanted = gen_network(6, 3, 0.5, seed=9)
        # order_hint is not part of the file format
        assert (net.n, net.cpts) == (wanted.n, wanted.cpts)
        assert phi == gen_query(net, 2, 1, seed=10)

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        argv = ["gen", "--vars", "8", "--det-frac", "0.25", "--clauses", "3",
                "--obs", "2", "--seed", "4", "--out-prefix"]
        run_cli(argv + [str(tmp_path / "a")])
        run_cli(argv + [str(tmp_path / "b")])
        capsys.readouterr()
        assert (tmp_path / "a.net").read_bytes() == (tmp_path / "b.net").read_bytes()
        assert (tmp_path / "a.cnf").read_bytes() == (tmp_path / "b.cnf").read_bytes()

    def test_headers_record_parameters(self, tmp_path, capsys):
        prefix = tmp_path / "inst"
        run_cli(["gen", "--vars", "4", "--seed", "2", "--out-prefix", str(prefix)])
        capsys.readouterr()
        head = (tmp_path / "inst.net").read_text().splitlines()[:2]
        assert head[0] == "# n=4 f=3 d=0.0 c=0 e=0 seed=2"
        assert head[1] == "# rng python-random-mt19937"


class TestBench:
    SPEC = {
        "batches": [
            {"name": "tiny", "n": 5, "f": 3, "d": 0.5, "c": 2, "e": 1,
             "seeds": [1, 2]},
        ],
        "algorithms": [
            {"alg": "cpe"},
            {"alg": "cpe", "i_bound": "unbounded"},
            {"alg": "cpe-d", "i_bound": 2},
            {"alg": "hidden"},
            {"alg": "brute"},
        ],
    }

    def run_bench(self, tmp_path, capsys, name="out.csv"):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        csv_path = tmp_path / name
        code = run_cli(["bench", "--spec", str(spec_path), "--csv", str(csv_path)])
        assert code == 0
        assert capsys.readouterr().out == f"10 rows -> {csv_path}\n"
        with open(csv_path, newline="") as handle:
            return list(csv.reader(handle))

    def test_csv_shape_and_agreement(self, tmp_path, capsys):
        rows = self.run_bench(tmp_path, capsys)
        assert rows[0] == BENCH_COLUMNS
        body = rows[1:]
        assert len(body) == 10
        instances = {r[0] for r in body}
        assert instances == {"tiny-s1", "tiny-s2"}
        for instance in instances:
            results = {r[-1] for r in body if r[0] == instance}
            assert len(results) == 1, instance
        bounds = {(r[1], r[2]) for r in body}
        assert ("cpe", "0") in bounds
        assert ("cpe", "unbounded") in bounds
        assert ("cpe-d", "2") in bounds
        assert ("hidden", "-") in bounds
        assert ("brute", "-") in bounds

    def test_runs_are_deterministic_up_to_timing(self, tmp_path, capsys):
        first = self.run_bench(tmp_path, capsys, "one.csv")
        second = self.run_bench(tmp_path, capsys, "two.csv")
        time_col = BENCH_COLUMNS.index("time_s")

        def strip(rows):
            return [r[:time_col] + r[time_col + 1:] for r in rows]

        assert strip(first) == strip(second)

    def test_missing_spec_key(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"batches": []}))
        code = run_cli(["bench", "--spec", str(spec_path),
                        "--csv", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_network_file(self, tmp_path, capsys):
        cnf = tmp_path / "q.cnf"
        cnf.write_text("p cnf 1 0\n")
        code = run_cli(["eval", "--net", str(tmp_path / "nope.net"),
                        "--cnf", str(cnf)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_network(self, tmp_path, capsys):
        net = tmp_path / "bad.net"
        net.write_text("vars 1\ncpt 0 2.0\n")
        cnf = tmp_path / "q.cnf"
        cnf.write_text("p cnf 1 0\n")
        assert run_cli(["eval", "--net", str(net), "--cnf", str(cnf)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_query_variable_not_in_network(self, two_node_files, tmp_path, capsys):
        net, _ = two_node_files
        cnf = tmp_path / "big.cnf"
        cnf.write_text("p cnf 5 1\n5 0\n")
        assert run_cli(["eval", "--net", net, "--cnf", str(cnf)]) == 1
        assert "unknown to the network" in capsys.readouterr().err

    def test_bad_order_file(self, two_node_files, tmp_path, capsys):
        net, cnf = two_node_files
        order = tmp_path / "o.txt"
        order.write_text("0 0\n")
        code = run_cli(["eval", "--net", net, "--cnf", cnf,
                        "--order-file", str(order)])
        assert code == 1

    def test_belief_takes_no_order_file(self, six_node_files, capsys):
        net, cnf, order = six_node_files
        code = run_cli(["belief", "--net", net, "--cnf", cnf, "--var", "0",
                        "--order-file", order])
        assert code == 2
        assert "--order-file" in capsys.readouterr().err

    def test_order_file_refused_for_hidden_and_brute(self, six_node_files, capsys):
        net, cnf, order = six_node_files
        for alg in ("hidden", "brute"):
            code = run_cli(["eval", "--net", net, "--cnf", cnf, "--alg", alg,
                            "--order-file", order])
            assert code == 1
            assert "ordering" in capsys.readouterr().err

    def test_unknown_algorithm_is_a_usage_error(self, two_node_files):
        net, cnf = two_node_files
        assert run_cli(["eval", "--net", net, "--cnf", cnf, "--alg", "magic"]) == 2

    def test_bad_i_bound_is_a_usage_error(self, two_node_files):
        net, cnf = two_node_files
        assert run_cli(["eval", "--net", net, "--cnf", cnf,
                        "--i-bound", "-3"]) == 2

    def test_no_arguments(self):
        assert run_cli([]) == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "eval" in capsys.readouterr().out
