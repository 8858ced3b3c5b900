import csv
import json
import math

import pytest

from cnfbelief import engine, serialize_cnf, serialize_network, transforms
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

    def test_below_the_normal_floats_the_log_gives_the_digits(self):
        assert format_probability(0.0, 400 * math.log(0.1)) == "1.00000000000e-400"
        assert format_probability(0.0, math.log(2.5) - 500 * math.log(10)) == "2.50000000000e-500"
        # 0.1**320 is subnormal: exp keeps only about 5 of its digits
        assert format_probability(math.exp(320 * math.log(0.1)),
                                  320 * math.log(0.1)) == "1.00000000000e-320"
        assert format_probability(0.0, math.log(9.9999999999999) - 400 * math.log(10)) == (
            "1.00000000000e-399")
        # 10**(1 - 1e-13) rounds to 10.00000000000 at 11 decimals
        assert format_probability(0.0, (-399 - 1e-13) * math.log(10)) == "1.00000000000e-399"
        assert format_probability(0.0, -math.inf) == "0.00000000000"


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

    def test_trace_leaves_out_barren_variables(self, six_node_files, tmp_path, capsys):
        # B or C: only A, B and C are ancestors; each order file is
        # projected onto them and decides which of B and C goes first
        net, _, order = six_node_files
        cnf = tmp_path / "b_or_c.cnf"
        cnf.write_text("p cnf 6 1\n2 3 0\n")
        natural = tmp_path / "natural.order"
        natural.write_text("0 1 2 3 4 5\n")
        expected = {
            order: "bucket=1 action=sum scope=0,2 derived=\n"
                   "bucket=2 action=sum scope=0 derived=\n",
            str(natural): "bucket=2 action=sum scope=0,1 derived=\n"
                          "bucket=1 action=sum scope=0 derived=\n",
        }
        for path, lines in expected.items():
            assert run_cli(["eval", "--net", net, "--cnf", str(cnf),
                            "--order-file", path, "--trace"]) == 0
            assert capsys.readouterr().out == (
                lines + "bucket=0 action=sum scope= derived=\n0.874000000000\n")

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
                               "width_static", "width_posthoc", "extract_s", "propagate_s",
                               "entries_static", "forced", "log_result"]
        # cpe runs neither pre-pass phase
        assert stats["extract_s"] == stats["propagate_s"] == 0.0
        assert stats["log_result"] == pytest.approx(math.log(0.3811715), rel=1e-9)
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
        assert last.endswith(f" log_result={math.log(0.68):.12g}")
        assert not any(item.startswith("result=") for item in last.split())

    def test_entries_static_json_and_human(self, two_node_files, capsys):
        # the ordering eliminates one of the two adjacent variables with
        # the other as its neighbour (2**2 entries), then the other (2**1)
        net, cnf = two_node_files
        assert run_cli(["eval", "--net", net, "--cnf", cnf, "--stats", "json"]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["entries_static"] == 6
        assert run_cli(["eval", "--net", net, "--cnf", cnf, "--stats", "human"]) == 0
        assert " entries_static=6 forced=0 log_result=" in capsys.readouterr().out.splitlines()[-1]

    def test_forced_json_and_human(self, tmp_path, hyb_net, query_not_g, capsys):
        # not G forces F and D to 0 through G's extracted OR clauses
        net, cnf = tmp_path / "hyb.net", tmp_path / "notg.cnf"
        net.write_text(serialize_network(hyb_net))
        cnf.write_text(serialize_cnf(query_not_g, n_vars=hyb_net.n))
        args = ["eval", "--net", str(net), "--cnf", str(cnf), "--stats"]
        for alg, forced in (("cpe-d", 3), ("cpe", 0)):
            assert run_cli(args + ["json", "--alg", alg]) == 0
            values = json.loads(capsys.readouterr().out.splitlines()[-1])
            assert list(values)[-5:] == ["extract_s", "propagate_s", "entries_static",
                                         "forced", "log_result"]
            assert values["forced"] == forced
            assert (values["extract_s"] > 0.0) == (values["propagate_s"] > 0.0) == (alg == "cpe-d")
            assert run_cli(args + ["human", "--alg", alg]) == 0
            assert f" forced={forced} log_result=" in capsys.readouterr().out.splitlines()[-1]

    def test_log_result_at_probability_zero(self, two_node_files, tmp_path, capsys):
        net, _ = two_node_files
        cnf = tmp_path / "contra.cnf"
        cnf.write_text("p cnf 2 2\n1 0\n-1 0\n")
        assert run_cli(["eval", "--net", net, "--cnf", str(cnf), "--stats", "json"]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["log_result"] is None
        assert run_cli(["eval", "--net", net, "--cnf", str(cnf), "--stats", "human"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(" log_result=-inf")

    def test_underflowed_probability_prints_from_its_log(self, tmp_path, capsys):
        # P = 0.1**400: 400 roots, each observed at 1
        net = tmp_path / "roots.net"
        net.write_text("vars 400\n" + "".join(f"cpt {i} 0.1\n" for i in range(400)))
        cnf = tmp_path / "roots.cnf"
        cnf.write_text("p cnf 400 400\n" + "".join(f"{i} 0\n" for i in range(1, 401)))
        contra = tmp_path / "contra.cnf"
        contra.write_text("p cnf 400 401\n" + "".join(f"{i} 0\n" for i in range(1, 401))
                          + "-1 0\n")
        for alg in ("cpe", "cpe-d", "hidden"):
            assert run_cli(["eval", "--net", str(net), "--cnf", str(cnf), "--alg", alg]) == 0
            assert capsys.readouterr().out == "1.00000000000e-400\n", alg
            assert run_cli(["eval", "--net", str(net), "--cnf", str(contra), "--alg", alg]) == 0
            assert capsys.readouterr().out == "0.00000000000\n", alg

    def test_i_bound_unbounded(self, six_node_files, capsys):
        net, cnf, _ = six_node_files
        code = run_cli(["eval", "--net", net, "--cnf", cnf,
                        "--i-bound", "unbounded"])
        assert code == 0
        assert capsys.readouterr().out == "0.381171500000\n"

    def test_bounded_resolution_keeps_the_probability(self, tmp_path, capsys):
        prefix = str(tmp_path / "det")
        assert run_cli(["gen", "--vars", "8", "--det-frac", "0.5", "--clauses", "3",
                        "--seed", "2", "--out-prefix", prefix]) == 0
        capsys.readouterr()
        runs = {}
        for bound in ("0", "2"):
            assert run_cli(["eval", "--net", prefix + ".net", "--cnf", prefix + ".cnf",
                            "--alg", "cpe-d", "--i-bound", bound, "--stats", "json"]) == 0
            prob, stats = capsys.readouterr().out.splitlines()
            runs[bound] = prob, json.loads(stats)["C"]
        assert runs["2"][0] == runs["0"][0] == "0.743088246885"
        # at i-bound 2 resolution derives clauses that i-bound 0 does not
        assert runs["2"][1] > runs["0"][1]

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

    def test_posterior_below_the_floats_prints_from_its_log(self, tmp_path, capsys):
        # a root with P = 0.5 and 400 children, P(child=1 | root) =
        # (0.9, 0.1), all observed at 1: P(root=1 | cnf) = 9**-400, whose
        # float underflows to 0 while its log stays finite
        net = tmp_path / "star.net"
        net.write_text("vars 401\ncpt 0 0.5\n" + "".join(
            f"parents {i} 0\ncpt {i} 0.9 0.1\n" for i in range(1, 401)))
        cnf = tmp_path / "star.cnf"
        cnf.write_text("p cnf 401 400\n" + "".join(f"{i} 0\n" for i in range(2, 402)))
        want = -400 * math.log10(9)  # the closed form's base-10 log
        assert format_probability(0.0, want * math.log(10)) == "2.00907534575e-382"
        for alg in ("cpe", "cpe-d", "hidden"):
            assert run_cli(["belief", "--net", str(net), "--cnf", str(cnf), "--var", "0",
                            "--alg", alg]) == 0
            assert capsys.readouterr().out == (
                "P(var 0 = 0 | cnf) = 1.00000000000\n"
                "P(var 0 = 1 | cnf) = 2.00907534575e-382\n"), alg
            # the public answer keeps its type: plain floats, the second 0
            dist = transforms.belief_given_cnf(parse_network(net.read_text()),
                                               parse_dimacs(cnf.read_text()), 0, alg)
            assert dist == (1.0, 0.0), alg

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

    def test_negative_variable(self, two_node_files, capsys):
        net, cnf = two_node_files
        assert run_cli(["belief", "--net", net, "--cnf", cnf, "--var", "-1"]) == 1
        assert capsys.readouterr().err == "error: variable -1 outside the network\n"


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
        assert net == gen_network(6, 3, 0.5, seed=9)
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

    @pytest.mark.parametrize("bound", ["2", 1.5, True, -1])
    def test_i_bound_must_be_a_count(self, tmp_path, capsys, bound):
        spec = {"batches": self.SPEC["batches"],
                "algorithms": [{"alg": "cpe", "i_bound": bound}]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        csv_path = tmp_path / "out.csv"
        code = run_cli(["bench", "--spec", str(spec_path), "--csv", str(csv_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: i_bound must be")
        assert not csv_path.exists()

    @pytest.mark.parametrize("flag", ["no", 1])
    def test_reorder_must_be_a_bool(self, tmp_path, capsys, flag):
        spec = {"batches": self.SPEC["batches"],
                "algorithms": [{"alg": "cpe-d", "reorder": flag}]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        csv_path = tmp_path / "out.csv"
        code = run_cli(["bench", "--spec", str(spec_path), "--csv", str(csv_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: dynamic_reorder must be a bool")
        assert not csv_path.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("n", "8", "n must be an int"),
        ("seeds", ["1"], "seed must be an int"),
        ("d", "0.5", "d must be an int or float"),
        ("c", True, "c must be an int"),
    ])
    def test_batch_fields_are_checked(self, tmp_path, capsys, field, value, message):
        batch = {**self.SPEC["batches"][0], field: value}
        spec = {"batches": [batch], "algorithms": [{"alg": "cpe"}]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        csv_path = tmp_path / "out.csv"
        code = run_cli(["bench", "--spec", str(spec_path), "--csv", str(csv_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not csv_path.exists()

    @pytest.mark.parametrize("spec, message", [
        ({"batches": [{"n": 5, "f": 3, "d": 0.5, "seeds": 5}], "algorithms": [{"alg": "cpe"}]},
         "bench batch seeds must be a list"),
        ([{"n": 5, "f": 3, "d": 0.5, "seeds": [1]}], "bench spec must be a JSON object"),
        ({"batches": [{"n": 5, "f": 3, "d": 0.5, "seeds": [1]}], "algorithms": ["cpe"]},
         "bench spec algorithms must be a list of objects"),
    ])
    def test_malformed_spec_is_refused(self, tmp_path, capsys, spec, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        csv_path = tmp_path / "out.csv"
        code = run_cli(["bench", "--spec", str(spec_path), "--csv", str(csv_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not csv_path.exists()

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
        for text in ("p cnf 5 1\n5 0\n", "p cnf 5 2\n1 0\n5 0\n"):
            cnf.write_text(text)
            for alg in ("cpe", "cpe-d", "hidden"):
                assert run_cli(["eval", "--net", net, "--cnf", str(cnf), "--alg", alg]) == 1
                assert capsys.readouterr().err == "error: variable 4 outside the network\n"

    def test_order_file_must_cover_the_network(self, six_node_files, tmp_path, capsys):
        # covers the query's ancestors (A, B, C) but not the network
        net, _, _ = six_node_files
        cnf = tmp_path / "b_or_c.cnf"
        cnf.write_text("p cnf 6 1\n2 3 0\n")
        order = tmp_path / "short.order"
        order.write_text("0 1 2\n")
        assert run_cli(["eval", "--net", net, "--cnf", str(cnf),
                        "--order-file", str(order)]) == 1
        assert "ordering must list each of 0..5" in capsys.readouterr().err

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

    def test_table_too_large_exits_three(self, six_node_files, monkeypatch, capsys):
        def refuse(*args):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(engine, "_bucket_lambda", refuse)
        net, cnf, order = six_node_files
        for cmd in (["eval", "--order-file", order], ["belief", "--var", "0"]):
            assert run_cli([*cmd, "--net", net, "--cnf", cnf]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: bucket ") and "does not fit in memory" in err

    def test_tables_numpy_cannot_address_exit_three(self, tmp_path, capsys):
        # one clause over 70 fair roots spans more axes than numpy allows,
        # and 70 clauses (x_i or y) along an order that eliminates y
        # first a table of more entries than it can index
        net = tmp_path / "roots.net"
        net.write_text("vars 71\n" + "".join(f"cpt {v} 0.5\n" for v in range(71)))
        wide, star = tmp_path / "wide.cnf", tmp_path / "star.cnf"
        wide.write_text("p cnf 70 1\n" + " ".join(map(str, range(1, 71))) + " 0\n")
        star.write_text("p cnf 71 70\n" + "".join(f"{v} 71 0\n" for v in range(1, 71)))
        order = tmp_path / "y_first.order"
        order.write_text(" ".join(map(str, range(71))) + "\n")
        along = ["--order-file", str(order), "--no-reorder"]
        runs = [(wide, alg, []) for alg in ("cpe", "cpe-d", "hidden")]
        runs += [(star, alg, along) for alg in ("cpe", "cpe-d")]
        for cnf, alg, extra in runs:
            code = run_cli(["eval", "--net", str(net), "--cnf", str(cnf), "--alg", alg, *extra])
            err = capsys.readouterr().err
            assert code == 3, (cnf.name, alg, err)
            assert err.startswith("error: bucket ") and err.count("\n") == 1, (cnf.name, alg, err)

    @pytest.mark.parametrize("alg, stage", [("cpe-d", "_prime_rows"),
                                            ("hidden", "hidden_embed")])
    def test_any_allocation_failure_exits_three(self, six_node_files, monkeypatch, capsys,
                                                alg, stage):
        # a bare MemoryError outside the kernel: cpe-d's extraction of a
        # wide CPT, or hidden's table of a long clause
        def refuse(*args):
            raise MemoryError

        monkeypatch.setattr(transforms, stage, refuse)
        net, cnf, _ = six_node_files
        for cmd in (["eval"], ["belief", "--var", "0"]):
            assert run_cli([*cmd, "--alg", alg, "--net", net, "--cnf", cnf]) == 3
            err = capsys.readouterr().err
            assert err == "error: out of memory\n", (cmd, err)

    def test_unknown_algorithm_is_a_usage_error(self, two_node_files):
        net, cnf = two_node_files
        assert run_cli(["eval", "--net", net, "--cnf", cnf, "--alg", "magic"]) == 2

    def test_bad_i_bound_is_a_usage_error(self, two_node_files):
        net, cnf = two_node_files
        for bound in ("-3", "x"):
            assert run_cli(["eval", "--net", net, "--cnf", cnf,
                            "--i-bound", bound]) == 2

    def test_no_arguments(self):
        assert run_cli([]) == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "eval" in capsys.readouterr().out
