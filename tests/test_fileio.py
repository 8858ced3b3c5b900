import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfbelief import (
    BeliefNetwork,
    Clause,
    CnfFormula,
    Cpt,
    ParseError,
    parse_dimacs,
    parse_network,
    serialize_cnf,
    serialize_network,
)
from cnfbelief.fileio import parse_order
from cnfbelief.generator import gen_network, gen_query
from cnfbelief.model import EVIDENCE, EXTRACTED, QUERY

from conftest import clause, formula

NET2_TEXT = """\
vars 2
cpt 0 0.6
parents 1 0
cpt 1 0.2 0.9
"""


class TestParseNetwork:
    def test_basic(self, net2):
        assert parse_network(NET2_TEXT) == net2

    def test_comments_and_blanks_ignored(self, net2):
        text = "# header\n\nvars 2   # two variables\ncpt 0 0.6\nparents 1 0\ncpt 1 0.2 0.9\n"
        assert parse_network(text) == net2

    def test_declaration_order_is_free(self, net2):
        text = "vars 2\ncpt 1 0.2 0.9\nparents 1 0\ncpt 0 0.6\n"
        assert parse_network(text) == net2

    def test_missing_vars_line(self):
        with pytest.raises(ParseError, match="vars"):
            parse_network("cpt 0 0.5\n")

    def test_empty_file(self):
        with pytest.raises(ParseError, match="missing vars"):
            parse_network("")

    def test_duplicate_vars_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_network("vars 2\nvars 2\n")

    def test_vars_count_must_be_decimal(self):
        # "²" is a digit to str.isdigit but not to int()
        with pytest.raises(ParseError, match="expected: vars"):
            parse_network("vars ²\n")

    @pytest.mark.parametrize("text, line", [
        ("vars \u0662\n", 1),                        # Arabic-Indic 2: str.isdecimal passes it
        ("vars 2\ncpt 0 0.5\nparents +1 0\ncpt 1 0.2 0.9\n", 3),
        ("vars 2\ncpt 0 0.5\nparents 1 0_0\ncpt 1 0.2 0.9\n", 3),
        ("vars 1\ncpt 0_0 0.5\n", 2),
        ("vars 1\ncpt +0 0.5\n", 2),
        ("vars 1\ncpt 0 0_9e-1\n", 2),
        ("vars 2\ncpt 0 0.5\ncpt 1 \u0660.5\n", 3),  # Arabic-Indic 0
    ])
    def test_numbers_outside_the_format(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}"):
            parse_network(text)

    def test_float_signs_and_exponents_still_parse(self):
        net = parse_network("vars 1\ncpt 0 +5e-1\n")
        assert net.cpts[0].table == (0.5,)
        assert parse_network("vars 1\ncpt 0 1e+0 # a comment with + and _\n").cpts[0].table == (1.0,)

    def test_unknown_keyword(self):
        with pytest.raises(ParseError, match="unknown keyword"):
            parse_network("vars 1\nprior 0 0.5\n")

    def test_bad_cpt_value(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_network("vars 1\ncpt 0 maybe\n")

    def test_missing_cpt(self):
        with pytest.raises(ParseError, match="no cpt"):
            parse_network("vars 2\ncpt 0 0.5\n")

    def test_duplicate_cpt(self):
        with pytest.raises(ParseError, match="duplicate cpt"):
            parse_network("vars 1\ncpt 0 0.5\ncpt 0 0.4\n")

    def test_wrong_table_length(self):
        with pytest.raises(ParseError, match="rows"):
            parse_network("vars 2\ncpt 0 0.5\nparents 1 0\ncpt 1 0.2\n")

    def test_probability_out_of_range(self):
        with pytest.raises(ParseError):
            parse_network("vars 1\ncpt 0 1.5\n")

    def test_nan_probability_rejected(self):
        with pytest.raises(ParseError, match="probability nan out of"):
            parse_network("vars 1\ncpt 0 nan\n")

    def test_cycle_rejected(self):
        text = "vars 2\nparents 0 1\ncpt 0 0.1 0.2\nparents 1 0\ncpt 1 0.3 0.4\n"
        with pytest.raises(ParseError, match="cycle"):
            parse_network(text)

    def test_parents_for_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_network("vars 1\ncpt 0 0.5\nparents 3 0\ncpt 3 0.5 0.5\n")

    @pytest.mark.parametrize("text, message", [
        ("vars 2\ncpt 0 0.5\nparents 1 0\nparents 1 0\ncpt 1 0.2 0.9\n",
         "line 4: duplicate parents line for variable 1"),
        ("vars 1\ncpt 0\n", "line 2: expected: cpt <child> <values...>"),
        ("vars 1\ncpt 0 0.5\ncpt 3 0.5\n", "line 3: cpt line for unknown variable 3"),
        ("vars 1\ncpt 0 0.5\nparents 3 0\n", "line 3: parents line for unknown variable 3"),
        ("vars 1\ncpt -1 0.5\ncpt 0 0.5\n", "line 2: cpt line for unknown variable -1"),
        ("vars 2\ncpt 0 0.5\nparents 1 0 0\ncpt 1 0.1 0.2 0.3 0.4\n",
         "duplicate parents for variable 1"),
    ])
    def test_error_message(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_network(text)
        assert str(exc.value) == message


class TestSerializeNetwork:
    def test_round_trip_fixtures(self, net2, pos_net, hyb_net):
        for net in (net2, pos_net, hyb_net):
            assert parse_network(serialize_network(net)) == net

    def test_round_trip_generated(self):
        for seed in (3, 14, 15):
            net = gen_network(9, 3, 0.5, seed=seed)
            again = parse_network(serialize_network(net))
            # full-precision floats survive the trip exactly
            assert again == net

    def test_round_trip_numpy_numbers_and_bools(self):
        # the network takes numpy numbers and bools where ints and floats
        # go; the file holds plain ones, which parse back to an equal network
        mixed = BeliefNetwork(np.int64(2), (
            Cpt(np.int64(0), (), (np.float32(0.5),)),
            Cpt(np.int32(1), (np.int64(0),), (np.float64(0.25), np.float32(0.75)))))
        flags = BeliefNetwork(3, (Cpt(0, (), (True,)), Cpt(1, (), (0.5,)),
                                  Cpt(2, (True, False), (0.1, 0.2, 0.3, False))))
        for net in (mixed, BeliefNetwork(1, (Cpt(0, (), (True,)),)), flags):
            assert parse_network(serialize_network(net)) == net

    def test_header_lines(self, net2):
        text = serialize_network(net2, header=["alpha", "beta"])
        assert text.startswith("# alpha\n# beta\nvars 2\n")

    def test_serialization_is_deterministic(self, pos_net):
        assert serialize_network(pos_net) == serialize_network(pos_net)

    @pytest.mark.parametrize("line", ["a\nvars 9", "run 1\r\n", "x\u2028y", "\n"])
    def test_header_line_break_is_refused(self, net2, line):
        # the part after the break would be read as a declaration
        # ("line 3: duplicate vars line")
        with pytest.raises(ValueError, match="header line .* holds a line break"):
            serialize_network(net2, header=["fine", line])


class TestParseDimacs:
    def test_basic(self):
        phi = parse_dimacs("p cnf 3 2\n1 -2 0\n3 0\n")
        assert phi.clauses == (clause(1, -2), clause(3))
        assert phi.provenance == (QUERY, QUERY)

    def test_tag_comment_applies_to_next_clause_only(self):
        text = "p cnf 3 3\nc evidence\n1 0\n2 0\nc extracted\n-3 0\n"
        phi = parse_dimacs(text)
        assert phi.provenance == (EVIDENCE, QUERY, EXTRACTED)

    def test_plain_comments_ignored(self):
        phi = parse_dimacs("c a remark\np cnf 2 1\nc another\n1 2 0\n")
        assert phi.provenance == (QUERY,)

    def test_percent_lines_skipped(self):
        # a % line ends the clause list: it and every line after it are skipped
        phi = parse_dimacs("p cnf 2 1\n1 2 0\n%\n-1 0\nnot a clause\n")
        assert phi.clauses == (clause(1, 2),)

    def test_satlib_trailer_is_no_clause(self):
        # SATLIB files end with "%" and a lone 0, which is no empty clause
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n")
        assert phi.clauses == (clause(1, -2), clause(2, 3))

    def test_clause_may_span_lines(self):
        phi = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert phi.clauses == (clause(1, 2, 3),)

    def test_several_clauses_per_line(self):
        phi = parse_dimacs("p cnf 2 2\n1 0 -2 0\n")
        assert phi.clauses == (clause(1), clause(-2))

    def test_empty_clause(self):
        phi = parse_dimacs("p cnf 2 1\n0\n")
        assert phi.clauses == (Clause([]),)

    def test_clause_before_header(self):
        with pytest.raises(ParseError, match="problem line"):
            parse_dimacs("1 2 0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="missing problem line"):
            parse_dimacs("c nothing else\n")

    def test_duplicate_header(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_dimacs("p cnf 2 1\np cnf 2 1\n1 0\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf two 1\n1 0\n")

    @pytest.mark.parametrize("text, line", [
        ("pxx cnf 2 1\n1 0\n", 1),
        ("c first token p\npcnf cnf 2 1\n1 0\n", 2),
    ])
    def test_problem_line_first_token_must_be_p(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}: expected: p cnf <vars> <clauses>"):
            parse_dimacs(text)

    def test_literal_out_of_range(self):
        with pytest.raises(ParseError, match="exceeds"):
            parse_dimacs("p cnf 2 1\n3 0\n")

    def test_bad_literal_token(self):
        with pytest.raises(ParseError, match="bad literal"):
            parse_dimacs("p cnf 2 1\nx 0\n")

    @pytest.mark.parametrize("text, line", [
        ("p cnf 2 1\n-0_2 0\n", 2),            # int() reads it as -2
        ("p cnf 2 1\n+1 0\n", 2),
        ("p cnf 2 1\n\u0661 0\n", 2),           # Arabic-Indic 1
        ("p cnf 1_0 1\n1 0\n", 1),
        ("p cnf +2 1\n1 0\n", 1),
        ("p cnf -3 0\n", 1),                     # counts take no sign
        ("c counts\np cnf 3 -1\n1 0\n", 2),
    ])
    def test_numbers_outside_the_format(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}"):
            parse_dimacs(text)

    def test_unterminated_clause(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_tautology_rejected(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 -1 0\n")

    def test_count_mismatch_warns(self):
        with pytest.warns(UserWarning, match="declares 3"):
            phi = parse_dimacs("p cnf 2 3\n1 0\n")
        assert len(phi) == 1


class TestSerializeCnf:
    def test_literals_ascending_and_terminated(self):
        text = serialize_cnf(formula(clause(3, -1)))
        assert text == "p cnf 3 1\n-1 3 0\n"

    def test_tag_comments_emitted(self):
        phi = CnfFormula([clause(1), clause(2)], [EVIDENCE, QUERY])
        assert serialize_cnf(phi) == "p cnf 2 2\nc evidence\n1 0\n2 0\n"

    def test_explicit_variable_count(self):
        assert serialize_cnf(formula(clause(1)), n_vars=6).startswith("p cnf 6 1\n")

    def test_header_comments(self):
        text = serialize_cnf(formula(clause(1)), header=["hello"])
        assert text.startswith("c hello\np cnf 1 1\n")

    def test_round_trip_with_provenance(self):
        phi = CnfFormula(
            [clause(1, -2), clause(3), clause(-1, 2, -3)],
            [QUERY, EVIDENCE, EXTRACTED],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = parse_dimacs(serialize_cnf(phi))
        assert again == phi

    def test_round_trip_generated_queries(self):
        net = gen_network(8, 3, 0.5, seed=50)
        for seed in (51, 52):
            phi = gen_query(net, 3, 2, seed=seed)
            again = parse_dimacs(serialize_cnf(phi, n_vars=net.n))
            assert again == phi

    def test_empty_formula(self):
        text = serialize_cnf(CnfFormula([]))
        assert text == "p cnf 0 0\n"
        assert len(parse_dimacs(text)) == 0
        assert serialize_cnf(CnfFormula([]), n_vars=0) == text

    @pytest.mark.parametrize("line", ["evidence", " Extracted ", "QUERY", "\tevidence\t"])
    def test_header_reading_as_a_tag_is_refused(self, line):
        # parse_dimacs would tag the first clause with it, across the
        # problem line: ('query', ...) would read back ('evidence', ...)
        phi = CnfFormula([clause(1, 2), clause(-2)], [QUERY, EVIDENCE])
        with pytest.raises(ValueError, match="reads as a provenance tag"):
            serialize_cnf(phi, n_vars=2, header=[line])

    @pytest.mark.parametrize("line", ["run 1\nc evidence", "a\rb", "trailing\n"])
    def test_header_line_break_is_refused(self, line):
        with pytest.raises(ValueError, match="holds a line break"):
            serialize_cnf(formula(clause(1)), header=[line])

    def test_headers_that_read_back_are_written(self):
        # a comment that only holds a tag word, or is empty, tags nothing
        phi = CnfFormula([clause(1, 2), clause(-2)], [QUERY, EVIDENCE])
        header = ["", "evidence follows", "n=8 f=3 d=0.5 c=3 e=2 seed=7", "c evidence"]
        text = serialize_cnf(phi, n_vars=2, header=header)
        assert text.startswith("c \nc evidence follows\n")
        assert parse_dimacs(text) == phi

    @pytest.mark.parametrize("n_vars", [-1, 0, 4])
    def test_a_variable_count_that_misses_a_variable_is_refused(self, n_vars):
        # "p cnf 4 1" then "5 0" would fail with "literal 5 exceeds
        # declared 4 variables"; a negative count with "counts must be
        # integers >= 0"
        with pytest.raises(ValueError, match=f"n_vars {n_vars} must be"):
            serialize_cnf(formula(clause(5)), n_vars=n_vars)
        assert parse_dimacs(serialize_cnf(formula(clause(5)), n_vars=5)) == formula(clause(5))

    def test_negative_count_is_refused_for_the_empty_formula(self):
        with pytest.raises(ValueError, match="n_vars -1 must be"):
            serialize_cnf(CnfFormula([]), n_vars=-1)


# Text built from each format's own vocabulary: keywords, numbers in
# and out of range, float specials, comments and junk tokens.
NUMBERS = st.integers(-3, 12).map(str)
FLOATS = st.sampled_from(["0", "1", "0.5", "1.0", "-0.1", "1.5", "1e400", "nan", "inf", "-inf"])
JUNK = st.sampled_from(["", "x", "#", "%", "c", "p", "0x1", "1.", "²", "--1", "+2", "\t",
                        "_", "+", "1_0", "+1", "\u0661", "0_9e-1", "-0_2"])


def texts(first_tokens, tokens):
    line = st.tuples(first_tokens, st.lists(tokens, max_size=6)).map(
        lambda t: " ".join((t[0], *t[1])))
    return st.lists(line, max_size=8).map("\n".join)


NETWORK_TEXTS = texts(st.sampled_from(["vars", "parents", "cpt", "#", "# c"]) | JUNK,
                      NUMBERS | FLOATS | JUNK)
ORDER_TEXTS = texts(NUMBERS | JUNK, NUMBERS | JUNK)
DIMACS_TEXTS = texts(st.sampled_from(["p cnf", "p", "c", "c evidence", "c extracted", "%"])
                     | NUMBERS | JUNK,
                     NUMBERS | FLOATS | JUNK)


class TestMalformedInputRaisesOnlyParseError:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(NETWORK_TEXTS)
    def test_parse_network(self, text):
        try:
            parse_network(text)
        except ParseError:
            pass

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(DIMACS_TEXTS)
    def test_parse_dimacs(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                parse_dimacs(text)
            except ParseError:
                pass

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(ORDER_TEXTS, st.integers(0, 4))
    def test_parse_order(self, text, n):
        try:
            parse_order(text, n)
        except ParseError:
            pass


class TestParserBoundary:
    """Each parser reads a line once: the first fault in the file is the
    one reported, line faults before the network's own checks, and
    layout and comments never change what a file means."""

    def test_network_reports_its_first_faulty_line(self):
        text = "vars 2\ncpt 0 0.5\ncpt 0 0.4\nparents 1 0\nprior 1 0.5\n"
        with pytest.raises(ParseError, match="^line 3: duplicate cpt line for variable 0$"):
            parse_network(text)

    def test_dimacs_reports_its_first_faulty_line(self):
        with pytest.raises(ParseError, match="^line 2: literal 4 exceeds declared 3 variables$"):
            parse_dimacs("p cnf 3 2\n4 0\n1 0\nx 0\n")

    def test_only_whitespace_inside_a_line_must_be_ascii(self):
        assert parse_network("vars 1\u00a0\ncpt 0 0.5\u3000\n").cpts[0].table == (0.5,)
        assert parse_dimacs("p cnf 1 1\n\u00a01 0\u00a0\n").clauses == (clause(1),)
        with pytest.raises(ParseError, match="^line 2: cpt takes"):
            parse_network("vars 1\ncpt 0\u00a00.5\n")
        with pytest.raises(ParseError, match="^line 2: bad literal in"):
            parse_dimacs("p cnf 1 1\n1\u00a00\n")

    def test_a_line_fault_comes_before_a_network_fault(self):
        # variable 0's probability 1.5 is refused only once every line reads
        with pytest.raises(ParseError, match="^line 4: unknown keyword 'prior'$"):
            parse_network("vars 2\ncpt 0 1.5\ncpt 1 0.5\nprior 1 0.5\n")
        with pytest.raises(ParseError, match="^variable 0: probability 1.5 out of"):
            parse_network("vars 2\ncpt 0 1.5\ncpt 1 0.5\n")

    def test_the_first_faulty_cpt_in_index_order_is_reported(self):
        # variable 1's parent is out of range and variable 0's table is
        # short, on lines in the other order
        text = "vars 2\nparents 1 5\ncpt 1 0.5 0.5\nparents 0 1\ncpt 0 0.5\n"
        with pytest.raises(ParseError, match="^variable 0: table has 1 rows, expected 2$"):
            parse_network(text)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.integers(4, 12), st.integers(1, 3), st.sampled_from([0.0, 0.5, 1.0]),
           st.integers(0, 1000), st.sampled_from(["", "# a_b", "#+1 é", "# x_+ é ünïcödé"]),
           st.sampled_from(["", " ", "\t"]), st.sampled_from([" ", "\t", " \t "]),
           st.sampled_from(["\n", "\r\n"]))
    def test_layout_and_comments_change_nothing(self, n, f, d, seed, comment, blank, space,
                                                newline):
        net = gen_network(n, f, d, seed)
        phi = gen_query(net, 3, 2, seed + 1)

        def messy(text: str, comment_line: str, trailing: str) -> str:
            lines = []
            for line in text.splitlines():
                lines += [blank, comment_line, line.replace(" ", space) + trailing]
            return newline.join(lines) + newline

        clean_net, clean_cnf = serialize_network(net), serialize_cnf(phi, n_vars=net.n)
        assert parse_network(messy(clean_net, comment, space + comment)) == parse_network(clean_net)
        cnf_comment = "c " + comment.lstrip("#") if comment else ""
        assert parse_dimacs(messy(clean_cnf, cnf_comment, space)) == parse_dimacs(clean_cnf)
