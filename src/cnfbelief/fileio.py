"""Text formats: network files, DIMACS CNF and order files.

Network format (# starts a comment anywhere):

    vars <n>
    parents <child> <p1> ... <pk>     # omitted for roots
    cpt <child> <v1> ... <v_{2^k}>    # P(child=1|row), lexicographic rows,
                                      # first parent most significant

DIMACS: `p cnf <n> <m>` header, clauses as signed 1-based integers
terminated by 0, `c` comments.  A comment `c evidence` (or
`c extracted`) tags the next clause's provenance.  A line starting
`%` ends the clause list: SATLIB files end with `%` and a lone `0`,
which would otherwise read as the empty clause.  parse/serialize
round-trip exactly; serialized clause literals are ascending by
variable.

Order file: 0-based variable numbers separated by whitespace,
first-to-last, each of the network's variables exactly once.

Counts (``vars``, ``p cnf``) are non-negative decimal: ASCII digits, no
sign.  Other integers may also take a minus; table entries are ASCII floats.
Python's int() and float() also take "_" separators, a "+" sign and
other scripts' digits, so those are refused first.

A ``ParseError`` found on one line of a network or DIMACS file starts
``line N:``; each line is read once, so the first faulty line in the
file is the one reported, before any whole-file error.  Whole-file
errors carry no line: no ``vars`` or problem line, a variable with no
``cpt`` line, an unterminated clause, the checks ``BeliefNetwork``
runs, and every order-file error.
"""

from __future__ import annotations

import warnings

from .graphs import Ordering, check_ordering
from .model import (
    EVIDENCE,
    EXTRACTED,
    QUERY,
    BeliefNetwork,
    Clause,
    CnfFormula,
    Cpt,
    Literal,
    ModelError,
)


class ParseError(ValueError):
    """Malformed input; the message starts ``line N:`` unless it is a
    whole-file error (listed in the module docstring)."""


def _fail(lineno: int, message: str) -> ParseError:
    return ParseError(f"line {lineno}: {message}")


def _plain(text: str) -> bool:
    """True when the numbers in ``text`` are in the formats' own forms:
    ASCII, no "_" and no "+".  Whitespace around ``text`` does not count."""
    return (text.isascii() or text.strip().isascii()) and "_" not in text and "+" not in text


def parse_network(text: str) -> BeliefNetwork:
    n = None
    parents: dict[int, tuple[int, ...]] = {}
    tables: dict[int, tuple[float, ...]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        fields = line.split()
        if not fields:
            continue
        keyword = fields[0]
        if n is None and keyword != "vars":
            raise _fail(lineno, "missing vars line before declarations")
        if keyword == "cpt":
            if len(fields) < 3:
                raise _fail(lineno, "expected: cpt <child> <values...>")
            try:
                # _plain, but a float's sign or exponent may take "+"
                if not ((line.isascii() or line.strip().isascii()) and "_" not in line
                        and "+" not in fields[1]):
                    raise ValueError
                child = int(fields[1])
                values = tuple(map(float, fields[2:]))
            except ValueError:
                raise _fail(lineno, "cpt takes a child id and float values") from None
            if not 0 <= child < n:
                raise _fail(lineno, f"cpt line for unknown variable {child}")
            if child in tables:
                raise _fail(lineno, f"duplicate cpt line for variable {child}")
            tables[child] = values
        elif keyword == "parents":
            try:
                if not _plain(line):
                    raise ValueError
                child, *ps = map(int, fields[1:])
            except ValueError:
                raise _fail(lineno, "parents takes integers") from None
            if not 0 <= child < n:
                raise _fail(lineno, f"parents line for unknown variable {child}")
            if child in parents:
                raise _fail(lineno, f"duplicate parents line for variable {child}")
            parents[child] = tuple(ps)
        elif keyword == "vars":
            if n is not None:
                raise _fail(lineno, "duplicate vars line")
            if len(fields) != 2 or not (fields[1].isascii() and fields[1].isdigit()):
                raise _fail(lineno, "expected: vars <count>")
            n = int(fields[1])
        else:
            raise _fail(lineno, f"unknown keyword {keyword!r}")
    if n is None:
        raise ParseError("missing vars line")
    if len(tables) < n:
        raise ParseError(f"variable {next(c for c in range(n) if c not in tables)} has no cpt line")
    try:
        return BeliefNetwork(n, tuple([Cpt(c, parents.get(c, ()), tables[c]) for c in range(n)]))
    except ModelError as exc:
        raise ParseError(str(exc)) from None


def serialize_network(net: BeliefNetwork, header: list[str] | None = None) -> str:
    lines = [f"# {h}" for h in header or []]
    lines.append(f"vars {net.n}")
    for cpt in net.cpts:
        if cpt.parents:
            lines.append(f"parents {cpt.child} " + " ".join(str(p) for p in cpt.parents))
        lines.append(f"cpt {cpt.child} " + " ".join(repr(v) for v in cpt.table))
    return "\n".join(lines) + "\n"


_TAG_COMMENTS = {"evidence": EVIDENCE, "extracted": EXTRACTED, "query": QUERY}


def parse_dimacs(text: str) -> CnfFormula:
    declared = None
    n_vars = 0
    clauses: list[Clause] = []
    tags: list[str] = []
    pending: list[Literal] = []
    pending_tag = QUERY
    for lineno, line in enumerate(text.splitlines(), start=1):
        lead = line.lstrip()[:1]
        if lead == "c":
            tag = line.strip()[1:].strip().lower()
            if tag in _TAG_COMMENTS:
                pending_tag = _TAG_COMMENTS[tag]
            continue
        if lead == "%":
            break
        if not lead:
            continue
        fields = line.split()
        if lead == "p":
            if declared is not None:
                raise _fail(lineno, "duplicate problem line")
            if len(fields) != 4 or fields[:2] != ["p", "cnf"]:
                raise _fail(lineno, "expected: p cnf <vars> <clauses>")
            if not all(f.isascii() and f.isdigit() for f in fields[2:]):
                raise _fail(lineno, "problem line counts must be integers >= 0")
            n_vars, declared = int(fields[2]), int(fields[3])
            continue
        if declared is None:
            raise _fail(lineno, "clause before the problem line")
        if not _plain(line):
            raise _fail(lineno, f"bad literal in {line.strip()!r}")
        for tok in fields:
            try:
                code = int(tok)
            except ValueError:
                raise _fail(lineno, f"bad literal {tok!r}") from None
            if 0 < code <= n_vars:
                pending.append(Literal(code - 1, True))
            elif 0 < -code <= n_vars:
                pending.append(Literal(-code - 1, False))
            elif code:
                raise _fail(lineno, f"literal {code} exceeds declared {n_vars} variables")
            else:
                try:
                    clauses.append(Clause(pending))
                except ModelError as exc:
                    raise _fail(lineno, str(exc)) from None
                tags.append(pending_tag)
                pending = []
                pending_tag = QUERY
    if pending:
        raise ParseError("unterminated clause at end of file")
    if declared is None:
        raise ParseError("missing problem line")
    if declared != len(clauses):
        warnings.warn(
            f"problem line declares {declared} clauses, file has {len(clauses)}",
            stacklevel=2,
        )
    return CnfFormula(clauses, tags)


def parse_order(text: str, n: int) -> Ordering:
    """The ordering an order file lists over 0..n-1."""
    values = []
    for tok in text.split():
        try:
            if not _plain(tok):
                raise ValueError
            values.append(int(tok))
        except ValueError:
            raise ParseError(f"bad ordering token {tok!r}") from None
    try:
        return check_ordering(values, n)
    except ModelError:
        raise ParseError(f"ordering must list each of 0..{n - 1} exactly once") from None


def serialize_cnf(phi: CnfFormula, n_vars: int | None = None,
                  header: list[str] | None = None) -> str:
    if n_vars is None:
        n_vars = max((v for v in phi.variables()), default=-1) + 1
    lines = [f"c {h}" for h in header or []]
    lines.append(f"p cnf {n_vars} {len(phi.clauses)}")
    for clause, tag in phi.items():
        if tag != QUERY:
            lines.append(f"c {tag}")
        lines.append(" ".join(str(l.signed()) for l in clause.sorted_literals()) + " 0")
    return "\n".join(lines) + "\n"
