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
variable.  So the serializers raise ValueError on what would not: a
header line holding a line break or, in DIMACS, reading as a tag, and
a variable count that is negative or not above phi's largest variable.

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
    ModelError,
    clause_of,
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
    plain, comments = _plain(text), "#" in text  # each line checked only if not
    for lineno, line in enumerate(text.splitlines(), start=1):
        if comments and "#" in line:
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
                if not (plain or (line.isascii() or line.strip().isascii()) and "_" not in line
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
                if not (plain or _plain(line)):
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


def _header(header: list[str] | None, comment: str) -> list[str]:
    """The header lines as comments, each behind ``comment``; a line
    that ``splitlines`` would split raises ValueError, since its second
    part would be read as a declaration."""
    lines = []
    for h in header or []:
        if "".join(h.splitlines()) != h:
            raise ValueError(f"header line {h!r} holds a line break")
        lines.append(f"{comment} {h}")
    return lines


def serialize_network(net: BeliefNetwork, header: list[str] | None = None) -> str:
    """The network in the network format, behind ``header``'s lines as
    ``#`` comments; a header line holding a line break raises ValueError."""
    lines = _header(header, "#")
    # ints and floats, since the network also takes numpy numbers and bools
    lines.append(f"vars {int(net.n)}")
    for child, parents, table in net.cpts:
        if parents:
            lines.append(f"parents {int(child)} " + " ".join(str(int(p)) for p in parents))
        lines.append(f"cpt {int(child)} " + " ".join(repr(float(v)) for v in table))
    return "\n".join(lines) + "\n"


_TAG_COMMENTS = {"evidence": EVIDENCE, "extracted": EXTRACTED, "query": QUERY}


def _comment_tag(line: str) -> str | None:
    """The provenance tag a DIMACS comment line gives the next clause,
    or None: its text after the ``c``, stripped and lower-cased."""
    return _TAG_COMMENTS.get(line.strip()[1:].strip().lower())


def parse_dimacs(text: str) -> CnfFormula:
    declared = None
    n_vars = 0
    clauses: list[Clause] = []
    tags: list[str] = []
    pending: list[int] = []
    pending_tag = QUERY
    plain = _plain(text)  # each line checked only if not
    for lineno, line in enumerate(text.splitlines(), start=1):
        lead = line.lstrip()[:1]
        if lead == "c":
            pending_tag = _comment_tag(line) or pending_tag
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
        if not (plain or _plain(line)):
            raise _fail(lineno, f"bad literal in {line.strip()!r}")
        for tok in fields:
            try:
                code = int(tok)
            except ValueError:
                raise _fail(lineno, f"bad literal {tok!r}") from None
            if not code:
                try:
                    clauses.append(clause_of(pending))
                except ModelError as exc:
                    raise _fail(lineno, str(exc)) from None
                tags.append(pending_tag)
                pending.clear()
                pending_tag = QUERY
            elif -n_vars <= code <= n_vars:
                pending.append(code)
            else:
                raise _fail(lineno, f"literal {code} exceeds declared {n_vars} variables")
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
    """phi in DIMACS, declaring ``n_vars`` variables (by default one
    past phi's largest), behind ``header``'s lines as ``c`` comments.
    ValueError refuses what ``parse_dimacs`` would read back otherwise
    or refuse: an ``n_vars`` that is negative or not above phi's largest
    variable, a header line holding a line break, and one that reads as
    a provenance tag, which would tag phi's first clause."""
    largest = max(phi.variables(), default=-1)
    if n_vars is None:
        n_vars = largest + 1
    elif n_vars < 0 or n_vars <= largest:
        raise ValueError(f"n_vars {n_vars} must be at least 0 and above phi's largest "
                         f"variable {largest}")
    lines = _header(header, "c")
    for h, line in zip(header or [], lines):
        if _comment_tag(line):
            raise ValueError(f"header line {h!r} reads as a provenance tag")
    lines.append(f"p cnf {n_vars} {len(phi.clauses)}")
    for clause, tag in phi.items():
        if tag != QUERY:
            lines.append(f"c {tag}")
        lines.append(" ".join(map(str, clause.codes)) + " 0")
    return "\n".join(lines) + "\n"
