"""The three benchmark workloads: seeded instances, what one operation
does, and the checks that judge its answers.

An operation is what ``cnfbelief eval`` / ``belief`` does after reading
its files: parse the network and DIMACS text held in memory, then call
``transforms.evaluate`` or ``transforms.belief_given_cnf``.  Generating
and serializing instances is set-up.  Every check here is computed apart
from the program (a closed form, exhaustive enumeration written in this
file) or is an identity exact inference must satisfy.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from cnfbelief import (
    BeliefNetwork,
    Clause,
    CnfFormula,
    Cpt,
    EngineConfig,
    Literal,
    adjusted_induced_width,
    augmented_graph,
    evaluate,
    extract_clauses,
    gen_network,
    gen_query,
    induced_width,
    min_degree_order,
    serialize_cnf,
    serialize_network,
)
from cnfbelief import fileio, transforms
from cnfbelief.model import EVIDENCE

# A bucket table holds 2^(width+1) float64 entries; set-up refuses any
# instance whose width bound puts one table above this.
TABLE_CAP_BYTES = 1 << 30

REL_TOL = 1e-9
PERTURBATION = 1e-6


@dataclass
class Op:
    """One timed operation.  The program sees only the two texts."""

    label: str
    net_text: str
    cnf_text: str
    var: Optional[int] = None             # belief queries ask about this variable
    expected: Optional[tuple] = None       # closed-form posterior, when one exists
    net: Optional[BeliefNetwork] = None    # the generated objects, kept for checks
    phi: Optional[CnfFormula] = None


def agree(expected: float, got: float) -> bool:
    """Relative comparison with no absolute floor: the probabilities of
    the wide and deterministic instances sit far below any fixed floor."""
    return math.isclose(expected, got, rel_tol=REL_TOL, abs_tol=0.0)


def perturbed(value: float) -> float:
    return value * (1.0 + PERTURBATION) if value else PERTURBATION


def _open_unit(rng: random.Random) -> float:
    p = rng.random()
    while p == 0.0:
        p = rng.random()
    return p


def redraw_numbers(net: BeliefNetwork, rng: random.Random) -> BeliefNetwork:
    """The same network with every CPT entry strictly inside (0, 1) drawn
    again.  Entries of exactly 0 or 1 stay, so the clauses the network
    implies, and with them every scope the engine builds, are unchanged."""
    cpts = tuple(Cpt(c.child, c.parents,
                     tuple(v if v in (0.0, 1.0) else _open_unit(rng) for v in c.table))
                 for c in net.cpts)
    return BeliefNetwork(net.n, cpts, net.order_hint)


def unit_query(var: int, positive: bool) -> CnfFormula:
    return CnfFormula([Clause([Literal(var, positive)])], (EVIDENCE,))


def make_op(label: str, net: BeliefNetwork, phi: CnfFormula, **extra) -> Op:
    return Op(label, serialize_network(net), serialize_cnf(phi, n_vars=net.n),
              net=net, phi=phi, **extra)


# -- independent computations -----------------------------------------------

def _row(cpt: Cpt, bits) -> int:
    row = 0
    for p in cpt.parents:                      # first parent most significant
        row = (row << 1) | bits[p]
    return row


def _p(cpt: Cpt, bits) -> float:
    p_one = cpt.table[_row(cpt, bits)]
    return p_one if bits[cpt.child] else 1.0 - p_one


def _log_p(cpt: Cpt, bits) -> float:
    return math.log(_p(cpt, bits))


def blanket_posterior(net: BeliefNetwork, var: int, observed: dict[int, int]) -> tuple[float, float]:
    """P(var | its Markov blanket), in log space.

    With the blanket observed, var is independent of every other
    variable and clause, so this is the exact answer of the query.
    """
    children = [c for c in net.cpts if var in c.parents]
    logs = []
    for value in (0, 1):
        bits = dict(observed)
        bits[var] = value
        logs.append(_log_p(net.cpts[var], bits) + sum(_log_p(c, bits) for c in children))
    top = max(logs)
    w = [math.exp(x - top) for x in logs]
    return w[0] / (w[0] + w[1]), w[1] / (w[0] + w[1])


def markov_blanket(net: BeliefNetwork, var: int) -> set[int]:
    children = [c for c in net.cpts if var in c.parents]
    out = set(net.cpts[var].parents)
    for c in children:
        out.add(c.child)
        out.update(c.parents)
    out.discard(var)
    return out


def enumerate_probability(net: BeliefNetwork, phi: CnfFormula) -> float:
    """P(phi) by walking every assignment (small n only)."""
    clauses = [[(l.var, 1 if l.positive else 0) for l in c.literals] for c in phi.clauses]
    total = 0.0
    for bits in itertools.product((0, 1), repeat=net.n):
        if all(any(bits[v] == want for v, want in c) for c in clauses):
            total += math.prod(_p(cpt, bits) for cpt in net.cpts)
    return total


def forced_literals(clauses) -> dict[int, int]:
    """Unit propagation to a fixpoint (stopping at a conflict)."""
    value: dict[int, int] = {}
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            free = None
            n_free = 0
            for lit in clause.literals:
                v = value.get(lit.var)
                if v is None:
                    free, n_free = lit, n_free + 1
                elif lit.satisfied_by(v):
                    break
            else:
                if n_free == 0:
                    return value
                if n_free == 1:
                    value[free.var] = 1 if free.positive else 0
                    changed = True
    return value


# -- workloads -----------------------------------------------------------------

class Workload:
    """A fixed batch of operations built from a seed."""

    name = ""
    alg = "cpe"
    cfg: Optional[EngineConfig] = None

    def build(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def warmup_op(self, seed: int) -> Op:
        raise NotImplementedError

    def run(self, op: Op):
        """One operation.  The program's functions are looked up on their
        modules at call time, so a traced round times these same calls."""
        net = fileio.parse_network(op.net_text)
        phi = fileio.parse_dimacs(op.cnf_text)
        return transforms.evaluate(net, phi, self.alg, self.cfg)[0]

    def engine_query(self, op: Op) -> CnfFormula:
        """The formula the engine receives for this operation."""
        return op.phi

    def static_width(self, op: Op) -> int:
        """Static induced width along the engine's own ordering; the
        engine's largest table never exceeds it (criterion 7)."""
        aug = augmented_graph(op.net, self.engine_query(op))
        return induced_width(aug, min_degree_order(aug))

    def width_bound(self, op: Op) -> int:
        return self.static_width(op)

    def setup(self, seed: int) -> list[Op]:
        ops = self.build(seed)
        for op in ops:
            width = self.width_bound(op)
            if 8 * 2 ** (width + 1) > TABLE_CAP_BYTES:
                raise SystemExit(
                    f"preflight: {self.name} {op.label} has width bound {width}; a "
                    f"2^{width + 1} float64 table exceeds {TABLE_CAP_BYTES >> 20} MiB")
        self.run(self.warmup_op(seed))
        return ops

    def judge(self, op: Op, answer) -> Optional[str]:
        """None when the answer is right, else the failure cause."""
        if answer is None:
            return "undefined"
        if not isinstance(answer, float) or not math.isfinite(answer):
            return "not-a-probability"
        return None

    def invariants(self, ops: list[Op], answers: list, seed: int) -> list[str]:
        return []

    def self_test(self, ops: list[Op], answers: list) -> list[str]:
        return []


class ForestBelief(Workload):
    """Belief queries on a 2000-variable forest (f=2, no determinism).

    A round has three seeded queries and one fixed probe, about 1.2 s
    and 0.5 s each: short rounds, so a run takes the median of several.
    Each query asks about a variable v; its evidence is v's Markov
    blanket plus k random other variables, k in [100, 500], and three
    random 3-clauses over unobserved variables other than v.  The
    ordering (min_degree_order, O(n^2) selection) dominates and the
    kernel does almost nothing.  One more query per round is fixed and
    does not depend on the seed: n=1200, f=2, seed 3, all variables but
    one observed (gen_query seed 4).  math.prod(run.scalars) underflows
    there, so belief_given_cnf returns None for a well-defined posterior.
    Seeded queries keep k <= 500: log P(evidence) is about -k +- sqrt(k),
    far above float64's -745, so none of them can underflow.
    """

    name = "forest-belief"
    N = 2000
    QUERIES = 3
    K_RANGE = (100, 500)
    PROBE = (1200, 2, 0.0, 3)

    def build(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        net = gen_network(self.N, 2, 0.0, seed)
        ops = [self._query(net, rng, f"q{i}") for i in range(self.QUERIES)]
        n, f, d, s = self.PROBE
        probe_net = gen_network(n, f, d, s)
        evidence = gen_query(probe_net, 0, n - 1, s + 1)
        var = (set(range(n)) - evidence.variables()).pop()
        ops.append(self._op("underflow-probe", probe_net, evidence, var))
        return ops

    def warmup_op(self, seed: int) -> Op:
        return self._query(gen_network(200, 2, 0.0, seed), random.Random(seed), "warmup", k=(10, 50))

    def _query(self, net: BeliefNetwork, rng: random.Random, label: str, k=None) -> Op:
        lo, hi = k or self.K_RANGE
        var = rng.randrange(net.n)
        blanket = markov_blanket(net, var)
        others = [u for u in range(net.n) if u != var and u not in blanket]
        observed = sorted(blanket) + rng.sample(others, rng.randint(lo, hi))
        evidence = [Clause([Literal(u, rng.random() < 0.5)]) for u in observed]
        seen = set(observed)
        free = [u for u in others if u not in seen]
        clauses = [Clause(Literal(u, rng.random() < 0.5) for u in rng.sample(free, 3))
                   for _ in range(3)]
        phi = CnfFormula(clauses + evidence, ["query"] * 3 + [EVIDENCE] * len(evidence))
        return self._op(label, net, phi, var)

    def _op(self, label, net, phi, var) -> Op:
        observed = {c.unit_literal().var: int(c.unit_literal().positive)
                    for c in phi.clauses if c.is_unit()}
        return make_op(label, net, phi, var=var,
                       expected=blanket_posterior(net, var, observed))

    def run(self, op: Op):
        net = fileio.parse_network(op.net_text)
        phi = fileio.parse_dimacs(op.cnf_text)
        return transforms.belief_given_cnf(net, phi, op.var)

    def judge(self, op: Op, answer) -> Optional[str]:
        if answer is None:
            return "undefined"
        ok = all(math.isclose(e, a, rel_tol=1e-9, abs_tol=1e-12)  # model.close_enough
                 for e, a in zip(op.expected, answer))
        return None if ok else "wrong"

    def self_test(self, ops, answers) -> list[str]:
        op = ops[0]
        bad = (perturbed(op.expected[0]), op.expected[1])
        return [] if self.judge(op, bad) == "wrong" else ["closed-form check missed a 1e-6 error"]


class EvalWorkload(Workload):
    """Shared part of the two evaluate() workloads: fixed structures whose
    CPT numbers the seed draws again, so every seed asks the engine for
    the same tables and only the values (and answers) change."""

    STRUCTURES: tuple[int, ...] = ()
    SHAPE: tuple = ()           # gen_network (n, f, d) and gen_query (c, e)
    SMALL_SHAPE: tuple = ()     # same shape at n <= 14, for enumeration
    SMALL_INSTANCES = 4
    # with reordering off mf reaches the static width (wide seed 0: 25,
    # 2.9 s, 1 GB RSS; det: 47-68, numpy refuses the table), so that
    # identity is checked on the timed instances only below this width
    REORDER_OFF_MAX_WIDTH = 22

    def _instance(self, shape, s: int, rng: random.Random):
        n, f, d, c, e = shape
        base = gen_network(n, f, d, s)
        return redraw_numbers(base, rng), gen_query(base, c, e, s + 1)

    def build(self, seed: int) -> list[Op]:
        ops = []
        for s in self.STRUCTURES:
            net, phi = self._instance(self.SHAPE, s, random.Random(f"{seed}/{s}"))
            ops.append(make_op(f"s{s}", net, phi))
        return ops

    def warmup_op(self, seed: int) -> Op:
        return self.small_ops(seed)[0]

    def small_ops(self, seed: int) -> list[Op]:
        rng = random.Random(f"small/{seed}")
        return [make_op(f"small{i}", *self._instance(self.SMALL_SHAPE, rng.randrange(1 << 30), rng))
                for i in range(self.SMALL_INSTANCES)]

    def _p(self, op: Op, phi: CnfFormula, cfg: Optional[EngineConfig] = None) -> float:
        return evaluate(op.net, phi, self.alg, cfg if cfg is not None else self.cfg)[0]

    def invariants(self, ops, answers, seed: int) -> list[str]:
        """Identities exact inference satisfies, on a third of the timed
        instances (which third turns with the seed, so three consecutive
        seeds cover all of them), plus exhaustive enumeration on small
        instances of the same shape."""
        out = []
        i_bound = self.cfg.i_bound if self.cfg else 0
        for i, (op, p) in enumerate(zip(ops, answers)):
            if i % 3 != seed % 3 or not isinstance(p, float):
                continue
            for bound in (0, 2, None):
                if bound != i_bound:
                    q = self._p(op, op.phi, EngineConfig(i_bound=bound))
                    if not agree(p, q):
                        out.append(f"{op.label}: i_bound={bound} gives {q!r}, timed run {p!r}")
            if self.static_width(op) <= self.REORDER_OFF_MAX_WIDTH:
                q = self._p(op, op.phi, EngineConfig(i_bound=i_bound, dynamic_reorder=False))
                if not agree(p, q):
                    out.append(f"{op.label}: dynamic_reorder off gives {q!r}, timed run {p!r}")
            x = self.summed_variable(op)
            parts = [self._p(op, op.phi.conjoin(unit_query(x, b))) for b in (True, False)]
            if not agree(p, parts[0] + parts[1]):
                out.append(f"{op.label}: P(phi & x{x}) + P(phi & ~x{x}) = {sum(parts)!r}, P(phi) = {p!r}")
            certain = CnfFormula(extract_clauses(op.net).clauses)  # retagged as query clauses
            q = evaluate(op.net, certain, "cpe-d", EngineConfig(i_bound=2))[0]
            if not agree(1.0, q):
                out.append(f"{op.label}: P(extract_clauses(net)) = {q!r}")
        for op in self.small_ops(seed):
            want = enumerate_probability(op.net, op.phi)
            for cfg in (self.cfg, EngineConfig(i_bound=i_bound, dynamic_reorder=False)):
                got = self._p(op, op.phi, cfg)
                if not agree(want, got):
                    out.append(f"{op.label}: enumeration gives {want!r}, {self.alg} {cfg} {got!r}")
        return out

    def summed_variable(self, op: Op) -> int:
        """The first variable the engine's ordering eliminates that no
        unit clause of the query observes."""
        observed = {c.unit_literal().var for c in op.phi.clauses if c.is_unit()}
        order = min_degree_order(augmented_graph(op.net, self.engine_query(op))).order
        return next(v for v in reversed(order) if v not in observed)

    def self_test(self, ops, answers) -> list[str]:
        p = next(a for a in answers if isinstance(a, float) and a)
        return [] if not agree(p, perturbed(p)) else ["relative check missed a 1e-6 error"]


class WideTables(EvalWorkload):
    """evaluate(alg="cpe") on gen_network(90, 4, 0) + gen_query(c=30, e=10),
    structure seeds 0-11.  The summation kernel (_bucket_lambda) does
    about 99% of the work, at mf 15-24; graph work is under 1%."""

    name = "wide-tables"
    STRUCTURES = tuple(range(12))
    SHAPE = (90, 4, 0.0, 30, 10)
    SMALL_SHAPE = (14, 4, 0.0, 5, 2)


class DetPropagation(EvalWorkload):
    """evaluate(alg="cpe-d", i_bound=2) on gen_network(400, 4, 0.9) +
    gen_query(c=8, e=0): clause extraction, routing, unit propagation
    and bounded resolution, with the kernel a small share."""

    name = "det-propagation"
    alg = "cpe-d"
    cfg = EngineConfig(i_bound=2)
    # the first 16 structure seeds whose width_bound is at most 20, so the
    # kernel stays a small share (seed 3: mf 24, 2.4 s; seed 15: mf 26;
    # seed 24 asks numpy for 1 GiB at once)
    STRUCTURES = (0, 1, 4, 6, 8, 13, 14, 16, 19, 20, 21, 23, 26, 27, 35, 36)
    SHAPE = (400, 4, 0.9, 8, 0)
    SMALL_SHAPE = (14, 4, 0.9, 2, 0)

    def engine_query(self, op: Op) -> CnfFormula:
        return op.phi.conjoin(extract_clauses(op.net))

    def width_bound(self, op: Op) -> int:
        """The static width with every extracted clause (47-68 here)
        bounds nothing useful, since propagation observes most variables.
        Discount those that unit propagation over the query and the
        extracted clauses forces: an estimate, not a proof, measured at
        or above mf on every structure used (the timed runs also go
        under an address-space limit)."""
        query = self.engine_query(op)
        aug = augmented_graph(op.net, query)
        return adjusted_induced_width(aug, min_degree_order(aug), forced_literals(query.clauses))


WORKLOADS: dict[str, Callable[[], Workload]] = {
    w.name: w for w in (ForestBelief, WideTables, DetPropagation)
}
