"""Weighted MaxSAT instances: DIMACS CNF/WCNF parsing, generation, evaluation.

Clause weights are integers and the evaluator works in exact integer
arithmetic.  The total weight of an instance must stay below 2^53, so that
float64 sums of weights (the relaxed loss) are exact too.  The WCNF dialect
is the classic ``p wcnf n m`` format where every clause line starts with its
weight; all clauses are soft (no "top" hard-clause weight).

Each instance compiles its clauses once into a ``ClauseTable`` of flat
literal arrays, which also marks the tautologies; the evaluator, the loss,
the hypergraph and both oracles all read that table.  The local search
also reads ``OccurrenceLists``, the same clauses as Python lists, built
once per instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .rng import make_rng


class WcnfParseError(ValueError):
    """Input text is not valid DIMACS CNF/WCNF."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals with a positive integer weight.

    Literals are nonzero 1-based signed variable indices: ``+v`` is the
    variable, ``-v`` its negation.
    """

    literals: tuple[int, ...]
    weight: int = 1

    def __post_init__(self):
        if not self.literals:
            raise ValueError("empty clause")
        if any(lit == 0 for lit in self.literals):
            raise ValueError("literal 0 is not allowed")
        if len(set(self.literals)) != len(self.literals):
            raise ValueError(f"duplicate literal in clause {self.literals}")
        if self.weight < 1:
            raise ValueError(f"clause weight must be >= 1, got {self.weight}")


# float64 holds every integer below 2^53 exactly
MAX_TOTAL_WEIGHT = 2**53 - 1
# the most variables a header may declare: variable indices fit a signed
# 32-bit int, and the 2n literal nodes stay far inside the int64 indices
MAX_VARS = 2**31 - 1


@dataclass(frozen=True)
class ClauseTable:
    """The clauses as flat literal arrays, in clause order.

    Clause j owns the literals ``start[j]:start[j + 1]``; literal l is
    variable ``var[l]`` (0-based), true when that variable equals
    ``positive[l]``.  ``tautology[j]`` is True where clause j holds both x
    and not x, so that no assignment leaves it unsatisfied.
    """

    var: np.ndarray  # int64, one per literal
    positive: np.ndarray  # bool, one per literal
    start: np.ndarray  # int64, num_clauses + 1 offsets
    weight: np.ndarray  # int64, one per clause
    tautology: np.ndarray  # bool, one per clause

    @property
    def arity(self) -> np.ndarray:
        return np.diff(self.start)

    @property
    def clause_of(self) -> np.ndarray:
        """Clause index of each literal."""
        return np.repeat(np.arange(len(self.weight)), self.arity)


@dataclass(frozen=True)
class OccurrenceLists:
    """The clauses as Python lists, for a walk that reads one item at a time.

    ``occurs[v]`` lists ``(clause, polarity)`` for each literal of variable
    v (0-based) in clause order, polarity 1 for ``+v`` and 0 for ``-v``,
    leaving out tautologies, which no flip can break or mend;
    ``clause_vars[j]`` lists the variables of clause j in literal order.
    """

    occurs: list[list[tuple[int, int]]]
    clause_vars: list[list[int]]
    weight: list[int]


@dataclass(frozen=True)
class WcnfInstance:
    """A Weighted MaxSAT instance: n variables and m weighted clauses."""

    num_vars: int
    clauses: tuple[Clause, ...]
    name: str = ""

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        if not self.clauses:
            raise ValueError("instance must have at least one clause")
        for cl in self.clauses:
            for lit in cl.literals:
                if abs(lit) > self.num_vars:
                    raise ValueError(
                        f"literal {lit} out of range for n={self.num_vars}"
                    )
        if self.total_weight() > MAX_TOTAL_WEIGHT:
            raise ValueError(
                f"total weight {self.total_weight()} is not below 2^53"
            )

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def total_weight(self) -> int:
        return sum(cl.weight for cl in self.clauses)

    @cached_property
    def clause_table(self) -> ClauseTable:
        """The clauses compiled into flat arrays, built on first use."""
        arity = [len(cl.literals) for cl in self.clauses]
        lits = np.fromiter(
            chain.from_iterable(cl.literals for cl in self.clauses),
            dtype=np.int64,
            count=sum(arity),
        )
        var = np.abs(lits) - 1
        # literals are distinct, so a variable occurs twice in a clause only
        # with both polarities, and sorted stably by variable those two
        # literals are neighbours
        order = np.argsort(var, kind="stable")
        c = np.repeat(np.arange(len(arity)), arity)[order]
        v = var[order]
        tautology = np.zeros(len(arity), dtype=bool)
        tautology[c[1:][(c[1:] == c[:-1]) & (v[1:] == v[:-1])]] = True
        return ClauseTable(
            var=var,
            positive=lits > 0,
            start=np.concatenate([[0], np.cumsum(arity)]).astype(np.int64),
            weight=np.array([cl.weight for cl in self.clauses], dtype=np.int64),
            tautology=tautology,
        )

    @cached_property
    def occurrence_lists(self) -> OccurrenceLists:
        """The clause table as lists, built on first use; it needs n, which
        the table cannot tell when the last variables occur nowhere."""
        t = self.clause_table
        clause_of = t.clause_of
        kept = np.flatnonzero(~t.tautology[clause_of])
        order = kept[np.argsort(t.var[kept], kind="stable")]
        pairs = list(
            zip(clause_of[order].tolist(), t.positive[order].astype(int).tolist())
        )
        counts = np.bincount(t.var[kept], minlength=self.num_vars)
        bounds = [0] + np.cumsum(counts).tolist()
        lit_var, starts = t.var.tolist(), t.start.tolist()
        return OccurrenceLists(
            occurs=[pairs[a:b] for a, b in zip(bounds, bounds[1:])],
            clause_vars=[lit_var[a:b] for a, b in zip(starts, starts[1:])],
            weight=t.weight.tolist(),
        )


@dataclass(frozen=True)
class EvalResult:
    """Weights of one assignment (ints), or of each row of a batch
    (int64 arrays of length k)."""

    sat_weight: int | np.ndarray
    unsat_weight: int | np.ndarray
    clause_flags: np.ndarray  # bool (m,) or (k, m), True where satisfied


def _parse_dimacs(text: str, weighted: bool, name: str) -> WcnfInstance:
    fmt = "wcnf" if weighted else "cnf"
    num_vars = None
    num_clauses = None
    clauses: list[Clause] = []
    total_weight = 0
    pending: list[int] = []  # literal tokens of the clause being read
    pending_weight: int | None = None
    clause_start_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break  # SATLIB end-of-file marker
        if line.startswith("p"):
            if num_vars is not None:
                raise WcnfParseError("second header", lineno)
            parts = line.split()
            if weighted and len(parts) == 5 and parts[1] == fmt:
                raise WcnfParseError(
                    f"hard clauses are not supported: the header {line!r} "
                    f"gives a top weight ({parts[4]}), which marks clauses "
                    "of that weight as hard",
                    lineno,
                )
            if len(parts) != 4 or parts[1] != fmt:
                raise WcnfParseError(f"malformed header {line!r}", lineno)
            try:
                num_vars = int(parts[2])
                num_clauses = int(parts[3])
            except ValueError:
                raise WcnfParseError(f"malformed header {line!r}", lineno)
            if num_vars < 1 or num_clauses < 1:
                raise WcnfParseError(f"malformed header {line!r}", lineno)
            if num_vars > MAX_VARS:
                raise WcnfParseError(
                    f"{num_vars} variables exceed the limit of {MAX_VARS}",
                    lineno,
                )
            continue
        if num_vars is None:
            raise WcnfParseError("clause before header", lineno)
        try:
            tokens = [int(t) for t in line.split()]
        except ValueError:
            raise WcnfParseError(f"non-integer token in {line!r}", lineno)
        for tok in tokens:
            if not pending and pending_weight is None:
                clause_start_line = lineno
                if weighted:
                    if tok < 1:
                        raise WcnfParseError(
                            f"nonpositive clause weight {tok}", lineno
                        )
                    pending_weight = tok
                    continue
                pending_weight = 1
                if tok == 0:
                    raise WcnfParseError("empty clause", lineno)
                pending.append(tok)
                continue
            if tok == 0:
                if not pending:
                    raise WcnfParseError("empty clause", clause_start_line)
                for lit in pending:
                    if abs(lit) > num_vars:
                        raise WcnfParseError(
                            f"literal {lit} out of range", clause_start_line
                        )
                try:
                    clauses.append(
                        Clause(tuple(pending), weight=pending_weight)
                    )
                except ValueError as exc:
                    raise WcnfParseError(str(exc), clause_start_line)
                total_weight += pending_weight
                if total_weight > MAX_TOTAL_WEIGHT:
                    raise WcnfParseError(
                        f"total weight {total_weight} reaches 2^53",
                        clause_start_line,
                    )
                pending = []
                pending_weight = None
            else:
                pending.append(tok)

    if num_vars is None:
        raise WcnfParseError("missing header")
    if pending or pending_weight is not None:
        raise WcnfParseError("unterminated clause", clause_start_line)
    if len(clauses) != num_clauses:
        raise WcnfParseError(
            f"clause count mismatch: header says {num_clauses}, "
            f"found {len(clauses)}"
        )
    return WcnfInstance(num_vars=num_vars, clauses=tuple(clauses), name=name)


def parse_cnf(text: str, name: str = "") -> WcnfInstance:
    """Parse DIMACS CNF; every clause gets weight 1."""
    return _parse_dimacs(text, weighted=False, name=name)


def parse_wcnf(text: str, name: str = "") -> WcnfInstance:
    """Parse DIMACS WCNF (``w l1 l2 ... 0`` clause lines)."""
    return _parse_dimacs(text, weighted=True, name=name)


def write_wcnf(instance: WcnfInstance) -> str:
    """Canonical WCNF text; round-trips through parse_wcnf."""
    lines = [f"p wcnf {instance.num_vars} {instance.num_clauses}"]
    for cl in instance.clauses:
        lits = " ".join(str(l) for l in cl.literals)
        lines.append(f"{cl.weight} {lits} 0")
    return "\n".join(lines) + "\n"


def assign_random_weights(
    instance: WcnfInstance, seed: int, lo: int = 1, hi: int = 10
) -> WcnfInstance:
    """Redraw every clause weight uniformly from the integers [lo, hi]."""
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid weight range [{lo}, {hi}]")
    rng = make_rng(seed, 0x57)
    weights = rng.integers(lo, hi + 1, size=instance.num_clauses)
    clauses = tuple(
        Clause(cl.literals, weight=int(w))
        for cl, w in zip(instance.clauses, weights)
    )
    return WcnfInstance(instance.num_vars, clauses, name=instance.name)


def evaluate(instance: WcnfInstance, assignment: np.ndarray) -> EvalResult:
    """Exact satisfied/unsatisfied weights of a 0/1 assignment of length n,
    or of every row of a (k, n) batch of them (nonzero means true)."""
    values = np.asarray(assignment)
    if values.ndim not in (1, 2) or values.shape[-1] != instance.num_vars:
        raise ValueError(
            f"assignment shape {values.shape} does not match "
            f"n={instance.num_vars}"
        )
    t = instance.clause_table
    lit_true = (values[..., t.var] != 0) == t.positive
    flags = np.logical_or.reduceat(lit_true, t.start[:-1], axis=-1)
    sat = np.where(flags, t.weight, 0).sum(axis=-1)
    unsat = np.where(flags, 0, t.weight).sum(axis=-1)
    if values.ndim == 1:
        sat, unsat = int(sat), int(unsat)
    return EvalResult(sat_weight=sat, unsat_weight=unsat, clause_flags=flags)


def generate_random_3sat(n: int, m: int, seed: int) -> WcnfInstance:
    """Uniform random 3-SAT: each clause has 3 distinct variables with
    fair-coin polarities; all weights 1."""
    if n < 3:
        raise ValueError("need n >= 3 for 3-SAT clauses")
    rng = make_rng(seed, 0x35)
    clauses = []
    for _ in range(m):
        vars_ = rng.choice(n, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        clauses.append(Clause(tuple(int(v * s) for v, s in zip(vars_, signs))))
    return WcnfInstance(n, tuple(clauses), name=f"rand3sat_n{n}_m{m}_s{seed}")
