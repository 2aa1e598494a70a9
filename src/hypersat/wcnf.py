"""Weighted MaxSAT instances: DIMACS CNF/WCNF parsing, generation, evaluation.

Clause weights are integers and the evaluator works in exact integer
arithmetic.  The total weight of an instance must stay below 2^53, so that
float64 sums of weights (the relaxed loss) are exact too.  The WCNF dialect
is the classic ``p wcnf n m`` format where every clause line starts with its
weight; all clauses are soft.  Hard clauses are rejected by name, whether a
``p wcnf n m top`` header's top weight or a MaxSAT Evaluation 2022 ``h``
line marks them.

An instance is its clauses, stored once as flat read-only literal arrays
that the constructor checks and in which it marks the tautologies; the
evaluator, the loss, the hypergraph and both oracles all read them.  The
local search also reads ``OccurrenceLists``, the same clauses as Python
lists, each variable's clauses split by the polarity it has in them,
derived once per instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .rng import make_rng


class WcnfParseError(ValueError):
    """Input text is not valid DIMACS CNF/WCNF."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# float64 holds every integer below 2^53 exactly
MAX_TOTAL_WEIGHT = 2**53 - 1
# the most variables a header may declare: variable indices fit a signed
# 32-bit int, and the 2n literal nodes stay far inside the int64 indices
MAX_VARS = 2**31 - 1


@dataclass(frozen=True)
class OccurrenceLists:
    """The clauses as Python lists, for a walk that reads one item at a time.

    ``occurs[v][p]`` lists, in clause order, the clauses where variable v
    (0-based) occurs with polarity p, 1 for ``+v`` and 0 for ``-v``, so
    under an assignment with v = p they are the clauses whose literal of v
    is true.  Tautologies are left out: no flip can break or mend them.
    ``clause_vars[j]`` lists the variables of clause j in literal order.
    They are derived from an instance's arrays, which cannot change.
    """

    occurs: list[tuple[list[int], list[int]]]
    clause_vars: list[list[int]]
    weight: list[int]


@dataclass(frozen=True, eq=False)
class WcnfInstance:
    """A Weighted MaxSAT instance: n variables and m weighted clauses, as
    flat literal arrays in clause order.

    Clause j owns the literals ``start[j]:start[j + 1]``; literal l is
    variable ``var[l]`` (0-based), true when that variable equals
    ``positive[l]``.  ``tautology[j]`` is True where clause j holds both x
    and not x, so that no assignment leaves it unsatisfied.

    The constructor checks the arrays and stores them read-only, so that
    nothing derived from them can go stale; an argument that already has
    the right dtype is kept, not copied, and becomes read-only (the array
    it views, if it is a view, does not).
    """

    num_vars: int
    var: np.ndarray  # int64, one per literal
    positive: np.ndarray  # bool, one per literal
    start: np.ndarray  # int64, num_clauses + 1 offsets
    weight: np.ndarray  # int64, one per clause
    name: str = ""
    tautology: np.ndarray = field(init=False, repr=False)  # bool, per clause

    def __post_init__(self):
        for name, dtype in (("var", np.int64), ("positive", bool),
                            ("start", np.int64), ("weight", np.int64)):
            given = np.asarray(getattr(self, name))
            if dtype is np.int64 and given.dtype.kind == "f":
                # the cast would truncate 1.7 to 1 without a word
                whole = (given == np.trunc(given)) & (np.abs(given) < 2.0**63)
                if not whole.all():
                    raise ValueError(
                        f"{name} must hold integers, got {given[~whole][0]}"
                    )
            array = given.astype(dtype, copy=False)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        var, start, n = self.var, self.start, self.num_vars
        if n < 1:
            raise ValueError("num_vars must be >= 1")
        if not (
            var.ndim == self.positive.ndim == start.ndim == self.weight.ndim == 1
            and len(start) == len(self.weight) + 1
            and len(self.positive) == len(var) == start[-1]
            and start[0] == 0
        ):
            raise ValueError("the clause arrays do not fit together")
        if self.num_clauses < 1:
            raise ValueError("instance must have at least one clause")
        if (empty := self.arity < 1).any():
            raise ValueError(f"empty clause {int(empty.argmax())}")
        if (out := (var < 0) | (var >= n)).any():
            raise ValueError(f"variable {int(var[out][0])} out of range for n={n}")
        if (self.weight < 1).any():
            raise ValueError("clause weights must be >= 1")
        # a Python sum, which cannot wrap around as an int64 sum could
        if (total := sum(self.weight.tolist())) > MAX_TOTAL_WEIGHT:
            raise ValueError(f"total weight {total} is not below 2^53")
        # sorted stably by variable, the literals of one variable in one
        # clause are neighbours: two of one polarity, or three, repeat a
        # literal, and two of both polarities make a tautology
        order = np.argsort(var, kind="stable")
        c, v, p = self.clause_of[order], var[order], self.positive[order]
        same = (c[1:] == c[:-1]) & (v[1:] == v[:-1])
        repeat = same & (p[1:] == p[:-1])
        repeat[1:] |= same[1:] & same[:-1]
        if repeat.any():
            raise ValueError(
                f"duplicate literal in clause {int(c[1:][repeat][0])}"
            )
        tautology = np.zeros(self.num_clauses, dtype=bool)
        tautology[c[1:][same]] = True
        tautology.flags.writeable = False
        object.__setattr__(self, "tautology", tautology)

    @property
    def num_clauses(self) -> int:
        return len(self.weight)

    @property
    def arity(self) -> np.ndarray:
        return np.diff(self.start)

    @property
    def clause_of(self) -> np.ndarray:
        """Clause index of each literal."""
        return np.repeat(np.arange(self.num_clauses), self.arity)

    def total_weight(self) -> int:
        return int(self.weight.sum())

    @cached_property
    def occurrence_lists(self) -> OccurrenceLists:
        """The clauses as lists, built on first use."""
        var, clause_of = self.var, self.clause_of
        kept = np.flatnonzero(~self.tautology[clause_of])
        # 2v + p sorts the literals by variable v, then by polarity p; below
        # 2^16 numpy sorts the key stably by radix
        key = (2 * var[kept] + self.positive[kept]).astype(
            np.min_scalar_type(2 * self.num_vars)
        )
        clauses = clause_of[kept[np.argsort(key, kind="stable")]].tolist()
        counts = np.bincount(key, minlength=2 * self.num_vars)
        bounds = [0] + np.cumsum(counts).tolist()
        lists = [clauses[a:b] for a, b in zip(bounds, bounds[1:])]
        lit_var, starts = var.tolist(), self.start.tolist()
        return OccurrenceLists(
            occurs=list(zip(lists[::2], lists[1::2])),
            clause_vars=[lit_var[a:b] for a, b in zip(starts, starts[1:])],
            weight=self.weight.tolist(),
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
    literals: list[int] = []  # every clause's literals, concatenated
    starts = [0]
    weights: list[int] = []
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
        if weighted and line.split()[0] == "h":
            raise WcnfParseError(
                f"hard clauses are not supported: {line!r} is a hard clause "
                "of the MaxSAT Evaluation 2022 format",
                lineno,
            )
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
                if len(set(pending)) != len(pending):
                    raise WcnfParseError(
                        f"duplicate literal in clause {tuple(pending)}",
                        clause_start_line,
                    )
                total_weight += pending_weight
                if total_weight > MAX_TOTAL_WEIGHT:
                    raise WcnfParseError(
                        f"total weight {total_weight} reaches 2^53",
                        clause_start_line,
                    )
                literals.extend(pending)
                starts.append(len(literals))
                weights.append(pending_weight)
                pending = []
                pending_weight = None
            else:
                pending.append(tok)

    if num_vars is None:
        raise WcnfParseError("missing header")
    if pending or pending_weight is not None:
        raise WcnfParseError("unterminated clause", clause_start_line)
    if len(weights) != num_clauses:
        raise WcnfParseError(
            f"clause count mismatch: header says {num_clauses}, "
            f"found {len(weights)}"
        )
    # every value was checked against its limit above, so each fits int64
    lits = np.array(literals, dtype=np.int64)
    return WcnfInstance(
        num_vars, np.abs(lits) - 1, lits > 0, starts, weights, name=name
    )


def parse_cnf(text: str, name: str = "") -> WcnfInstance:
    """Parse DIMACS CNF; every clause gets weight 1."""
    return _parse_dimacs(text, weighted=False, name=name)


def parse_wcnf(text: str, name: str = "") -> WcnfInstance:
    """Parse DIMACS WCNF (``w l1 l2 ... 0`` clause lines)."""
    return _parse_dimacs(text, weighted=True, name=name)


def write_wcnf(instance: WcnfInstance) -> str:
    """Canonical WCNF text; round-trips through parse_wcnf."""
    var = instance.var
    lits = np.where(instance.positive, var + 1, -1 - var).tolist()
    starts = instance.start.tolist()
    lines = [f"p wcnf {instance.num_vars} {instance.num_clauses}"]
    for w, a, b in zip(instance.weight.tolist(), starts, starts[1:]):
        lines.append(f"{w} {' '.join(map(str, lits[a:b]))} 0")
    return "\n".join(lines) + "\n"


def assign_random_weights(
    instance: WcnfInstance, seed: int, lo: int = 1, hi: int = 10
) -> WcnfInstance:
    """Redraw every clause weight uniformly from the integers [lo, hi]."""
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid weight range [{lo}, {hi}]")
    rng = make_rng(seed, 0x57)
    weights = rng.integers(lo, hi + 1, size=instance.num_clauses)
    return replace(instance, weight=weights)


def evaluate(instance: WcnfInstance, assignment: np.ndarray) -> EvalResult:
    """Exact satisfied/unsatisfied weights of a 0/1 assignment of length n,
    or of every row of a (k, n) batch of them (nonzero means true)."""
    values = np.asarray(assignment)
    if values.ndim not in (1, 2) or values.shape[-1] != instance.num_vars:
        raise ValueError(
            f"assignment shape {values.shape} does not match "
            f"n={instance.num_vars}"
        )
    lit_true = (values[..., instance.var] != 0) == instance.positive
    flags = np.logical_or.reduceat(lit_true, instance.start[:-1], axis=-1)
    sat = np.where(flags, instance.weight, 0).sum(axis=-1)
    unsat = np.where(flags, 0, instance.weight).sum(axis=-1)
    if values.ndim == 1:
        sat, unsat = int(sat), int(unsat)
    return EvalResult(sat_weight=sat, unsat_weight=unsat, clause_flags=flags)


def generate_random_3sat(n: int, m: int, seed: int) -> WcnfInstance:
    """Uniform random 3-SAT: each clause has 3 distinct variables with
    fair-coin polarities; all weights 1."""
    if n < 3:
        raise ValueError("need n >= 3 for 3-SAT clauses")
    rng = make_rng(seed, 0x35)
    var = np.zeros((m, 3), dtype=np.int64)
    positive = np.zeros((m, 3), dtype=bool)
    for j in range(m):
        var[j] = rng.choice(n, size=3, replace=False)
        positive[j] = rng.integers(0, 2, size=3) == 1
    return WcnfInstance(
        n, var.ravel(), positive.ravel(), np.arange(0, 3 * m + 1, 3),
        np.ones(m, int), name=f"rand3sat_n{n}_m{m}_s{seed}",
    )
