"""Exact linear classification and randomized refutation.

Each kind of linear problem is one entry of ``KINDS``: the context
structures it reads and an identity table of ``structures`` that is linear in
its unknown.  The unknown is the table's operand like any other: the basis
of its free entries, with one more axis for the free parameter.  The rows
are the table's coefficients on that basis, and an exact nullspace solves
them, reporting the side conditions of the inputs'
denominators and the assumptions its pivots used.  Every basis element is
verified exactly: weak-symplectic and cocycle-in-delta ones by re-running
their check, ad-invariance and co-CYBE-slice ones by evaluating the table at
the element.
Nonlinear claims are attacked by sampling: draw exact rational parameter
values, re-check, and return either a re-verified nonzero witness or sampling
evidence of vanishing (which is labelled as evidence, never proof).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

# nullspace and rank are not called here; they stay in this namespace for code
# that looks up lieb.solver.nullspace and lieb.solver.rank.
from .multilinear import (  # noqa: F401
    BilinearForm, Row, Table, Tensor, TwoTensor, kernel, nullspace, rank,
)
from .scalars import ONE, Assumption, EvalSingular, Scalar
from . import structures
from .structures import (
    CheckReport,
    LieAlgebra,
    LieCoalgebra,
    check_cocycle,
    check_weak_symplectic,
    denominator_assumptions,
    map_scalars,
    structure_parameters,
)


class ExhaustedSamples(RuntimeError):
    """Every draw hit an assumption zero or a singular denominator."""


WEAK_SYMPLECTIC = "weak-symplectic"
AD_INVARIANCE = "ad-invariance"
COCYCLE_IN_DELTA = "cocycle-in-delta"
CO_CYBE_SLICE = "co-cybe-slice"


@dataclass(frozen=True)
class LinearProblem:
    """An identity that is linear in one declared unknown: its kind, and the
    context structures that kind reads, by their keys in ``KINDS``."""

    kind: str
    context: dict

    @classmethod
    def weak_symplectic(cls, L: LieAlgebra) -> LinearProblem:
        return cls(WEAK_SYMPLECTIC, {"c": L})

    @classmethod
    def co_cybe_slice(cls, C: LieCoalgebra, omega0: BilinearForm) -> LinearProblem:
        return cls(CO_CYBE_SLICE, {"d": C, "om": omega0})

    @classmethod
    def cocycle_in_delta(cls, L: LieAlgebra) -> LinearProblem:
        return cls(COCYCLE_IN_DELTA, {"c": L})

    @classmethod
    def ad_invariance(cls, L: LieAlgebra) -> LinearProblem:
        return cls(AD_INVARIANCE, {"c": L})


@dataclass
class LinearSolution:
    kind: str
    basis: list
    rank: int
    unknowns: int
    assumptions_used: list[Assumption] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class Kind:
    """One kind of linear problem.

    ``context`` lists the structures it reads as (key, record type) pairs, in
    order; each key is the table operand that the structure's tensor fills,
    and the first structure's space is the problem's.  ``table`` is linear in
    the operand ``unknown``, each of whose axes spans the space, and reads it
    as a basis: one free parameter per entry, or with ``skew`` per entry
    (i, j) with i < j, whose mirror (j, i) takes -1 of it.  A solution is
    read back through that basis as the record ``element`` on the space.
    It is verified by ``check`` (context, element) -> CheckReport if given,
    and else by evaluating the table at it.  ``fit``, if given, is the fit of
    the check that decides the problem: given the context structures, it
    raises ShapeError unless they lie on one space.
    """

    context: tuple[tuple[str, type], ...]
    table: Table
    unknown: str
    element: type
    check: Callable | None = None
    skew: bool = False
    fit: Callable | None = None


# the checks are looked up in this module when they run, so that code that
# wraps lieb.solver.check_cocycle or check_weak_symplectic sees them called
KINDS = {
    WEAK_SYMPLECTIC: Kind((("c", LieAlgebra),), structures.WEAK_SYMPLECTIC, "om", BilinearForm,
                          lambda ctx, x: check_weak_symplectic(ctx["c"], x), skew=True),
    AD_INVARIANCE: Kind((("c", LieAlgebra),), structures.AD_INVARIANCE, "r", TwoTensor),
    COCYCLE_IN_DELTA: Kind((("c", LieAlgebra),), structures.COCYCLE, "d", LieCoalgebra,
                           lambda ctx, x: check_cocycle(ctx["c"], x)),
    CO_CYBE_SLICE: Kind((("d", LieCoalgebra), ("om", BilinearForm)), structures.CO_CYBE_SLICE,
                        "x", BilinearForm, skew=True, fit=structures.check_co_cybe.fit),
}


def _system(problem: LinearProblem):
    """The problem's kind, its space, and the table's operands: the context
    structures' tensors and, as the unknown, the basis of its free entries
    (see Kind)."""
    if problem.kind not in KINDS:
        raise ValueError(f"unknown linear problem kind {problem.kind!r}")
    kind, ctx = KINDS[problem.kind], problem.context
    if kind.fit is not None:
        kind.fit([ctx[key] for key, _ in kind.context])
    space = ctx[kind.context[0][0]].space
    rank = len(next(spec for name, spec in kind.table.terms[0][1] if name == kind.unknown))
    slots = [idx for idx in itertools.product(range(space.dim), repeat=rank)
             if not kind.skew or idx[0] < idx[1]]
    basis = {}
    for z, slot in enumerate(slots):
        basis[slot + (z,)] = ONE
        if kind.skew:
            basis[slot[::-1] + (z,)] = -ONE
    operands = {key: ctx[key].tensor for key, _ in kind.context}
    operands[kind.unknown] = Tensor((space.dim,) * rank + (len(slots),), basis)
    return kind, space, operands


def _rows(kind, operands) -> list[Row]:
    """The problem's identity as sparse rows over the unknown's free entries:
    row by row, the components of the identity in index order, empty rows
    included, each holding the free entries whose coefficient is nonzero."""
    shape, sums = kind.table.coefficients(kind.unknown, **operands)
    rows: list[Row] = [{} for _ in range(math.prod(shape[1:]))]
    for key, value in sums.items():
        col, row = divmod(key, len(rows))
        rows[row][col] = value
    return rows


def solve_linear(problem: LinearProblem,
                 assumptions: Sequence[Assumption] = ()) -> LinearSolution:
    """Exact basis of the solution space of a linear problem.

    Every basis element is verified exactly, by its kind's check or else by
    its table, which must vanish at it; a violation raises.  The solution
    carries the side conditions of the inputs' non-constant denominators (the
    declared assumptions that certify them, or else the denominators
    themselves), then the assumptions that certified its pivots.
    """
    kind, space, operands = _system(problem)
    basis = operands[kind.unknown]
    *shape, cols = basis.shape
    vectors, certifying = kernel(_rows(kind, operands), cols, assumptions)
    solutions = []
    for vec in vectors:
        entries = {idx[:-1]: x if v is ONE else -x  # a basis entry is ONE or -ONE
                   for idx, v in basis.entries.items() if (x := vec[idx[-1]])}
        element = kind.element(space, Tensor(tuple(shape), entries))
        if kind.check is not None:
            solves = kind.check(problem.context, element).passed
        else:
            solves = not kind.table.evaluate(**{**operands, kind.unknown: element.tensor}).entries
        if not solves:
            raise AssertionError("solver produced a non-solution; this is a bug")
        solutions.append(element)
    used = denominator_assumptions(problem.context.values(), assumptions)
    used += [a for a in certifying if a not in used]
    return LinearSolution(problem.kind, solutions, cols - len(vectors), cols, used)


# -- randomized refutation -----------------------------------------------------

@dataclass(frozen=True)
class SampleConfig:
    trials: int = 32
    numerator_bound: int = 50
    denominator_bound: int = 50
    seed: int = 0
    max_redraws: int = 200

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("at least one trial is required")


@dataclass
class RefutedAt:
    assignment: dict[str, Fraction]
    report: CheckReport


@dataclass
class ConfirmedZero:
    trials: int


def bind_parameters(obj, assignment: Mapping[str, Fraction]):
    """Substitute exact rational values for every parameter of a structure;
    an entry that binds to zero is dropped."""
    return map_scalars(obj, lambda s: s if s.q is not None
                       else Scalar.from_fraction(s.evaluate(assignment)))


def refute_by_sampling(check: Callable[..., CheckReport],
                       instances: Mapping[str, object],
                       cfg: SampleConfig = SampleConfig(),
                       avoid: Sequence[Assumption] = ()) -> RefutedAt | ConfirmedZero:
    """Search for an exact rational witness that a check fails.

    ``check`` is called with the structures in ``instances`` (as keyword
    arguments) after binding every parameter to a random rational; a structure
    with no parameter is passed as given.  Draws that vanish on an ``avoid``
    assumption or hit a singular denominator are redrawn.  A refutation is
    re-verified exactly before being returned; ConfirmedZero is evidence of
    vanishing, not proof.
    """
    parametric = {key: value for key, value in instances.items() if structure_parameters(value)}
    names = sorted(structure_parameters(*parametric.values()))
    rng = random.Random(cfg.seed)
    for _ in range(cfg.trials):
        assignment, bound = _draw(rng, names, cfg, avoid, parametric)
        report = check(**{**instances, **bound})
        if report.residuals:
            witness = report.residuals[0]
            if witness.value.is_zero():
                raise AssertionError("refutation witness is zero; this is a bug")
            return RefutedAt(assignment, report)
    return ConfirmedZero(cfg.trials)


def _draw(rng: random.Random, names: Sequence[str], cfg: SampleConfig,
          avoid: Sequence[Assumption], instances: Mapping[str, object]
          ) -> tuple[dict[str, Fraction], dict[str, object]]:
    """A random assignment that avoids every assumption zero, and the instances bound at it."""
    for _ in range(cfg.max_redraws):
        assignment = {
            name: Fraction(rng.randint(-cfg.numerator_bound, cfg.numerator_bound),
                           rng.randint(1, cfg.denominator_bound))
            for name in names
        }
        if any(a.nonzero.evaluate(assignment) == 0 for a in avoid):
            continue
        try:
            bound = {key: bind_parameters(value, assignment) for key, value in instances.items()}
        except EvalSingular:
            continue
        return assignment, bound
    raise ExhaustedSamples("all draws hit assumption zeros or singular denominators")
