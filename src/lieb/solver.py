"""Exact linear classification and randomized refutation.

Each kind of linear problem is one entry of ``KINDS``: the context
structures it reads and an identity table of ``structures`` that is linear in
its unknown.  The rows are the unknown's coefficients in the table, and an
exact nullspace solves them, reporting the side conditions of the inputs'
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
from .scalars import Assumption, EvalSingular, Scalar
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
    the operand ``unknown``, each of whose axes spans the space; a basis
    element is the record ``element`` on the space.  It is verified by
    ``check`` (context, element) -> CheckReport if given, and else by
    evaluating the table at it.  ``fit``, if given, is the fit of the check
    that decides the problem: given the context structures, it raises
    ShapeError unless they lie on one space.
    """

    context: tuple[tuple[str, type], ...]
    table: Table
    unknown: str
    element: type
    check: Callable | None = None
    skew: bool = False  # a skew form, whose free entries are the upper triangle
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
    """The problem's kind, its space, the unknown's shape and free entries (all
    of them, or the upper triangle of a skew form), and the table's operands
    with the unknown as a zero of its shape."""
    if problem.kind not in KINDS:
        raise ValueError(f"unknown linear problem kind {problem.kind!r}")
    kind, ctx = KINDS[problem.kind], problem.context
    if kind.fit is not None:
        kind.fit([ctx[key] for key, _ in kind.context])
    space = ctx[kind.context[0][0]].space
    rank = len(next(spec for name, spec in kind.table.terms[0][1] if name == kind.unknown))
    shape = (space.dim,) * rank
    slots = list(itertools.product(*map(range, shape)))
    if kind.skew:
        slots = [(i, j) for i, j in slots if i < j]
    operands = {key: ctx[key].tensor for key, _ in kind.context}
    return kind, space, shape, slots, {**operands, kind.unknown: Tensor(shape, {})}


def _rows(kind, space, shape, slots, operands) -> list[Row]:
    """The problem's identity as sparse rows over the unknown's free entries.

    Row by row, the components of the identity in index order, empty rows
    included; column by column, the coefficient of each free entry, which for
    a skew form is that of (i, j) less that of (j, i).  A row holds the cells
    that a term reaches with a nonzero coefficient.
    """
    # the unknown's entries by their row-major place in its shape
    flat = {idx: k for k, idx in enumerate(itertools.product(*map(range, shape)))}
    column = {flat[slot]: (col, True) for col, slot in enumerate(slots)}
    if kind.skew:
        column.update({flat[j, i]: (col, False) for col, (i, j) in enumerate(slots)})
    full, sums = kind.table.coefficients(kind.unknown, **operands)
    rows: list[Row] = [{} for _ in range(math.prod(full) // len(flat))]
    for key, value in sums.items():
        row, entry = divmod(key, len(flat))
        if entry in column:
            col, positive = column[entry]
            cells = rows[row]
            cell = cells.get(col)
            if cell is None:
                cells[col] = value if positive else -value
            else:
                cells[col] = cell + value if positive else cell - value
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
    system = kind, space, shape, slots, operands = _system(problem)
    vectors, certifying = kernel(_rows(*system), len(slots), assumptions)
    basis = []
    for vec in vectors:
        entries = dict(zip(slots, vec))
        if kind.skew:
            entries.update({(j, i): -value for (i, j), value in zip(slots, vec)})
        element = kind.element(space, Tensor(shape, entries))
        if kind.check is not None:
            solves = kind.check(problem.context, element).passed
        else:
            solves = not kind.table.evaluate(**{**operands, kind.unknown: element.tensor}).entries
        if not solves:
            raise AssertionError("solver produced a non-solution; this is a bug")
        basis.append(element)
    used = denominator_assumptions(problem.context.values(), assumptions)
    used += [a for a in certifying if a not in used]
    return LinearSolution(problem.kind, basis, len(slots) - len(vectors), len(slots), used)


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
