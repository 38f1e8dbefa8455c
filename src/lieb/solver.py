"""Exact linear classification and randomized refutation.

Linear problems pose one of the identity tables of ``structures`` in a
declared unknown: the rows are the unknown's coefficients in the table, and
an exact nullspace solves them, reporting the side conditions of the inputs'
denominators and the assumptions its pivots used.  Every basis element is
verified exactly: weak-symplectic and cocycle-in-delta ones by re-running
their check, co-CYBE-slice and ad-invariance ones by M v = 0 over the rows'
nonzeros.
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
    BilinearForm, Row, Table, Tensor, TwoTensor, ZERO, kernel, nullspace, rank,
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
CO_CYBE_SLICE = "co-cybe-slice"
COCYCLE_IN_DELTA = "cocycle-in-delta"
AD_INVARIANCE = "ad-invariance"


@dataclass(frozen=True)
class LinearProblem:
    """An identity that is affine-linear in one declared unknown."""

    kind: str
    context: dict

    @classmethod
    def weak_symplectic(cls, L: LieAlgebra) -> LinearProblem:
        return cls(WEAK_SYMPLECTIC, {"algebra": L})

    @classmethod
    def co_cybe_slice(cls, C: LieCoalgebra, omega0: BilinearForm) -> LinearProblem:
        return cls(CO_CYBE_SLICE, {"coalgebra": C, "omega0": omega0})

    @classmethod
    def cocycle_in_delta(cls, L: LieAlgebra) -> LinearProblem:
        return cls(COCYCLE_IN_DELTA, {"algebra": L})

    @classmethod
    def ad_invariance(cls, L: LieAlgebra) -> LinearProblem:
        return cls(AD_INVARIANCE, {"algebra": L})


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
class _Kind:
    """How one kind of problem reads its rows off an identity table."""

    table: Table
    known: Callable[[dict], dict]  # the operands besides the unknown, from the context
    unknown: str  # its operand name; each of its axes spans the space
    rank: int
    element: Callable  # (space, dense value) -> basis element
    verify: Callable | None = None  # (context, element) -> CheckReport; else M v = 0
    skew: bool = False  # a skew form, whose free entries are the upper triangle
    occurrences: tuple[int, ...] = (0,)  # the unknown's occurrences the rows take


_KINDS = {
    WEAK_SYMPLECTIC: _Kind(
        structures.WEAK_SYMPLECTIC, lambda ctx: {"c": ctx["algebra"].c}, "om", 2, BilinearForm,
        lambda ctx, x: check_weak_symplectic(ctx["algebra"], x), skew=True),
    # the symmetrised linearisation B(omega0, omega) + B(omega, omega0) of the
    # quadratic co-Yang-Baxter equation: omega0 in one slot of each term, the
    # unknown in the other
    CO_CYBE_SLICE: _Kind(
        structures.CO_CYBE, lambda ctx: {"d": ctx["coalgebra"].d, "om": ctx["omega0"].matrix},
        "om", 2, BilinearForm, skew=True, occurrences=(0, 1)),
    COCYCLE_IN_DELTA: _Kind(
        structures.COCYCLE, lambda ctx: {"c": ctx["algebra"].c}, "d", 3, LieCoalgebra,
        lambda ctx, x: check_cocycle(ctx["algebra"], x)),
    AD_INVARIANCE: _Kind(
        structures.AD_INVARIANCE, lambda ctx: {"c": ctx["algebra"].c}, "r", 2, TwoTensor),
}


def _system(problem: LinearProblem):
    """The problem's kind, its space, the unknown's shape and free entries (all
    of them, or the upper triangle of a skew form), and the table's operands
    with the unknown as a zero of its shape unless the context gives it."""
    if problem.kind not in _KINDS:
        raise ValueError(f"unknown linear problem kind {problem.kind!r}")
    kind, ctx = _KINDS[problem.kind], problem.context
    space = (ctx.get("algebra") or ctx["coalgebra"]).space
    shape = (space.dim,) * kind.rank
    slots = list(itertools.product(*map(range, shape)))
    if kind.skew:
        slots = [(i, j) for i, j in slots if i < j]
    return kind, space, shape, slots, {kind.unknown: Tensor(shape, {}), **kind.known(ctx)}


def coefficient_rows(problem: LinearProblem) -> list[list[Scalar]]:
    """The problem's identity as a matrix over the unknown's free entries.

    Row by row, the components of the identity in index order, zero rows
    included; column by column, the coefficient of each free entry, which for
    a skew form is that of (i, j) less that of (j, i).  With several
    occurrences of the unknown, a cell is the sum of its coefficient in each.
    """
    system = _system(problem)
    cols = range(len(system[3]))
    return [[row.get(col, ZERO) for col in cols] for row in _rows(*system)]


def _rows(kind, space, shape, slots, operands) -> list[Row]:
    """coefficient_rows as sparse rows: the cells that a term reaches."""
    # the unknown's entries by their row-major place in its shape
    flat = {idx: k for k, idx in enumerate(itertools.product(*map(range, shape)))}
    column = {flat[slot]: (col, True) for col, slot in enumerate(slots)}
    if kind.skew:
        column.update({flat[j, i]: (col, False) for col, (i, j) in enumerate(slots)})
    rows: list[Row] = []
    for occurrence in kind.occurrences:
        full, sums = kind.table.coefficients(kind.unknown, occurrence, **operands)
        rows = rows or [{} for _ in range(math.prod(full) // len(flat))]
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


def _by_column(rows: list[Row]) -> dict[int, list]:
    """The rows' entries by column: col -> [(row, entry)]."""
    columns: dict[int, list] = {}
    for i, row in enumerate(rows):
        for col, value in row.items():
            columns.setdefault(col, []).append((i, value))
    return columns


def _annihilates(columns: dict[int, list], vec) -> bool:
    """Whether M v = 0, adding only products of nonzeros of M and v; M is
    given by column."""
    totals: dict[int, Scalar] = {}
    for col, x in enumerate(vec):
        if x:
            for i, value in columns.get(col, ()):
                totals[i] = totals.get(i, ZERO) + value * x
    return not any(totals.values())


def solve_linear(problem: LinearProblem,
                 assumptions: Sequence[Assumption] = ()) -> LinearSolution:
    """Exact basis of the solution space of a linear problem.

    Every basis element is verified exactly, by its kind's check or else by
    M v = 0 on the rows; a violation raises.  The solution carries the side
    conditions of the inputs' non-constant denominators (the declared
    assumptions that certify them, or else the denominators themselves), then
    the assumptions that certified its pivots.
    """
    system = kind, space, shape, slots, _ = _system(problem)
    rows = _rows(*system)
    vectors, pivots = kernel(rows, len(slots), assumptions)
    columns = _by_column(rows) if kind.verify is None else {}
    basis = []
    for vec in vectors:
        entries = dict(zip(slots, vec))
        if kind.skew:
            entries.update({(j, i): -value for (i, j), value in zip(slots, vec)})
        element = kind.element(space, Tensor(shape, entries).dense())
        if kind.verify is not None:
            solves = kind.verify(problem.context, element).passed
        else:
            solves = _annihilates(columns, vec)
        if not solves:
            raise AssertionError("solver produced a non-solution; this is a bug")
        basis.append(element)
    used = denominator_assumptions(problem.context.values(), assumptions)
    used += [a for a in pivots if a not in used]
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
    """Substitute exact rational values for every parameter of a structure."""
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
