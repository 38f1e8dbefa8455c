"""Exact linear classification and randomized refutation.

Linear problems pose one of the affine-linear identities in a declared
unknown and solve it by exact nullspace; the basis is re-substituted into the
identity as a built-in verification.  Nonlinear claims are attacked by
sampling: draw exact rational parameter values, re-check, and return either a
re-verified nonzero witness or sampling evidence of vanishing (which is
labelled as evidence, never proof).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

# rank is not called here, since a solve's rank is its unknowns less its
# nullity; it stays in this namespace for code that looks up lieb.solver.rank.
from .multilinear import BilinearForm, TwoTensor, ZERO, nullspace, rank  # noqa: F401
from .scalars import Assumption, EvalSingular, Scalar
from .structures import (
    CheckReport,
    LieAlgebra,
    LieCoalgebra,
    check_cocycle,
    check_weak_symplectic,
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

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _skew_unknowns(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _skew_matrix(space, coords: Sequence[Scalar], slots: Sequence[tuple[int, int]]):
    n = space.dim
    mat = [[ZERO for _ in range(n)] for _ in range(n)]
    for (i, j), value in zip(slots, coords):
        mat[i][j] = value
        mat[j][i] = -value
    return mat


def solve_linear(problem: LinearProblem,
                 assumptions: Sequence[Assumption] = ()) -> LinearSolution:
    """Exact basis of the solution space of a linear problem.

    Every returned basis element is re-substituted into the defining identity
    and must satisfy it exactly; a violation raises.
    """
    builders = {
        WEAK_SYMPLECTIC: _solve_weak_symplectic,
        CO_CYBE_SLICE: _solve_co_cybe_slice,
        COCYCLE_IN_DELTA: _solve_cocycle_in_delta,
        AD_INVARIANCE: _solve_ad_invariance,
    }
    if problem.kind not in builders:
        raise ValueError(f"unknown linear problem kind {problem.kind!r}")
    return builders[problem.kind](problem.context, assumptions)


def _solve_weak_symplectic(context, assumptions) -> LinearSolution:
    L: LieAlgebra = context["algebra"]
    n = L.space.dim
    slots = _skew_unknowns(n)
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = []
                for (a, b) in slots:
                    coeff = ZERO
                    for m in range(n):
                        for (p, q, r_) in ((i, j, k), (j, k, i), (k, i, j)):
                            # omega([e_p, e_q], e_r) with omega = E_ab - E_ba
                            if m == a and r_ == b:
                                coeff = coeff + L.c[p][q][m]
                            if m == b and r_ == a:
                                coeff = coeff - L.c[p][q][m]
                    row.append(coeff)
                rows.append(row)
    basis_vectors = nullspace(rows, assumptions)
    basis = []
    for vec in basis_vectors:
        form = BilinearForm(L.space, _skew_matrix(L.space, vec, slots))
        report = check_weak_symplectic(L, form)
        if not report.passed:
            raise AssertionError("solver produced a non-solution; this is a bug")
        basis.append(form)
    return LinearSolution(WEAK_SYMPLECTIC, basis, len(slots) - len(basis_vectors), len(slots))


def _solve_co_cybe_slice(context, assumptions) -> LinearSolution:
    """Directional slice of the co-Yang-Baxter equation at a base form.

    The equation is quadratic in the form; the slice solves its symmetrised
    linearisation B(omega0, omega) + B(omega, omega0) = 0 over skew omega.
    """
    C: LieCoalgebra = context["coalgebra"]
    om0: BilinearForm = context["omega0"]
    n = C.space.dim
    slots = _skew_unknowns(n)
    d, m0 = C.d, om0.matrix

    def bilinear(first, second, i, j, k) -> Scalar:
        total = ZERO
        for a in range(n):
            for b in range(n):
                total = (total
                         + d[i][a][b] * first[a][j] * second[b][k]
                         + d[k][a][b] * first[i][a] * second[j][b]
                         + d[j][a][b] * first[i][a] * second[b][k])
        return total

    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = []
                for (a, b) in slots:
                    unit = [[ZERO] * n for _ in range(n)]
                    unit[a][b] = Scalar.from_int(1)
                    unit[b][a] = Scalar.from_int(-1)
                    row.append(bilinear(m0, unit, i, j, k) + bilinear(unit, m0, i, j, k))
                rows.append(row)
    basis_vectors = nullspace(rows, assumptions)
    basis = [BilinearForm(C.space, _skew_matrix(C.space, vec, slots)) for vec in basis_vectors]
    return LinearSolution(CO_CYBE_SLICE, basis, len(slots) - len(basis_vectors), len(slots))


def _solve_cocycle_in_delta(context, assumptions) -> LinearSolution:
    L: LieAlgebra = context["algebra"]
    n = L.space.dim
    c = L.c
    slots = [(i, a, b) for i in range(n) for a in range(n) for b in range(n)]
    rows = []
    for i in range(n):
        for j in range(n):
            for p in range(n):
                for q in range(n):
                    row = []
                    for (m, a, b) in slots:
                        coeff = ZERO
                        if (a, b) == (p, q):
                            coeff = coeff + c[i][j][m]
                        # -[x, y_(1)] (x) y_(2) - y_(1) (x) [x, y_(2)] contributions
                        if m == j and b == q:
                            coeff = coeff - c[i][a][p]
                        if m == j and a == p:
                            coeff = coeff - c[i][b][q]
                        if m == i and b == q:
                            coeff = coeff + c[j][a][p]
                        if m == i and a == p:
                            coeff = coeff + c[j][b][q]
                        row.append(coeff)
                    rows.append(row)
    basis_vectors = nullspace(rows, assumptions)
    basis = []
    for vec in basis_vectors:
        d = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (m, a, b), value in zip(slots, vec):
            d[m][a][b] = d[m][a][b] + value
        coalg = LieCoalgebra(L.space, d)
        if not check_cocycle(L, coalg).passed:
            raise AssertionError("solver produced a non-solution; this is a bug")
        basis.append(coalg)
    return LinearSolution(COCYCLE_IN_DELTA, basis, len(slots) - len(basis_vectors), len(slots))


def _solve_ad_invariance(context, assumptions) -> LinearSolution:
    L: LieAlgebra = context["algebra"]
    n = L.space.dim
    c = L.c
    slots = [(i, j) for i in range(n) for j in range(n)]
    rows = []
    for x in range(n):
        for p in range(n):
            for q in range(n):
                row = []
                for (a, b) in slots:
                    # (ad_x (x) id + id (x) ad_x)(r + r^sigma) at component (p, q)
                    coeff = ZERO
                    if b == q:
                        coeff = coeff + c[x][a][p]
                    if a == q:
                        coeff = coeff + c[x][b][p]
                    if a == p:
                        coeff = coeff + c[x][b][q]
                    if b == p:
                        coeff = coeff + c[x][a][q]
                    row.append(coeff)
                rows.append(row)
    basis_vectors = nullspace(rows, assumptions)
    basis = []
    for vec in basis_vectors:
        mat = [[ZERO] * n for _ in range(n)]
        for (i, j), value in zip(slots, vec):
            mat[i][j] = mat[i][j] + value
        basis.append(TwoTensor(L.space, mat))
    return LinearSolution(AD_INVARIANCE, basis, len(slots) - len(basis_vectors), len(slots))


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
    return map_scalars(obj, lambda s: Scalar.from_fraction(s.evaluate(assignment)))


def refute_by_sampling(check: Callable[..., CheckReport],
                       instances: Mapping[str, object],
                       cfg: SampleConfig = SampleConfig(),
                       avoid: Sequence[Assumption] = ()) -> RefutedAt | ConfirmedZero:
    """Search for an exact rational witness that a check fails.

    ``check`` is called with the structures in ``instances`` (as keyword
    arguments) after binding every parameter to a random rational.  Draws that
    vanish on an ``avoid`` assumption or hit a singular denominator are
    redrawn.  A refutation is re-verified exactly before being returned;
    ConfirmedZero is evidence of vanishing, not proof.
    """
    names = sorted(structure_parameters(*instances.values()))
    rng = random.Random(cfg.seed)
    for _ in range(cfg.trials):
        assignment, bound = _draw(rng, names, cfg, avoid, instances)
        report = check(**bound)
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
