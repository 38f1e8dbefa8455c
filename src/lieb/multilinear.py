"""Finite-dimensional basis spaces and small dense exact multilinear algebra.

Matrices and tensors are nested lists of Scalar.  Index conventions used
throughout the package (and in the file format):

* operator matrix: column j holds the image of basis vector j, so
  ``N(e_j) = sum_i M[i][j] e_i``;
* bilinear form: ``B[i][j] = B(e_i, e_j)``;
* 2-tensor: ``r[i][j]`` is the coefficient of ``e_i (x) e_j``;
* bracket constants: ``[e_i, e_j] = sum_k c[i][j][k] e_k``;
* cobracket constants: ``delta(e_i) = sum_{j,k} d[i][j][k] e_j (x) e_k``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

from .scalars import Assumption, Polynomial, Scalar, ZERO, ONE, covered_by_assumptions

Vector = list[Scalar]
Matrix = list[list[Scalar]]


class ShapeError(ValueError):
    """Dimension mismatch between multilinear operands."""


class PivotAmbiguous(Exception):
    """Elimination needed to divide by a polynomial not covered by assumptions."""

    def __init__(self, offending: Polynomial):
        super().__init__(f"pivot {offending} is not certified nonzero")
        self.offending = offending


@dataclass(frozen=True)
class BasisSpace:
    """An ordered basis given by distinct labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("a basis space needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate basis labels in {self.labels}")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def dual(self) -> BasisSpace:
        return BasisSpace(tuple(f"{name}*" for name in self.labels))

    def concat(self, other: BasisSpace) -> BasisSpace:
        return BasisSpace(self.labels + other.labels)


def space(*labels: str) -> BasisSpace:
    return BasisSpace(tuple(labels))


# -- dense helpers ----------------------------------------------------------

def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO for _ in range(cols)] for _ in range(rows)]


def zeros3(a: int, b: int, c: int) -> list[list[list[Scalar]]]:
    return [[[ZERO for _ in range(c)] for _ in range(b)] for _ in range(a)]


def nonzero(row: Sequence[Scalar]) -> list[tuple[int, Scalar]]:
    """(index, entry) of each nonzero entry of a row, in index order."""
    return [(k, v) for k, v in enumerate(row) if not v.is_zero()]


def nonzero_columns(a: Matrix) -> list[list[tuple[int, Scalar]]]:
    """For each column j, (i, a[i][j]) of its nonzero entries, in row order."""
    return [nonzero(col) for col in zip(*a)]


def sum_terms(terms: Sequence[Scalar]) -> Scalar:
    """terms[0] + terms[1] + ... added from left to right; ZERO for no terms."""
    return functools.reduce(operator.add, terms) if terms else ZERO


def add_term(acc: dict, key, term: Scalar) -> None:
    """acc[key] += term, where a missing key is a zero sum (0 + x is x)."""
    prev = acc.get(key)
    acc[key] = term if prev is None else prev + term


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def basis_vector(n: int, i: int) -> Vector:
    return [ONE if j == i else ZERO for j in range(n)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(s: Scalar, a: Matrix) -> Matrix:
    return [[s * x for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ShapeError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    return [[_dot(row, [b[k][j] for k in range(len(b))]) for j in range(len(b[0]))] for row in a]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if a and len(a[0]) != len(v):
        raise ShapeError(f"matrix has {len(a[0])} columns, vector has {len(v)} entries")
    return [_dot(row, v) for row in a]


def transpose_matrix(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def _dot(xs: Sequence[Scalar], ys: Sequence[Scalar]) -> Scalar:
    total = ZERO
    for x, y in zip(xs, ys):
        if x.num.is_zero() or y.num.is_zero():
            continue
        total = total + x * y
    return total


def determinant(a: Matrix) -> Scalar:
    """Exact determinant by Laplace expansion with column-subset memoisation."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeError("determinant of a non-square matrix")
    if n == 0:
        return ONE
    cache: dict[tuple[int, ...], Scalar] = {}

    def minor(cols: tuple[int, ...]) -> Scalar:
        if len(cols) == 1:
            return a[n - 1][cols[0]]
        if cols in cache:
            return cache[cols]
        row = n - len(cols)
        total = ZERO
        for pos, col in enumerate(cols):
            entry = a[row][col]
            if entry.num.is_zero():
                continue
            rest = cols[:pos] + cols[pos + 1:]
            term = entry * minor(rest)
            total = total + term if pos % 2 == 0 else total - term
        cache[cols] = total
        return total

    return minor(tuple(range(n)))


# -- contraction engine -----------------------------------------------------

def contract(plan: str, *operands):
    """Exact einsum-style contraction over nested-list Scalar tensors.

    ``plan`` has the shape ``"ij,jk->ik"``.  Every index letter must have a
    consistent dimension across operands; omitted output letters are summed.
    Returns a Scalar for rank-0 results, nested lists otherwise.
    """
    if "->" not in plan:
        raise ValueError("contraction plan needs an explicit '->'")
    lhs, out_spec = plan.split("->")
    specs = lhs.split(",")
    if len(specs) != len(operands):
        raise ShapeError(f"plan has {len(specs)} operands, got {len(operands)}")
    dims: dict[str, int] = {}
    for spec, op in zip(specs, operands):
        shape = _shape(op)
        if len(shape) != len(spec):
            raise ShapeError(f"operand of rank {len(shape)} does not match spec {spec!r}")
        for letter, size in zip(spec, shape):
            if dims.setdefault(letter, size) != size:
                raise ShapeError(f"index {letter!r} has conflicting sizes")
    for letter in out_spec:
        if letter not in dims:
            raise ShapeError(f"output index {letter!r} not present in operands")
    sum_letters = sorted(set(dims) - set(out_spec))

    def cell(out_idx: dict[str, int]) -> Scalar:
        total = ZERO
        for combo in itertools.product(*(range(dims[l]) for l in sum_letters)):
            idx = dict(out_idx)
            idx.update(zip(sum_letters, combo))
            term = ONE
            dead = False
            for spec, op in zip(specs, operands):
                entry = _fetch(op, [idx[l] for l in spec])
                if entry.num.is_zero():
                    dead = True
                    break
                term = term * entry
            if not dead:
                total = total + term
        return total

    def build(letters: str, idx: dict[str, int]):
        if not letters:
            return cell(idx)
        head, rest = letters[0], letters[1:]
        return [build(rest, {**idx, head: i}) for i in range(dims[head])]

    return build(out_spec, {})


def _shape(op) -> tuple[int, ...]:
    if isinstance(op, Scalar):
        return ()
    shape = []
    current = op
    while isinstance(current, list):
        shape.append(len(current))
        current = current[0]
    return tuple(shape)


def _fetch(op, idx: list[int]) -> Scalar:
    for i in idx:
        op = op[i]
    return op


# -- structured wrappers ----------------------------------------------------

@dataclass
class LinearOperator:
    """Linear map stored as a codomain.dim x domain.dim matrix (columns = images)."""

    domain: BasisSpace
    codomain: BasisSpace
    matrix: Matrix

    def __post_init__(self):
        if len(self.matrix) != self.codomain.dim or any(
            len(row) != self.domain.dim for row in self.matrix
        ):
            raise ShapeError("operator matrix does not match its spaces")

    @classmethod
    def identity(cls, sp: BasisSpace) -> LinearOperator:
        return cls(sp, sp, identity(sp.dim))

    @classmethod
    def zero(cls, domain: BasisSpace, codomain: BasisSpace | None = None) -> LinearOperator:
        codomain = codomain or domain
        return cls(domain, codomain, zeros(codomain.dim, domain.dim))

    @classmethod
    def from_images(cls, domain: BasisSpace, codomain: BasisSpace,
                    images: dict[str, Vector]) -> LinearOperator:
        mat = zeros(codomain.dim, domain.dim)
        for label, vec in images.items():
            j = domain.index(label)
            for i, value in enumerate(vec):
                mat[i][j] = value
        return cls(domain, codomain, mat)

    def apply(self, vec: Vector) -> Vector:
        return mat_vec(self.matrix, vec)

    def compose(self, inner: LinearOperator) -> LinearOperator:
        if inner.codomain.dim != self.domain.dim:
            raise ShapeError("operator composition dimensions disagree")
        return LinearOperator(inner.domain, self.codomain, mat_mul(self.matrix, inner.matrix))

    def transpose(self) -> LinearOperator:
        return LinearOperator(self.codomain.dual(), self.domain.dual(),
                              transpose_matrix(self.matrix))

    def add(self, other: LinearOperator) -> LinearOperator:
        return LinearOperator(self.domain, self.codomain, mat_add(self.matrix, other.matrix))

    def sub(self, other: LinearOperator) -> LinearOperator:
        return LinearOperator(self.domain, self.codomain, mat_sub(self.matrix, other.matrix))

    def scale(self, s: Scalar) -> LinearOperator:
        return LinearOperator(self.domain, self.codomain, mat_scale(s, self.matrix))

    def shift(self, s: Scalar) -> LinearOperator:
        """self + s * id (endomorphisms only)."""
        if self.domain.dim != self.codomain.dim:
            raise ShapeError("shift needs an endomorphism")
        return self.add(LinearOperator.identity(self.domain).scale(s))


@dataclass
class BilinearForm:
    """Bilinear form with matrix entry (i, j) = value on (e_i, e_j)."""

    space: BasisSpace
    matrix: Matrix

    def __post_init__(self):
        n = self.space.dim
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ShapeError("form matrix does not match its space")

    @classmethod
    def zero(cls, sp: BasisSpace) -> BilinearForm:
        return cls(sp, zeros(sp.dim, sp.dim))

    def value(self, i: int, j: int) -> Scalar:
        return self.matrix[i][j]

    def is_skew(self) -> bool:
        n = self.space.dim
        return all((self.matrix[i][j] + self.matrix[j][i]).is_zero()
                   for i in range(n) for j in range(n))


@dataclass
class TwoTensor:
    """Element of V (x) V with matrix entry (i, j) = coefficient of e_i (x) e_j."""

    space: BasisSpace
    matrix: Matrix

    def __post_init__(self):
        n = self.space.dim
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ShapeError("tensor matrix does not match its space")

    @classmethod
    def zero(cls, sp: BasisSpace) -> TwoTensor:
        return cls(sp, zeros(sp.dim, sp.dim))

    def sigma(self) -> TwoTensor:
        """The flip r^sigma = r^2 (x) r^1."""
        return TwoTensor(self.space, transpose_matrix(self.matrix))

    def add(self, other: TwoTensor) -> TwoTensor:
        return TwoTensor(self.space, mat_add(self.matrix, other.matrix))

    def is_antisymmetric(self) -> bool:
        n = self.space.dim
        return all((self.matrix[i][j] + self.matrix[j][i]).is_zero()
                   for i in range(n) for j in range(n))


@dataclass
class ThreeTensor:
    """Element of V (x) V (x) V as a dim^3 Scalar array."""

    space: BasisSpace
    entries: list[list[list[Scalar]]]

    def __post_init__(self):
        n = self.space.dim
        if len(self.entries) != n or any(
            len(plane) != n or any(len(row) != n for row in plane) for plane in self.entries
        ):
            raise ShapeError("3-tensor entries do not match the space")


# -- exact elimination ------------------------------------------------------

def _certify_pivot(pivot: Scalar, assumptions: Sequence[Assumption]) -> list[Assumption]:
    """Assumptions certifying that the pivot numerator is nonzero."""
    num = pivot.num
    if num.is_constant():
        return []
    used = covered_by_assumptions(num, assumptions)
    if used is None:
        raise PivotAmbiguous(num)
    return used


def row_reduce(matrix: Sequence[Sequence[Scalar]],
               assumptions: Sequence[Assumption] = ()) -> tuple[Matrix, list[int], list[Assumption]]:
    """Reduced row echelon form; returns (rref, pivot columns, assumptions used).

    Pivots are the first nonzero entry of each column in row order; a pivot
    whose nonvanishing does not follow from the assumptions raises
    PivotAmbiguous rather than branching into cases.
    """
    m = [list(row) for row in matrix]
    if not m:
        return [], [], []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    used: list[Assumption] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if not m[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for a in _certify_pivot(m[r][c], assumptions):
            if a not in used:
                used.append(a)
        inv = ONE / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                factor = m[i][c]
                # where the pivot row is zero, x - factor * 0 is x itself
                m[i] = [x if y.is_zero() else x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots, used


def nullspace(matrix: Sequence[Sequence[Scalar]],
              assumptions: Sequence[Assumption] = ()) -> list[Vector]:
    """Exact basis of the right kernel; vectors satisfy M v = 0 identically."""
    if not matrix:
        return []
    cols = len(matrix[0])
    rref, pivots, _ = row_reduce(matrix, assumptions)
    free = [c for c in range(cols) if c not in pivots]
    basis: list[Vector] = []
    for f in free:
        vec = [ZERO] * cols
        vec[f] = ONE
        for r, p in enumerate(pivots):
            vec[p] = -rref[r][f]
        basis.append(vec)
    return basis


def rank(matrix: Sequence[Sequence[Scalar]],
         assumptions: Sequence[Assumption] = ()) -> int:
    if not matrix:
        return 0
    _, pivots, _ = row_reduce(matrix, assumptions)
    return len(pivots)


def solve_right(a: Matrix, b: Matrix, assumptions: Sequence[Assumption] = ()) -> Matrix:
    """Solve A X = B exactly for square invertible A (raises if singular)."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ShapeError("solve_right needs square A and matching B")
    width = len(b[0])
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    rref, pivots, _ = row_reduce(aug, assumptions)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise ShapeError("matrix is singular; cannot solve")
    return [row[n:n + width] for row in rref[:n]]
