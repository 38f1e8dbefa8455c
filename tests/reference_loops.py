"""Dense reference loops for the tests: matrix arithmetic, dense
elimination and coefficient rows, operator arithmetic, the vector-level
bracket, ad, cobracket and coaction, and polynomials on tuple monomials.

The package evaluates every identity with identity tables, squares an
operator with ``structures.SQUARE`` and eliminates on sparse rows; these
loops are the independent references the tests compare those with, and the
helpers the tests use to build their inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from lieb import solver
from lieb.multilinear import (
    BilinearForm,
    LinearOperator,
    Matrix,
    ShapeError,
    TwoTensor,
    Vector,
    ZERO,
    _certify_pivot,
)
from lieb.scalars import ONE, Assumption, Scalar
from lieb.structures import Corepresentation, LieAlgebra, LieCoalgebra


# -- matrices ---------------------------------------------------------------

def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO for _ in range(cols)] for _ in range(rows)]


def zeros3(a: int, b: int, c: int) -> list[list[list[Scalar]]]:
    return [[[ZERO for _ in range(c)] for _ in range(b)] for _ in range(a)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose_matrix(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def _dot(xs: Sequence[Scalar], ys: Sequence[Scalar]) -> Scalar:
    total = ZERO
    for x, y in zip(xs, ys):
        if x.num.is_zero() or y.num.is_zero():
            continue
        total = total + x * y
    return total


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if a and len(a[0]) != len(v):
        raise ShapeError(f"matrix has {len(a[0])} columns, vector has {len(v)} entries")
    return [_dot(row, v) for row in a]


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


def row_reduce(matrix: Sequence[Sequence[Scalar]],
               assumptions: Sequence[Assumption] = ()) -> tuple[Matrix, list[int], list[Assumption]]:
    """Dense reduced row echelon form on Scalars: (rref, pivot columns,
    assumptions used), by the pivot rule of ``multilinear.row_reduce`` (the
    first row at or below the current one that is nonzero in the column)."""
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
                m[i] = [x if y.is_zero() else x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots, used


def coefficient_rows(problem: solver.LinearProblem) -> Matrix:
    """A linear problem's sparse rows as a dense matrix over the unknown's
    free entries, empty rows included."""
    kind, _, operands = solver._system(problem)
    cols = range(operands[kind.unknown].shape[-1])
    return [[row.get(col, ZERO) for col in cols] for row in solver._rows(kind, operands)]


# -- operators and tensors ----------------------------------------------------

def identity_operator(space) -> LinearOperator:
    return LinearOperator(space, space, identity(space.dim))


def zero_form(space) -> BilinearForm:
    return BilinearForm(space, zeros(space.dim, space.dim))


def zero_tensor(space) -> TwoTensor:
    return TwoTensor(space, zeros(space.dim, space.dim))


def apply(op: LinearOperator, vec: Vector) -> Vector:
    return mat_vec(op.matrix, vec)


def scale(op: LinearOperator, s: Scalar) -> LinearOperator:
    return LinearOperator(op.domain, op.codomain, mat_scale(s, op.matrix))


def shift(op: LinearOperator, s: Scalar) -> LinearOperator:
    """op + s * id (endomorphisms only)."""
    if op.domain.dim != op.codomain.dim:
        raise ShapeError("shift needs an endomorphism")
    return LinearOperator(op.domain, op.codomain,
                          mat_add(op.matrix, mat_scale(s, identity(op.domain.dim))))


def is_antisymmetric(r: TwoTensor) -> bool:
    n = r.space.dim
    return all((r.matrix[i][j] + r.matrix[j][i]).is_zero() for i in range(n) for j in range(n))


# -- brackets, cobrackets and coactions of vectors ---------------------------

def bracket(L: LieAlgebra, x: Vector, y: Vector) -> Vector:
    n = L.space.dim
    out = [ZERO] * n
    for i in range(n):
        if x[i].num.is_zero():
            continue
        for j in range(n):
            if y[j].num.is_zero():
                continue
            coeff = x[i] * y[j]
            for k in range(n):
                if not L.c[i][j][k].num.is_zero():
                    out[k] = out[k] + coeff * L.c[i][j][k]
    return out


def ad(L: LieAlgebra, i: int) -> Matrix:
    """Matrix of ad_{e_i} (columns are images of basis vectors)."""
    n = L.space.dim
    return [[L.c[i][q][p] for q in range(n)] for p in range(n)]


def cobracket(C: LieCoalgebra, x: Vector) -> Matrix:
    """delta(x) as a dim x dim coefficient matrix."""
    n = C.space.dim
    out = zeros(n, n)
    for i in range(n):
        if x[i].num.is_zero():
            continue
        for a in range(n):
            for b in range(n):
                if not C.d[i][a][b].num.is_zero():
                    out[a][b] = out[a][b] + x[i] * C.d[i][a][b]
    return out


def gamma(K: Corepresentation, v: Vector) -> Matrix:
    """Coaction of a module vector as an (algebra dim) x (module dim) matrix."""
    n, m = K.coalgebra.space.dim, K.space.dim
    out = zeros(n, m)
    for i, coeff in enumerate(v):
        if coeff.num.is_zero():
            continue
        for j in range(n):
            for k in range(m):
                if not K.coaction[i][j][k].num.is_zero():
                    out[j][k] = out[j][k] + coeff * K.coaction[i][j][k]
    return out


# -- polynomials on tuple monomials -------------------------------------------

def _mono_mul(a: tuple, b: tuple) -> tuple:
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _graded_lex(mono: tuple):
    """Sort key listing monomials biggest first: higher total degree, then
    earlier parameter names with higher exponents."""
    return (-sum(e for _, e in mono), tuple((name, -e) for name, e in mono))


class TuplePolynomial:
    """An integer polynomial whose monomials are sorted (parameter, exponent)
    tuples, 1 being (): the reference the packed Polynomial is compared with."""

    def __init__(self, terms: dict | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    def __eq__(self, other) -> bool:
        return isinstance(other, TuplePolynomial) and self.terms == other.terms

    def __add__(self, other: TuplePolynomial) -> TuplePolynomial:
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return TuplePolynomial(out)

    def __neg__(self) -> TuplePolynomial:
        return TuplePolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: TuplePolynomial) -> TuplePolynomial:
        return self + (-other)

    def __mul__(self, other: TuplePolynomial) -> TuplePolynomial:
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return TuplePolynomial(out)

    def __floordiv__(self, divisor: TuplePolynomial) -> TuplePolynomial:
        """The exact quotient by leading terms; AssertionError if divisor does
        not divide self."""
        lead = min(divisor.terms, key=_graded_lex)
        quotient, rest = TuplePolynomial(), self
        while rest.terms:
            m = min(rest.terms, key=_graded_lex)
            c, r = divmod(rest.terms[m], divisor.terms[lead])
            exps = dict(m)
            for name, e in lead:
                exps[name] = exps.get(name, 0) - e
            assert not r and min(exps.values(), default=0) >= 0, "not a divisor"
            term = TuplePolynomial({tuple(sorted((n, e) for n, e in exps.items() if e)): c})
            quotient, rest = quotient + term, rest - term * divisor
        return quotient

    def evaluate(self, point) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = Fraction(coeff)
            for name, e in mono:
                term *= Fraction(point[name]) ** e
            total += term
        return total

    def parameters(self) -> frozenset[str]:
        return frozenset(name for mono in self.terms for name, _ in mono)

    def degree(self) -> int:
        return max((sum(e for _, e in mono) for mono in self.terms), default=0)

    def __str__(self) -> str:
        parts = []
        for mono, coeff in sorted(self.terms.items(), key=lambda item: _graded_lex(item[0])):
            body = "*".join(([str(abs(coeff))] if abs(coeff) != 1 or not mono else [])
                            + [name if e == 1 else f"{name}^{e}" for name, e in mono])
            sign = "-" if coeff < 0 else "+"
            parts.append(f"{sign} {body}" if parts else body if coeff > 0 else f"-{body}")
        return " ".join(parts) or "0"
