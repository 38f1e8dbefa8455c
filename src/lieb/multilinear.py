"""Finite-dimensional basis spaces, exact multilinear algebra, and the engine
that evaluates identity tables over sparse tensors.

Matrices and tensors are nested lists of Scalar.  Index conventions used
throughout the package (and in the file format):

* operator matrix: column j holds the image of basis vector j, so
  ``N(e_j) = sum_i M[i][j] e_i``;
* bilinear form: ``B[i][j] = B(e_i, e_j)``;
* 2-tensor: ``r[i][j]`` is the coefficient of ``e_i (x) e_j``;
* bracket constants: ``[e_i, e_j] = sum_k c[i][j][k] e_k``;
* cobracket constants: ``delta(e_i) = sum_{j,k} d[i][j][k] e_j (x) e_k``.

Identity tables run one sparse fold; on constant operands it adds on ints
over one common denominator and reduces each component once (see Table).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import lcm, prod
from operator import itemgetter
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


def space(*labels: str) -> BasisSpace:
    return BasisSpace(tuple(labels))


# -- dense helpers ----------------------------------------------------------

def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO for _ in range(cols)] for _ in range(rows)]


def zeros3(a: int, b: int, c: int) -> list[list[list[Scalar]]]:
    return [[[ZERO for _ in range(c)] for _ in range(b)] for _ in range(a)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


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


# -- identity tables ----------------------------------------------------------

class Tensor:
    """A sparse tensor: its shape and its nonzero entries by index tuple."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape: tuple[int, ...], entries: dict[tuple, Scalar]):
        self.shape = shape
        self.entries = entries

    @classmethod
    def of(cls, tensor) -> Tensor:
        """A nested-list tensor (or a Scalar) as a Tensor; a Tensor as itself."""
        if isinstance(tensor, Tensor):
            return tensor
        shape, sub = (), tensor
        while isinstance(sub, list):
            shape, sub = shape + (len(sub),), sub[0]
        items = [((), tensor)]
        for _ in shape[:-1]:
            items = [(idx + (k,), sub) for idx, t in items for k, sub in enumerate(t)]
        return cls(shape, {idx + (k,): v for idx, row in items for k, v in enumerate(row)
                           if not v.is_zero()} if shape else {(): tensor} if tensor else {})

    def dense(self):
        """Nested lists with ZERO where no entry is stored; a Scalar at rank 0."""
        flat = [self.entries.get(idx, ZERO) for idx in product(*map(range, self.shape))]
        for size in reversed(self.shape[1:]):
            flat = [flat[k:k + size] for k in range(0, len(flat), size)]
        return flat[0] if not self.shape else flat


_FACTOR = re.compile(r"(\w+)\[(\w*)\]")
_TERM = re.compile(r"([+-]?)\s*([^+-]+)")


class Table:
    """An identity written as data: signed einsum terms over named operands.

    ``Table("ijkm", "l: c[ijl] c[lkm] + c[jkl] c[lim] + c[kil] c[ljm]")`` is
    the Jacobi sum.  Each argument after the output letters is a sub-sum, and
    ``-(...)`` negates one.  A sub-sum adds its segments, separated by
    ``;``.  A segment ``letters: terms`` sums its signed terms over its
    summation letters; a segment with no summation letters has no colon.  A
    term is a product of factors ``name[letters]``, and no factor repeats a
    letter (a diagonal such as ``a[ii]`` is not a table).  A component's value
    is the sum of every signed product that reaches it; ``Scalar`` keeps
    num/den in lowest terms, so that sum renders the same in any order.  Only
    nonzero entries are visited, and a component that no nonzero term reaches
    is absent.

    When every operand entry is constant, each operand is scaled to ints by
    the lcm of its denominators, so a component is one exact integer sum over
    one common denominator, reduced once into a ``Scalar``: in lowest terms,
    it is the value the ``Scalar`` fold reaches, and renders the same.
    """

    def __init__(self, out: str, *subsums: str):
        self.out = out
        self.subsums = tuple(_parse_subsum(text) for text in subsums)
        self._factors = []
        for segments in self.subsums:
            for letters, terms in segments:
                for _, factors in terms:
                    if set("".join(spec for _, spec in factors)) != set(out + letters):
                        raise ValueError(f"a term of {letters!r} does not cover {out + letters!r}")
                    for name, spec in factors:
                        if len(set(spec)) != len(spec):
                            raise ValueError(f"{name}[{spec}] repeats a letter")
                    self._factors += factors

    @cached_property
    def _plans(self):
        """The join plans, compiled on first use so that importing the tables
        stays cheap."""
        return self._compile(None, 0)

    def evaluate(self, **operands) -> Tensor:
        """The nonvanishing components, in index order."""
        tensors, shape, strides = self._operands(operands)
        total = _sum(self._plans, tensors, strides)
        radix = list(zip(strides, shape))
        return Tensor(shape, {tuple([k // stride % size for stride, size in radix]): total[k]
                              for k in sorted(total) if not total[k].is_zero()})

    def coefficients(self, unknown: str, occurrence: int = 0, **operands):
        """The coefficients of a table that is linear in one factor of each
        term.

        That factor is the ``occurrence``-th one named ``unknown``; any other
        factor of that name takes the operand's value.  Returns the shape of
        the coefficients, indexed by the output letters and then the
        unknown's, and a dict from each index that a nonzero term reaches,
        flattened in row-major order, to its coefficient.
        """
        tensors, shape, strides = self._operands(operands, unknown)
        unknown_shape = tensors[unknown].shape
        # the unknown's factor: every index, each with no value
        tensors[_UNKNOWN] = Tensor(unknown_shape, dict.fromkeys(product(*map(range, unknown_shape))))
        return shape, _sum(self._compile(unknown, occurrence), tensors, strides)

    def _operands(self, operands, unknown=None):
        """The operands as Tensors, the result's shape and its row-major strides."""
        tensors = {name: Tensor.of(t) for name, t in operands.items()}
        dims: dict[str, int] = {}
        for name, spec in self._factors:
            shape = tensors[name].shape
            if len(shape) != len(spec):
                raise ShapeError(f"{name}[{spec}] given a tensor of rank {len(shape)}")
            for letter, size in zip(spec, shape):
                if dims.setdefault(letter, size) != size:
                    raise ShapeError(f"index {letter!r} has conflicting sizes")
        shape = tuple(dims[x] for x in self.out) + (tensors[unknown].shape if unknown else ())
        strides = [1] * len(shape)
        for q in range(len(shape) - 2, -1, -1):
            strides[q] = strides[q + 1] * shape[q + 1]
        return tensors, shape, strides

    def _compile(self, unknown, occurrence):
        """For each term: its sign and join steps."""
        return [(positive, _plan(self.out, factors, unknown, occurrence))
                for segments in self.subsums for _, terms in segments
                for positive, factors in terms]


_UNKNOWN = "*"  # the operand name of the unknown's factor in a coefficient plan


def _parse_subsum(text: str):
    """((summation letters, ((positive, ((name, letters), ...)), ...)), ...)"""
    text = text.strip()
    negate = text.startswith("-(")
    if negate:
        if not text.endswith(")"):
            raise ValueError(f"unbalanced sub-sum {text!r}")
        text = text[2:-1]
    segments = []
    for segment in text.split(";"):
        letters, colon, body = segment.partition(":")
        if not colon:
            letters, body = "", segment
        terms = []
        for sign, term in _TERM.findall(body.strip()):
            factors = tuple(_FACTOR.findall(term))
            if not factors or _FACTOR.sub("", term).strip():
                raise ValueError(f"malformed term {term!r}")
            terms.append(((sign == "-") == negate, factors))
        segments.append((letters.strip(), tuple(terms)))
    return tuple(segments)


def _plan(out, factors, unknown, occurrence):
    """The join steps of one term.

    A step binds the new letters of one factor, looking its entries up by the
    letters already bound: (operand name, getter of the bound letters' values
    from an entry's index, getter of its new letters' values, getter of the
    lookup key from a binding, (place among the new letters, place in the key)
    of each key letter it binds).  The key letters are the output letters,
    then with an unknown the unknown's, whose factor reads the operand
    ``_UNKNOWN``.
    """
    if unknown is not None:
        skip = [k for k, (name, _) in enumerate(factors) if name == unknown][occurrence]
        if len(factors) == 1:
            raise ValueError("a term needs a factor besides the unknown")
        out += factors[skip][1]
        factors = factors[:skip] + ((_UNKNOWN, factors[skip][1]),) + factors[skip + 1:]
    bound: list[str] = []
    steps = []
    for name, spec in factors:
        at = [p for p, letter in enumerate(spec) if letter in bound]
        new = [p for p, letter in enumerate(spec) if letter not in bound]
        keyed = [(i, q) for i, p in enumerate(new) for q, x in enumerate(out) if x == spec[p]]
        steps.append((name, _picker(at), _picker(new),
                      _picker([bound.index(spec[p]) for p in at]), keyed))
        bound += [spec[p] for p in new]
    return steps


def _sum(plans, tensors, strides) -> dict:
    """Flattened key -> the Scalar sum of the signed products of every term
    that reaches it: on Scalars, or on ints when every operand entry is
    constant (the unknown's None counting as 1).  The integer lane scales each
    operand by the lcm L of its denominators, starts each term from +-common /
    (the product of its factors' L), common being the lcm of those products,
    and divides each total by common once."""
    qs = {name: [v.q for v in t.entries.values() if v is not None] for name, t in tensors.items()}
    if any(None in q for q in qs.values()):
        return _fold([(None if positive else -ONE, steps) for positive, steps in plans],
                     tensors, strides)
    lcms = {name: lcm(*q) for name, q in qs.items()}
    ints = {name: Tensor(t.shape, {idx: v if v is None else v.p * (lcms[name] // v.q)
                                   for idx, v in t.entries.items()}) for name, t in tensors.items()}
    products = [prod([lcms[step[0]] for step in steps]) for _, steps in plans]
    common = lcm(*products)
    starts = [common // d if positive else -(common // d)
              for d, (positive, _) in zip(products, plans)]
    total = _fold([(start, steps) for start, (_, steps) in zip(starts, plans)], ints, strides)
    return {k: Scalar.ratio(v, common) for k, v in total.items()}


def _fold(plans, tensors, strides) -> dict:
    """Flattened key -> the sum of the signed products of every term that
    reaches it, added as they are joined; each plan is (its start, its
    steps)."""
    total: dict = {}
    get = total.get
    for start, steps in plans:
        partial, (index, lookup) = _join(steps, start, tensors, strides)
        for b, x, s in partial:
            for _, v, at in index.get(lookup(b), ()):
                k, term = s + at, v if x is None else x if v is None else x * v  # v None: the unknown
                prev = get(k)
                total[k] = term if prev is None else prev + term
    return total


def _join(steps, start, tensors, strides):
    """The partial products of a term's factors but the last, each times the
    start (None: 1) and with its binding (the letters' values in the order
    bound) and its part of the flattened key; and the last factor's index and
    lookup.  A partial binding that the next factor cannot extend is dropped
    before its product is formed."""
    indexed = [_index(step, tensors, strides) for step in steps]
    partial = [((), start, 0)]
    for (index, lookup), (after, key) in zip(indexed, indexed[1:]):
        partial = [(br, v if x is None else x if v is None else x * v, s + at)  # v None: no factor
                   for b, x, s in partial for r, v, at in index.get(lookup(b), ())
                   for br in (b + r,) if key(br) in after]
    return partial, indexed[-1]


def _index(step, tensors, strides):
    """The entries of one step's factor by the values of its letters already
    bound, key -> [(its new letters' values, entry, its part of the flattened
    key)]; and the getter of the key from a binding."""
    name, at, new, lookup, keyed = step
    weights = [(i, strides[q]) for i, q in keyed]
    index: dict = {}
    for idx, v in tensors[name].entries.items():
        r = new(idx)
        index.setdefault(at(idx), []).append((r, v, sum([r[i] * w for i, w in weights])))
    return index, lookup


def _picker(positions):
    """The getter of the tuple of a sequence's items at the given positions."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else _unbound


_unbound = itemgetter(slice(0))  # the key of a lookup by no letters: ()


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

    def transpose(self) -> LinearOperator:
        return LinearOperator(self.codomain.dual(), self.domain.dual(),
                              transpose_matrix(self.matrix))


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


def kernel(matrix: Sequence[Sequence[Scalar]],
           assumptions: Sequence[Assumption] = ()) -> tuple[list[Vector], list[Assumption]]:
    """Exact basis of the right kernel, and the assumptions its pivots used."""
    if not matrix:
        return [], []
    cols = len(matrix[0])
    rref, pivots, used = row_reduce(matrix, assumptions)
    free = [c for c in range(cols) if c not in pivots]
    basis: list[Vector] = []
    for f in free:
        vec = [ZERO] * cols
        vec[f] = ONE
        for r, p in enumerate(pivots):
            vec[p] = -rref[r][f]
        basis.append(vec)
    return basis, used


def nullspace(matrix: Sequence[Sequence[Scalar]],
              assumptions: Sequence[Assumption] = ()) -> list[Vector]:
    """Exact basis of the right kernel; vectors satisfy M v = 0 identically."""
    return kernel(matrix, assumptions)[0]


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
