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

Identity tables run one sparse fold that normalises late: each operand is
scaled by the lcm of its denominators, the numerators are added on ints when
every operand entry is constant and in Z[parameters] otherwise, and each
component is reduced once over the common denominator (see Table).  Exact
elimination works on sparse rows ``{column: entry}``, fraction-free: on ints
when every entry is constant and in Z[parameters] otherwise, with one
division per pivot row at the end (see row_reduce).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod
from operator import itemgetter
from typing import Mapping, Sequence

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


# -- dense helpers ----------------------------------------------------------

def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO for _ in range(cols)] for _ in range(rows)]


def zeros3(a: int, b: int, c: int) -> list[list[list[Scalar]]]:
    return [[[ZERO for _ in range(c)] for _ in range(b)] for _ in range(a)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose_matrix(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


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

    No component is normalised until its sum is complete.  Each operand is
    scaled by the lcm of its denominators, so a component is one exact sum of
    numerators over one common denominator, reduced once into a ``Scalar``:
    on the integer lane, when every operand entry is constant, the sum is of
    ints; on the polynomial lane, when any entry is parametric, it is of
    integer polynomials, added with no gcd.  In lowest terms either is the
    value a ``Scalar`` fold reaches, and renders the same.
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
        total = _sum(self._plans, tensors, strides, zeros=False)
        radix = list(zip(strides, shape))
        return Tensor(shape, {tuple([k // stride % size for stride, size in radix]): total[k]
                              for k in sorted(total)})

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


def _sum(plans, tensors, strides, zeros: bool = True) -> dict:
    """Flattened key -> the Scalar sum of the signed products of every term
    that reaches it, keys whose sum is zero included only with ``zeros``.

    Each operand is scaled by the lcm L of its denominators (the unknown's
    None counting as 1), each term starts from +-common / (the product of its
    factors' L), common being the lcm of those products, and each total is
    divided by common once.  When every operand entry is constant this runs
    on ints; otherwise the numerators are folded in Z[parameters] with no gcd,
    L being an int for an operand whose denominators are all constant.
    """
    qs = {name: [v.q for v in t.entries.values() if v is not None] for name, t in tensors.items()}
    ints = not any(None in q for q in qs.values())
    if ints:
        lcms = {name: lcm(*q) for name, q in qs.items()}
        scaled = {name: Tensor(t.shape, {idx: v if v is None else v.p * (lcms[name] // v.q)
                                         for idx, v in t.entries.items()})
                  for name, t in tensors.items()}
    else:
        lcms, scaled = {}, {}
        for name, t in tensors.items():
            lcms[name], entries = _numerators(t.entries)
            scaled[name] = Tensor(t.shape, entries)
        if any(type(L) is Polynomial for L in lcms.values()):
            lcms = {name: Polynomial.integer(L) if type(L) is int else L
                    for name, L in lcms.items()}
    factors = [[lcms[step[0]] for step in steps] for _, steps in plans]
    products = [prod(ls[1:], start=ls[0]) for ls in factors]
    common = lcm(*products) if type(products[0]) is int else _polynomial_lcm(products)
    starts = [common // d if positive else -(common // d)
              for d, (positive, _) in zip(products, plans)]
    if ints:
        total = _fold(list(zip(starts, [steps for _, steps in plans])), scaled, strides)
        return {k: Scalar.ratio(v, common) for k, v in total.items() if zeros or v}
    total = _fold([(None if start == 1 else start, steps)
                   for start, (_, steps) in zip(starts, plans)], scaled, strides)
    den = Polynomial.integer(common) if type(common) is int else common
    return {k: Scalar(v, den) for k, v in total.items() if zeros or v}


def _polynomial_lcm(polys) -> Polynomial:
    out = polys[0]
    for d in set(polys):
        if d != out:
            out = out * (d // out.gcd(d))
    return out


def _numerators(entries: dict):
    """(L, the entries times L): L the lcm of the entries' denominators, an
    int when every one is constant, and each entry's numerator times L / its
    denominator, a Polynomial; the unknown's None stays None."""
    consts, polys = set(), set()
    for v in entries.values():
        if v is not None:
            if v.den.is_constant():
                consts.add(v.den.constant_value())
            else:
                polys.add(v.den)
    L = lcm(*consts)
    if polys:
        L = _polynomial_lcm([Polynomial.integer(L), *polys])
    cofactor = {q: L // q if type(L) is int else L.divide_by_content(q) for q in consts}
    cofactor.update({d: L // d for d in polys})
    scaled = {}
    for idx, v in entries.items():
        if v is not None:
            c = cofactor[v.den.constant_value() if v.den.is_constant() else v.den]
            v = v.num if c == 1 else c * v.num
        scaled[idx] = v
    return L, scaled


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


Row = dict[int, Scalar]  # a sparse matrix row: column -> entry


def _polynomial_gcd(*polys: Polynomial) -> Polynomial:
    """The gcd of polynomials in Z[parameters], up to sign."""
    g = polys[0]
    for f in polys[1:]:
        if g == ONE.num:
            break
        g = g.gcd(f)
    return g


# The rings rows are eliminated in: (the gcd of ring elements, 1, x / p as a Scalar).
_INTS = (gcd, 1, lambda x, p: Scalar.ratio(x, p) if p > 0 else Scalar.ratio(-x, -p))
_POLYNOMIALS = (_polynomial_gcd, ONE.num, Scalar)


def row_reduce(rows: Sequence[Mapping[int, Scalar]],
               assumptions: Sequence[Assumption] = ()) -> tuple[list[Row], list[int], list[Assumption]]:
    """Reduced row echelon form of sparse rows; returns (rref, pivot columns,
    assumptions used).  Stored zeros are dropped, and rref holds nonzeros only.

    Column by column, the pivot is the first row at or below the current one
    with an entry there, swapped into place; a pivot whose nonvanishing does
    not follow from the assumptions raises PivotAmbiguous rather than
    branching into cases.  Each row update walks the pivot row's nonzeros.

    Rows are eliminated fraction-free and primitive, on ints when every entry
    is constant and in Z[parameters] otherwise, and each pivot row is divided
    by its pivot once at the end; the rref is unique, so it is the one an
    elimination on Scalars reaches.  A parametric row carries its multiplier
    num/den, left unreduced: the row is num/den times the row that
    elimination holds.  So each pivot is certified as that elimination's
    pivot, reduced once, and the same assumptions are used in the same order.
    """
    m = [{c: v for c, v in row.items() if v} for row in rows]
    ints = not any(v.q is None for row in m for v in row.values())
    ring = _INTS if ints else _POLYNOMIALS
    gcd_of, one, over = ring
    multipliers = None if ints else [None] * len(m)  # of each nonempty row: [num, den]
    for k, row in enumerate(m):
        if not row:
            continue
        if ints:
            L = lcm(*[v.q for v in row.values()])
            row = {c: v.p * (L // v.q) for c, v in row.items()}
        else:
            L, row = _numerators(row)
        g = gcd_of(*row.values())
        m[k] = row if g == one else {c: x // g for c, x in row.items()}
        if multipliers is not None:
            multipliers[k] = [Polynomial.integer(L) if type(L) is int else L, g]
    where: dict[int, set[int]] = {}  # column -> the rows with an entry there
    for i, row in enumerate(m):
        for c in row:
            where.setdefault(c, set()).add(i)
    pivots: list[int] = []
    used: list[Assumption] = []
    r = 0
    for c in sorted(where):
        below = [i for i in where[c] if i >= r]
        if not below:
            continue
        top = min(below)
        if top != r:
            for i in (r, top):
                for j in m[i]:
                    where[j].discard(i)
            m[r], m[top] = m[top], m[r]
            for i in (r, top):
                for j in m[i]:
                    where[j].add(i)
            if multipliers is not None:
                multipliers[r], multipliers[top] = multipliers[top], multipliers[r]
        if multipliers is not None:
            num, den = multipliers[r]
            for a in _certify_pivot(Scalar(m[r][c] * den, num), assumptions):
                if a not in used:
                    used.append(a)
        _eliminate(m, where, r, c, ring, multipliers)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    for k, c in enumerate(pivots):
        p = m[k][c]
        m[k] = {j: over(x, p) for j, x in m[k].items()}
    return m, pivots, used


def _eliminate(m: list[dict], where, r: int, c: int, ring, multipliers) -> None:
    """Clear column c from every row but the pivot row r, walking its
    nonzeros: row <- (p row - f pivot row) / its content, for the pivot p and
    the row's entry f each divided by their gcd.  A row's multiplier, if
    given, takes the same factor and divisor."""
    gcd_of, one, _ = ring
    pivot = m[r]
    p = pivot[c]
    for i in [i for i in where[c] if i != r]:
        row = m[i]
        g = gcd_of(p, row[c])
        factor = -(row[c] // g)
        if p != g:
            s = p // g
            row = {j: s * x for j, x in row.items()}
            if multipliers is not None:
                multipliers[i][0] = s * multipliers[i][0]
        for j, y in pivot.items():
            x = row.get(j)
            if x is None:
                row[j] = factor * y
                where[j].add(i)
            else:
                x = x + factor * y
                if x:
                    row[j] = x
                else:
                    del row[j]
                    where[j].discard(i)
        if row and (g := gcd_of(*row.values())) != one:
            row = {j: x // g for j, x in row.items()}
            if multipliers is not None:
                multipliers[i][1] = g * multipliers[i][1]
        m[i] = row


def _sparse(matrix: Sequence[Sequence[Scalar]]) -> list[Row]:
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


def kernel(rows: Sequence[Mapping[int, Scalar]], cols: int,
           assumptions: Sequence[Assumption] = ()) -> tuple[list[Vector], list[Assumption]]:
    """Exact basis of the right kernel of sparse rows over cols columns, and
    the assumptions its pivots used."""
    rref, pivots, used = row_reduce(rows, assumptions)
    free = set(range(cols)) - set(pivots)
    basis = {f: [ONE if k == f else ZERO for k in range(cols)] for f in sorted(free)}
    for row, p in zip(rref, pivots):
        for f, x in row.items():
            if f != p:
                basis[f][p] = -x
    return list(basis.values()), used


def nullspace(matrix: Sequence[Sequence[Scalar]],
              assumptions: Sequence[Assumption] = ()) -> list[Vector]:
    """Exact basis of the right kernel; vectors satisfy M v = 0 identically."""
    if not matrix:
        return []
    return kernel(_sparse(matrix), len(matrix[0]), assumptions)[0]


def rank(matrix: Sequence[Sequence[Scalar]],
         assumptions: Sequence[Assumption] = ()) -> int:
    return len(row_reduce(_sparse(matrix), assumptions)[1])


def solve_right(a: Matrix, b: Matrix, assumptions: Sequence[Assumption] = ()) -> Matrix:
    """Solve A X = B exactly for square invertible A (raises if singular)."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ShapeError("solve_right needs square A and matching B")
    width = len(b[0])
    rref, pivots, _ = row_reduce(_sparse([list(ra) + list(rb) for ra, rb in zip(a, b)]),
                                 assumptions)
    if pivots[:n] != list(range(n)):
        raise ShapeError("matrix is singular; cannot solve")
    return [[row.get(j, ZERO) for j in range(n, n + width)] for row in rref[:n]]
