"""Finite-dimensional basis spaces, exact multilinear algebra, and the engine
that evaluates identity tables over sparse tensors.

A structure's data is a sparse ``Tensor``: its shape and its nonzero
Scalar entries by index tuple.  Each record stores one, zero-free and keyed
in row-major order, and shows it as nested lists of Scalar only through a
read-only dense view (see Record); the dense helpers (``determinant``,
``solve_right``) take such lists.  Index conventions used throughout the
package (and in the file format):

* operator matrix: column j holds the image of basis vector j, so
  ``N(e_j) = sum_i M[i][j] e_i``;
* bilinear form: ``B[i][j] = B(e_i, e_j)``;
* 2-tensor: ``r[i][j]`` is the coefficient of ``e_i (x) e_j``;
* bracket constants: ``[e_i, e_j] = sum_k c[i][j][k] e_k``;
* cobracket constants: ``delta(e_i) = sum_{j,k} d[i][j][k] e_j (x) e_k``.

An identity table is one signed einsum sum, run by a sparse fold that
normalises late: each operand is scaled by the lcm of its denominators, the
numerators are added on ints when every operand entry is constant and in
Z[parameters] otherwise, and each component is reduced once (see Table).  A
table linear in one operand gives that operand's coefficients when it is
fed a basis, a tensor with one more axis, as an ordinary operand.  On
ints the last join of a dense term is packed: each key's list of entries v is
one int of B-bit slots, with max|x| * max|v| * (count of partial products x)
< 2^(B - 2), so one multiply-add per x adds every product exactly.  Exact
elimination works on sparse rows ``{column: entry}``, fraction-free: on ints
when every entry is constant and in Z[parameters] otherwise, with one
division per pivot row at the end (see row_reduce).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from itertools import product
from math import gcd, lcm, prod
from operator import itemgetter
from typing import Mapping, Sequence

from .scalars import Assumption, Polynomial, Scalar, ZERO, ONE, divide_out_assumptions

Vector = list[Scalar]
Matrix = list[list[Scalar]]


class ShapeError(ValueError):
    """Dimension mismatch between multilinear operands."""


class PivotAmbiguous(Exception):
    """Elimination needed to divide by a polynomial not covered by
    assumptions; ``offending`` is its factor that they leave uncovered."""

    def __init__(self, offending: Polynomial):
        super().__init__(f"pivot factor {offending} is not certified nonzero")
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

def determinant(a: Matrix) -> Scalar:
    """Exact determinant by Bareiss's fraction-free elimination (Math. Comp.
    22, 1968), swapping in a lower row on a zero pivot, on the rows scaled by
    the lcms of their denominators: on ints or in Z[parameters], with exact
    division and no gcd."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeError("determinant of a non-square matrix")
    ints = all(v.q is not None for row in a for v in row)
    one = 1 if ints else ONE.num
    rows = [_numerators(dict(enumerate(row)), ints) for row in a]
    m, sign, prev = [list(scaled.values()) for _, scaled in rows], 1, one
    for k in range(n - 1):
        i = next((i for i in range(k, n) if m[i][k]), None)  # the pivot's row
        if i is None:
            return ZERO
        m[k], m[i], sign, p = m[i], m[k], sign if i == k else -sign, m[i][k]
        for row in m[k + 1:]:
            row[k + 1:] = [(x * p - row[k] * y) // prev for x, y in zip(row[k + 1:], m[k][k + 1:])]
        prev = p
    num = sign * (m[-1][-1] if n else one)
    den = prod([L if ints or type(L) is not int else Polynomial.integer(L) for L, _ in rows], start=one)
    return Scalar.ratio(num, den) if ints else Scalar(num, den)


# -- identity tables ----------------------------------------------------------

class Tensor:
    """A sparse tensor: its shape and its nonzero entries by index tuple.
    Entries never change once it is built, so Table memoizes on it whether
    all are constant and, by lane, their lcm and scaled copy, whose memo holds
    each join step's index and packs by bound and new positions and weights."""

    __slots__ = ("shape", "entries", "_memo")

    def __init__(self, shape: tuple[int, ...], entries: dict[tuple, Scalar]):
        self.shape = shape
        self.entries = entries

    @classmethod
    def of(cls, tensor) -> Tensor:
        """A nested-list tensor (or a Scalar) as a Tensor; a Tensor as itself.
        ShapeError for a ragged or too-deep list, as for a record's list."""
        if isinstance(tensor, Tensor):
            return tensor
        shape, sub = (), tensor
        while isinstance(sub, (list, tuple)):
            shape, sub = shape + (len(sub),), sub[0] if sub else None
        if not shape:
            return cls((), {(): tensor} if tensor else {})
        return cls(shape, _entries(tensor, shape, "a ragged or too deep nested list"))

    def dense(self):
        """Nested lists with ZERO where no entry is stored; a Scalar at rank 0."""
        flat = [self.entries.get(idx, ZERO) for idx in product(*map(range, self.shape))]
        for size in reversed(self.shape[1:]):
            flat = [flat[k:k + size] for k in range(0, len(flat), size)]
        return flat[0] if not self.shape else flat

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tensor) and (self.shape, self.entries) == (other.shape, other.entries)

    def __repr__(self) -> str:
        return f"Tensor({self.shape}, {self.entries})"


def _entries(data, shape: tuple[int, ...], mismatch: str) -> dict:
    """The nonzero entries of a nested list of Scalars by index, in row-major
    order; ShapeError(mismatch) unless the list has the given shape (a ragged
    or too deep one has none)."""
    rows = [((), data)]  # the lists at one depth, by the index that reaches them
    for depth, size in enumerate(shape):
        if any(not isinstance(row, (list, tuple)) or len(row) != size for _, row in rows):
            raise ShapeError(mismatch)
        if depth + 1 < len(shape):
            rows = [(idx + (k,), t) for idx, row in rows for k, t in enumerate(row)]
    try:
        return {idx + (k,): v for idx, row in rows for k, v in enumerate(row)
                if not v.is_zero()}
    except AttributeError:  # a leaf that is no Scalar: the list is too deep
        raise ShapeError(mismatch) from None


_FACTOR = re.compile(r"(\w+)\[(\w*)\]")
_TERM = re.compile(r"\s*([+-]?)\s*((?:\w+\[\w*\]\s*)+)")  # a signed product of factors


class Table:
    """An identity written as data: one signed einsum sum over named operands.

    ``Table("ijkm", "c[ijl] c[lkm] + c[jkl] c[lim] + c[kil] c[ljm]")`` is the
    Jacobi sum.  A term is a product of factors ``name[letters]`` after a
    ``+`` or ``-`` (optional on the first), summed, as in einsum's explicit
    mode, over each of its letters that is not an output letter.  Every term
    covers every output letter, and no factor repeats a letter (a diagonal
    such as ``a[ii]`` is not a table).  A component's value is the sum of
    every signed product that reaches it; ``Scalar`` keeps num/den in lowest
    terms, so that sum renders the same in any order.  Only nonzero entries
    are visited, and a component that no nonzero term reaches is absent.

    No component is normalised until its sum is complete: it is one exact sum
    of numerators over one common denominator (see _sum), on ints when every
    operand entry is constant and of integer polynomials, added with no gcd,
    otherwise, reduced once into the ``Scalar`` a fold of Scalars reaches.
    An operand is scaled once per lane and indexed once per step (see Tensor).
    On ints, a term whose partial products outnumber its last factor's keys 8
    times over, on lists 6 long on average, is joined packed, exactly (see
    _packed), when that factor binds no new letter but output letters.
    ``coefficients`` runs the same fold with the unknown's basis axis as one
    more output letter, so every entry it multiplies is a Scalar too.
    """

    def __init__(self, out: str, terms: str):
        self.out = out
        self.terms = _parse_terms(terms)
        self._plans: dict[str | None, list] = {}  # by unknown, None for evaluate
        for _, factors in self.terms:
            for name, spec in factors:
                if len(set(spec)) != len(spec):
                    raise ValueError(f"{name}[{spec}] repeats a letter")
            if not set(out) <= set("".join(spec for _, spec in factors)):
                raise ValueError(f"a term of {terms!r} does not cover {out!r}")
        self._factors = list(dict.fromkeys(f for _, factors in self.terms for f in factors))

    def evaluate(self, **operands) -> Tensor:
        """The nonvanishing components, in index order."""
        tensors, shape, strides = self._operands(operands)
        total = _sum(self._compile(None), tensors, strides)
        radix = list(zip(strides, shape))
        return Tensor(shape, {tuple([k // stride % size for stride, size in radix]): total[k]
                              for k in sorted(total)})

    def coefficients(self, unknown: str, **operands):
        """The coefficients of a table that is linear in ``unknown``: each
        term holds exactly one factor of that name, else ValueError.

        The unknown's operand is a basis with one more axis z: its entry
        (index, z) is the unknown's entry at index per unit of the z-th free
        parameter.  Returns the shape of the coefficients, indexed by z and
        then the output letters, and a dict from each index, flattened in
        row-major order, to its coefficient where that is nonzero.  So an
        output letter has the stride that ``evaluate`` gives it, and both
        share the other operands' join indexes.
        """
        tensors, shape, strides = self._operands(operands, unknown)
        return shape, _sum(self._compile(unknown), tensors, strides)

    def _operands(self, operands, unknown=None):
        """The operands as Tensors, the result's shape and its row-major
        strides; with an unknown, its basis axis z comes first."""
        tensors = {name: Tensor.of(t) for name, t in operands.items()}
        dims: dict[str, int] = {}
        for name, spec in self._factors:
            spec += _Z if name == unknown else ""
            shape = tensors[name].shape
            if len(shape) != len(spec):
                raise ShapeError(f"{name}[{spec}] given a tensor of rank {len(shape)}")
            for letter, size in zip(spec, shape):
                if dims.setdefault(letter, size) != size:
                    raise ShapeError(f"index {letter!r} has conflicting sizes")
        shape = tuple(dims[x] for x in (_Z if unknown else "") + self.out)
        strides = [1] * len(shape)
        for q in range(len(shape) - 2, -1, -1):
            strides[q] = strides[q + 1] * shape[q + 1]
        return tensors, shape, strides

    def _compile(self, unknown):
        """For each term: its sign and join steps, compiled on first use (so
        that importing the tables stays cheap) and then kept."""
        plans = self._plans.get(unknown)
        if plans is None:
            plans = self._plans[unknown] = [(positive, _plan(self.out, factors, unknown))
                                            for positive, factors in self.terms]
        return plans


_Z = "*"  # the unknown's basis axis in a coefficient plan: no table's letter


def _parse_terms(text: str):
    """((positive, ((name, letters), ...)), ...); ValueError unless the terms
    cover the whole text."""
    terms, pos = [], 0
    while pos < len(text) or not terms:
        match = _TERM.match(text, pos)
        if not match:
            raise ValueError(f"malformed terms at {text[pos:]!r} in {text!r}")
        terms.append((match[1] != "-", tuple(_FACTOR.findall(match[2]))))
        pos = match.end()
    return tuple(terms)


def _plan(out, factors, unknown):
    """The join steps of one term.

    A step binds the new letters of one factor, looking its entries up by the
    letters already bound: (operand name, getter of the bound letters' values
    from an entry's index, getter of its new letters' values, getter of the
    lookup key from a binding, (place among the new letters, place in the key)
    of each key letter it binds, (bound positions, new positions)).  The key
    letters are the output letters, after the basis axis z of an unknown,
    whose one factor takes z as its last letter.
    """
    if unknown is not None:
        at = [k for k, (name, _) in enumerate(factors) if name == unknown]
        if len(at) != 1:
            raise ValueError(f"a term holds the unknown {len(at)} times, not once: "
                             + " ".join(f"{name}[{spec}]" for name, spec in factors))
        out = _Z + out
        factors = tuple((name, spec + _Z if name == unknown else spec) for name, spec in factors)
    bound: list[str] = []
    steps = []
    for name, spec in factors:
        at = [p for p, letter in enumerate(spec) if letter in bound]
        new = [p for p, letter in enumerate(spec) if letter not in bound]
        keyed = [(i, q) for i, p in enumerate(new) for q, x in enumerate(out) if x == spec[p]]
        steps.append((name, _picker(at), _picker(new),
                      _picker([bound.index(spec[p]) for p in at]), keyed, (tuple(at), tuple(new))))
        bound += [spec[p] for p in new]
    return steps


def _sum(plans, tensors, strides) -> dict:
    """Flattened key -> the Scalar sum of the signed products of every term
    that reaches it, where that sum is nonzero.

    Each operand is scaled by the lcm L of its denominators, each term
    starts from +-common / (the product of its factors' L), common being the
    lcm of those products, and each total is divided by common once.  When
    every operand entry is constant this runs on ints; otherwise the
    numerators are folded in Z[parameters] with no gcd, L being an int for an
    operand whose denominators are all constant.
    """
    for t in tensors.values():
        if "constant" not in _memo(t):
            t._memo["constant"] = all(v.q is not None for v in t.entries.values())
    ints = all(t._memo["constant"] for t in tensors.values())
    lcms, scaled = {}, {}
    for name, t in tensors.items():
        if ints not in t._memo:
            L, entries = _numerators(t.entries, ints)
            t._memo[ints] = L, Tensor(t.shape, entries)
        lcms[name], scaled[name] = t._memo[ints]
    if any(type(L) is Polynomial for L in lcms.values()):
        lcms = {name: Polynomial.integer(L) if type(L) is int else L for name, L in lcms.items()}
    factors = [[lcms[step[0]] for step in steps] for _, steps in plans]
    products = [prod(ls[1:], start=ls[0]) for ls in factors]
    common = lcm(*products) if type(products[0]) is int else _polynomial_lcm(products)
    starts = [common // d if positive else -(common // d)
              for d, (positive, _) in zip(products, plans)]
    if ints:
        total = _fold(list(zip(starts, [steps for _, steps in plans])), scaled, strides)
        return {k: Scalar.ratio(v, common) for k, v in total.items() if v}
    total = _fold([(None if start == 1 else start, steps)
                   for start, (_, steps) in zip(starts, plans)], scaled, strides)
    den = Polynomial.integer(common) if type(common) is int else common
    return {k: Scalar(v, den) for k, v in total.items() if v}


def _polynomial_lcm(polys) -> Polynomial:
    out = polys[0]
    for d in set(polys):
        if d != out:
            out = out * (d // out.gcd(d))
    return out


def _memo(t: Tensor) -> dict:  # t's memo (see Tensor), made on its first use
    if not hasattr(t, "_memo"):
        t._memo = {}
    return t._memo


def _numerators(entries: dict, ints: bool):
    """(L, the entries times L): L the lcm of the entries' denominators, an
    int when every one is constant; each entry times L is an int with
    ``ints`` (every entry constant) and a Polynomial otherwise."""
    if ints:
        L = lcm(*[v.q for v in entries.values()])
        return L, {idx: v.p * (L // v.q) for idx, v in entries.items()}
    consts, polys = set(), set()
    for v in entries.values():
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
        c = cofactor[v.den.constant_value() if v.den.is_constant() else v.den]
        scaled[idx] = v.num if c == 1 else c * v.num
    return L, scaled


def _fold(plans, tensors, strides) -> dict:
    """Flattened key -> the sum of the signed products of every term that
    reaches it, added as they are joined, on ints packed by Table's rule;
    each plan is (its start, its steps)."""
    total: dict = {}
    get = total.get
    for start, steps in plans:
        partial, ((index, packs), lookup) = _join(steps, start, tensors, strides)
        if len(partial) >= 8 * len(index) > 0 and type(start) is int:
            name, _, _, _, keyed, (_, new) = steps[-1]  # dict(keyed): its new output letters
            if len(tensors[name].entries) >= 6 * len(index) and len(dict(keyed)) == len(new):
                _packed(partial, index, packs, lookup, total)
                continue
        for b, x, s in partial:
            for _, v, at in index.get(lookup(b), ()):
                k, term = s + at, v if x is None else x * v
                prev = get(k)
                total[k] = term if prev is None else prev + term
    return total


def _packed(partial, index, packs, lookup, total) -> None:
    """Add a term's int products to total with one multiply-add per partial
    product x (Kronecker substitution): acc[s] += x * P, P packing the key's
    list as the sum of v * 2^(B * slot), slot numbering the index's output-key
    parts, one entry to a slot.  A slot of acc[s] is at most max|x| * max|v| *
    len(partial) < 2^(B - 2) in size, so each unpacks exactly once 2^(B - 1)
    is added to every slot.  The packs are kept with the index, by B."""
    if None not in packs:  # the output-key parts by slot, and max|v|
        packs[None] = (sorted({at for entries in index.values() for _, _, at in entries}),
                       max([abs(v) for entries in index.values() for _, v, _ in entries]))
    parts, top = packs[None]
    B = (max([abs(x) for _, x, _ in partial]) * top * len(partial)).bit_length() + 2
    if B not in packs:
        shift = {at: B * j for j, at in enumerate(parts)}
        packs[B] = ({key: sum([v << shift[at] for _, v, at in entries])
                     for key, entries in index.items()},
                    sum([1 << (B * j + B - 1) for j in range(len(parts))]))
    packed, half = packs[B]
    acc: dict = {}
    for b, x, s in partial:
        acc[s] = acc.get(s, 0) + x * packed[lookup(b)]  # _join dropped any missing key
    mask, off, get = (1 << B) - 1, 1 << (B - 1), total.get
    for s, a in acc.items():
        a += half
        for at in parts:
            if c := (a & mask) - off:
                total[s + at] = get(s + at, 0) + c
            a >>= B


def _join(steps, start, tensors, strides):
    """The partial products of a term's factors but the last, each times the
    start (None: 1) and with its binding (the letters' values in the order
    bound) and its part of the flattened key; and the last factor's index,
    packs and lookup.  A partial binding that the next factor cannot extend
    is dropped before its product is formed."""
    indexed = [_index(step, tensors, strides) for step in steps]
    partial = [((), start, 0)]
    for ((index, _), lookup), ((after, _), key) in zip(indexed, indexed[1:]):
        partial = [(br, v if x is None else x * v, s + at)
                   for b, x, s in partial for r, v, at in index.get(lookup(b), ())
                   for br in (b + r,) if key(br) in after]
    return partial, indexed[-1]


def _index(step, tensors, strides):
    """The entries of one step's factor by the values of its letters already
    bound, key -> [(its new letters' values, entry, its part of the flattened
    key)], and its packs (see _packed), kept in the factor's memo under the
    step's positions and weights; and the getter of the key from a binding."""
    name, at, new, lookup, keyed, positions = step
    weights = tuple([(i, strides[q]) for i, q in keyed])
    memo = _memo(tensors[name])
    if (positions, weights) not in memo:
        index, _ = memo[positions, weights] = {}, {}
        for idx, v in tensors[name].entries.items():
            r = new(idx)
            index.setdefault(at(idx), []).append((r, v, sum([r[i] * w for i, w in weights])))
    return memo[positions, weights], lookup


def _picker(positions):
    """The getter of the tuple of a sequence's items at the given positions."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else _unbound


_unbound = itemgetter(slice(0))  # the key of a lookup by no letters: ()


# -- structure records ---------------------------------------------------------

class Record:
    """A structure record: its spaces, and its data stored once as
    ``tensor``, a zero-free Tensor keyed in row-major order.  Records are
    frozen and equal when their fields are.

    The constructor takes a nested list of Scalars, read as ``Tensor.of``
    reads one, or a Tensor; it raises ShapeError unless the data has the
    record's shape (a ragged list has none), and drops every zero entry.
    """

    def _store(self, shape: tuple[int, ...], mismatch: str) -> None:
        data = self.tensor
        if isinstance(data, Tensor):
            if data.shape != shape:
                raise ShapeError(mismatch)
            entries = {idx: v for idx, v in sorted(data.entries.items(), key=itemgetter(0))
                       if not v.is_zero()}
        else:
            entries = _entries(data, shape, mismatch)
        object.__setattr__(self, "tensor", Tensor(shape, entries))

    @property
    def _dense(self):
        """The dense view of the data (a record's ``c``, ``d``, ``matrix``,
        ``action`` or ``coaction``): nested lists with ZERO where nothing is
        stored, built on first read and then cached.  It is read-only and a
        snapshot: writing into it changes nothing stored, so a changed record
        is built from a changed list."""
        view = self.__dict__.get("_view")
        if view is None:
            view = self.__dict__["_view"] = self.tensor.dense()
        return view

    def parts(self) -> list:
        """The record's fields, in order."""
        return [getattr(self, f.name) for f in fields(self)]


# the transpose of a matrix; of an operator's, the dual operator's
TRANSPOSE = Table("ji", "M[ij]")


@dataclass(frozen=True)
class LinearOperator(Record):
    """Linear map with a codomain.dim x domain.dim matrix (columns = images);
    ``matrix`` is the dense view."""

    domain: BasisSpace
    codomain: BasisSpace
    tensor: Tensor

    matrix = Record._dense

    def __post_init__(self):
        self._store((self.codomain.dim, self.domain.dim), "operator matrix does not match its spaces")

    @classmethod
    def zero(cls, domain: BasisSpace, codomain: BasisSpace | None = None) -> LinearOperator:
        codomain = codomain or domain
        return cls(domain, codomain, Tensor((codomain.dim, domain.dim), {}))

    def transpose(self) -> LinearOperator:
        return LinearOperator(self.codomain.dual(), self.domain.dual(),
                              TRANSPOSE.evaluate(M=self.tensor))


@dataclass(frozen=True)
class BilinearForm(Record):
    """Bilinear form with matrix entry (i, j) = value on (e_i, e_j);
    ``matrix`` is the dense view."""

    space: BasisSpace
    tensor: Tensor

    matrix = Record._dense

    def __post_init__(self):
        self._store((self.space.dim,) * 2, "form matrix does not match its space")


@dataclass(frozen=True)
class TwoTensor(Record):
    """Element of V (x) V with matrix entry (i, j) = coefficient of
    e_i (x) e_j; ``matrix`` is the dense view."""

    space: BasisSpace
    tensor: Tensor

    matrix = Record._dense

    def __post_init__(self):
        self._store((self.space.dim,) * 2, "tensor matrix does not match its space")


# -- exact elimination ------------------------------------------------------

def _certify_pivot(pivot: Scalar, assumptions: Sequence[Assumption]) -> list[Assumption]:
    """Assumptions certifying that the pivot numerator is nonzero; else
    PivotAmbiguous names the factor left once they are divided out, with its
    content and sign removed."""
    num = pivot.num
    if num.is_constant():
        return []
    used, rest = divide_out_assumptions(num, assumptions)
    if not rest.is_constant():
        raise PivotAmbiguous(Assumption(rest).nonzero)
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
        L, row = _numerators(row, ints)
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
