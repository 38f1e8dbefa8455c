"""The table engine, exact elimination, and the structured wrappers."""

from __future__ import annotations

import itertools
import random
import re
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieb import multilinear
from lieb.multilinear import (
    BasisSpace,
    LinearOperator,
    PivotAmbiguous,
    ShapeError,
    Table,
    Tensor,
    determinant,
    nullspace,
    rank,
    solve_right,
)
from lieb.scalars import ONE, Assumption, Polynomial, Scalar
from lieb.structures import CO_CYBE_SLICE, CYBE, IMAGE, JACOBI, RIGHT_IMAGE, SQUARE, TORSION

from conftest import rational_matrix, sc
import reference_loops
from reference_loops import identity, identity_operator, mat_mul, mat_vec, zeros


def _rand_matrix(rng, rows, cols):
    return [[Scalar.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
             for _ in range(cols)] for _ in range(rows)]


def test_basis_space_invariants():
    with pytest.raises(ValueError):
        BasisSpace(("e", "e"))
    with pytest.raises(ValueError):
        BasisSpace(())
    sp = BasisSpace(("e", "f"))
    assert sp.dual().labels == ("e*", "f*")


# the matrix product as a table
PRODUCT = Table("ik", "a[ij] b[jk]")


def test_contract_matches_matrix_product():
    rng = random.Random(1)
    a = _rand_matrix(rng, 3, 4)
    b = _rand_matrix(rng, 4, 2)
    assert PRODUCT.evaluate(a=a, b=b).dense() == mat_mul(a, b)


def test_contract_order_independent():
    rng = random.Random(2)
    a = _rand_matrix(rng, 2, 3)
    b = _rand_matrix(rng, 3, 3)
    c = _rand_matrix(rng, 3, 2)
    left = PRODUCT.evaluate(a=PRODUCT.evaluate(a=a, b=b), b=c)
    right = PRODUCT.evaluate(a=a, b=PRODUCT.evaluate(a=b, b=c))
    assert left.dense() == right.dense()
    full = Table("ad", "x[ab] y[bc] z[cd]").evaluate(x=a, y=b, z=c)
    assert full.dense() == left.dense()


def test_contract_is_multilinear():
    rng = random.Random(3)
    a1 = _rand_matrix(rng, 2, 2)
    a2 = _rand_matrix(rng, 2, 2)
    b = _rand_matrix(rng, 2, 2)
    coeff = sc("7/3")
    combo = [[coeff * x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a1, a2)]
    lhs = PRODUCT.evaluate(a=combo, b=b).dense()
    rhs = [[coeff * x + y for x, y in zip(r1, r2)]
           for r1, r2 in zip(PRODUCT.evaluate(a=a1, b=b).dense(),
                             PRODUCT.evaluate(a=a2, b=b).dense())]
    assert lhs == rhs


def test_contract_rejects_bad_shapes():
    a = _rand_matrix(random.Random(0), 2, 3)
    with pytest.raises(ShapeError):
        PRODUCT.evaluate(a=a, b=a)
    with pytest.raises(ShapeError):
        PRODUCT.evaluate(a=a, b=[a])
    with pytest.raises(ValueError):
        Table("ikm", "a[ij] b[jk]")  # m is in no factor


def test_table_rejects_a_repeated_letter():
    with pytest.raises(ValueError, match=r"a\[ii\] repeats a letter"):
        Table("", "a[ii]")


@pytest.mark.parametrize("data", [
    [[sc("1"), sc("2")], [sc("3")]],  # ragged: read as zero-padded before
    [[sc("1"), sc("2")], [sc("3"), sc("4"), sc("5")]],
    [[sc("1"), sc("2")], sc("3")],
    [[sc("1"), [sc("2")]], [sc("3"), sc("4")]],  # too deep
], ids=["short-row", "long-row", "flat-row", "deep-leaf"])
def test_a_ragged_or_too_deep_list_is_read_nowhere(data):
    # Tensor.of reads a nested list as a record does, so a table rejects it too
    with pytest.raises(ShapeError):
        Tensor.of(data)
    with pytest.raises(ShapeError):
        Table("ij", "a[ij]").evaluate(a=data)
    with pytest.raises(ShapeError):
        LinearOperator(BasisSpace(("e", "f")), BasisSpace(("e", "f")), data)


@pytest.mark.parametrize("out, terms, rest", [
    ("ik", "a[ij] b[jk] +", "+"),  # a dangling sign
    ("ij", "a[ij] ++ b[ij]", "++ b[ij]"),  # a doubled sign
])
def test_table_rejects_a_stray_sign(out, terms, rest):
    with pytest.raises(ValueError, match=re.escape(f"malformed terms at {rest!r} in {terms!r}")):
        Table(out, terms)


def _basis(n: int, rank: int, skew: bool = False) -> Tensor:
    """The basis of an unknown of the given rank on n basis vectors, with one
    free parameter z per entry, or for a skew form per entry (i, j) with
    i < j, whose mirror (j, i) takes -1 of it: the entries (index, z)."""
    slots = [idx for idx in itertools.product(range(n), repeat=rank) if not skew or idx[0] < idx[1]]
    entries = {}
    for z, slot in enumerate(slots):
        entries[slot + (z,)] = ONE
        if skew:
            entries[slot[::-1] + (z,)] = -ONE
    return Tensor((n,) * rank + (len(slots),), entries)


def test_table_coefficients_are_summed_per_flattened_key():
    # the coefficient of x's parameter z (x[j] = 1 at j = z) at component i
    # is a[i][z] + b[i][z], under the flattened key 2 z + i; where they
    # cancel, at z = i = 1, the key is absent, as it is at z = 0, i = 1,
    # which no nonzero term reaches
    table = Table("i", "a[ij] x[j] + b[ij] x[j]")
    a = rational_matrix(BasisSpace(("e", "f")), [[1, 2], [0, 3]])
    b = rational_matrix(BasisSpace(("e", "f")), [[1, 0], [0, -3]])
    shape, sums = table.coefficients("x", a=a, b=b, x=_basis(2, 1))
    assert shape == (2, 2)
    assert sums == {0: sc("2"), 2: sc("2")}


def test_table_coefficients_of_terms_of_the_unknown_alone():
    # SKEW = t[ij] + t[ji] vanishes on every skew form, and on all forms its
    # row (i, j) is the symmetriser's: 1 at the parameters of (i, j) and
    # (j, i), 2 on the diagonal
    from lieb.structures import SKEW

    assert SKEW.coefficients("t", t=_basis(3, 2, skew=True)) == ((3, 3, 3), {})
    symmetriser = {}
    for i, j in itertools.product(range(3), repeat=2):
        for z in (3 * i + j, 3 * j + i):
            key = z * 9 + 3 * i + j
            symmetriser[key] = symmetriser.get(key, Scalar.from_int(0)) + ONE
    assert SKEW.coefficients("t", t=_basis(3, 2)) == ((9, 3, 3), symmetriser)


@pytest.mark.parametrize("terms, message", [
    ("om[ia] om[aj]", "2 times, not once: om[ia] om[aj]"),
    ("d[ija] om[aj] + d[ija] d[aji]", "0 times, not once: d[ija] d[aji]"),
], ids=["repeated", "missing"])
def test_table_coefficients_reject_a_term_not_linear_in_the_unknown(terms, message):
    # om[ia] om[aj] as in CO_CYBE: the coefficients of its polarisation come
    # from CO_CYBE_SLICE, which holds a second operand in the other slot
    table = Table("ij", terms)
    with pytest.raises(ValueError, match=re.escape(f"a term holds the unknown {message}")):
        table.coefficients("om", om=_basis(2, 2), d=[[[sc("1")] * 2] * 2] * 2)


# -- the integer lane of the table engine ------------------------------------

_LANE_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)
_LANE_DIM = 3

# zeros, and signed fractions with denominators up to 10^6
_CONSTANTS = st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6))


@st.composite
def _constant_tensor(draw, rank):
    flat = [Scalar.from_fraction(draw(_CONSTANTS)) for _ in range(_LANE_DIM ** rank)]
    for _ in range(rank - 1):
        flat = [flat[k:k + _LANE_DIM] for k in range(0, len(flat), _LANE_DIM)]
    return flat


@st.composite
def _operands(draw):
    return {"c": draw(_constant_tensor(3)), "r": draw(_constant_tensor(2)),
            "N": draw(_constant_tensor(2)), "d": draw(_constant_tensor(3)),
            "om": draw(_constant_tensor(2))}


def _cases(ops):
    """(table, operands, unknown): the checks' tables, torsion fed by the
    images it is evaluated with, and the co-CYBE slice the solver reads its
    rows from, on the basis of the skew forms."""
    c, nm = ops["c"], ops["N"]
    left, right = IMAGE.evaluate(M=nm, T=c), RIGHT_IMAGE.evaluate(M=nm, c=c)
    return [(JACOBI, {"c": c}, None),
            (CYBE, {"c": c, "r": ops["r"]}, None),
            (IMAGE, {"M": nm, "T": c}, None),
            (RIGHT_IMAGE, {"M": nm, "c": c}, None),
            (SQUARE, {"M": nm}, None),
            (TORSION, {"N": nm, "N2": SQUARE.evaluate(M=nm), "c": c, "left": left,
                       "right": right}, None),
            (CO_CYBE_SLICE, {"d": ops["d"], "om": ops["om"], "x": _basis(_LANE_DIM, 2, skew=True)},
             "x")]


def _engine_and_scalar_fold(table, operands, unknown):
    """The engine's components, the starts and the operands' entries of the
    fold it ran, and the Scalar fold's nonzero components on the same plans
    and operands."""
    tensors, _, strides = table._operands(operands, unknown)
    plans = table._compile(unknown)
    with mock.patch.object(multilinear, "_fold", wraps=multilinear._fold) as fold:
        engine = multilinear._sum(plans, tensors, strides)
    (ran, scaled, _), _ = fold.call_args
    scalar = multilinear._fold([(None if positive else -ONE, steps) for positive, steps in plans],
                               tensors, strides)
    scalar = {k: v for k, v in scalar.items() if v}
    entries = [v for t in scaled.values() for v in t.entries.values()]
    return engine, [start for start, _ in ran], entries, scalar


@_LANE_SETTINGS
@given(_operands())
def test_integer_lane_matches_the_scalar_fold(ops):
    for table, operands, unknown in _cases(ops):
        engine, starts, _, scalar = _engine_and_scalar_fold(table, operands, unknown)
        assert all(type(start) is int for start in starts)
        assert engine.keys() == scalar.keys()
        assert engine == scalar
        assert all(v.q is not None for v in engine.values())


# parametric entries, with constant and polynomial denominators
_PARAMETRIC = [sc("k"), sc("-1/(k + 1)"), sc("2*k/3"), sc("(k^2 - 1)/(k + 2)"), sc("1/(2*k)"),
               sc("k1*k/(k1 + 1)"), sc("3/(k + 1)")]


@_LANE_SETTINGS
@given(_operands(), st.data())
def test_polynomial_lane_matches_the_scalar_fold(ops, data):
    for name in data.draw(st.lists(st.sampled_from(sorted(ops)), min_size=1, max_size=3)):
        entries = Tensor.of(ops[name])
        cells = sorted(itertools.product(range(_LANE_DIM), repeat=len(entries.shape)))
        for index in data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4)):
            entries.entries[index] = data.draw(st.sampled_from(_PARAMETRIC))
        ops[name] = entries.dense()
    for table, operands, unknown in _cases(ops):
        engine, _, entries, scalar = _engine_and_scalar_fold(table, operands, unknown)
        values = [v for t in operands.values() for v in Tensor.of(t).entries.values()]
        if any(v.q is None for v in values):  # the numerators were folded in Z[k, k1]
            assert all(type(v) is Polynomial for v in entries)
        assert engine.keys() == scalar.keys()
        assert engine == scalar


def test_integer_lane_drops_zero_sums_in_coefficients():
    # the same cancellation as above on denominators 3 and 7: the lane divides
    # once per key, and a key whose terms cancel is dropped
    table = Table("i", "a[ij] x[j] + b[ij] x[j]")
    a = [[sc("1/3"), sc("2/7")], [sc("0"), sc("3/7")]]
    b = [[sc("1/7"), sc("0")], [sc("0"), sc("-3/7")]]
    _, sums = table.coefficients("x", a=a, b=b, x=_basis(2, 1))
    assert sums == {0: sc("10/21"), 2: sc("2/7")}
    assert table.evaluate(a=a, b=b, x=[sc("21"), sc("7")]).entries == {(0,): sc("12")}


# -- the packed join of the integer lane against its per-product loop ------------------

def _packed_and_per_product(table, operands, unknown=None):
    """The int lane's fold on one table's plans and scaled operands, run as
    the engine runs it and again with every start an int-valued Scalar, which
    the per-product loop takes (only int starts pack): both sums' nonzero
    components as ints, the number of terms the engine joined packed, and the
    scaled operands.  The engine's sum is the same with its packs built in
    the call (cold) and kept from an earlier one (warm)."""
    tensors, _, strides = table._operands(operands, unknown)
    runs, fold = [], multilinear._fold

    def spy(*args):
        runs.append((args, fold(*args)))
        return runs[-1][1]

    with mock.patch.object(multilinear, "_fold", spy):
        multilinear._sum(table._compile(unknown), tensors, strides)
    (plans, scaled, _), cold = runs[0]
    assert all(type(start) is int for start, _ in plans)
    with mock.patch.object(multilinear, "_packed", wraps=multilinear._packed) as packed:
        engine = multilinear._fold(plans, scaled, strides)
    assert engine == cold
    loop = multilinear._fold([(Scalar.from_int(start), steps) for start, steps in plans],
                             scaled, strides)
    assert all(v.q == 1 for v in loop.values())
    return ({k: v for k, v in engine.items() if v}, {k: v.p for k, v in loop.items() if v},
            packed.call_count, scaled)


# both terms read b by j for the 8 x 4 partial products a_i c_j, in either order
_OUTER = Table("k", "a[i] c[j] b[jk] - c[j] a[i] b[jk]")
_BIG = 2 ** 100


def _column(values):
    return [Scalar.from_int(v) for v in values]


def test_packed_join_is_exact_at_its_slot_bound_next_to_a_cancelling_slot():
    # every product a_i c_j is X = (2^100 + 3)(2^100 - 5); b's column 0 holds
    # V = 3 * 2^100 + 1, the largest |entry|, so component 0 sums 32 X V =
    # max|x| max|v| len(partial), the slot bound; column 1 cancels to 0 and
    # column 2 reaches -32 X V; the rest are large entries of both signs
    rng = random.Random(26)
    v = 3 * _BIG + 1
    b = [[v, (-1) ** j * v, -v] + [rng.choice([-1, 1]) * rng.randint(_BIG, v) for _ in range(3)]
         for j in range(4)]
    a, c = _column([_BIG + 3] * 8), _column([_BIG - 5] * 4)
    table = Table("k", "a[i] c[j] b[jk]")
    engine, loop, packed, scaled = _packed_and_per_product(
        table, {"a": a, "c": c, "b": [_column(row) for row in b]})
    assert packed == 1
    assert engine == loop
    bound = 32 * (_BIG + 3) * (_BIG - 5) * v
    assert engine[0] == bound and 1 not in engine and engine[2] == -bound
    # the slot width B is the least with bound < 2^(B - 2), kept on b's scaled copy
    widths = [B for _, packs in scaled["b"]._memo.values() for B in packs if B is not None]
    assert widths == [bound.bit_length() + 2]
    assert table.evaluate(a=a, c=c, b=[_column(row) for row in b]).entries == {
        (k,): Scalar.from_int(value) for k, value in sorted(engine.items())}


def test_a_last_factor_that_sums_a_letter_of_its_own_is_not_packed():
    # b[jkl] sums l itself, so a packed slot would hold 4 entries of b: at
    # max|v| each, 4 times the slot bound
    a, c = _column([_BIG] * 8), _column([-_BIG] * 4)
    b = [[_column([_BIG] * 4) for _ in range(6)] for _ in range(4)]
    engine, loop, packed, _ = _packed_and_per_product(Table("k", "a[i] c[j] b[jkl]"),
                                                      {"a": a, "c": c, "b": b})
    assert packed == 0
    assert engine == loop == {k: -4 * 32 * _BIG ** 3 for k in range(6)}


@pytest.mark.parametrize("seed", range(4))
def test_packed_join_matches_the_per_product_loop_on_large_signed_entries(seed):
    # a table whose two terms cancel, written in two orders of factors, and b
    # missing the key j = 1 (its row is zero), so the partial products that
    # reach it are dropped before the last join
    rng = random.Random(seed)

    def big():
        return rng.choice([0, 1, -1, 7, -_BIG, _BIG + rng.randint(0, 2 ** 90),
                           -(_BIG ** 2) + rng.randint(0, 99)])

    a = [Scalar.from_fraction(Fraction(big() or 1, rng.choice([1, 3]))) for _ in range(8)]
    c = _column([big() or -1 for _ in range(4)])
    b = [_column([0] * 6 if j == 1 else [big() or 2 for _ in range(6)]) for j in range(4)]
    for table in (Table("k", "a[i] c[j] b[jk]"), _OUTER):
        engine, loop, packed, _ = _packed_and_per_product(table, {"a": a, "c": c, "b": b})
        assert packed == len(table.terms)
        assert engine == loop
    assert not _OUTER.evaluate(a=a, c=c, b=b).entries


def test_packed_join_fills_coefficients_from_a_skew_basis():
    # x's last factor is the basis of the skew 7 x 7 forms, so its packed
    # lists hold -1 entries: each key j lists x[j][k] for the 6 k != j
    a, c = _column([_BIG, -3, 5, 1, -_BIG, 2, 2, 9]), _column([4, -_BIG, 7, 1, -2, 3, _BIG])
    table = Table("k", "a[i] c[j] x[jk]")
    x = _basis(7, 2, skew=True)
    engine, loop, packed, _ = _packed_and_per_product(table, {"a": a, "c": c, "x": x}, "x")
    assert packed == 1
    assert engine == loop
    shape, sums = table.coefficients("x", a=a, c=c, x=x)
    total = sum(v.p for v in a)
    # component k of the sum is sum_j (sum_i a_i) c_j x[j][k], where the
    # parameter z of (p, q), p < q, is x[p][q] = 1 and x[q][p] = -1
    pairs = [(p, q) for p in range(7) for q in range(p + 1, 7)]
    assert shape == (21, 7)
    assert sums == {key: value for z, (p, q) in enumerate(pairs)
                    for key, value in ((z * 7 + q, total * c[p]), (z * 7 + p, -total * c[q]))}


def test_every_table_packs_as_its_per_product_loop_on_dense_constants():
    # dense integer tensors of dimension 3, large and small, on every
    # module-level table of structures and construct and on the solver's
    # coefficient tables; some terms of them pack
    from lieb import construct, structures
    from lieb.solver import KINDS

    rng = random.Random(3)

    def dense(rank):  # an unknown's basis is dense too, with a z axis of 3 parameters
        flat = [Scalar.from_int(rng.choice([1, -2, 5, -_BIG, _BIG + 1]) * rng.randint(1, 9))
                for _ in range(3 ** rank)]
        for _ in range(rank - 1):
            flat = [flat[k:k + 3] for k in range(0, len(flat), 3)]
        return flat if rank else flat[0]

    tables = {id(t): (t, None) for module in (structures, construct)
              for t in vars(module).values() if isinstance(t, Table)}
    tables.update({id(kind.table): (kind.table, kind.unknown) for kind in KINDS.values()})
    packed_terms = 0
    for table, unknown in tables.values():
        ranks = {name: len(spec) + (name == unknown) for name, spec in table._factors}
        engine, loop, packed, _ = _packed_and_per_product(
            table, {name: dense(rank) for name, rank in ranks.items()}, unknown)
        assert engine == loop
        packed_terms += packed
    assert packed_terms >= 10


def test_a_sparse_sl2_table_takes_the_per_product_loop(sl2):
    engine, loop, packed, _ = _packed_and_per_product(JACOBI, {"c": sl2.tensor})
    assert packed == 0
    assert engine == loop == {}
    engine, loop, packed, _ = _packed_and_per_product(CYBE, {"c": sl2.tensor, "r": [
        [sc("0"), sc("1"), sc("0")], [sc("-1"), sc("0"), sc("0")], [sc("0"), sc("0"), sc("0")]]})
    assert packed == 0
    assert engine == loop


# -- sparse elimination against the dense reference ---------------------------------

_CONSTANT_ENTRIES = [sc("1"), sc("-1"), sc("2"), sc("-3/2"), sc("5/7"), sc("12")]
# denominators that share factors within a row exercise the row's polynomial
# lcm and the reduction of its multiplier
_PARAMETRIC_ENTRIES = _CONSTANT_ENTRIES + [sc("k"), sc("k - 1"), sc("1/(k + 1)"), sc("2*k/3"),
                                           sc("k1"), sc("k*k1"), sc("1/(k^2 - 1)"),
                                           sc("(k - 1)/(k + 1)"), sc("k/(k1 + 1)")]
_PIVOT_ASSUMPTIONS = [Assumption(sc(text).num) for text in ("k", "k - 1", "k + 1", "k1")]


@st.composite
def _matrices(draw):
    """A matrix of zeros (about half its entries) and constant or, in about
    half the draws, parametric entries, with some rows repeated or combined
    so that its rank falls short, and a subset of the pivot assumptions."""
    palette = draw(st.sampled_from([_CONSTANT_ENTRIES, _PARAMETRIC_ENTRIES]))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(sc("0")), st.sampled_from(palette))
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.booleans()):
            j, f = draw(st.integers(0, i - 1)), draw(st.sampled_from(palette))
            m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    return m, draw(st.one_of(st.just(_PIVOT_ASSUMPTIONS),
                             st.lists(st.sampled_from(_PIVOT_ASSUMPTIONS), unique=True)))


def _reduced(reduce, rows, assumptions):
    try:
        return reduce(rows, assumptions)
    except PivotAmbiguous as err:
        return err.offending


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_matrices())
def test_sparse_row_reduce_matches_the_dense_reference(case):
    m, assumptions = case
    cols = len(m[0])
    sparse = _reduced(multilinear.row_reduce, multilinear._sparse(m), assumptions)
    dense = _reduced(reference_loops.row_reduce, m, assumptions)
    if isinstance(dense, Polynomial):  # both raise PivotAmbiguous on the same pivot
        assert sparse == dense
        return
    rref, pivots, used = sparse
    assert all(all(row.values()) for row in rref)  # no stored zeros
    assert ([[row.get(c, sc("0")) for c in range(cols)] for row in rref], pivots, used) == dense


def test_nullspace_examples():
    row = [[sc("1"), sc("-1")]]
    basis = nullspace(row)
    assert len(basis) == 1
    assert basis[0] == [sc("1"), sc("1")]

    zero = zeros(3, 3)
    assert len(nullspace(zero)) == 3


def test_nullspace_vectors_annihilate_and_rank_counts():
    rng = random.Random(4)
    for _ in range(10):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _rand_matrix(rng, rows, cols)
        basis = nullspace(m)
        for vec in basis:
            assert all(v.is_zero() for v in mat_vec(m, vec))
        assert rank(m) + len(basis) == cols


def test_parametric_pivot_requires_assumption():
    m = [[sc("k3"), sc("1")], [sc("0"), sc("1")]]
    with pytest.raises(PivotAmbiguous) as err:
        nullspace(m)
    assert err.value.offending == Polynomial.variable("k3")
    assert nullspace(m, [Assumption(Polynomial.variable("k3"))]) == []


def _permutation_expansion(m):
    expected = Scalar.from_int(0)
    for perm in itertools.permutations(range(len(m))):
        sign = 1
        for i in range(len(m)):
            for j in range(i + 1, len(m)):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Scalar.from_int(sign)
        for i, col in enumerate(perm):
            term = term * m[i][col]
        expected = expected + term
    return expected


def test_determinant_against_permutation_expansion():
    rng = random.Random(5)
    for n in (2, 3, 4):
        m = _rand_matrix(rng, n, n)
        assert determinant(m) == _permutation_expansion(m)


def test_determinant_swaps_rows_on_zero_pivots_and_divides_in_q_k():
    # zeros make Bareiss swap rows (each swap flips the sign) or stop at a
    # zero column; parametric entries make its exact divisions rational
    # functions of k and k1
    pool = [sc("0"), sc("0"), sc("0"), sc("1"), sc("-2"), sc("3/4"), sc("k"), sc("1/(k + 1)"),
            sc("2*k1"), sc("k - k1")]
    rng = random.Random(11)
    for n in range(1, 6):
        for _ in range(6):
            m = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            assert determinant(m) == _permutation_expansion(m)
    assert determinant([[sc("0"), sc("1")], [sc("1"), sc("0")]]) == sc("-1")
    assert determinant([[sc("0"), sc("0"), sc("1")], [sc("0"), sc("1"), sc("0")],
                        [sc("1"), sc("0"), sc("k")]]) == sc("-1")
    assert determinant([[sc("0"), sc("k")], [sc("0"), sc("1")]]) == sc("0")
    assert determinant([]) == ONE


def test_determinant_eliminates_on_numerators_with_no_gcd(monkeypatch):
    # each row is scaled by the lcm of its denominators, whose gcds (and the
    # final Scalar's) may call Polynomial.gcd; the elimination itself may not
    pool = [sc(t) for t in ("0", "1", "-2", "3/4", "k", "k - 1", "1/(k + 1)", "2*k1", "k*k1/3")]
    gcd, callers = Polynomial.gcd, []

    def spy(a, b):
        frame, names = sys._getframe(1), set()  # the calls between determinant and gcd
        while frame.f_code.co_name != "determinant":
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        callers.append(names)
        return gcd(a, b)
    rng = random.Random(26)
    matrices = [[[rng.choice(pool) for _ in range(n)] for _ in range(n)] for n in (2, 3, 4, 5)]
    expected = [_permutation_expansion(m) for m in matrices]
    monkeypatch.setattr(Polynomial, "gcd", spy)
    assert [determinant(m) for m in matrices] == expected
    assert callers and all(names & {"_numerators", "__init__"} for names in callers)
    callers.clear()
    assert determinant([[sc("k"), sc("k1/3")], [sc("2*k1"), sc("k - 1")]]) == sc("k^2 - k - 2/3*k1^2")
    assert not callers


def _fraction_determinant(rows):
    """Gaussian elimination on Fractions: the reference for a dense form."""
    m, det = [[Fraction(x) for x in row] for row in rows], Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot], det = m[pivot], m[k], -det
        det *= m[k][k]
        for row in m[k + 1:]:
            f = row[k] / m[k][k]
            row[k:] = [x - f * y for x, y in zip(row[k:], m[k][k:])]
    return det


def test_dense_16_by_16_integer_determinant_takes_under_a_tenth_of_a_second():
    # the Laplace expansion over column subsets that Bareiss replaced took
    # about 1.4 s on such a form (2 vCPU, Python 3.11)
    rng = random.Random(16)
    rows = [[rng.randint(-99, 99) for _ in range(16)] for _ in range(16)]
    m = [[Scalar.from_int(x) for x in row] for row in rows]
    start = time.perf_counter()
    det = determinant(m)
    assert time.perf_counter() - start < 0.1
    assert det == Scalar.from_fraction(_fraction_determinant(rows))


def test_solve_right_inverts():
    rng = random.Random(6)
    a = rational_matrix(BasisSpace(("x", "y", "z")), [[2, 0, 1], [1, 1, 0], [0, 3, 1]])
    b = identity(3)
    x = solve_right(a, b)
    assert mat_mul(a, x) == identity(3)
    singular = rational_matrix(BasisSpace(("x", "y")), [[1, 2], [2, 4]])
    with pytest.raises(ShapeError):
        solve_right(singular, identity(2))


def test_operator_application_examples(sl2, n_example):
    # N applied to the first basis vector lands on -lambda*kappa times the second
    e = [sc("1"), sc("0"), sc("0")]
    assert mat_vec(n_example.matrix, e) == [sc("0"), sc("-lambda*kappa"), sc("0")]
    ident = identity_operator(sl2.space)
    vec = [sc("2"), sc("-1/3"), sc("k1")]
    assert mat_vec(ident.matrix, vec) == vec


def test_operator_wrappers():
    sp = BasisSpace(("e", "f"))
    op = LinearOperator(sp, sp, [[sc("0"), sc("0")], [sc("1"), sc("0")]])
    assert mat_vec(op.matrix, [sc("1"), sc("0")]) == [sc("0"), sc("1")]
    assert op.transpose().domain.labels == ("e*", "f*")
    assert op.transpose().matrix == [[sc("0"), sc("1")], [sc("0"), sc("0")]]
    assert LinearOperator.zero(sp).matrix == zeros(2, 2)
    with pytest.raises(ShapeError):
        LinearOperator(sp, sp, zeros(3, 2))
