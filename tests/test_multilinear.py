"""The table engine, exact elimination, and the structured wrappers."""

from __future__ import annotations

import itertools
import random
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
    identity,
    nullspace,
    rank,
    solve_right,
    zeros,
)
from lieb.scalars import ONE, Assumption, Polynomial, Scalar
from lieb.structures import CO_CYBE, CYBE, IMAGE, JACOBI, RIGHT_IMAGE, SQUARE, TORSION

from conftest import rational_matrix, sc
import reference_loops
from reference_loops import mat_mul, mat_vec


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
PRODUCT = Table("ik", "j: a[ij] b[jk]")


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
    full = Table("ad", "bc: x[ab] y[bc] z[cd]").evaluate(x=a, y=b, z=c)
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
        Table("ikm", "j: a[ij] b[jk]")  # m is in no factor


def test_table_rejects_a_repeated_letter():
    with pytest.raises(ValueError, match=r"a\[ii\] repeats a letter"):
        Table("", "i: a[ii]")


def test_table_coefficients_are_summed_per_flattened_key():
    # the coefficient of x[j] at component i is a[i][j] + b[i][j], under the
    # flattened key 2 i + j; where they cancel, at (1, 1), the key keeps a
    # zero, and no nonzero term reaches (1, 0)
    table = Table("i", "j: a[ij] x[j] + b[ij] x[j]")
    a = rational_matrix(BasisSpace(("e", "f")), [[1, 2], [0, 3]])
    b = rational_matrix(BasisSpace(("e", "f")), [[1, 0], [0, -3]])
    shape, sums = table.coefficients("x", a=a, b=b, x=[sc("0"), sc("0")])
    assert shape == (2, 2)
    assert sums == {0: sc("2"), 1: sc("2"), 3: sc("0")}


def test_table_coefficients_take_one_occurrence_of_the_unknown():
    # om[ia] om[aj] as in the co-CYBE slice: the coefficient of the first
    # factor's entry (i, a) at component (i, j) is m[a][j], of the second's
    # (a, j) is m[i][a]; keys are (i, j, then the unknown's two letters)
    table = Table("ij", "a: om[ia] om[aj]")
    m = rational_matrix(BasisSpace(("e", "f")), [[1, 2], [3, 4]])
    pairs = list(itertools.product(range(2), repeat=3))
    shape, first = table.coefficients("om", 0, om=m)
    assert shape == (2, 2, 2, 2)
    assert first == {8 * i + 4 * j + 2 * i + a: m[a][j] for i, j, a in pairs}
    _, second = table.coefficients("om", 1, om=m)
    assert second == {8 * i + 4 * j + 2 * a + j: m[i][a] for i, j, a in pairs}


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
    """(table, operands, unknown, occurrence): the checks' tables, torsion fed
    by the images it is evaluated with, and the co-CYBE slice the solver
    reads its rows from."""
    c, nm = ops["c"], ops["N"]
    left, right = IMAGE.evaluate(M=nm, T=c), RIGHT_IMAGE.evaluate(M=nm, c=c)
    return [(JACOBI, {"c": c}, None, 0),
            (CYBE, {"c": c, "r": ops["r"]}, None, 0),
            (IMAGE, {"M": nm, "T": c}, None, 0),
            (RIGHT_IMAGE, {"M": nm, "c": c}, None, 0),
            (SQUARE, {"M": nm}, None, 0),
            (TORSION, {"N": nm, "N2": SQUARE.evaluate(M=nm), "c": c, "left": left,
                       "right": right}, None, 0),
            (CO_CYBE, {"d": ops["d"], "om": ops["om"]}, "om", 0),
            (CO_CYBE, {"d": ops["d"], "om": ops["om"]}, "om", 1)]


def _engine_and_scalar_fold(table, operands, unknown, occurrence):
    """The engine's components, the starts and the operands' entries of the
    fold it ran, and the Scalar fold's components on the same plans and
    operands."""
    tensors, _, strides = table._operands(operands, unknown)
    plans = table._plans
    if unknown is not None:
        plans = table._compile(unknown, occurrence)
        shape = tensors[unknown].shape
        tensors[multilinear._UNKNOWN] = Tensor(shape, dict.fromkeys(
            itertools.product(*map(range, shape))))
    with mock.patch.object(multilinear, "_fold", wraps=multilinear._fold) as fold:
        engine = multilinear._sum(plans, tensors, strides)
    (ran, scaled, _), _ = fold.call_args
    scalar = multilinear._fold([(None if positive else -ONE, steps) for positive, steps in plans],
                               tensors, strides)
    entries = [v for t in scaled.values() for v in t.entries.values() if v is not None]
    return engine, [start for start, _ in ran], entries, scalar


@_LANE_SETTINGS
@given(_operands())
def test_integer_lane_matches_the_scalar_fold(ops):
    for table, operands, unknown, occurrence in _cases(ops):
        engine, starts, _, scalar = _engine_and_scalar_fold(table, operands, unknown, occurrence)
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
    for table, operands, unknown, occurrence in _cases(ops):
        engine, _, entries, scalar = _engine_and_scalar_fold(table, operands, unknown, occurrence)
        values = [v for t in operands.values() for v in Tensor.of(t).entries.values()]
        if any(v.q is None for v in values):  # the numerators were folded in Z[k, k1]
            assert all(type(v) is Polynomial for v in entries)
        assert engine.keys() == scalar.keys()
        assert engine == scalar


def test_integer_lane_keeps_zero_sums_in_coefficients():
    # the same cancellation as above on denominators 3 and 7: the lane divides
    # once per key, and a key whose terms cancel keeps its zero
    table = Table("i", "j: a[ij] x[j] + b[ij] x[j]")
    a = [[sc("1/3"), sc("2/7")], [sc("0"), sc("3/7")]]
    b = [[sc("1/7"), sc("0")], [sc("0"), sc("-3/7")]]
    _, sums = table.coefficients("x", a=a, b=b, x=[sc("0"), sc("0")])
    assert sums == {0: sc("10/21"), 1: sc("2/7"), 3: sc("0")}
    assert table.evaluate(a=a, b=b, x=[sc("21"), sc("7")]).entries == {(0,): sc("12")}


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


def test_determinant_against_permutation_expansion():
    rng = random.Random(5)
    for n in (2, 3, 4):
        m = _rand_matrix(rng, n, n)
        expected = Scalar.from_int(0)
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = Scalar.from_int(sign)
            for i in range(n):
                term = term * m[i][perm[i]]
            expected = expected + term
        assert determinant(m) == expected


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
    ident = LinearOperator.identity(sl2.space)
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
