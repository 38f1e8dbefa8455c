"""The sparse identity kernels against their dense reference loops.

The kernels skip zero structure constants and add the remaining products of
each component as one sum, in no fixed order.  The references below are the
dense loops over every index; the inputs mix zeros with entries ``+-1/k``,
``+-1/(k+1)``, ``+-1``, whose partial sums often cancel.  Every component must
agree in its numerator and denominator terms; since Scalar keeps num/den in
lowest terms, that is agreement in value.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from lieb import (
    BasisSpace,
    LieAlgebra,
    LieCoalgebra,
    LinearOperator,
    TwoTensor,
    check_cocycle,
    check_compatible_pair,
    check_lie_algebra,
    check_lie_coalgebra,
    check_nij_lie_bialgebra,
    check_nijenhuis_coalgebra,
    delta_from_r,
    parse_scalar,
)
from lieb.multilinear import ONE, ZERO
from lieb.structures import CYBE

from reference_loops import mat_mul, zeros, zeros3

# A third zeros; the nonzero entries come in opposite pairs with symbolic
# denominators, so that products coincide and partial sums often cancel.
_ENTRIES = ["0"] * 3 + ["1/k", "-1/k", "1/(k+1)", "-1/(k+1)", "1", "-1"]
_PALETTE = {text: parse_scalar(text) for text in set(_ENTRIES)}


def _pairs(n):
    return itertools.product(range(n), repeat=2)


def _triples(n):
    return itertools.product(range(n), repeat=3)


# Entries come from a seeded generator rather than from Hypothesis' own
# choices, which lean towards the first palette entry (zero) and would leave
# few components with the three or more terms whose partial sums cancel.
def _entries(draw, count):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    return [_PALETTE[rng.choice(_ENTRIES)] for _ in range(count)]


@st.composite
def tensors3(draw, n):
    it = iter(_entries(draw, n ** 3))
    return [[[next(it) for _ in range(n)] for _ in range(n)] for _ in range(n)]


@st.composite
def matrices(draw, n):
    it = iter(_entries(draw, n * n))
    return [[next(it) for _ in range(n)] for _ in range(n)]


def _space(n):
    return BasisSpace(tuple(f"b{i}" for i in range(n)))


def _form(s):
    return (str(s), s.num.terms, s.den.terms)


def _forms(items):
    return [(name, idx, _form(value)) for name, idx, value in items]


def _nonzero_forms(items):
    return _forms((name, idx, value) for name, idx, value in items if not value.is_zero())


def _residual_forms(report):
    return [(r.identity, r.index, _form(r.value)) for r in report.residuals]


# At dimension three a component of a three-term identity sums up to nine
# products over one summation letter (27 over two), enough for cancelling
# pairs, while the dense references stay fast.
N = 3

# A fixed example sequence, so that the suite stays reproducible.
_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


# -- dense references -------------------------------------------------------------

def dense_lie_algebra(c, n):
    items = []
    for i, j, k in _triples(n):
        items.append(("antisymmetry", (i, j, k), c[i][j][k] + c[j][i][k]))
    for i, j, k in _triples(n):
        for m in range(n):
            total = ZERO
            for l in range(n):
                total = (total
                         + c[i][j][l] * c[l][k][m]
                         + c[j][k][l] * c[l][i][m]
                         + c[k][i][l] * c[l][j][m])
            items.append(("jacobi", (i, j, k, m), total))
    return items


def dense_lie_coalgebra(d, n):
    items = []
    for i, a, b in _triples(n):
        items.append(("co-antisymmetry", (i, a, b), d[i][a][b] + d[i][b][a]))
    for i in range(n):
        t = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for j, a, b in _triples(n):
            total = ZERO
            for k in range(n):
                total = total + d[i][j][k] * d[k][a][b]
            t[j][a][b] = total
        for p, q, s in _triples(n):
            items.append(("co-jacobi", (i, p, q, s), t[p][q][s] + t[q][s][p] + t[s][p][q]))
    return items


def dense_mixed_cojacobi(d1, d2, n):
    out = []
    for i in range(n):
        t = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        u = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for j, a, b in _triples(n):
            s1 = ZERO
            s2 = ZERO
            for k in range(n):
                s1 = s1 + d1[i][j][k] * d2[k][a][b]
                s2 = s2 + d2[i][j][k] * d1[k][a][b]
            t[j][a][b] = s1
            u[j][a][b] = s2
        for p, q, s in _triples(n):
            out.append(("mixed-co-jacobi", (i, p, q, s),
                        t[p][q][s] + t[q][s][p] + t[s][p][q]
                        + u[p][q][s] + u[q][s][p] + u[s][p][q]))
    return out


def dense_cocycle(c, d, n):
    items = []
    for i, j in _pairs(n):
        for p, q in _pairs(n):
            lhs = ZERO
            for k in range(n):
                lhs = lhs + c[i][j][k] * d[k][p][q]
            rhs = ZERO
            for a in range(n):
                rhs = rhs + c[i][a][p] * d[j][a][q] + d[j][p][a] * c[i][a][q]
                rhs = rhs - c[j][a][p] * d[i][a][q] - d[i][p][a] * c[j][a][q]
            items.append(("cocycle", (i, j, p, q), lhs - rhs))
    return items


def dense_cybe_residual(c, rm, n):
    out = []
    for a, b, cc in _triples(n):
        total = ZERO
        for i, k in _pairs(n):
            total = total + rm[i][b] * rm[k][cc] * c[i][k][a]
        for j, l in _pairs(n):
            total = total + rm[a][j] * rm[b][l] * c[j][l][cc]
        for j, k in _pairs(n):
            total = total + rm[a][j] * rm[k][cc] * c[j][k][b]
        out.append(((a, b, cc), total))
    return out


def dense_delta_from_r(c, rm, n):
    d = zeros3(n, n, n)
    for i in range(n):
        for a in range(n):
            for b in range(n):
                total = ZERO
                for q in range(n):
                    total = total + rm[a][q] * c[i][q][b]
                for p in range(n):
                    total = total + rm[p][b] * c[i][p][a]
                d[i][a][b] = total
    return d


def dense_nijenhuis_coalgebra(d, p, n):
    p2 = mat_mul(p, p)
    items = []
    for i in range(n):
        d_pi = zeros(n, n)
        for m in range(n):
            if p[m][i].num.is_zero():
                continue
            for a, b in _pairs(n):
                d_pi[a][b] = d_pi[a][b] + p[m][i] * d[m][a][b]
        for a, b in _pairs(n):
            t1 = ZERO
            for x, y in _pairs(n):
                t1 = t1 + d[i][x][y] * p[a][x] * p[b][y]
            t2 = ZERO
            for m in range(n):
                t2 = t2 + p2[m][i] * d[m][a][b]
            t3 = ZERO
            for x in range(n):
                t3 = t3 + p[a][x] * d_pi[x][b]
            t4 = ZERO
            for y in range(n):
                t4 = t4 + d_pi[a][y] * p[b][y]
            items.append(("nijenhuis-cobracket", (i, a, b), t1 + t2 - t3 - t4))
    return items


def dense_cobracket_compatibility(d, nm, p, n):
    n2 = mat_mul(nm, nm)
    items = []
    for i in range(n):
        d_ni = zeros(n, n)
        for mm in range(n):
            if nm[mm][i].num.is_zero():
                continue
            for a, b in _pairs(n):
                d_ni[a][b] = d_ni[a][b] + nm[mm][i] * d[mm][a][b]
        for a, b in _pairs(n):
            t1 = ZERO
            for x_ in range(n):
                t1 = t1 + p[a][x_] * d_ni[x_][b]
            t2 = ZERO
            for q in range(n):
                t2 = t2 + d[i][a][q] * n2[b][q]
            t3 = ZERO
            for x_, q in _pairs(n):
                t3 = t3 + d[i][x_][q] * p[a][x_] * nm[b][q]
            t4 = ZERO
            for q in range(n):
                t4 = t4 + d_ni[a][q] * nm[b][q]
            items.append(("cobracket-compatibility", (i, a, b), t1 + t2 - t3 - t4))
    return items


# -- the order no longer matters --------------------------------------------------

def test_term_order_keeps_the_canonical_form():
    # Scalar keeps num/den in lowest terms, so both orders give one form
    k, k1 = parse_scalar("1/k"), parse_scalar("1/(k+1)")
    assert str(k + (-k) + k1) == "(1)/(k + 1)"
    assert str(k + k1 + (-k)) == "(1)/(k + 1)"


# -- sparse kernels == dense loops ------------------------------------------------

@_SETTINGS
@given(st.data())
def test_lie_algebra_matches_dense(data):
    n = N
    c = data.draw(tensors3(n))
    report = check_lie_algebra(LieAlgebra(_space(n), c))
    assert _residual_forms(report) == _nonzero_forms(dense_lie_algebra(c, n))


@_SETTINGS
@given(st.data())
def test_lie_coalgebra_matches_dense(data):
    n = N
    d = data.draw(tensors3(n))
    report = check_lie_coalgebra(LieCoalgebra(_space(n), d))
    assert _residual_forms(report) == _nonzero_forms(dense_lie_coalgebra(d, n))


@_SETTINGS
@given(st.data())
def test_mixed_cojacobi_matches_dense(data):
    n = N
    d1, d2 = data.draw(tensors3(n)), data.draw(tensors3(n))
    space = _space(n)
    report = check_compatible_pair(LieCoalgebra(space, d1), LieCoalgebra(space, d2), ONE, ONE)
    got = [r for r in report.residuals if r.identity == "mixed-co-jacobi"]
    assert [(r.identity, r.index, _form(r.value)) for r in got] == \
        _nonzero_forms(dense_mixed_cojacobi(d1, d2, n))


@_SETTINGS
@given(st.data())
def test_cocycle_matches_dense(data):
    n = N
    c, d = data.draw(tensors3(n)), data.draw(tensors3(n))
    space = _space(n)
    report = check_cocycle(LieAlgebra(space, c), LieCoalgebra(space, d))
    assert _residual_forms(report) == _nonzero_forms(dense_cocycle(c, d, n))


@_SETTINGS
@given(st.data())
def test_cybe_residual_matches_dense(data):
    n = N
    c, rm = data.draw(tensors3(n)), data.draw(matrices(n))
    got = CYBE.evaluate(c=c, r=rm).entries
    want = dense_cybe_residual(c, rm, n)
    assert [(idx, _form(got.get(idx, ZERO))) for idx in _triples(n)] == \
        [(idx, _form(v)) for idx, v in want]


@_SETTINGS
@given(st.data())
def test_delta_from_r_matches_dense(data):
    n = N
    c, rm = data.draw(tensors3(n)), data.draw(matrices(n))
    space = _space(n)
    got = delta_from_r(LieAlgebra(space, c), TwoTensor(space, rm)).d
    want = dense_delta_from_r(c, rm, n)
    assert [_form(v) for v in itertools.chain.from_iterable(itertools.chain(*got))] == \
        [_form(v) for v in itertools.chain.from_iterable(itertools.chain(*want))]


@_SETTINGS
@given(st.data())
def test_nijenhuis_coalgebra_matches_dense(data):
    n = N
    d, p = data.draw(tensors3(n)), data.draw(matrices(n))
    space = _space(n)
    report = check_nijenhuis_coalgebra(LieCoalgebra(space, d), LinearOperator(space, space, p))
    assert _residual_forms(report) == _nonzero_forms(dense_nijenhuis_coalgebra(d, p, n))


@_SETTINGS
@given(st.data())
def test_cobracket_compatibility_matches_dense(data):
    n = N
    c, d = data.draw(tensors3(n)), data.draw(tensors3(n))
    nm, p = data.draw(matrices(n)), data.draw(matrices(n))
    space = _space(n)
    report = check_nij_lie_bialgebra(
        LieAlgebra(space, c), LieCoalgebra(space, d),
        LinearOperator(space, space, nm), LinearOperator(space, space, p))
    assert [f for f in _residual_forms(report) if f[0] == "cobracket-compatibility"] == \
        _nonzero_forms(dense_cobracket_compatibility(d, nm, p, n))
