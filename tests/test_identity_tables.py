"""The identity tables against the dense loops they replaced.

One engine evaluates every multilinear identity from its table of signed
einsum terms.  Each check below must agree with the dense loop over all
indices in every component's numerator and denominator terms (in value, since
Scalar keeps num/den in lowest terms) on the cancelling palette of
``test_sparse_kernels`` (zeros and ``+-1/k``, ``+-1/(k+1)``, ``+-1``).  The
solver's rows are the coefficients of the unknown in
the same tables; they must render like the hand-derived rows too.  The
vector-level identities (torsion, operator compatibility, the pairing, the
matched-pair mixing identities, the relative Rota-Baxter conditions) must
render like the loops over basis vectors they replaced, on algebras of
dimension 2 and 3 and on modules of another dimension; the r-forms of
``check_pq_equivalents`` reach the report only as verdicts, so they must
agree with their loops in value.  The operator square ``SQUARE`` must equal
the matrix product on constant and parametric operators of dimension 1 to 6,
zero and nilpotent ones included.  The builders of ``construct`` (index
permutations and block sums) must equal the loops they replaced, on an
algebra and a module of different dimensions, where a swapped index shows.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lieb import (
    BilinearForm,
    Corepresentation,
    LieAlgebra,
    LieCoalgebra,
    LinearOperator,
    LinearProblem,
    Representation,
    TwoTensor,
    adjoint_operator,
    adjoint_representation,
    bracket_from_omega,
    check_admissible,
    check_co_cybe,
    check_compatible_pair,
    check_corepresentation,
    check_deformed_homomorphism,
    check_dual_qt,
    check_cpnybe,
    check_frobenius,
    check_matched_pair,
    check_nij_lie_bialgebra,
    check_nij_representation,
    check_nijenhuis,
    check_pq_equivalents,
    check_representation,
    check_rrbo,
    check_weak_cosymplectic,
    check_weak_symplectic,
    coadjoint_representation,
    corep_from_rep,
    double_matched_pair,
    dual_algebra,
    dual_coalgebra,
    dual_pair_actions,
    dual_representation,
    manin_double,
    parse_scalar,
    phi_r,
    r_from_T,
    rep_from_corep,
    semidirect_coproduct,
    semidirect_product,
)
from lieb import construct, multilinear, structures
from lieb.construct import _sum_space
from lieb.multilinear import (
    ONE,
    ZERO,
    Table,
    solve_right,
)
from lieb.scalars import Scalar
from lieb.structures import (
    CO_CYBE,
    CO_CYBE_SLICE,
    COCYCLE,
    CYBE,
    MATCHED_PAIR,
    PAIRING,
    PAIRING_FORM_1,
    PAIRING_FORM_2,
    SQUARE,
    Verdict,
)

from reference_loops import (
    ad, apply, bracket, coefficient_rows, mat_add, mat_mul, mat_sub, mat_vec, transpose_matrix,
    zeros, zeros3,
)

from test_sparse_kernels import (
    N,
    _entries,
    _form,
    _forms,
    _nonzero_forms,
    _residual_forms,
    _space,
    matrices,
    tensors3,
)

# A fixed example sequence, shorter than test_sparse_kernels' since each
# example runs several dense references; a wrong sign, letter or term in a
# table gives a different value within it.
_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)

# nonzero weights for the deformation checks
_WEIGHTS = [parse_scalar(text) for text in ("1", "-1", "2", "1/k", "k + 1")]

def _pairs(n):
    return itertools.product(range(n), repeat=2)


def _triples(n):
    return itertools.product(range(n), repeat=3)


# -- dense references: the loops the tables replaced ---------------------------------

def dense_co_cybe(d, om, n):
    items = [("skew", (i, j), om[i][j] + om[j][i]) for i, j in _pairs(n)]
    for i, j, k in _triples(n):
        total = ZERO
        for a, b in _pairs(n):
            total = (total
                     + d[i][a][b] * om[a][j] * om[b][k]
                     + d[k][a][b] * om[i][a] * om[j][b]
                     + d[j][a][b] * om[i][a] * om[b][k])
        items.append(("co-cybe", (i, j, k), total))
    return items


def dense_omega_bracket(d, om, n):
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in _triples(n):
        total = ZERO
        for b in range(n):
            total = total + d[i][k][b] * om[b][j] + d[j][k][b] * om[i][b]
        c[i][j][k] = total
    return c


def dense_dual_qt(d, om, n):
    c_om = dense_omega_bracket(d, om, n)
    items = [("skew", (i, j), om[i][j] + om[j][i]) for i, j in _pairs(n)]
    for i, j, k in _triples(n):
        e1 = ZERO
        for m in range(n):
            e1 = e1 + c_om[i][j][m] * om[m][k]
        for a, b in _pairs(n):
            e1 = e1 - d[k][a][b] * om[i][a] * om[j][b]
        items.append(("dual-qt-1", (i, j, k), e1))
        e2 = ZERO
        for m in range(n):
            e2 = e2 + c_om[j][k][m] * om[i][m]
        for a, b in _pairs(n):
            e2 = e2 + d[i][a][b] * om[a][j] * om[b][k]
        items.append(("dual-qt-2", (i, j, k), e2))
    return items


def dense_weak_symplectic(c, om, n):
    items = [("skew", (i, j), om[i][j] + om[j][i]) for i, j in _pairs(n)]
    for i, j, k in _triples(n):
        total = ZERO
        for m in range(n):
            total = (total + c[i][j][m] * om[m][k]
                     + c[j][k][m] * om[m][i]
                     + c[k][i][m] * om[m][j])
        items.append(("weak-symplectic", (i, j, k), total))
    return items


def dense_weak_cosymplectic(d, rm, n):
    items = [("antisymmetry", (i, j), rm[i][j] + rm[j][i]) for i, j in _pairs(n)]
    t = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for a, b, cc in _triples(n):
        total = ZERO
        for i in range(n):
            total = total + rm[i][cc] * d[i][a][b]
        t[a][b][cc] = total
    for a, b, cc in _triples(n):
        items.append(("weak-cosymplectic", (a, b, cc), t[a][b][cc] + t[b][cc][a] + t[cc][a][b]))
    return items


def _rho(action, coeffs, m):
    out = zeros(m, m)
    for i, coeff in enumerate(coeffs):
        if coeff.num.is_zero():
            continue
        out = mat_add(out, [[coeff * v for v in row] for row in action[i]])
    return out


def dense_representation(c, action, n, m):
    items = []
    for i, j in _pairs(n):
        lhs = zeros(m, m)
        for k in range(n):
            if c[i][j][k].num.is_zero():
                continue
            lhs = mat_add(lhs, [[c[i][j][k] * v for v in row] for row in action[k]])
        rhs = mat_sub(mat_mul(action[i], action[j]), mat_mul(action[j], action[i]))
        diff = mat_sub(lhs, rhs)
        for a, b in _pairs(m):
            items.append(("representation", (i, j, a, b), diff[a][b]))
    return items


def dense_nij_representation(action, nm, a, n, m):
    a2 = mat_mul(a, a)
    items = []
    for i in range(n):
        rho_nx = _rho(action, [nm[t][i] for t in range(n)], m)
        rho_x = action[i]
        lhs = mat_add(mat_mul(rho_nx, a), mat_mul(a2, rho_x))
        rhs = mat_add(mat_mul(a, rho_nx), mat_mul(a, mat_mul(rho_x, a)))
        diff = mat_sub(lhs, rhs)
        for p, q in _pairs(m):
            items.append(("nijenhuis-representation", (i, p, q), diff[p][q]))
    return items


def dense_admissible(action, nm, b, n, m):
    b2 = mat_mul(b, b)
    items = []
    for i in range(n):
        rho_nx = _rho(action, [nm[t][i] for t in range(n)], m)
        rho_x = action[i]
        lhs = mat_add(mat_mul(b, rho_nx), mat_mul(rho_x, b2))
        rhs = mat_add(mat_mul(rho_nx, b), mat_mul(b, mat_mul(rho_x, b)))
        diff = mat_sub(lhs, rhs)
        for p, q in _pairs(m):
            items.append(("admissible", (i, p, q), diff[p][q]))
    return items


def dense_corepresentation(g, d, p, bt, n, m):
    items = []
    for i in range(m):
        for a, b in _pairs(n):
            for k in range(m):
                lhs = ZERO
                for j in range(n):
                    lhs = lhs + g[i][j][k] * d[j][a][b]
                rhs = ZERO
                for mm in range(m):
                    rhs = rhs + g[i][a][mm] * g[mm][b][k] - g[i][b][mm] * g[mm][a][k]
                items.append(("corepresentation", (i, a, b, k), lhs - rhs))
    bt2 = mat_mul(bt, bt)
    for i in range(m):
        for a in range(n):
            for k in range(m):
                t1 = ZERO
                for j in range(n):
                    for mm in range(m):
                        t1 = t1 + p[a][j] * bt[k][mm] * g[i][j][mm]
                t2 = ZERO
                for mm in range(m):
                    t2 = t2 + bt2[mm][i] * g[mm][a][k]
                t3 = ZERO
                for mm in range(m):
                    for j in range(n):
                        t3 = t3 + bt[mm][i] * p[a][j] * g[mm][j][k]
                t4 = ZERO
                for mm in range(m):
                    for q in range(m):
                        t4 = t4 + bt[mm][i] * g[mm][a][q] * bt[k][q]
                items.append(("nijenhuis-corepresentation", (i, a, k), t1 + t2 - t3 - t4))
    return items


def dense_mixed_corepresentation(g1, g2, d1, d2, n, m):
    items = []
    for i in range(m):
        for a, b in _pairs(n):
            for k in range(m):
                lhs = ZERO
                for j in range(n):
                    lhs = lhs + g1[i][j][k] * d2[j][a][b] + g2[i][j][k] * d1[j][a][b]
                rhs = ZERO
                for mm in range(m):
                    rhs = (rhs
                           + g1[i][a][mm] * g2[mm][b][k] + g2[i][a][mm] * g1[mm][b][k]
                           - g1[i][b][mm] * g2[mm][a][k] - g2[i][b][mm] * g1[mm][a][k])
                items.append(("mixed-corepresentation", (i, a, b, k), lhs - rhs))
    return items


def dense_deformation(d, d_st, g, g_st, p, bt, s, t, n, m):
    inv_t = ONE / t
    dd = [[[(d_st[i][a][b] - s * d[i][a][b]) * inv_t for b in range(n)] for a in range(n)]
          for i in range(n)]
    gg = [[[(g_st[i][j][k] - s * g[i][j][k]) * inv_t for k in range(m)]
           for j in range(n)] for i in range(m)]
    items = []
    for i in range(n):
        d_pi = zeros(n, n)
        dd_pi = zeros(n, n)
        for mm in range(n):
            if p[mm][i].num.is_zero():
                continue
            for a, b in _pairs(n):
                d_pi[a][b] = d_pi[a][b] + p[mm][i] * d[mm][a][b]
                dd_pi[a][b] = dd_pi[a][b] + p[mm][i] * dd[mm][a][b]
        for a, b in _pairs(n):
            t1 = dd_pi[a][b]
            for x, y in _pairs(n):
                t1 = t1 - d[i][x][y] * p[a][x] * p[b][y]
            items.append(("deformation-1", (i, a, b), t1))
            t2 = d_pi[a][b] + dd[i][a][b]
            for y in range(n):
                t2 = t2 - d[i][a][y] * p[b][y]
            for x in range(n):
                t2 = t2 - d[i][x][b] * p[a][x]
            items.append(("deformation-2", (i, a, b), t2))
    for i in range(m):
        g_bi = zeros(n, m)
        gg_bi = zeros(n, m)
        for mm in range(m):
            if bt[mm][i].num.is_zero():
                continue
            for a in range(n):
                for k in range(m):
                    g_bi[a][k] = g_bi[a][k] + bt[mm][i] * g[mm][a][k]
                    gg_bi[a][k] = gg_bi[a][k] + bt[mm][i] * gg[mm][a][k]
        for a in range(n):
            for k in range(m):
                t3 = gg_bi[a][k]
                for x in range(n):
                    for q in range(m):
                        t3 = t3 - p[a][x] * bt[k][q] * g[i][x][q]
                items.append(("deformation-3", (i, a, k), t3))
                t4 = g_bi[a][k] + gg[i][a][k]
                for q in range(m):
                    t4 = t4 - g[i][a][q] * bt[k][q]
                for x in range(n):
                    t4 = t4 - p[a][x] * g[i][x][k]
                items.append(("deformation-4", (i, a, k), t4))
    return items


def dense_invariance(c, bm, n):
    items = []
    for i, j, k in _triples(n):
        lhs = ZERO
        rhs = ZERO
        for mm in range(n):
            lhs = lhs + c[i][j][mm] * bm[mm][k]
            rhs = rhs + c[j][k][mm] * bm[i][mm]
        items.append(("invariance", (i, j, k), lhs - rhs))
    return items


# -- the loops over basis vectors that the vector-level tables replaced ----------------

def _unit(i, n):
    return [ONE if t == i else ZERO for t in range(n)]


def _ad_of(L, x):
    n = L.space.dim
    out = zeros(n, n)
    for i in range(n):
        if x[i].num.is_zero():
            continue
        a = ad(L, i)
        out = mat_add(out, [[x[i] * a[p][q] for q in range(n)] for p in range(n)])
    return out


def loop_torsion(L, nm):
    n = L.space.dim
    N_ = _op(nm)
    nn = mat_mul(nm, nm)
    items = []
    for i, j in _pairs(n):
        x, y = _unit(i, n), _unit(j, n)
        nx, ny = apply(N_, x), apply(N_, y)
        lhs = [a + b for a, b in zip(bracket(L, nx, ny), mat_vec(nn, bracket(L, x, y)))]
        rhs = [a + b for a, b in zip(apply(N_, bracket(L, nx, y)), apply(N_, bracket(L, x, ny)))]
        items += [("nijenhuis", (i, j, k), a - b) for k, (a, b) in enumerate(zip(lhs, rhs))]
    return items


def loop_operator_compatibility(L, nm, p):
    n = L.space.dim
    N_, P_ = _op(nm), _op(p)
    p2 = mat_mul(p, p)
    items = []
    for i, j in _pairs(n):
        x, y = _unit(i, n), _unit(j, n)
        nx = apply(N_, x)
        lhs = [a + b for a, b in zip(apply(P_, bracket(L, nx, y)), bracket(L, x, mat_vec(p2, y)))]
        rhs = [a + b for a, b in zip(bracket(L, nx, apply(P_, y)),
                                     apply(P_, bracket(L, x, apply(P_, y))))]
        for k in range(n):
            items.append(("operator-compatibility", (i, j, k), lhs[k] - rhs[k]))
    return items


def loop_pairing(rm, p, nm):
    return mat_sub(mat_mul(p, rm), mat_mul(rm, transpose_matrix(nm)))


def loop_pairing_forms(L, rm, nm, p):
    """The two r-forms of check_pq_equivalents, as the parent loop built them."""
    n = L.space.dim
    N_, P_ = _op(nm), _op(p)
    rho_t, sig_t = loop_pairing(rm, p, nm), loop_pairing(rm, nm, p)
    p2, n2 = mat_mul(p, p), mat_mul(nm, nm)
    form_1, form_2 = [], []
    for i in range(n):
        a_i = ad(L, i)
        a_px = _ad_of(L, apply(P_, _unit(i, n)))
        a_nx = _ad_of(L, apply(N_, _unit(i, n)))
        p_ai = mat_mul(p, a_i)
        lhs = mat_add(
            mat_sub(mat_mul(rho_t, transpose_matrix(p_ai)),
                    mat_mul(rho_t, transpose_matrix(a_px))),
            mat_sub(mat_mul(a_px, sig_t), mat_mul(p_ai, sig_t)))
        form_1 += [((i, a, b), lhs[a][b]) for a, b in _pairs(n)]
        n_ai = mat_mul(nm, a_i)
        lhs2 = mat_add(
            mat_add(mat_sub(mat_mul(rho_t, transpose_matrix(a_nx)),
                            mat_mul(rho_t, transpose_matrix(n_ai))),
                    mat_mul(a_nx, rho_t)),
            mat_mul(p_ai, rho_t))
        rhs2 = mat_sub(mat_mul(mat_mul(a_i, p2), rm),
                       mat_mul(a_i, mat_mul(rm, transpose_matrix(n2))))
        diff = mat_sub(lhs2, rhs2)
        form_2 += [((i, a, b), diff[a][b]) for a, b in _pairs(n)]
    return form_1, form_2


def loop_matched_pair(L, H, action_l, action_h):
    n, m = L.space.dim, H.space.dim
    items = []
    for a in range(m):
        rho_a = _rho(action_h, _unit(a, m), n)
        for i, j in _pairs(n):
            x, y = _unit(i, n), _unit(j, n)
            lhs = mat_vec(rho_a, bracket(L, x, y))
            lhs = [v - w for v, w in zip(lhs, bracket(L, mat_vec(rho_a, x), y))]
            lhs = [v - w for v, w in zip(lhs, bracket(L, x, mat_vec(rho_a, y)))]
            rhs = mat_vec(_rho(action_h, mat_vec(action_l[j], _unit(a, m)), n), x)
            rhs = [v - w for v, w in
                   zip(rhs, mat_vec(_rho(action_h, mat_vec(action_l[i], _unit(a, m)), n), y))]
            for k in range(n):
                items.append(("matched-pair-1", (a, i, j, k), lhs[k] - rhs[k]))
    for i in range(n):
        rho_x = action_l[i]
        for a, b in _pairs(m):
            u, v = _unit(a, m), _unit(b, m)
            lhs = mat_vec(rho_x, bracket(H, u, v))
            lhs = [p - q for p, q in zip(lhs, bracket(H, mat_vec(rho_x, u), v))]
            lhs = [p - q for p, q in zip(lhs, bracket(H, u, mat_vec(rho_x, v)))]
            x = _unit(i, n)
            rhs = mat_vec(_rho(action_l, mat_vec(action_h[b], x), m), u)
            rhs = [p - q for p, q in
                   zip(rhs, mat_vec(_rho(action_l, mat_vec(action_h[a], x), m), v))]
            for k in range(m):
                items.append(("matched-pair-2", (i, a, b, k), lhs[k] - rhs[k]))
    return items


def loop_rrbo(L, action, alpha, nm, t):
    n, m = L.space.dim, len(alpha)
    T_ = LinearOperator(_space(m), _space(n), t)
    items = []
    for i, j in _pairs(m):
        tu = [t[a][i] for a in range(n)]
        tv = [t[a][j] for a in range(n)]
        lhs = bracket(L, tu, tv)
        inner = [x - y for x, y in zip(mat_vec(_rho(action, tu, m), _unit(j, m)),
                                       mat_vec(_rho(action, tv, m), _unit(i, m)))]
        rhs = apply(T_, inner)
        for a in range(n):
            items.append(("rota-baxter", (i, j, a), lhs[a] - rhs[a]))
    for i in range(m):
        tu = [t[a][i] for a in range(n)]
        lhs = mat_vec(nm, tu)
        rhs = apply(T_, [alpha[b][i] for b in range(m)])
        for a in range(n):
            items.append(("operator-intertwining", (i, a), lhs[a] - rhs[a]))
    return items


# -- the solver's hand-derived rows ----------------------------------------------------

def _skew_unknowns(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def rows_weak_symplectic(c, n):
    rows = []
    for i, j, k in _triples(n):
        row = []
        for (a, b) in _skew_unknowns(n):
            coeff = ZERO
            for m in range(n):
                for (p, q, r_) in ((i, j, k), (j, k, i), (k, i, j)):
                    if m == a and r_ == b:
                        coeff = coeff + c[p][q][m]
                    if m == b and r_ == a:
                        coeff = coeff - c[p][q][m]
            row.append(coeff)
        rows.append(row)
    return rows


def rows_co_cybe_slice(d, m0, n):
    def bilinear(first, second, i, j, k):
        total = ZERO
        for a, b in _pairs(n):
            total = (total
                     + d[i][a][b] * first[a][j] * second[b][k]
                     + d[k][a][b] * first[i][a] * second[j][b]
                     + d[j][a][b] * first[i][a] * second[b][k])
        return total

    rows = []
    for i, j, k in _triples(n):
        row = []
        for (a, b) in _skew_unknowns(n):
            unit = zeros(n, n)
            unit[a][b] = ONE
            unit[b][a] = -ONE
            row.append(bilinear(m0, unit, i, j, k) + bilinear(unit, m0, i, j, k))
        rows.append(row)
    return rows


def rows_cocycle_in_delta(c, n):
    rows = []
    for i, j, p, q in itertools.product(range(n), repeat=4):
        row = []
        for (m, a, b) in _triples(n):
            coeff = ZERO
            if (a, b) == (p, q):
                coeff = coeff + c[i][j][m]
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
    return rows


def rows_ad_invariance(c, n):
    rows = []
    for x, p, q in _triples(n):
        row = []
        for (a, b) in _pairs(n):
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
    return rows


# -- checks == dense loops -------------------------------------------------------------

def _op(m):
    space = _space(len(m))
    return LinearOperator(space, space, m)


@_SETTINGS
@given(st.data())
def test_co_cybe_matches_dense(data):
    d, om = data.draw(tensors3(N)), data.draw(matrices(N))
    space = _space(N)
    report = check_co_cybe(LieCoalgebra(space, d), BilinearForm(space, om))
    assert _residual_forms(report) == _nonzero_forms(dense_co_cybe(d, om, N))


@_SETTINGS
@given(st.data())
def test_co_cybe_slice_is_the_polarisation_of_co_cybe(data):
    # CO_CYBE(m1 + m2) - CO_CYBE(m1) - CO_CYBE(m2) == CO_CYBE_SLICE(om=m1, x=m2),
    # component by component
    d, m1, m2 = data.draw(tensors3(N)), data.draw(matrices(N)), data.draw(matrices(N))
    parts = [CO_CYBE.evaluate(d=d, om=om).entries for om in (mat_add(m1, m2), m1, m2)]
    polarised = {idx: parts[0].get(idx, ZERO) - parts[1].get(idx, ZERO) - parts[2].get(idx, ZERO)
                 for idx in sorted(set().union(*parts))}
    assert {idx: v for idx, v in polarised.items() if v} == \
        CO_CYBE_SLICE.evaluate(d=d, om=m1, x=m2).entries


@_SETTINGS
@given(st.data())
def test_dual_qt_and_induced_bracket_match_dense(data):
    d, om = data.draw(tensors3(N)), data.draw(matrices(N))
    space = _space(N)
    coalgebra, form = LieCoalgebra(space, d), BilinearForm(space, om)
    report = check_dual_qt(coalgebra, form)
    assert _residual_forms(report) == _nonzero_forms(dense_dual_qt(d, om, N))
    got = bracket_from_omega(coalgebra, form).c
    want = dense_omega_bracket(d, om, N)
    assert [_form(v) for v in itertools.chain.from_iterable(itertools.chain(*got))] == \
        [_form(v) for v in itertools.chain.from_iterable(itertools.chain(*want))]


@_SETTINGS
@given(st.data())
def test_weak_symplectic_matches_dense(data):
    c, om = data.draw(tensors3(N)), data.draw(matrices(N))
    space = _space(N)
    report = check_weak_symplectic(LieAlgebra(space, c), BilinearForm(space, om))
    assert _residual_forms(report) == _nonzero_forms(dense_weak_symplectic(c, om, N))


@_SETTINGS
@given(st.data())
def test_weak_cosymplectic_matches_dense(data):
    d, rm = data.draw(tensors3(N)), data.draw(matrices(N))
    space = _space(N)
    report = check_weak_cosymplectic(LieCoalgebra(space, d), TwoTensor(space, rm))
    assert _residual_forms(report) == _nonzero_forms(dense_weak_cosymplectic(d, rm, N))


@_SETTINGS
@given(st.data())
def test_representations_match_dense(data):
    c, action = data.draw(tensors3(N)), data.draw(tensors3(N))
    nm, op = data.draw(matrices(N)), data.draw(matrices(N))
    space = _space(N)
    rep = Representation(LieAlgebra(space, c), space, action)
    assert _residual_forms(check_representation(rep)) == \
        _nonzero_forms(dense_representation(c, action, N, N))
    assert _residual_forms(check_nij_representation(rep, _op(nm), _op(op))) == \
        _nonzero_forms(dense_nij_representation(action, nm, op, N, N))
    assert _residual_forms(check_admissible(rep, _op(nm), _op(op))) == \
        _nonzero_forms(dense_admissible(action, nm, op, N, N))


@_SETTINGS
@given(st.data())
def test_corepresentation_matches_dense(data):
    d, g = data.draw(tensors3(N)), data.draw(tensors3(N))
    p, bt = data.draw(matrices(N)), data.draw(matrices(N))
    space = _space(N)
    corep = Corepresentation(LieCoalgebra(space, d), space, g)
    report = check_corepresentation(corep, _op(p), _op(bt))
    assert _residual_forms(report) == _nonzero_forms(dense_corepresentation(g, d, p, bt, N, N))


@_SETTINGS
@given(st.data())
def test_mixed_corepresentation_matches_dense(data):
    d1, d2 = data.draw(tensors3(N)), data.draw(tensors3(N))
    g1, g2 = data.draw(tensors3(N)), data.draw(tensors3(N))
    space = _space(N)
    c1, c2 = LieCoalgebra(space, d1), LieCoalgebra(space, d2)
    report = check_compatible_pair(c1, c2, ONE, ONE, Corepresentation(c1, space, g1),
                                   Corepresentation(c2, space, g2))
    got = [(r.identity, r.index, _form(r.value)) for r in report.residuals
           if r.identity == "mixed-corepresentation"]
    assert got == _nonzero_forms(dense_mixed_corepresentation(g1, g2, d1, d2, N, N))


@_SETTINGS
@given(st.data())
def test_deformation_matches_dense(data):
    d, d_st = data.draw(tensors3(N)), data.draw(tensors3(N))
    g, g_st = data.draw(tensors3(N)), data.draw(tensors3(N))
    p, bt = data.draw(matrices(N)), data.draw(matrices(N))
    s, t = data.draw(st.sampled_from(_WEIGHTS)), data.draw(st.sampled_from(_WEIGHTS))
    space = _space(N)
    c, c_st = LieCoalgebra(space, d), LieCoalgebra(space, d_st)
    report = check_deformed_homomorphism(
        c, c_st, Corepresentation(c, space, g), Corepresentation(c_st, space, g_st),
        _op(p), _op(bt), s, t)
    assert _residual_forms(report) == \
        _nonzero_forms(dense_deformation(d, d_st, g, g_st, p, bt, s, t, N, N))


@_SETTINGS
@given(st.data())
def test_frobenius_invariance_matches_dense(data):
    c, bm = data.draw(tensors3(N)), data.draw(matrices(N))
    space = _space(N)
    report = check_frobenius(LieAlgebra(space, c), BilinearForm(space, bm))
    got = [(r.identity, r.index, _form(r.value)) for r in report.residuals
           if r.identity == "invariance"]
    assert got == _nonzero_forms(dense_invariance(c, bm, N))


# -- vector-level checks == loops over basis vectors -----------------------------------

@st.composite
def tensors(draw, *shape, entries=_entries):
    """A nested-list tensor of the given shape with palette entries."""
    it = iter(entries(draw, math.prod(shape)))

    def build(dims):
        if len(dims) == 1:
            return [next(it) for _ in range(dims[0])]
        return [build(dims[1:]) for _ in range(dims[0])]
    return build(shape)


_DIMS = st.sampled_from([3, 2])


def _named(items, *names):
    return [item for item in items if item[0] in names]


@_SETTINGS
@given(st.data())
def test_torsion_and_operator_compatibility_match_loops(data):
    n = data.draw(_DIMS)
    c, d = data.draw(tensors(n, n, n)), data.draw(tensors(n, n, n))
    nm, p = data.draw(tensors(n, n)), data.draw(tensors(n, n))
    space = _space(n)
    algebra = LieAlgebra(space, c)
    assert _residual_forms(check_nijenhuis(algebra, _op(nm))) == \
        _nonzero_forms(loop_torsion(algebra, nm))
    report = check_nij_lie_bialgebra(algebra, LieCoalgebra(space, d), _op(nm), _op(p))
    assert _named(_residual_forms(report), "operator-compatibility") == \
        _nonzero_forms(loop_operator_compatibility(algebra, nm, p))


@_SETTINGS
@given(st.data())
def test_pairing_matches_loop(data):
    n = data.draw(_DIMS)
    c, rm = data.draw(tensors(n, n, n)), data.draw(tensors(n, n))
    nm, p = data.draw(tensors(n, n)), data.draw(tensors(n, n))
    space = _space(n)
    report = check_cpnybe(LieAlgebra(space, c), TwoTensor(space, rm), _op(nm), _op(p))
    want = loop_pairing(rm, p, nm)
    assert _named(_residual_forms(report), "operator-pairing") == \
        _nonzero_forms(("operator-pairing", (a, b), want[a][b]) for a, b in _pairs(n))


# The r-forms reach the report only as verdicts, so polynomial entries do:
# rational ones would make the expressions large and the test slow.
_POLYNOMIALS = [parse_scalar(text) for text in ["0"] * 3 + ["1", "-1", "k", "-k", "k + 1"]]


def _polynomials(draw, count):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    return [rng.choice(_POLYNOMIALS) for _ in range(count)]


@_SETTINGS
@given(st.data())
def test_pq_r_forms_match_loops(data):
    n = data.draw(_DIMS)
    c = data.draw(tensors(n, n, n, entries=_polynomials))
    rm, nm, p = (data.draw(tensors(n, n, entries=_polynomials)) for _ in range(3))
    # one draw in three takes N = P = s id, where both r-forms vanish
    if data.draw(st.integers(0, 2)) == 0:
        nm = p = [[_POLYNOMIALS[-1] if a == b else ZERO for b in range(n)] for a in range(n)]
    space = _space(n)
    algebra = LieAlgebra(space, c)
    want_1, want_2 = loop_pairing_forms(algebra, rm, nm, p)
    rho = PAIRING.evaluate(P=p, r=rm, N=nm)
    got_1 = PAIRING_FORM_1.evaluate(rho=rho, sig=PAIRING.evaluate(P=nm, r=rm, N=p), P=p, c=c)
    got_2 = PAIRING_FORM_2.evaluate(rho=rho, N=nm, P=p, c=c, r=rm, P2=SQUARE.evaluate(M=p),
                                    N2=SQUARE.evaluate(M=nm))
    for got, want in ((got_1, want_1), (got_2, want_2)):
        assert all(got.entries.get(idx, ZERO) == v for idx, v in want)
    details = check_pq_equivalents(algebra, TwoTensor(space, rm), _op(nm), _op(p)).details
    for key, want in (("cobracket-identity-r-form", want_1),
                      ("compatibility-identity-r-form", want_2)):
        assert (details[key] is Verdict.FAIL) == any(not v.is_zero() for _, v in want), key


@_SETTINGS
@given(st.data())
def test_matched_pair_matches_loops(data):
    n, m = data.draw(_DIMS), data.draw(_DIMS)
    c, h = data.draw(tensors(n, n, n)), data.draw(tensors(m, m, m))
    action_l, action_h = data.draw(tensors(n, m, m)), data.draw(tensors(m, n, n))
    L, H = LieAlgebra(_space(n), c), LieAlgebra(_space(m), h)
    rho_l = Representation(L, _space(m), action_l)
    rho_h = Representation(H, _space(n), action_h)
    report = check_matched_pair(L, H, rho_l, rho_h, _op(data.draw(tensors(n, n))),
                                _op(data.draw(tensors(m, m))))
    assert _named(_residual_forms(report), "matched-pair-1", "matched-pair-2") == \
        _nonzero_forms(loop_matched_pair(L, H, action_l, action_h))


# cheap enough for more examples, which a regrouping of the intertwining needs
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_rrbo_matches_loops(data):
    n, m = data.draw(_DIMS), data.draw(_DIMS)
    c, action = data.draw(tensors(n, n, n)), data.draw(tensors(n, m, m))
    alpha, nm, t = data.draw(tensors(m, m)), data.draw(tensors(n, n)), data.draw(tensors(n, m))
    L = LieAlgebra(_space(n), c)
    report = check_rrbo(L, Representation(L, _space(m), action),
                        LinearOperator(_space(m), _space(m), alpha), _op(nm),
                        LinearOperator(_space(m), _space(n), t))
    assert _residual_forms(report) == _nonzero_forms(loop_rrbo(L, action, alpha, nm, t))


# -- the operator square == the matrix product ------------------------------------------

_CONSTANTS = [parse_scalar(text) for text in ["0"] * 3 + ["1", "-1", "2", "1/3", "-5/7"]]


def _constants(draw, count):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    return [rng.choice(_CONSTANTS) for _ in range(count)]


# constant operators run the integer lane, palette ones (1/k, 1/(k+1)) the Scalar fold
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_square_matches_the_matrix_product(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(tensors(n, n, entries=data.draw(st.sampled_from([_constants, _entries]))))
    kind = data.draw(st.sampled_from(["full", "zero", "nilpotent"]))
    if kind == "zero":
        m = zeros(n, n)
    elif kind == "nilpotent":  # strictly upper triangular
        m = [[v if j > i else ZERO for j, v in enumerate(row)] for i, row in enumerate(m)]
    got = SQUARE.evaluate(M=m)
    assert got.shape == (n, n)
    assert [[_form(v) for v in row] for row in got.dense()] == \
        [[_form(v) for v in row] for row in mat_mul(m, m)]
    assert all(not v.is_zero() for v in got.entries.values())


# -- a table's components do not depend on the order it is written in -----------------

# COCYCLE, CYBE and MATCHED_PAIR with their terms reversed
_REVERSED_COCYCLE = Table("ijpq", "d[ipa] c[jaq] + c[jap] d[iaq] - d[jpa] c[iaq] - c[iap] d[jaq]"
                                  " + c[ijk] d[kpq]")
_REVERSED_CYBE = Table("xyz", "c[jky] r[xj] r[kz] + c[jlz] r[xj] r[yl] + c[ikx] r[iy] r[kz]")
_REVERSED_MATCHED_PAIR = Table("xuvk", "B[utx] A[tkv] - B[vtx] A[tku] - A[xqv] c[uqk]"
                                       " - A[xpu] c[pvk] + A[xkp] c[uvp]")


def _components(tensor):
    return [(idx, _form(v)) for idx, v in tensor.entries.items()]


@_SETTINGS
@given(st.data())
def test_reversed_tables_give_the_same_components(data):
    c, d, rm = data.draw(tensors3(N)), data.draw(tensors3(N)), data.draw(matrices(N))
    assert _components(_REVERSED_COCYCLE.evaluate(c=c, d=d)) == \
        _components(COCYCLE.evaluate(c=c, d=d))
    assert _components(_REVERSED_CYBE.evaluate(c=c, r=rm)) == \
        _components(CYBE.evaluate(c=c, r=rm))
    n, m = data.draw(_DIMS), data.draw(_DIMS)
    h, act, back = data.draw(tensors(n, n, n)), data.draw(tensors(m, n, n)), data.draw(tensors(n, m, m))
    assert _components(_REVERSED_MATCHED_PAIR.evaluate(A=act, c=h, B=back)) == \
        _components(MATCHED_PAIR.evaluate(A=act, c=h, B=back))


# -- every table has the terms recorded for it ------------------------------------------

def test_tables_have_their_recorded_terms():
    # tests/golden/tables/tables.json holds each module-level table's output
    # letters and its signed terms in order, recorded before the tables were
    # rewritten as one einsum sum each; a table imported elsewhere counts once
    golden = json.loads((Path(__file__).parent / "golden" / "tables" / "tables.json").read_text())
    found = {}
    for module in (multilinear, structures, construct):
        for name, table in vars(module).items():
            if isinstance(table, Table) and all(table is not t for t in found.values()):
                found[f"{module.__name__.removeprefix('lieb.')}.{name}"] = table
    assert sorted(found) == sorted(golden)
    for key, table in found.items():
        terms = [["+" if positive else "-", *(f"{name}[{spec}]" for name, spec in factors)]
                 for positive, factors in table.terms]
        assert {"out": table.out, "terms": terms} == golden[key], key


# -- solver rows == hand-derived rows --------------------------------------------------

def _problems(c, d, om):
    space = _space(N)
    algebra = LieAlgebra(space, c)
    return [
        (LinearProblem.weak_symplectic(algebra), rows_weak_symplectic(c, N)),
        (LinearProblem.co_cybe_slice(LieCoalgebra(space, d), BilinearForm(space, om)),
         rows_co_cybe_slice(d, om, N)),
        (LinearProblem.cocycle_in_delta(algebra), rows_cocycle_in_delta(c, N)),
        (LinearProblem.ad_invariance(algebra), rows_ad_invariance(c, N)),
    ]


@_SETTINGS
@given(st.data())
def test_solver_rows_equal_the_hand_derived_rows(data):
    c, d, om = data.draw(tensors3(N)), data.draw(tensors3(N)), data.draw(matrices(N))
    for problem, want in _problems(c, d, om):
        assert [[_form(x) for x in row] for row in coefficient_rows(problem)] == \
            [[_form(x) for x in row] for row in want], problem.kind


# -- construction tables == the loops they replaced ------------------------------------

def loop_dual_representation(R):
    action = [[[-mat[q][p] for q in range(R.space.dim)] for p in range(R.space.dim)]
              for mat in R.action]
    return Representation(R.algebra, R.space.dual(), action)


def loop_corep_from_rep(R):
    n, m = R.algebra.space.dim, R.space.dim
    coaction = [[[R.action[j][i][k] for k in range(m)] for j in range(n)] for i in range(m)]
    return Corepresentation(dual_coalgebra(R.algebra), R.space.dual(), coaction)


def loop_rep_from_corep(K):
    n, m = K.coalgebra.space.dim, K.space.dim
    action = [[[K.coaction[k][j][mm] for mm in range(m)] for k in range(m)] for j in range(n)]
    return Representation(dual_algebra(K.coalgebra), K.space.dual(), action)


def loop_adjoint_representation(L):
    return Representation(L, L.space, [ad(L, i) for i in range(L.space.dim)])


def loop_block_operator(first, second):
    n, m = first.domain.dim, second.domain.dim
    mat = zeros(first.codomain.dim + second.codomain.dim, n + m)
    for i in range(first.codomain.dim):
        for j in range(n):
            mat[i][j] = first.matrix[i][j]
    for i in range(second.codomain.dim):
        for j in range(m):
            mat[first.codomain.dim + i][n + j] = second.matrix[i][j]
    return LinearOperator(_sum_space(first.domain, second.domain),
                          _sum_space(first.codomain, second.codomain), mat)


def loop_semidirect_product(L, R, N, alpha):
    n, m = L.space.dim, R.space.dim
    total = n + m
    c = zeros3(total, total, total)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = L.c[i][j][k]
    for i in range(n):
        for a in range(m):
            for b in range(m):
                value = R.action[i][b][a]
                c[i][n + a][n + b] = value
                c[n + a][i][n + b] = -value
    return LieAlgebra(_sum_space(L.space, R.space), c), loop_block_operator(N, alpha)


def loop_semidirect_coproduct(C, K, P, beta):
    n, m = C.space.dim, K.space.dim
    total = n + m
    d = zeros3(total, total, total)
    for i in range(n):
        for a in range(n):
            for b in range(n):
                d[i][a][b] = C.d[i][a][b]
    for i in range(m):
        for a in range(n):
            for k in range(m):
                value = K.coaction[i][a][k]
                d[n + i][a][n + k] = value
                d[n + i][n + k][a] = -value
    return LieCoalgebra(_sum_space(C.space, K.space), d), loop_block_operator(P, beta)


def loop_double_matched_pair(L, H, rho_L, rho_H, N_L, N_H):
    n, m = L.space.dim, H.space.dim
    total = n + m
    c = zeros3(total, total, total)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = L.c[i][j][k]
    for a in range(m):
        for b in range(m):
            for k in range(m):
                c[n + a][n + b][n + k] = H.c[a][b][k]
    for i in range(n):
        for b in range(m):
            for k in range(m):
                value = rho_L.action[i][k][b]
                c[i][n + b][n + k] = value
                c[n + b][i][n + k] = -value
            for k in range(n):
                value = rho_H.action[b][k][i]
                c[i][n + b][k] = -value
                c[n + b][i][k] = value
    return LieAlgebra(_sum_space(L.space, H.space), c), loop_block_operator(N_L, N_H)


def loop_dual_pair_actions(L, C):
    n = L.space.dim
    rho_l = loop_dual_representation(loop_adjoint_representation(L))
    action = [[[-C.d[j][a][b] for j in range(n)] for b in range(n)] for a in range(n)]
    return rho_l, Representation(dual_algebra(C), L.space, action)


def loop_manin_double(L, C, N, P):
    rho_l, rho_h = loop_dual_pair_actions(L, C)
    double, op = loop_double_matched_pair(L, dual_algebra(C), rho_l, rho_h, N, P.transpose())
    n = L.space.dim
    b = zeros(2 * n, 2 * n)
    for i in range(n):
        b[i][n + i] = ONE
        b[n + i][i] = ONE
    return double, op, BilinearForm(double.space, b)


def loop_adjoint_operator(B, N):
    mat = solve_right(B.matrix, mat_mul(transpose_matrix(N.matrix), B.matrix))
    return LinearOperator(N.domain, N.codomain, mat)


def loop_phi_r(r):
    n = r.space.dim
    mat = [[r.matrix[k][j] for k in range(n)] for j in range(n)]
    return LinearOperator(r.space.dual(), r.space, mat)


def loop_r_from_T(T, R):
    n, m = R.algebra.space.dim, R.space.dim
    ambient, _ = loop_semidirect_product(
        R.algebra, loop_dual_representation(R),
        LinearOperator.zero(R.algebra.space), LinearOperator.zero(R.space.dual()))
    total = n + m
    rm = zeros(total, total)
    for i in range(m):
        for a in range(n):
            rm[a][n + i] = rm[a][n + i] + T.matrix[a][i]
            rm[n + i][a] = rm[n + i][a] - T.matrix[a][i]
    return ambient, TwoTensor(ambient.space, rm)


# (algebra dimension, module dimension): never equal, so a swapped index changes a shape
_SHAPES = st.sampled_from([(3, 2), (2, 3)])


def _unimodular(draw, n):
    """A full constant matrix of determinant 1: unit upper times unit lower triangular."""
    ints = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    entries = [[Scalar.from_int(ints[i * n + j]) for j in range(n)] for i in range(n)]
    upper = [[ONE if i == j else entries[i][j] if j > i else ZERO for j in range(n)]
             for i in range(n)]
    lower = [[ONE if i == j else entries[i][j] if j < i else ZERO for j in range(n)]
             for i in range(n)]
    return mat_mul(upper, lower)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_construction_tables_match_loops(data):
    n, m = data.draw(_SHAPES)
    V, W = _space(n), _space(m)
    L, H = LieAlgebra(V, data.draw(tensors(n, n, n))), LieAlgebra(W, data.draw(tensors(m, m, m)))
    C = LieCoalgebra(V, data.draw(tensors(n, n, n)))
    R = Representation(L, W, data.draw(tensors(n, m, m)))
    rho_h = Representation(H, V, data.draw(tensors(m, n, n)))
    K = Corepresentation(C, W, data.draw(tensors(m, n, m)))
    N, P = _op(data.draw(tensors(n, n))), _op(data.draw(tensors(n, n)))
    alpha = _op(data.draw(tensors(m, m)))
    T = LinearOperator(W, V, data.draw(tensors(n, m)))
    r = TwoTensor(V, data.draw(tensors(n, n)))
    B = BilinearForm(V, _unimodular(data.draw, n))
    pairs = [
        ("dual_representation", dual_representation(R), loop_dual_representation(R)),
        ("corep_from_rep", corep_from_rep(R), loop_corep_from_rep(R)),
        ("rep_from_corep", rep_from_corep(K), loop_rep_from_corep(K)),
        ("adjoint_representation", adjoint_representation(L), loop_adjoint_representation(L)),
        ("coadjoint_representation", coadjoint_representation(L),
         loop_dual_representation(loop_adjoint_representation(L))),
        ("semidirect_product", semidirect_product(L, R, N, alpha),
         loop_semidirect_product(L, R, N, alpha)),
        ("semidirect_coproduct", semidirect_coproduct(C, K, P, alpha),
         loop_semidirect_coproduct(C, K, P, alpha)),
        ("double_matched_pair", double_matched_pair(L, H, R, rho_h, N, alpha),
         loop_double_matched_pair(L, H, R, rho_h, N, alpha)),
        ("dual_pair_actions", dual_pair_actions(L, C), loop_dual_pair_actions(L, C)),
        ("manin_double", manin_double(L, C, N, P), loop_manin_double(L, C, N, P)),
        ("adjoint_operator", adjoint_operator(B, N), loop_adjoint_operator(B, N)),
        ("phi_r", phi_r(r), loop_phi_r(r)),
        ("r_from_T", r_from_T(T, R), loop_r_from_T(T, R)),
    ]
    for name, built, loop in pairs:
        assert built == loop, name


@_SETTINGS
@given(st.data())
def test_deformation_matches_dense_on_a_module_of_another_dimension(data):
    n, m = data.draw(_SHAPES)
    d, d_st = data.draw(tensors(n, n, n)), data.draw(tensors(n, n, n))
    g, g_st = data.draw(tensors(m, n, m)), data.draw(tensors(m, n, m))
    p, bt = data.draw(tensors(n, n)), data.draw(tensors(m, m))
    s, t = data.draw(st.sampled_from(_WEIGHTS)), data.draw(st.sampled_from(_WEIGHTS))
    V, W = _space(n), _space(m)
    c, c_st = LieCoalgebra(V, d), LieCoalgebra(V, d_st)
    report = check_deformed_homomorphism(
        c, c_st, Corepresentation(c, W, g), Corepresentation(c_st, W, g_st),
        _op(p), LinearOperator(W, W, bt), s, t)
    assert _residual_forms(report) == \
        _nonzero_forms(dense_deformation(d, d_st, g, g_st, p, bt, s, t, n, m))
