"""Constructive maps: induced structures, duals, products, doubles, bridges."""

from __future__ import annotations

import pytest

from lieb import (
    BasisSpace,
    BilinearForm,
    DegenerateForm,
    LieCoalgebra,
    LinearOperator,
    Representation,
    TwoTensor,
    Verdict,
    adjoint_operator,
    adjoint_representation,
    bracket_from_omega,
    check_corepresentation,
    check_cybe,
    check_frobenius,
    check_lie_algebra,
    check_lie_coalgebra,
    check_nijenhuis,
    check_nijenhuis_coalgebra,
    check_representation,
    check_weak_symplectic,
    coadjoint_representation,
    corep_from_rep,
    delta_from_r,
    double_matched_pair,
    dual_algebra,
    dual_coalgebra,
    dual_pair_actions,
    dual_representation,
    dualize,
    manin_double,
    nijenhuis_from_omega_r,
    p_from_r_omega,
    phi_r,
    r_from_T,
    rep_from_corep,
    semidirect_coproduct,
    semidirect_product,
)
from lieb.multilinear import PivotAmbiguous, determinant
from lieb.scalars import Assumption, ZERO, ONE

from conftest import abelian, bialgebra_pair, make_operator, sc
from reference_loops import (
    apply, identity, identity_operator, is_antisymmetric, mat_mul, scale, transpose_matrix,
    zero_form, zero_tensor, zeros, zeros3,
)


# -- induced cobracket -----------------------------------------------------------

def test_delta_from_r_reproduces_the_table(sl2, r_qt, dr):
    expected = zeros3(3, 3, 3)
    expected[0][0][1] = sc("2*lambda")
    expected[0][1][0] = sc("-2*lambda")
    expected[2][2][1] = sc("2*lambda")
    expected[2][1][2] = sc("-2*lambda")
    assert dr.d == expected


def test_delta_from_zero_tensor_is_zero(sl2):
    assert delta_from_r(sl2, zero_tensor(sl2.space)).d == zeros3(3, 3, 3)


def test_delta_from_symmetric_tensor(sl2):
    # r = f (x) f gives delta(e) = f (x) [e,f] + [e,f] (x) f = f(x)g + g(x)f
    mat = zeros(3, 3)
    mat[1][1] = ONE
    d = delta_from_r(sl2, TwoTensor(sl2.space, mat)).d
    assert d[0][1][2] == ONE and d[0][2][1] == ONE
    assert all(d[0][a][b].is_zero() for a in range(3) for b in range(3)
               if (a, b) not in ((1, 2), (2, 1)))


# -- bracket from a form -----------------------------------------------------------

def test_bracket_from_zero_data_is_abelian(sl2, dr, omega_symp):
    zero = zero_form(sl2.space)
    assert bracket_from_omega(dr, zero).c == zeros3(3, 3, 3)
    zero_cobracket = LieCoalgebra(sl2.space, zeros3(3, 3, 3))
    assert bracket_from_omega(zero_cobracket, omega_symp).c == zeros3(3, 3, 3)


def test_induced_bracket_is_weak_symplectic(dr, omega_symp):
    induced = bracket_from_omega(dr, omega_symp)
    assert check_lie_algebra(induced).verdict is Verdict.PASS
    assert check_weak_symplectic(induced, omega_symp).verdict is Verdict.PASS


# -- operator constructions ----------------------------------------------------------

def test_operator_from_form_and_tensor(sl2, omega_symp, r_qt, n_example):
    built = nijenhuis_from_omega_r(sl2, omega_symp, r_qt)
    assert built.matrix == n_example.matrix
    assert nijenhuis_from_omega_r(sl2, omega_symp, zero_tensor(sl2.space)).matrix == zeros(3, 3)
    assert nijenhuis_from_omega_r(sl2, zero_form(sl2.space), r_qt).matrix == zeros(3, 3)


def test_cobracket_operator_from_tensor_and_form(sl2, dr, omega_symp, r_qt):
    built = p_from_r_omega(dr, r_qt, omega_symp)
    assert p_from_r_omega(dr, zero_tensor(sl2.space), omega_symp).matrix == zeros(3, 3)
    assert p_from_r_omega(dr, r_qt, zero_form(sl2.space)).matrix == zeros(3, 3)
    assert check_nijenhuis_coalgebra(dr, built).verdict is Verdict.PASS


# -- duals ----------------------------------------------------------------------------

def test_dual_constants_conventions(sl2):
    dual = dual_coalgebra(sl2)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert dual.d[k][i][j] == sl2.c[i][j][k]
    back = dual_algebra(dual)
    assert back.c == sl2.c
    assert back.space.labels == ("e**", "f**", "g**")


def test_double_dual_is_label_isomorphic(sl2, dr, n_example):
    assert dual_algebra(dual_coalgebra(sl2)).c == sl2.c
    assert dual_coalgebra(dual_algebra(dr)).d == dr.d
    assert dualize(dualize(n_example)).matrix == n_example.matrix
    rep = adjoint_representation(sl2)
    assert dual_representation(dual_representation(rep)).action == rep.action


def test_coadjoint_is_a_representation(sl2):
    assert check_representation(coadjoint_representation(sl2)).verdict is Verdict.PASS


def test_corep_and_rep_duals(sl2, n_example):
    rep = adjoint_representation(sl2)
    corep = corep_from_rep(rep)
    assert check_corepresentation(corep).verdict is Verdict.PASS
    back = rep_from_corep(corep)
    assert check_representation(back).verdict is Verdict.PASS
    assert back.action == rep.action


def test_dualized_cobracket_operator_pair_is_torsion_free(dr):
    p = scale(identity_operator(dr.space), sc("k1"))
    dual_n = check_nijenhuis(dual_algebra(dr), p.transpose())
    assert dual_n.verdict is Verdict.PASS


# -- semidirect structures ---------------------------------------------------------------

def test_semidirect_product_with_zero_action_is_abelian_extension(sl2, n_example):
    v = abelian(("u", "v"))
    rep = Representation(sl2, v.space, [zeros(2, 2) for _ in range(3)])
    alg, op = semidirect_product(sl2, rep, n_example, LinearOperator.zero(v.space))
    assert alg.space.dim == 5
    assert check_lie_algebra(alg).verdict is Verdict.PASS
    assert check_nijenhuis(alg, op).verdict is Verdict.PASS


def test_semidirect_product_of_adjoint_data(sl2, n_example):
    rep = adjoint_representation(sl2)
    alg, op = semidirect_product(sl2, rep, n_example, n_example)
    assert alg.space.dim == 6
    assert check_lie_algebra(alg).verdict is Verdict.PASS
    assert check_nijenhuis(alg, op).verdict is Verdict.PASS


def test_semidirect_coproduct(sl2, dr, n_example):
    corep = corep_from_rep(adjoint_representation(sl2))
    p_t = n_example.transpose()
    coalg, op = semidirect_coproduct(corep.coalgebra, corep, p_t, p_t)
    assert coalg.space.dim == 6
    assert check_lie_coalgebra(coalg).verdict is Verdict.PASS
    assert check_nijenhuis_coalgebra(coalg, op).verdict is Verdict.PASS
    zero_p = LinearOperator.zero(corep.coalgebra.space)
    zero_b = LinearOperator.zero(corep.space)
    _, zero_op = semidirect_coproduct(corep.coalgebra, corep, zero_p, zero_b)
    assert zero_op.matrix == zeros(6, 6)


# -- matched-pair double and the pairing double -------------------------------------------

def test_double_reduces_to_semidirect_for_trivial_second_factor(sl2, n_example):
    h = abelian(("u", "v"))
    rho_l = Representation(sl2, h.space, [zeros(2, 2) for _ in range(3)])
    rho_h = Representation(h, sl2.space, [zeros(3, 3) for _ in range(2)])
    alpha = LinearOperator.zero(h.space)
    via_double, op_double = double_matched_pair(sl2, h, rho_l, rho_h, n_example, alpha)
    via_semidirect, op_semi = semidirect_product(sl2, rho_l, n_example, alpha)
    assert via_double.c == via_semidirect.c
    assert op_double.matrix == op_semi.matrix


def test_bialgebra_double_is_torsion_free(sl2, dr):
    n_op, p_op = bialgebra_pair("a", sl2.space)
    rho_l, rho_h = dual_pair_actions(sl2, dr)
    double, op = double_matched_pair(sl2, dual_algebra(dr), rho_l, rho_h,
                                     n_op, p_op.transpose())
    assert double.space.dim == 6
    assert check_lie_algebra(double).verdict is Verdict.PASS
    assert check_nijenhuis(double, op).verdict is Verdict.PASS
    zero = LinearOperator.zero(sl2.space)
    _, zero_op = double_matched_pair(sl2, dual_algebra(dr), rho_l, rho_h, zero,
                                     zero.transpose())
    assert zero_op.matrix == zeros(6, 6)


def test_pairing_double_with_zero_cobracket(sl2, n_example):
    zero_cobracket = LieCoalgebra(sl2.space, zeros3(3, 3, 3))
    double, op, form = manin_double(sl2, zero_cobracket, n_example,
                                    LinearOperator.zero(sl2.space))
    assert check_lie_algebra(double).verdict is Verdict.PASS
    report = check_frobenius(double, form)
    assert report.verdict is Verdict.PASS


def test_pairing_double_adjoint_identity(sl2, dr):
    n_op, p_op = bialgebra_pair("a", sl2.space)
    double, op, form = manin_double(sl2, dr, n_op, p_op)
    assert check_frobenius(double, form, op).verdict is Verdict.PASS
    adj = adjoint_operator(form, op)
    expected = zeros(6, 6)
    for i in range(3):
        for j in range(3):
            expected[i][j] = p_op.matrix[i][j]
            expected[3 + i][3 + j] = n_op.matrix[j][i]
    assert adj.matrix == expected


def test_pairing_double_with_zero_operators(sl2, dr):
    zero = LinearOperator.zero(sl2.space)
    double, op, form = manin_double(sl2, dr, zero, zero)
    assert op.matrix == zeros(6, 6)
    assert check_frobenius(double, form).verdict is Verdict.PASS


# -- adjoint operator ------------------------------------------------------------------------

def test_adjoint_of_form_multiplication_operator(sl2):
    mat = zeros(3, 3)
    mat[0][1] = sc("4")
    mat[1][0] = sc("4")
    mat[2][2] = sc("8")
    form = BilinearForm(sl2.space, mat)
    op_b = LinearOperator(sl2.space, sl2.space, mat)
    assert adjoint_operator(form, op_b).matrix == mat  # symmetric w.r.t. the form
    ident_form = BilinearForm(sl2.space, identity(3))
    skew = make_operator(sl2.space, [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]])
    assert adjoint_operator(ident_form, skew).matrix == skew.transpose().matrix


def test_adjoint_operator_needs_nondegeneracy(sl2, n_example):
    with pytest.raises(DegenerateForm):
        adjoint_operator(zero_form(sl2.space), n_example)


def test_adjoint_operator_on_a_parametric_form_needs_its_pivot_assumed():
    # B = diag(k, 1): solving B X = N^T B divides by k, which only a declared
    # assumption certifies nonzero
    space = BasisSpace(("x", "y"))
    form = BilinearForm(space, [[sc("k"), ZERO], [ZERO, ONE]])
    op = make_operator(space, [["1", "k"], ["2/k", "k + 1"]])
    with pytest.raises(PivotAmbiguous):
        adjoint_operator(form, op)
    adjoint = adjoint_operator(form, op, [Assumption(sc("k").num)])
    # B(Nx, y) = B(x, N^ y) on every basis pair: N^T B = B N^
    assert mat_mul(transpose_matrix(op.matrix), form.matrix) == \
        mat_mul(form.matrix, adjoint.matrix)
    assert adjoint.matrix == [[ONE, ONE], [sc("2"), sc("k + 1")]]


# -- tensor bridges ---------------------------------------------------------------------------

def test_phi_r_images(sl2, r_qt):
    op = phi_r(r_qt)
    assert op.domain.labels == ("e*", "f*", "g*")
    assert apply(op, [ONE, ZERO, ZERO]) == [ZERO, ZERO, ZERO]
    assert apply(op, [ZERO, ONE, ZERO]) == [ZERO, ZERO, sc("lambda")]
    assert apply(op, [ZERO, ZERO, ONE]) == [ZERO, sc("-lambda"), ZERO]
    assert determinant(op.matrix).is_zero()
    assert phi_r(zero_tensor(sl2.space)).matrix == zeros(3, 3)


def test_r_from_t_zero_map(sl2):
    coad = coadjoint_representation(sl2)
    ambient, r = r_from_T(LinearOperator.zero(coad.space, sl2.space), coad)
    assert ambient.space.dim == 6
    assert r.matrix == zeros(6, 6)
    assert check_cybe(ambient, r).verdict is Verdict.PASS


def test_r_from_t_tensor_bridge(sl2, r_qt):
    coad = coadjoint_representation(sl2)
    ambient, r = r_from_T(phi_r(r_qt), coad)
    assert ambient.space.dim == 6
    assert check_lie_algebra(ambient).verdict is Verdict.PASS
    assert is_antisymmetric(r)
    assert check_cybe(ambient, r).verdict is Verdict.PASS


def test_r_from_t_one_dimensional_module(sl2):
    v = BasisSpace(("v",))
    rep = Representation(sl2, v, [zeros(1, 1) for _ in range(3)])
    t = LinearOperator(v, sl2.space, [[sc("3")], [sc("-1")], [sc("2")]])
    ambient, r = r_from_T(t, rep)
    assert check_cybe(ambient, r).verdict is Verdict.PASS
