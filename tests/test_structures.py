"""Every verification predicate against its worked examples.

Expected values for the derived cases were computed with the independent
mini-oracles written inline here (plain bracket/tensor expansions), never
with the check under test.
"""

from __future__ import annotations

import inspect
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import lieb
from lieb import (
    BasisSpace,
    BilinearForm,
    Corepresentation,
    LieAlgebra,
    LieCoalgebra,
    LinearOperator,
    LinearProblem,
    Representation,
    TwoTensor,
    Verdict,
    adjoint_representation,
    bind_parameters,
    check_admissible,
    check_co_cybe,
    check_cocycle,
    check_compatible_pair,
    check_corepresentation,
    check_cpnybe,
    check_cybe,
    check_deformed_homomorphism,
    check_dual_qt,
    check_frobenius,
    check_lie_algebra,
    check_lie_coalgebra,
    check_matched_pair,
    check_nij_lie_bialgebra,
    check_nij_representation,
    check_nijenhuis,
    check_nijenhuis_coalgebra,
    check_pq_equivalents,
    check_representation,
    check_rrbo,
    check_weak_cosymplectic,
    check_weak_symplectic,
    coadjoint_representation,
    corep_from_rep,
    delta_from_r,
    dual_algebra,
    dual_coalgebra,
    dual_pair_actions,
    manin_double,
    parse_document,
    phi_r,
    render_document,
    semidirect_product,
    solve_linear,
)
from lieb.document import CHECK_KINDS
from lieb import solver, structures
from lieb.multilinear import ShapeError, Table, Tensor
from lieb.scalars import ONE, ZERO, Assumption, Polynomial, Scalar
from lieb.structures import Check, Residual

from conftest import abelian, bialgebra_pair, make_operator, make_sl2, sc
from reference_loops import (
    ad, bracket, identity_operator, scale, zero_form, zero_tensor, zeros, zeros3,
)


# -- structure records ------------------------------------------------------------

_PARAMETRIC = Path(__file__).parent / "golden" / "check" / "parametric.lieb"

# a check of each record of the parametric document, by its name there
_RECORD_CHECKS = {
    "g": lambda s, g: check_lie_algebra(g),
    "d": lambda s, d: check_lie_coalgebra(d),
    "r": lambda s, r: check_cybe(s["g"], r),
    "N": lambda s, N: check_nijenhuis(s["g"], N),
    "P": lambda s, P: check_nij_lie_bialgebra(s["g"], s["d"], s["N"], P),
    "R": lambda s, R: check_representation(R),
    "al": lambda s, al: check_nij_representation(s["R"], s["N"], al),
    "T": lambda s, T: check_rrbo(s["g"], s["R"], s["al"], s["N"], T),
}
_VIEWS = {LieAlgebra: "c", LieCoalgebra: "d", Representation: "action",
          LinearOperator: "matrix", TwoTensor: "matrix"}


@pytest.mark.parametrize("name", sorted(_RECORD_CHECKS))
def test_a_record_is_the_same_from_a_nested_list_and_from_a_tensor(name):
    structures = parse_document(_PARAMETRIC.read_text(encoding="utf-8")).structures
    obj = structures[name]
    *fields, tensor = obj.parts()
    from_list = type(obj)(*fields, tensor.dense())
    # the same entries inserted in reverse order, with a stored zero if one fits
    entries = dict(reversed(tensor.entries.items()))
    free = [idx for idx in product(*map(range, tensor.shape)) if idx not in entries]
    entries.update({idx: ZERO for idx in free[:1]})
    from_tensor = type(obj)(*fields, Tensor(tensor.shape, entries))
    assert from_tensor == from_list
    assert list(from_tensor.tensor.entries) == sorted(tensor.entries)
    view = _VIEWS[type(obj)]
    assert getattr(from_tensor, view) == getattr(from_list, view) == tensor.dense()
    check = _RECORD_CHECKS[name]
    report = check(structures, from_list)
    assert check(structures, from_tensor) == report
    # the entries with denominator k + 1 are not all after those with k
    assert [str(a) for a in report.assumptions_used] == ["k != 0", "k + 1 != 0"]
    if not isinstance(obj, Representation):
        assert render_document({name: from_tensor}) == render_document({name: from_list})


@pytest.mark.parametrize("build", [
    lambda sp: LieAlgebra(sp, [[[ONE] * 3] * 3, [[ONE] * 3] * 3, [[ONE] * 3, [ONE] * 2, [ONE] * 3]]),
    lambda sp: LieCoalgebra(sp, [[[ONE] * 3] * 3] * 2),
    lambda sp: LinearOperator(sp, sp, [[ONE] * 3, [ONE] * 3, [ONE] * 4]),
    lambda sp: TwoTensor(sp, [[ONE] * 3, [ONE] * 3, ONE]),
    lambda sp: BilinearForm(sp, [[[ONE]] * 3] * 3),
    lambda sp: BilinearForm(sp, Tensor((3, 2), {})),
], ids=["ragged-bracket", "short-cobracket", "ragged-operator", "flat-tensor", "deep-form",
        "tensor-of-another-shape"])
def test_data_of_another_shape_raises_shape_error(sl2, build):
    with pytest.raises(ShapeError):
        build(sl2.space)


def test_bind_parameters_drops_an_entry_that_binds_to_zero(sl2):
    op = make_operator(sl2.space, [["k - 1", "0", "0"], ["0", "k", "0"], ["0", "0", "1"]])
    bound = bind_parameters(op, {"k": Fraction(1)})
    assert bound.tensor.entries == {(1, 1): ONE, (2, 2): ONE}
    assert bound.matrix == [[ZERO, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]


def test_a_semidirect_product_keeps_the_row_major_assumption_order():
    # its blocks give the entries over 1/(k + 1), at [b, c], before those over
    # 1/k, at [a, u]; in row-major order [a, u] comes first
    space, module = BasisSpace(("a", "b", "c")), BasisSpace(("u",))
    c = zeros3(3, 3, 3)
    c[1][2][2], c[2][1][2] = sc("1/(k + 1)"), sc("-1/(k + 1)")
    algebra = LieAlgebra(space, c)
    rep = Representation(algebra, module, [[[sc("1/k")]], [[ZERO]], [[ZERO]]])
    product_algebra, _ = semidirect_product(algebra, rep, LinearOperator.zero(space),
                                            LinearOperator.zero(module))
    report = check_lie_algebra(product_algebra)
    assert report.verdict is Verdict.CONDITIONAL_PASS
    assert [str(a) for a in report.assumptions_used] == ["k != 0", "k + 1 != 0"]


# -- Lie algebra axioms --------------------------------------------------------

def test_sl2_is_a_lie_algebra(sl2):
    report = check_lie_algebra(sl2)
    assert report.verdict is Verdict.PASS
    assert not report.residuals


def test_abelian_is_a_lie_algebra():
    assert check_lie_algebra(abelian(("x", "y"))).verdict is Verdict.PASS


def test_one_sided_sign_flip_fails_antisymmetry(sl2):
    c = [[list(col) for col in plane] for plane in sl2.c]
    c[0][1][2] = sc("-1")  # [e,f] flipped, [f,e] untouched
    broken = LieAlgebra(sl2.space, c)
    report = check_lie_algebra(broken)
    assert report.verdict is Verdict.FAIL
    anti = [r for r in report.residuals if r.identity == "antisymmetry"]
    # residual at (e, f): c[e][f][g] + c[f][e][g] = -1 + -1 = -2
    assert any(r.index == (0, 1, 2) and r.value == sc("-2") for r in anti)


# -- Lie coalgebra axioms -------------------------------------------------------

def test_induced_cobracket_is_a_lie_coalgebra(dr):
    assert check_lie_coalgebra(dr).verdict is Verdict.PASS


def test_zero_cobracket_passes(sl2):
    zero = LieCoalgebra(sl2.space, zeros3(3, 3, 3))
    assert check_lie_coalgebra(zero).verdict is Verdict.PASS


def test_symmetric_cobracket_fails_coantisymmetry(sl2):
    d = zeros3(3, 3, 3)
    d[0][0][0] = ONE  # delta(e) = e (x) e
    report = check_lie_coalgebra(LieCoalgebra(sl2.space, d))
    assert report.verdict is Verdict.FAIL
    assert any(r.identity == "co-antisymmetry" and r.index == (0, 0, 0) for r in report.residuals)


# -- the bialgebra cocycle ------------------------------------------------------

def test_induced_cobracket_satisfies_cocycle(sl2, dr):
    assert check_cocycle(sl2, dr).verdict is Verdict.PASS


def test_zero_cobracket_satisfies_cocycle(sl2):
    zero = LieCoalgebra(sl2.space, zeros3(3, 3, 3))
    assert check_cocycle(sl2, zero).verdict is Verdict.PASS


def _oracle_cocycle_residual_at(L, d_tensor, i, j):
    """Independent expansion of the cocycle identity at basis pair (i, j)."""
    n = L.space.dim

    def delta(vec):
        out = [[ZERO] * n for _ in range(n)]
        for idx, coeff in enumerate(vec):
            for a in range(n):
                for b in range(n):
                    out[a][b] = out[a][b] + coeff * d_tensor[idx][a][b]
        return out

    def basis(k):
        return [ONE if t == k else ZERO for t in range(n)]

    lhs = delta(bracket(L, basis(i), basis(j)))
    rhs = [[ZERO] * n for _ in range(n)]
    dj = delta(basis(j))
    di = delta(basis(i))
    for a in range(n):
        for b in range(n):
            if not dj[a][b].is_zero():
                vec = bracket(L, basis(i), basis(a))
                for p in range(n):
                    rhs[p][b] = rhs[p][b] + dj[a][b] * vec[p]
                vec = bracket(L, basis(i), basis(b))
                for q in range(n):
                    rhs[a][q] = rhs[a][q] + dj[a][b] * vec[q]
            if not di[a][b].is_zero():
                vec = bracket(L, basis(j), basis(a))
                for p in range(n):
                    rhs[p][b] = rhs[p][b] - di[a][b] * vec[p]
                vec = bracket(L, basis(j), basis(b))
                for q in range(n):
                    rhs[a][q] = rhs[a][q] - di[a][b] * vec[q]
    return [[lhs[a][b] - rhs[a][b] for b in range(n)] for a in range(n)]


def test_flag_shaped_cobracket_is_a_cocycle(sl2):
    # delta(x) = x (x) f - f (x) x for every basis x.  Hand expansion at
    # (e, g) gives -2(e(x)f - f(x)e) on both sides, and the identity holds
    # everywhere; the inline oracle must agree.
    d = zeros3(3, 3, 3)
    for i in range(3):
        d[i][i][1] = d[i][i][1] + ONE
        d[i][1][i] = d[i][1][i] - ONE
    for i in range(3):
        for j in range(3):
            oracle = _oracle_cocycle_residual_at(sl2, d, i, j)
            assert all(v.is_zero() for row in oracle for v in row)
    assert check_cocycle(sl2, LieCoalgebra(sl2.space, d)).verdict is Verdict.PASS


def test_sparse_cobracket_fails_cocycle(sl2):
    # delta(e) = e (x) f - f (x) e alone is not a cocycle: at (e, f) the
    # right side is g(x)f - f(x)g while the left side vanishes, so the
    # residual at component (f, g) is 1 (hand expansion).
    d = zeros3(3, 3, 3)
    d[0][0][1] = ONE
    d[0][1][0] = -ONE
    oracle = _oracle_cocycle_residual_at(sl2, d, 0, 1)
    assert oracle[1][2] == ONE
    report = check_cocycle(sl2, LieCoalgebra(sl2.space, d))
    assert report.verdict is Verdict.FAIL
    failing = {r.index: r.value for r in report.residuals}
    assert failing[(0, 1, 1, 2)] == ONE
    for a in range(3):
        for b in range(3):
            if not oracle[a][b].is_zero():
                assert failing[(0, 1, a, b)] == oracle[a][b]


# -- torsion checks -------------------------------------------------------------

def test_example_operator_is_torsion_free(sl2, n_example):
    report = check_nijenhuis(sl2, n_example)
    assert report.verdict is Verdict.PASS


def test_identity_and_zero_operators_are_torsion_free(sl2):
    assert check_nijenhuis(sl2, identity_operator(sl2.space)).verdict is Verdict.PASS
    assert check_nijenhuis(sl2, LinearOperator.zero(sl2.space)).verdict is Verdict.PASS


def test_family_six_fails_with_recorded_residual(sl2):
    n6 = make_operator(sl2.space, [["k1", "0", "k3"], ["0", "k5", "k6"], ["0", "0", "k5"]])
    report = check_nijenhuis(sl2, n6)
    assert report.verdict is Verdict.FAIL
    assert any(r.index == (0, 1, 2) and r.value == sc("4*k3*k6") for r in report.residuals)


def test_scalar_operator_satisfies_cobracket_torsion(dr):
    p = scale(identity_operator(dr.space), sc("k1"))
    assert check_nijenhuis_coalgebra(dr, p).verdict is Verdict.PASS
    assert check_nijenhuis_coalgebra(dr, LinearOperator.zero(dr.space)).verdict is Verdict.PASS


def test_pair_c_operator_satisfies_cobracket_torsion(sl2, dr):
    _, p = bialgebra_pair("c", sl2.space)
    assert check_nijenhuis_coalgebra(dr, p).verdict is Verdict.PASS


# -- Yang-Baxter ---------------------------------------------------------------

def test_catalog_tensor_solves_cybe(sl2, r_qt):
    assert check_cybe(sl2, r_qt).verdict is Verdict.PASS
    assert check_cybe(sl2, zero_tensor(sl2.space)).verdict is Verdict.PASS


def test_ef_tensor_fails_cybe(sl2):
    mat = zeros(3, 3)
    mat[0][1] = sc("lambda")
    mat[1][0] = sc("-lambda")
    report = check_cybe(sl2, TwoTensor(sl2.space, mat))
    assert report.verdict is Verdict.FAIL
    cybe = [r for r in report.residuals if r.identity == "cybe"]
    assert cybe
    point = {"lambda": Fraction(3, 2)}
    assert any(r.value.evaluate(point) != 0 for r in cybe)


def test_generic_skew_form_solves_co_cybe(dr, omega_generic):
    assert check_co_cybe(dr, omega_generic).verdict is Verdict.PASS


def test_co_cybe_trivial_cases(sl2, dr, omega_generic):
    assert check_co_cybe(dr, zero_form(sl2.space)).verdict is Verdict.PASS
    zero_cobracket = LieCoalgebra(sl2.space, zeros3(3, 3, 3))
    assert check_co_cybe(zero_cobracket, omega_generic).verdict is Verdict.PASS


def test_dual_qt_conditions(dr, omega_symp, omega_generic, sl2):
    assert check_dual_qt(dr, omega_symp).verdict is Verdict.PASS
    assert check_dual_qt(dr, zero_form(sl2.space)).verdict is Verdict.PASS
    # computed verdict: the generic skew form also satisfies both conditions
    assert check_dual_qt(dr, omega_generic).verdict is Verdict.PASS


def test_weak_symplectic(sl2, omega_symp, omega_generic):
    assert check_weak_symplectic(sl2, omega_symp).verdict is Verdict.PASS
    assert check_weak_symplectic(sl2, zero_form(sl2.space)).verdict is Verdict.PASS
    # the cyclic identity vanishes identically for every skew form on this algebra
    assert check_weak_symplectic(sl2, omega_generic).verdict is Verdict.PASS


def test_weak_symplectic_rejects_non_skew(sl2):
    mat = zeros(3, 3)
    mat[0][1] = ONE
    report = check_weak_symplectic(sl2, BilinearForm(sl2.space, mat))
    assert report.verdict is Verdict.FAIL
    assert any(r.identity == "skew" for r in report.residuals)


def test_weak_cosymplectic(dr, r_qt, sl2):
    assert check_weak_cosymplectic(dr, r_qt).verdict is Verdict.PASS
    assert check_weak_cosymplectic(dr, zero_tensor(sl2.space)).verdict is Verdict.PASS
    zero_cobracket = LieCoalgebra(sl2.space, zeros3(3, 3, 3))
    assert check_weak_cosymplectic(zero_cobracket, r_qt).verdict is Verdict.PASS


# -- representations -------------------------------------------------------------

def test_adjoint_representation(sl2):
    assert check_representation(adjoint_representation(sl2)).verdict is Verdict.PASS


def test_zero_action_over_abelian_algebra():
    alg = abelian(("x", "y"))
    rep = Representation(alg, BasisSpace(("v",)), [zeros(1, 1), zeros(1, 1)])
    assert check_representation(rep).verdict is Verdict.PASS


def test_scaled_adjoint_component_fails(sl2):
    rep = adjoint_representation(sl2)
    doubled = Representation(sl2, sl2.space,
                             [[[sc("2") * v for v in row] for row in rep.action[0]]]
                             + rep.action[1:])
    report = check_representation(doubled)
    assert report.verdict is Verdict.FAIL
    assert any(r.index[:2] == (0, 1) for r in report.residuals)


def parametric_line_rep() -> Representation:
    """[e, f] = (1/k) e acting on a line: e by 0, f by 2."""
    c = zeros3(2, 2, 2)
    c[0][1][0], c[1][0][0] = sc("1/k"), sc("-1/k")
    algebra = LieAlgebra(BasisSpace(("e", "f")), c)
    return Representation(algebra, BasisSpace(("v",)), [zeros(1, 1), [[sc("2")]]])


def test_representation_reports_its_algebra_denominators():
    rep = parametric_line_rep()
    assert check_lie_algebra(rep.algebra).verdict is Verdict.CONDITIONAL_PASS
    report = check_representation(rep)
    assert report.verdict is Verdict.CONDITIONAL_PASS
    assert [str(a) for a in report.assumptions_used] == ["k != 0"]
    # the dual coalgebra's denominators are a corepresentation's side condition
    corep = Corepresentation(dual_coalgebra(rep.algebra), BasisSpace(("v",)), [[[ZERO]] * 2])
    report = check_corepresentation(corep)
    assert report.verdict is Verdict.CONDITIONAL_PASS
    assert [str(a) for a in report.assumptions_used] == ["k != 0"]


def test_adjoint_with_matching_alpha_is_nijenhuis_rep(sl2, n_example):
    rep = adjoint_representation(sl2)
    assert check_nij_representation(rep, n_example, n_example).verdict is Verdict.PASS
    ident = identity_operator(sl2.space)
    assert check_nij_representation(rep, ident, ident).verdict is Verdict.PASS


def test_zero_alpha_satisfies_the_rep_compatibility(sl2, n_example):
    # every term of the compatibility contains alpha, so alpha = 0 passes
    rep = adjoint_representation(sl2)
    report = check_nij_representation(rep, n_example, LinearOperator.zero(sl2.space))
    assert report.verdict is Verdict.PASS


def test_admissibility(sl2, n_example):
    rep = adjoint_representation(sl2)
    coad = coadjoint_representation(sl2)
    # beta = ell * id is admissible for any operator
    ell = scale(identity_operator(sl2.space), sc("ell"))
    assert check_admissible(rep, n_example, ell).verdict is Verdict.PASS
    # the transpose of a torsion-free operator is admissible on the dual module
    n_bound = bind_parameters(n_example, {"lambda": Fraction(1), "kappa": Fraction(1)})
    assert check_admissible(coad, n_bound, n_bound.transpose()).verdict is Verdict.PASS
    # ... but the operator itself on the adjoint module is not
    report = check_admissible(rep, n_bound, n_bound)
    assert report.verdict is Verdict.FAIL


def test_pair_admissibility_through_the_adjoint_module(sl2):
    rep = adjoint_representation(sl2)
    for which, expected in (("a", Verdict.PASS), ("b", Verdict.PASS),
                            ("c", Verdict.FAIL), ("d", Verdict.PASS)):
        n_op, p_op = bialgebra_pair(which, sl2.space)
        assert check_admissible(rep, n_op, p_op).verdict is expected, which


# -- corepresentations -----------------------------------------------------------

def test_dualised_adjoint_is_a_corepresentation(sl2, n_example):
    corep = corep_from_rep(adjoint_representation(sl2))
    assert check_corepresentation(corep).verdict is Verdict.PASS
    report = check_corepresentation(corep, n_example.transpose(), n_example.transpose())
    assert report.verdict is Verdict.PASS


def test_zero_coaction_passes(dr):
    corep = Corepresentation(dr, BasisSpace(("v",)), [[[ZERO] for _ in range(3)]])
    assert check_corepresentation(corep).verdict is Verdict.PASS


def test_diagonal_coaction_fails_over_nonzero_cobracket(dr):
    coaction = zeros3(3, 3, 3)
    for i in range(3):
        coaction[i][i][i] = ONE  # gamma(v_i) = e_i (x) v_i
    report = check_corepresentation(Corepresentation(dr, dr.space, coaction))
    assert report.verdict is Verdict.FAIL


# -- compatible pairs and the deformation homomorphism ---------------------------

def test_compatible_pair_with_itself(dr):
    s, t = sc("s"), sc("t")
    assert check_compatible_pair(dr, dr, s, t).verdict is Verdict.PASS


def test_compatible_pair_with_zero(dr, sl2):
    zero = LieCoalgebra(sl2.space, zeros3(3, 3, 3))
    assert check_compatible_pair(dr, zero, sc("s"), sc("t")).verdict is Verdict.PASS


def test_compatible_pair_with_label_swap(sl2, r_qt):
    # swapping the labels of e and g maps the induced cobracket table to
    # itself, so the swapped copy is the same cobracket and trivially
    # compatible (computed verdict, confirmed by the entrywise identity)
    perm = [2, 1, 0]
    dr1 = delta_from_r(sl2, bind_parameters(r_qt, {"lambda": Fraction(1)}))
    swapped = zeros3(3, 3, 3)
    for i in range(3):
        for a in range(3):
            for b in range(3):
                swapped[perm[i]][perm[a]][perm[b]] = dr1.d[i][a][b]
    dr2 = LieCoalgebra(sl2.space, swapped)
    assert dr2.d == dr1.d
    report = check_compatible_pair(dr1, dr2, sc("s"), sc("t"))
    assert report.verdict is Verdict.PASS


def test_compatible_pair_with_coreps(sl2, dr):
    # the coregular coaction (the cobracket acting on its own space) is a
    # corepresentation, and pairing it with itself or with zero stays
    # compatible; a random coaction breaks only the coaction-level identities
    coreg = Corepresentation(dr, dr.space, dr.d)
    assert check_corepresentation(coreg).verdict is Verdict.PASS
    assert check_compatible_pair(dr, dr, sc("s"), sc("t"), coreg, coreg).verdict \
        is Verdict.PASS
    zero_coalg = LieCoalgebra(dr.space, zeros3(3, 3, 3))
    zero_corep = Corepresentation(zero_coalg, dr.space, zeros3(3, 3, 3))
    assert check_compatible_pair(dr, zero_coalg, sc("s"), sc("t"),
                                 coreg, zero_corep).verdict is Verdict.PASS
    skewed = zeros3(3, 3, 3)
    skewed[0][0][0] = ONE  # gamma(v_e) = e (x) v_e, against delta(e) != 0
    broken = Corepresentation(dr, dr.space, skewed)
    report = check_compatible_pair(dr, dr, sc("s"), sc("t"), coreg, broken)
    assert report.verdict is Verdict.FAIL
    assert {r.identity for r in report.residuals} <= {
        "second.corepresentation", "mixed-corepresentation"}


def test_incompatible_pair_fails_only_the_mixed_identity(sl2, dr):
    # the cobracket with constants d[k][i][j] = c[i][j][k] is a Lie coalgebra
    # but is not compatible with the induced cobracket; the independent
    # cross-check is the co-Jacobi failure of s*delta + t*Delta itself
    from lieb import dual_coalgebra

    other = LieCoalgebra(sl2.space, dual_coalgebra(sl2).d)
    assert check_lie_coalgebra(other).verdict is Verdict.PASS
    report = check_compatible_pair(dr, other, sc("s"), sc("t"))
    assert report.verdict is Verdict.FAIL
    assert {r.identity for r in report.residuals} == {"mixed-co-jacobi"}
    s, t = sc("s"), sc("t")
    blend = LieCoalgebra(sl2.space,
                         [[[s * dr.d[i][a][b] + t * other.d[i][a][b]
                            for b in range(3)] for a in range(3)] for i in range(3)])
    assert check_lie_coalgebra(blend).verdict is Verdict.FAIL


def test_deformed_homomorphism_trivial_cases(dr, sl2):
    corep = corep_from_rep(adjoint_representation(sl2))
    base = Corepresentation(dr, corep.space, corep.coaction)
    ident_l = identity_operator(sl2.space)
    ident_v = identity_operator(base.space)
    s, t = sc("1/3"), sc("2/3")
    # Delta = delta, Gamma = gamma, P = beta = id, s + t = 1
    report = check_deformed_homomorphism(dr, dr, base, base, ident_l, ident_v, s, t)
    assert report.verdict is Verdict.PASS
    # P = 0, beta = 0, Delta = 0, Gamma = 0: the scaled pair is (s*delta, s*gamma)
    zero_l = LinearOperator.zero(sl2.space)
    zero_v = LinearOperator.zero(base.space)
    from lieb import map_scalars
    scaled_c = map_scalars(dr, lambda x: x * s)
    scaled_k = Corepresentation(scaled_c, base.space,
                                map_scalars(base.tensor, lambda x: x * s))
    report = check_deformed_homomorphism(dr, scaled_c, base, scaled_k, zero_l, zero_v, s, t)
    assert report.verdict is Verdict.PASS


def test_deformed_homomorphism_records_division_by_weight():
    # all-zero data: every identity holds, so only the division by t can
    # make the pass conditional
    space, module = BasisSpace(("x", "y")), BasisSpace(("v",))
    c = LieCoalgebra(space, zeros3(2, 2, 2))
    k = Corepresentation(c, module, zeros3(1, 2, 1))
    p, beta = LinearOperator.zero(space), LinearOperator.zero(module)
    report = check_deformed_homomorphism(c, c, k, k, p, beta, ONE, sc("k"))
    assert report.verdict is Verdict.CONDITIONAL_PASS
    assert report.assumptions_used == [Assumption(Polynomial.variable("k"))]
    report = check_deformed_homomorphism(c, c, k, k, p, beta, ONE, sc("-2/3"))
    assert report.verdict is Verdict.PASS
    assert report.assumptions_used == []


def test_deformation_identity_one_after_solving_identity_two(sl2, dr):
    # choose Delta so the second identity holds by construction, then the
    # first identity is exactly the cobracket-torsion condition for P
    _, p_op = bialgebra_pair("c", sl2.space)
    n = 3
    p = p_op.matrix
    delta_p = zeros3(n, n, n)
    for i in range(n):
        for a in range(n):
            for b in range(n):
                total = ZERO
                for q in range(n):
                    total = total + dr.d[i][a][q] * p[b][q]
                for x in range(n):
                    total = total + dr.d[i][x][b] * p[a][x]
                for m in range(n):
                    total = total - p[m][i] * dr.d[m][a][b]
                delta_p[i][a][b] = total
    s, t = sc("s"), sc("t")
    d_st = [[[s * dr.d[i][a][b] + t * delta_p[i][a][b] for b in range(n)]
             for a in range(n)] for i in range(n)]
    c_st = LieCoalgebra(sl2.space, d_st)
    corep = corep_from_rep(adjoint_representation(sl2))
    zero_k = Corepresentation(dr, corep.space, zeros3(3, 3, 3))
    zero_k_st = Corepresentation(c_st, corep.space, zeros3(3, 3, 3))
    beta = LinearOperator.zero(zero_k.space)
    report = check_deformed_homomorphism(dr, c_st, zero_k, zero_k_st, p_op, beta, s, t)
    by_name = {}
    for r in report.residuals:
        by_name.setdefault(r.identity, []).append(r)
    assert "deformation-2" not in by_name
    assert "deformation-1" not in by_name  # P satisfies the cobracket torsion


# -- matched pairs ---------------------------------------------------------------

def test_semidirect_case_is_a_matched_pair(sl2, n_example):
    # second factor abelian with zero back-action: the second mixing identity
    # vanishes and the pair reduces to the semidirect case, here with the
    # adjoint action and matching operator weights
    h = abelian(("u", "v", "w"))
    rho_l = Representation(sl2, h.space, [ad(sl2, i) for i in range(3)])
    rho_h = Representation(h, sl2.space, [zeros(3, 3) for _ in range(3)])
    report = check_matched_pair(sl2, h, rho_l, rho_h, n_example, n_example)
    assert report.verdict is Verdict.PASS


def test_bialgebra_double_is_a_matched_pair(sl2, dr):
    n_op, p_op = bialgebra_pair("a", sl2.space)
    rho_l, rho_h = dual_pair_actions(sl2, dr)
    report = check_matched_pair(sl2, dual_algebra(dr), rho_l, rho_h,
                                n_op, p_op.transpose())
    assert report.verdict is Verdict.PASS


def test_rank_one_perturbation_breaks_the_matched_pair(sl2, dr):
    n_op, p_op = bialgebra_pair("a", sl2.space)
    rho_l, rho_h = dual_pair_actions(sl2, dr)
    perturbed = [[[v for v in row] for row in mat] for mat in rho_l.action]
    perturbed[0][0][0] = perturbed[0][0][0] + ONE
    rho_l_bad = Representation(rho_l.algebra, rho_l.space, perturbed)
    bound = {name: Fraction(idx + 2, 3)
             for idx, name in enumerate(("lambda", "k1", "k2"))}
    report = check_matched_pair(
        bind_parameters(sl2, bound), bind_parameters(dual_algebra(dr), bound),
        bind_parameters(rho_l_bad, bound), bind_parameters(rho_h, bound),
        bind_parameters(n_op, bound), bind_parameters(p_op.transpose(), bound))
    assert report.verdict is Verdict.FAIL


# -- Frobenius forms --------------------------------------------------------------

def test_killing_type_form_is_frobenius(sl2):
    mat = zeros(3, 3)
    mat[0][1] = sc("4")
    mat[1][0] = sc("4")
    mat[2][2] = sc("8")
    report = check_frobenius(sl2, BilinearForm(sl2.space, mat))
    assert report.verdict is Verdict.PASS
    assert report.details["determinant"] == sc("-128")


def test_zero_form_is_degenerate(sl2):
    report = check_frobenius(sl2, zero_form(sl2.space))
    assert report.verdict is Verdict.FAIL
    assert any(r.identity == "nondegeneracy" for r in report.residuals)


def test_frobenius_determinant_is_certified_like_a_denominator():
    # on an abelian algebra only the determinant and the inputs' denominators
    # can make the pass conditional
    plane = abelian(("x", "y"))

    def conditions(diagonal, assumed=()):
        form = BilinearForm(plane.space, [[sc(diagonal[0]), ZERO], [ZERO, sc(diagonal[1])]])
        report = check_frobenius(plane, form, assumptions=[Assumption(sc(a).num) for a in assumed])
        assert report.verdict is Verdict.CONDITIONAL_PASS
        return [str(a) for a in report.assumptions_used]

    assert conditions(("k", "k + 1"), ("k", "k + 1")) == ["k != 0", "k + 1 != 0"]
    assert conditions(("k", "k + 1")) == ["k^2 + k != 0"]
    assert conditions(("1/k", "k + 1")) == ["k != 0", "k + 1 != 0"]


def test_double_pairing_form_is_frobenius(sl2, dr):
    n_op, p_op = bialgebra_pair("a", sl2.space)
    double, op, form = manin_double(sl2, dr, n_op, p_op)
    report = check_frobenius(double, form, op)
    assert report.verdict is Verdict.PASS


# -- the full bialgebra check ------------------------------------------------------

def test_operator_pairs_a_b_d_pass(sl2, dr):
    for which in ("a", "b", "d"):
        n_op, p_op = bialgebra_pair(which, sl2.space)
        report = check_nij_lie_bialgebra(sl2, dr, n_op, p_op)
        assert report.verdict is Verdict.PASS, which


def test_operator_pair_c_fails_with_recorded_residual(sl2, dr):
    n_op, p_op = bialgebra_pair("c", sl2.space)
    report = check_nij_lie_bialgebra(sl2, dr, n_op, p_op)
    assert report.verdict is Verdict.FAIL
    assert any(r.identity == "operator-compatibility" and r.index == (0, 0, 1)
               and r.value == sc("-4*k2*k3") for r in report.residuals)


def test_zero_operators_form_a_bialgebra_pair(sl2, dr):
    zero = LinearOperator.zero(sl2.space)
    assert check_nij_lie_bialgebra(sl2, dr, zero, zero).verdict is Verdict.PASS


# -- enriched Yang-Baxter ------------------------------------------------------------

def test_cpnybe_on_catalog_pair(sl2, r_qt):
    n_op, p_op = bialgebra_pair("a", sl2.space)
    assert check_cpnybe(sl2, r_qt, n_op, p_op).verdict is Verdict.PASS
    zero = zero_tensor(sl2.space)
    assert check_cpnybe(sl2, zero, n_op, p_op).verdict is Verdict.PASS


def test_cpnybe_pairing_failure(sl2, r_qt):
    report = check_cpnybe(sl2, r_qt, LinearOperator.zero(sl2.space),
                          identity_operator(sl2.space))
    assert report.verdict is Verdict.FAIL
    pairing = {r.index: r.value for r in report.residuals if r.identity == "operator-pairing"}
    # (P (x) id - id (x) N)(r) = r when P = id, N = 0
    assert pairing[(1, 2)] == sc("lambda")
    assert pairing[(2, 1)] == sc("-lambda")


def test_pq_equivalents_on_catalog_data(sl2, r_qt):
    n_op, p_op = bialgebra_pair("a", sl2.space)
    report = check_pq_equivalents(sl2, r_qt, n_op, p_op)
    assert report.verdict is Verdict.PASS
    assert report.details["cobracket-identity"] is Verdict.PASS
    zero = zero_tensor(sl2.space)
    report = check_pq_equivalents(sl2, zero, n_op, p_op)
    assert report.verdict is Verdict.PASS


@pytest.mark.parametrize("form, item, detail", [
    ("PAIRING_FORM_1", "pair-one-disagreement", "cobracket-identity-r-form"),
    ("PAIRING_FORM_2", "pair-two-disagreement", "compatibility-identity-r-form")])
def test_pq_equivalents_reports_an_r_form_that_disagrees(form, item, detail, sl2, r_qt, monkeypatch):
    # an r-form that never vanishes on sl2, where pair (a) passes both identities
    monkeypatch.setattr(structures, form, Table("iab", "c[iab]"))
    n_op, p_op = bialgebra_pair("a", sl2.space)
    report = check_pq_equivalents(sl2, r_qt, n_op, p_op)
    assert (report.verdict, report.residuals) == (Verdict.FAIL, [Residual(item, (), ONE)])
    assert report.details == {**dict.fromkeys(("cobracket-identity", "cobracket-identity-r-form",
                                               "compatibility-identity",
                                               "compatibility-identity-r-form"), Verdict.PASS),
                              detail: Verdict.FAIL}


# -- relative Rota-Baxter -------------------------------------------------------------

def test_zero_map_is_a_weak_rota_baxter_operator(sl2, n_example):
    coad = coadjoint_representation(sl2)
    t_zero = LinearOperator.zero(coad.space, sl2.space)
    alpha = LinearOperator.zero(coad.space)
    assert check_rrbo(sl2, coad, alpha, n_example, t_zero).verdict is Verdict.PASS


def test_tensor_bridge_is_a_weak_rota_baxter_operator(sl2, r_qt):
    n_op, p_op = bialgebra_pair("a", sl2.space)
    coad = coadjoint_representation(sl2)
    report = check_rrbo(sl2, coad, p_op.transpose(), n_op, phi_r(r_qt))
    assert report.verdict is Verdict.PASS


def test_identity_is_not_a_rota_baxter_operator(sl2):
    rep = adjoint_representation(sl2)
    ident = identity_operator(sl2.space)
    report = check_rrbo(sl2, rep, ident, ident, ident)
    assert report.verdict is Verdict.FAIL
    # the bracket-compatibility side doubles the bracket: residual -[e_i, e_j]
    failing = {r.index: r.value for r in report.residuals if r.identity == "rota-baxter"}
    assert failing[(0, 1, 2)] == sc("-1")


# -- calling conventions ------------------------------------------------------------

_CONVENTIONS_DOCUMENT = """params k
space L : e f h
space V : u v
algebra g on L {
  [e, f] = h/(k^2 + k)
  [h, e] = 2*e
  [h, f] = -2*f
}
algebra a on V {
  [u, v] = u/(k^2 + k)
}
coalgebra C on L {
  delta(h) = (e@f - f@e)/(k^2 + k)
}
rep R of g on V {
  e : v -> u/(k^2 + k)
  f : u -> v
}
rep Ra of a on L {
  u : e -> e/(k^2 + k)
}
operator N : L -> L {
  e -> e/(k^2 + k)
  h -> f
}
operator al : V -> V {
  u -> v/(k^2 + k)
}
operator T : V -> L {
  u -> e/(k^2 + k)
}
tensor r on L {
  (e@f - f@e)/(k^2 + k)
}
form om on L skew {
  (e, f) = 1/(k^2 + k)
}
form B on L {
  (e, f) = 1/(k^2 + k)
  (f, e) = 1/(k^2 + k)
  (h, h) = 2
}
"""


def _conventions_structures() -> dict:
    """A structure for each parameter name of the exported checks, each one
    with the denominator k^2 + k."""
    s = parse_document(_CONVENTIONS_DOCUMENT).structures
    K = Corepresentation(s["C"], s["R"].space, Tensor((2, 3, 2), {(0, 2, 1): sc("1/(k^2 + k)")}))
    return {"L": s["g"], "H": s["a"], "R": s["R"], "rho_L": s["R"], "rho_H": s["Ra"],
            **dict.fromkeys(("C", "C1", "C2", "C_st"), s["C"]),
            **dict.fromkeys(("K", "K_st", "corep1", "corep2"), K),
            **dict.fromkeys(("N", "N_L", "P"), s["N"]),
            **dict.fromkeys(("N_H", "alpha", "beta"), s["al"]),
            "T": s["T"], "r": s["r"], "omega": s["om"], "B": s["B"], "s": ONE, "t": sc("k")}


_EXPORTED_CHECKS = sorted(name for name in dir(lieb) if name.startswith("check_"))


def test_there_are_22_exported_checks():
    assert len(_EXPORTED_CHECKS) == 22


def test_only_the_checks_with_a_step_that_is_not_a_table_are_functions():
    # a determinant, a division by t, a comparison of verdicts
    assert [name for name in _EXPORTED_CHECKS if not isinstance(getattr(lieb, name), Check)] == \
        ["check_deformed_homomorphism", "check_frobenius", "check_pq_equivalents"]
    assert set(CHECK_KINDS) == {
        "lie-algebra", "lie-coalgebra", "cocycle", "nijenhuis", "nij-coalgebra", "cybe", "co-cybe",
        "dual-qt", "weak-symplectic", "weak-cosymplectic", "representation", "nij-representation",
        "admissible", "corepresentation", "cpnybe", "rrbo", "frobenius", "frobenius-nij",
        "nij-lie-bialgebra", "pq-equivalents"}


@pytest.mark.parametrize("name", _EXPORTED_CHECKS)
def test_every_check_takes_structures_and_assumptions_by_position_or_by_name(name):
    check = getattr(lieb, name)
    params = [p for p in inspect.signature(check).parameters if p != "assumptions"]
    structures = _conventions_structures()
    named = {p: structures[p] for p in params}
    objs = list(named.values())
    declared = [Assumption(sc("k").num), Assumption(sc("k + 1").num)]
    reports = [check(*objs, declared), check(*objs, assumptions=declared),
               check(**named, assumptions=declared),
               check(objs[0], **dict(list(named.items())[1:]), assumptions=declared)]
    got = [(r.verdict, r.residuals, r.assumptions_used) for r in reports]
    assert got == [got[0]] * 4
    # the assumptions reached the check: without them the denominator is implicit
    assert check(*objs).assumptions_used != reports[0].assumptions_used


# -- constant inputs: arithmetic on the int lanes ----------------------------------------

_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__pow__")


def _forbid_scalar_arithmetic(monkeypatch) -> None:
    """Make Scalar's binary operators and ** raise; negation, comparison,
    hashing and truth values still run."""
    def forbidden(self, *args):
        raise AssertionError("Scalar arithmetic on all-constant inputs")

    for name in _ARITHMETIC:
        monkeypatch.setattr(Scalar, name, forbidden)


def _constant_structures() -> dict:
    """The conventions structures at k = 2, where every entry is a constant."""
    return {name: bind_parameters(obj, {"k": Fraction(2)})
            for name, obj in _conventions_structures().items()}


@pytest.mark.parametrize("kind", sorted(structures.CHECKS))
def test_a_check_on_constant_inputs_adds_and_multiplies_no_scalars(kind, monkeypatch):
    # constant entries are summed on the table engine's int lane; each run
    # gets fresh inputs, so the patched one finds no join index already built
    check = structures.CHECKS[kind]
    expected = check(*map(_constant_structures().get, check.names))
    inputs = list(map(_constant_structures().get, check.names))
    _forbid_scalar_arithmetic(monkeypatch)
    assert check(*inputs) == expected


@pytest.mark.parametrize("kind", sorted(solver.KINDS))
def test_a_solve_on_a_constant_context_adds_and_multiplies_no_scalars(kind, monkeypatch):
    # the rows are eliminated on row_reduce's int lane, and each kernel
    # vector is read back through the +-1 basis with no product
    def problem() -> LinearProblem:
        if kind == "co-cybe-slice":
            s = _constant_structures()
            return LinearProblem.co_cybe_slice(s["C"], s["omega"])
        return LinearProblem(kind, {"c": make_sl2()})

    expected = solve_linear(problem())
    fresh = problem()
    _forbid_scalar_arithmetic(monkeypatch)
    assert solve_linear(fresh) == expected
