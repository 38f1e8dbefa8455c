"""Randomized structural invariants tying the checks and constructions together."""

from __future__ import annotations

import random
from fractions import Fraction

from lieb import (
    BasisSpace,
    BilinearForm,
    LieAlgebra,
    LieCoalgebra,
    LinearOperator,
    Representation,
    Scalar,
    TwoTensor,
    Verdict,
    Representation,
    adjoint_representation,
    bind_parameters,
    bracket_from_omega,
    check_admissible,
    check_cocycle,
    check_compatible_pair,
    check_cpnybe,
    check_cybe,
    check_deformed_homomorphism,
    check_dual_qt,
    check_frobenius,
    check_lie_coalgebra,
    check_nij_lie_bialgebra,
    check_nijenhuis,
    check_nijenhuis_coalgebra,
    check_rrbo,
    check_weak_symplectic,
    coadjoint_representation,
    delta_from_r,
    dual_algebra,
    manin_double,
    phi_r,
    r_from_T,
)
from lieb.scalars import ZERO, ONE
from lieb.structures import Corepresentation

from conftest import bialgebra_pair, sc
from reference_loops import cobracket, gamma, identity, scale, shift as shift_by, zeros, zeros3


def _rng(seed: int) -> random.Random:
    return random.Random(seed)


def _rand_scalar(rng) -> Scalar:
    return Scalar.from_fraction(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))


def _rand_matrix(rng, n: int, m: int | None = None):
    m = n if m is None else m
    return [[_rand_scalar(rng) for _ in range(m)] for _ in range(n)]


def _rand_antisym_bracket(rng, sp: BasisSpace) -> LieAlgebra:
    n = sp.dim
    c = zeros3(n, n, n)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                value = _rand_scalar(rng)
                c[i][j][k] = value
                c[j][i][k] = -value
    return LieAlgebra(sp, c)


def _rand_coantisym_cobracket(rng, sp: BasisSpace) -> LieCoalgebra:
    n = sp.dim
    d = zeros3(n, n, n)
    for i in range(n):
        for a in range(n):
            for b in range(a + 1, n):
                value = _rand_scalar(rng)
                d[i][a][b] = value
                d[i][b][a] = -value
    return LieCoalgebra(sp, d)


_SPACES = {
    2: BasisSpace(("x", "y")),
    3: BasisSpace(("x", "y", "z")),
    4: BasisSpace(("w", "x", "y", "z")),
}


# -- torsion invariances ------------------------------------------------------------

def test_torsion_is_invariant_under_scalar_shifts():
    rng = _rng(101)
    for trial in range(25):
        sp = _SPACES[2 + trial % 3]
        alg = _rand_antisym_bracket(rng, sp)
        op = LinearOperator(sp, sp, _rand_matrix(rng, sp.dim))
        shift = _rand_scalar(rng)
        base = check_nijenhuis(alg, op)
        shifted = check_nijenhuis(alg, shift_by(op, shift))
        assert base.verdict is shifted.verdict
        assert [(r.identity, r.index, r.value) for r in base.residuals] == \
               [(r.identity, r.index, r.value) for r in shifted.residuals]


def test_torsion_is_invariant_under_the_reflection():
    rng = _rng(102)
    for trial in range(25):
        sp = _SPACES[2 + trial % 3]
        alg = _rand_antisym_bracket(rng, sp)
        op = LinearOperator(sp, sp, _rand_matrix(rng, sp.dim))
        reflected = shift_by(scale(op, sc("-1")), sc("-1"))  # -id - N
        base = check_nijenhuis(alg, op)
        other = check_nijenhuis(alg, reflected)
        assert base.verdict is other.verdict
        assert [(r.index, r.value) for r in base.residuals] == \
               [(r.index, r.value) for r in other.residuals]


def test_admissibility_matches_under_the_reflection(sl2):
    rng = _rng(103)
    rep = adjoint_representation(sl2)
    for _ in range(15):
        n_op = LinearOperator(sl2.space, sl2.space, _rand_matrix(rng, 3))
        beta = LinearOperator(sl2.space, sl2.space, _rand_matrix(rng, 3))
        refl_n = shift_by(scale(n_op, sc("-1")), sc("-1"))
        refl_b = shift_by(scale(beta, sc("-1")), sc("-1"))
        lhs = check_admissible(rep, n_op, beta)
        rhs = check_admissible(rep, refl_n, refl_b)
        assert lhs.verdict is rhs.verdict


# -- duality consistency ---------------------------------------------------------------

def test_cobracket_torsion_equals_dual_torsion():
    rng = _rng(104)
    for trial in range(20):
        sp = _SPACES[2 + trial % 3]
        n = sp.dim
        d = [[[_rand_scalar(rng) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        coalg = LieCoalgebra(sp, d)
        p = LinearOperator(sp, sp, _rand_matrix(rng, n))
        direct = check_nijenhuis_coalgebra(coalg, p)
        dual = check_nijenhuis(dual_algebra(coalg), p.transpose())
        assert direct.verdict is dual.verdict


# -- Yang-Baxter bridges -----------------------------------------------------------------

def test_cpnybe_matches_rota_baxter_for_the_tensor_bridge(sl2):
    rng = _rng(105)
    coad = coadjoint_representation(sl2)
    for trial in range(15):
        bound = {"k1": Fraction(rng.randint(-5, 5)), "k2": Fraction(rng.randint(-5, 5))}
        n_op, p_op = (bind_parameters(op, bound) for op in bialgebra_pair("a", sl2.space))
        mat = zeros(3, 3)
        for i in range(3):
            for j in range(i + 1, 3):
                value = _rand_scalar(rng)
                mat[i][j] = value
                mat[j][i] = -value
        r = TwoTensor(sl2.space, mat)
        lhs = check_cpnybe(sl2, r, n_op, p_op).passed
        rhs = check_rrbo(sl2, coad, p_op.transpose(), n_op, phi_r(r)).passed
        assert lhs == rhs


def test_dual_qt_implies_weak_symplectic_on_the_induced_bracket(dr, sl2):
    rng = _rng(106)
    for _ in range(10):
        mat = zeros(3, 3)
        for i in range(3):
            for j in range(i + 1, 3):
                value = _rand_scalar(rng)
                mat[i][j] = value
                mat[j][i] = -value
        omega = BilinearForm(sl2.space, mat)
        if check_dual_qt(dr, omega).passed:
            induced = bracket_from_omega(dr, omega)
            assert check_weak_symplectic(induced, omega).passed


def test_induced_cobrackets_are_cocycles_for_arbitrary_tensors(sl2, dr):
    rng = _rng(107)
    n_op, p_op = bialgebra_pair("a", sl2.space)
    double, _, _ = manin_double(sl2, dr, n_op, p_op)
    double = bind_parameters(double, {"lambda": Fraction(2, 3),
                                      "k1": Fraction(-1), "k2": Fraction(4)})
    for alg in (sl2, double):
        n = alg.space.dim
        for _ in range(4):
            r = TwoTensor(alg.space, _rand_matrix(rng, n))
            assert check_cocycle(alg, delta_from_r(alg, r)).passed


def test_antisymmetric_yang_baxter_solutions_induce_coalgebras(sl2, r_qt):
    assert check_lie_coalgebra(delta_from_r(sl2, r_qt)).passed
    coad = coadjoint_representation(sl2)
    ambient, big_r = r_from_T(phi_r(r_qt), coad)
    assert check_cybe(ambient, big_r).passed
    assert check_lie_coalgebra(delta_from_r(ambient, big_r)).passed


# -- double pairing form -------------------------------------------------------------------

def test_double_form_always_invariant_but_jacobi_tracks_the_cocycle(sl2, dr):
    # the pairing form is symmetric and invariant by construction (the mixed
    # coadjoint actions pair off definitionally); what a broken cocycle
    # destroys is the Jacobi identity of the double bracket
    from lieb import check_lie_algebra

    zero_op = LinearOperator.zero(sl2.space)
    double, _, form = manin_double(sl2, dr, zero_op, zero_op)
    assert check_frobenius(double, form).passed
    assert check_lie_algebra(double).passed
    d = zeros3(3, 3, 3)
    d[0][0][1] = ONE
    d[0][1][0] = -ONE
    bad = LieCoalgebra(sl2.space, d)
    assert not check_cocycle(sl2, bad).passed
    bad_double, _, bad_form = manin_double(sl2, bad, zero_op, zero_op)
    sym_inv = check_frobenius(bad_double, bad_form)
    assert sym_inv.passed
    assert not check_lie_algebra(bad_double).passed


# -- the semidirect equivalence -------------------------------------------------------------

def test_tensor_embedding_matches_rota_baxter_both_ways(sl2):
    rng = _rng(108)
    coad = coadjoint_representation(sl2)
    hits = {True: 0, False: 0}
    for trial in range(12):
        if trial % 3 == 0:
            bound = {"k1": Fraction(rng.randint(-4, 4)), "k2": Fraction(rng.randint(-4, 4))}
            n_op, p_op = (bind_parameters(op, bound) for op in bialgebra_pair("a", sl2.space))
            lam = Fraction(rng.randint(1, 5))
            mat = zeros(3, 3)
            mat[1][2] = Scalar.from_fraction(lam)
            mat[2][1] = Scalar.from_fraction(-lam)
            t_map = phi_r(TwoTensor(sl2.space, mat))
            alpha = p_op.transpose()
            beta = n_op.transpose()
        else:
            n_op = LinearOperator(sl2.space, sl2.space, _rand_matrix(rng, 3))
            p_op = LinearOperator(sl2.space, sl2.space, _rand_matrix(rng, 3))
            t_map = LinearOperator(coad.space, sl2.space, _rand_matrix(rng, 3))
            alpha = LinearOperator(coad.space, coad.space, _rand_matrix(rng, 3))
            beta = LinearOperator(coad.space, coad.space, _rand_matrix(rng, 3))
        ambient, r = r_from_T(t_map, coad)
        n_amb = zeros(6, 6)
        p_amb = zeros(6, 6)
        for i in range(3):
            for j in range(3):
                n_amb[i][j] = n_op.matrix[i][j]
                n_amb[3 + i][3 + j] = beta.matrix[j][i]
                p_amb[i][j] = p_op.matrix[i][j]
                p_amb[3 + i][3 + j] = alpha.matrix[j][i]
        amb_n = LinearOperator(ambient.space, ambient.space, n_amb)
        amb_p = LinearOperator(ambient.space, ambient.space, p_amb)
        lhs = check_cpnybe(ambient, r, amb_n, amb_p).passed
        rbo = check_rrbo(sl2, coad, alpha, n_op, t_map).passed
        intertwines = all(
            (sum((p_op.matrix[i][k] * t_map.matrix[k][j] for k in range(3)), ZERO)
             - sum((t_map.matrix[i][k] * beta.matrix[k][j] for k in range(3)), ZERO)).is_zero()
            for i in range(3) for j in range(3))
        assert lhs == (rbo and intertwines)
        hits[lhs] += 1
    assert hits[True] and hits[False]


# -- compatible pairs and deformations --------------------------------------------------------

def test_compatible_pair_matches_the_blend_coalgebra():
    rng = _rng(109)
    sp = _SPACES[3]
    s, t = sc("s"), sc("t")
    agree_fail = 0
    for trial in range(10):
        c1 = _rand_coantisym_cobracket(rng, sp)
        c2 = c1 if trial == 0 else _rand_coantisym_cobracket(rng, sp)
        blend = LieCoalgebra(sp, [[[s * c1.d[i][a][b] + t * c2.d[i][a][b]
                                    for b in range(3)] for a in range(3)] for i in range(3)])
        lhs = check_compatible_pair(c1, c2, s, t).passed
        rhs = check_lie_coalgebra(blend).passed
        assert lhs == rhs
        agree_fail += not lhs
    assert agree_fail  # random cobrackets genuinely exercise the failing branch


def test_deformed_homomorphism_matches_the_direct_identities(sl2):
    rng = _rng(110)
    sp = sl2.space
    vsp = BasisSpace(("u", "v"))
    s, t = sc("s"), sc("t")
    seen = {True: 0, False: 0}
    for trial in range(10):
        d = [[[_rand_scalar(rng) for _ in range(3)] for _ in range(3)] for _ in range(3)]
        dd = [[[_rand_scalar(rng) for _ in range(3)] for _ in range(3)] for _ in range(3)]
        g = [[[_rand_scalar(rng) for _ in range(2)] for _ in range(3)] for _ in range(2)]
        gg = [[[_rand_scalar(rng) for _ in range(2)] for _ in range(3)] for _ in range(2)]
        if trial == 0:
            # a passing instance: the trivial deformation
            dd = [[[ZERO for _ in range(3)] for _ in range(3)] for _ in range(3)]
            gg = [[[ZERO for _ in range(2)] for _ in range(3)] for _ in range(2)]
            p = LinearOperator.zero(sp)
            b = LinearOperator.zero(vsp)
        else:
            p = LinearOperator(sp, sp, _rand_matrix(rng, 3))
            b = LinearOperator(vsp, vsp, _rand_matrix(rng, 2))
        base_c = LieCoalgebra(sp, d)
        blended_c = LieCoalgebra(sp, [[[s * d[i][a][x] + t * dd[i][a][x] for x in range(3)]
                                       for a in range(3)] for i in range(3)])
        base_k = Corepresentation(base_c, vsp, g)
        blended_k = Corepresentation(
            blended_c, vsp,
            [[[s * g[i][a][x] + t * gg[i][a][x] for x in range(2)]
              for a in range(3)] for i in range(2)])
        report = check_deformed_homomorphism(base_c, blended_c, base_k, blended_k,
                                             p, b, s, t)
        # direct homomorphism identities for (s id + t P, s id + t beta)
        f_op = identity(3)
        f_op = [[s * f_op[i][j] + t * p.matrix[i][j] for j in range(3)] for i in range(3)]
        g_op = identity(2)
        g_op = [[s * g_op[i][j] + t * b.matrix[i][j] for j in range(2)] for i in range(2)]
        ok = True
        for i in range(3):
            fx = [f_op[m][i] for m in range(3)]
            lhs = cobracket(blended_c, fx)
            rhs_big = cobracket(base_c, [ONE if m == i else ZERO for m in range(3)])
            for a in range(3):
                for bb in range(3):
                    total = ZERO
                    for x in range(3):
                        for y in range(3):
                            total = total + f_op[a][x] * f_op[bb][y] * rhs_big[x][y]
                    if not (lhs[a][bb] - total).is_zero():
                        ok = False
        for i in range(2):
            gv = [g_op[m][i] for m in range(2)]
            lhs = gamma(blended_k, gv)
            rhs_big = gamma(base_k, [ONE if m == i else ZERO for m in range(2)])
            for a in range(3):
                for kk in range(2):
                    total = ZERO
                    for x in range(3):
                        for y in range(2):
                            total = total + f_op[a][x] * g_op[kk][y] * rhs_big[x][y]
                    if not (lhs[a][kk] - total).is_zero():
                        ok = False
        assert report.passed == ok
        seen[ok] += 1
    assert seen[True] and seen[False]


def test_sampling_finds_the_non_admissibility_witness(sl2, n_example):
    # a Nijenhuis representation need not make the algebra alpha-admissible:
    # sampling the adjoint module with beta = alpha = N finds an exact witness
    from lieb import RefutedAt, SampleConfig, check_nij_representation, refute_by_sampling

    rep = adjoint_representation(sl2)

    def alpha_admissible(n):
        return check_admissible(rep, n, n)

    result = refute_by_sampling(alpha_admissible, {"n": n_example},
                                SampleConfig(seed=13, trials=8))
    assert isinstance(result, RefutedAt)
    bound = bind_parameters(n_example, result.assignment)
    # the same data is a perfectly good operator representation
    assert check_nij_representation(rep, bound, bound).passed
    assert not check_admissible(rep, bound, bound).passed


# -- report hygiene -----------------------------------------------------------------------------

def test_reports_satisfy_the_verdict_invariant(sl2, dr):
    n_op, p_op = bialgebra_pair("c", sl2.space)
    failing = check_nij_lie_bialgebra(sl2, dr, n_op, p_op)
    assert failing.verdict is Verdict.FAIL and failing.residuals
    passing = check_cocycle(sl2, dr)
    assert passing.verdict is Verdict.PASS
    assert not passing.residuals and not passing.assumptions_used


def test_failing_residuals_are_not_normalisation_artifacts(sl2, dr):
    rng = _rng(111)
    from conftest import make_operator

    n6 = make_operator(sl2.space, [["k1", "0", "k3"], ["0", "k5", "k6"], ["0", "0", "k5"]])
    reports = [
        check_nijenhuis(sl2, n6),
        check_nij_lie_bialgebra(sl2, dr, *bialgebra_pair("c", sl2.space)),
    ]
    for report in reports:
        assert report.verdict is Verdict.FAIL
        for residual in report.residuals:
            names = sorted(residual.value.parameters())
            witnesses = 0
            for _ in range(20):
                point = {name: Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                         for name in names}
                try:
                    if residual.value.evaluate(point) != 0:
                        witnesses += 1
                except Exception:
                    continue
            assert witnesses >= 1
