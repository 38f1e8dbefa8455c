"""Linear classification by exact nullspace and randomized refutation."""

from __future__ import annotations

from fractions import Fraction

import pytest

from lieb import (
    BilinearForm,
    LieAlgebra,
    LieCoalgebra,
    LinearProblem,
    PivotAmbiguous,
    RefutedAt,
    ConfirmedZero,
    SampleConfig,
    TwoTensor,
    Verdict,
    check_cocycle,
    check_cybe,
    check_nijenhuis,
    check_representation,
    check_weak_symplectic,
    delta_from_r,
    refute_by_sampling,
    solve_linear,
)
from lieb.multilinear import BasisSpace, _sparse, row_reduce, zeros, zeros3
from lieb import solver
from lieb.scalars import Assumption, ONE, Polynomial, Scalar, ZERO
from lieb.solver import ExhaustedSamples, bind_parameters

from conftest import abelian, make_operator, sc
import reference_loops
from reference_loops import ad


# -- weak symplectic classification ----------------------------------------------

def test_weak_symplectic_space_on_sl2(sl2, omega_symp):
    solution = solve_linear(LinearProblem.weak_symplectic(sl2))
    # the cyclic sum is an alternating trilinear form whose only component
    # (e,f,g) vanishes identically, so every skew form solves the identity
    assert solution.dimension == 3
    assert solution.unknowns == 3
    assert solution.rank == 0
    # the shipped kappa-family lies in the solution space
    bound = bind_parameters(omega_symp, {"kappa": Fraction(5, 3)})
    assert check_weak_symplectic(sl2, bound).verdict is Verdict.PASS
    for form in solution.basis:
        assert check_weak_symplectic(sl2, form).verdict is Verdict.PASS


def test_weak_symplectic_space_on_abelian_algebra():
    alg = abelian(("w", "x", "y", "z"))
    solution = solve_linear(LinearProblem.weak_symplectic(alg))
    assert solution.dimension == 4 * 3 // 2


def test_weak_symplectic_detects_constraints():
    # on the nonabelian 2-dimensional algebra [x, y] = x the identity is
    # still vacuous (alternating in three arguments on a 2-dim space)
    sp = BasisSpace(("x", "y"))
    c = zeros3(2, 2, 2)
    c[0][1][0] = sc("1")
    c[1][0][0] = sc("-1")
    solution = solve_linear(LinearProblem.weak_symplectic(LieAlgebra(sp, c)))
    assert solution.dimension == 1


# -- ad-invariance slice ------------------------------------------------------------

def test_ad_invariance_solutions_on_sl2(sl2):
    solution = solve_linear(LinearProblem.ad_invariance(sl2))
    # all antisymmetric tensors (3) plus the invariant symmetric line (1)
    assert solution.unknowns == 9
    assert solution.dimension == 4
    for tensor in solution.basis:
        summed = TwoTensor(sl2.space,
                           [[tensor.matrix[i][j] + tensor.matrix[j][i]
                             for j in range(3)] for i in range(3)])
        for x in range(3):
            ad_x = ad(sl2, x)
            acted = [[ZERO] * 3 for _ in range(3)]
            for p in range(3):
                for q in range(3):
                    total = ZERO
                    for m in range(3):
                        total = (total + ad_x[p][m] * summed.matrix[m][q]
                                 + summed.matrix[p][m] * ad_x[q][m])
                    acted[p][q] = total
            assert all(v.is_zero() for row in acted for v in row)
    # antisymmetric tensors solve the slice trivially
    anti = zeros(3, 3)
    anti[0][1] = sc("7")
    anti[1][0] = sc("-7")
    in_span = solve_linear(LinearProblem.ad_invariance(sl2))
    assert any(True for _ in in_span.basis)


# -- cocycle space --------------------------------------------------------------------

def test_cocycle_space_on_sl2(sl2):
    solution = solve_linear(LinearProblem.cocycle_in_delta(sl2))
    # first cohomology vanishes, so the cocycle space is the coboundary space
    # (9-dimensional tensor space modulo the 1-dimensional invariant line)
    assert solution.unknowns == 27
    assert solution.dimension == 8
    for coalg in solution.basis:
        assert check_cocycle(sl2, coalg).verdict is Verdict.PASS


def test_induced_cobrackets_satisfy_cocycle_for_any_tensor(sl2):
    import random
    rng = random.Random(9)
    for _ in range(5):
        mat = [[Scalar.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
                for _ in range(3)] for _ in range(3)]
        coalg = delta_from_r(sl2, TwoTensor(sl2.space, mat))
        assert check_cocycle(sl2, coalg).verdict is Verdict.PASS


# -- co-Yang-Baxter slice ---------------------------------------------------------------

def test_co_cybe_slice_at_the_kappa_form(dr, omega_symp):
    base = bind_parameters(omega_symp, {"kappa": Fraction(1)})
    solution = solve_linear(LinearProblem.co_cybe_slice(dr, base))
    # the equation vanishes identically on skew forms here, so its
    # polarisation does too: the whole skew space solves the slice
    assert solution.dimension == 3


def _skew_slice_problem() -> LinearProblem:
    # tests/golden/solve/parametric.lieb at k = 1, where the slice has rank 1
    sp = BasisSpace(("a", "b", "c"))
    d, om = zeros3(3, 3, 3), zeros(3, 3)
    for i, a, b, value in [(1, 0, 1, "1"), (2, 0, 2, "1/2"), (2, 1, 2, "1")]:
        d[i][a][b], d[i][b][a] = sc(value), -sc(value)
    for a, b, value in [(0, 1, "1"), (0, 2, "-1/2"), (1, 2, "1")]:
        om[a][b], om[b][a] = sc(value), -sc(value)
    return LinearProblem.co_cybe_slice(LieCoalgebra(sp, d), BilinearForm(sp, om))


@pytest.mark.parametrize("kind", ["ad-invariance", "co-cybe-slice"])
def test_basis_is_resubstituted_into_the_rows(kind, sl2, monkeypatch):
    problem = (LinearProblem.ad_invariance(sl2) if kind == "ad-invariance"
               else _skew_slice_problem())
    assert solve_linear(problem).rank > 0
    # a kernel that returns the all-ones vector, which solves neither system
    monkeypatch.setattr(solver, "kernel", lambda rows, cols, assumptions: ([[ONE] * cols], []))
    with pytest.raises(AssertionError, match="non-solution"):
        solve_linear(problem)


# -- a parametric family: numerators in Z[k] ------------------------------------------

def bianchi_vi_k() -> LieAlgebra:
    """Bianchi VI_k: [e1, e2] = k e2 - e3 and [e1, e3] = -e2 + k e3."""
    c = zeros3(3, 3, 3)
    for i, j, k, value in [(0, 1, 1, "k"), (0, 1, 2, "-1"), (0, 2, 1, "-1"), (0, 2, 2, "k")]:
        c[i][j][k], c[j][i][k] = sc(value), -sc(value)
    return LieAlgebra(BasisSpace(("e1", "e2", "e3")), c)


_VI_K_ASSUMPTIONS = [Assumption(sc(text).num) for text in
                     ("k", "k - 1", "k + 1", "k - 3", "k + 3", "2*k^2 - 1", "5*k^2 - 13")]


@pytest.mark.parametrize("problem, used", [
    (LinearProblem.weak_symplectic, ["k"]),
    (LinearProblem.ad_invariance, ["k", "k - 1", "k + 1", "2*k^2 - 1"]),
    (LinearProblem.cocycle_in_delta, ["k", "k - 1", "k + 1", "5*k^2 - 13", "k - 3", "k + 3"]),
])
def test_parametric_rows_reduce_as_the_dense_reference(problem, used):
    problem = problem(bianchi_vi_k())
    matrix = solver.coefficient_rows(problem)
    rref, pivots, pivot_used = row_reduce(_sparse(matrix), _VI_K_ASSUMPTIONS)
    cols = range(len(matrix[0]))
    assert ([[row.get(c, ZERO) for c in cols] for row in rref], pivots, pivot_used) \
        == reference_loops.row_reduce(matrix, _VI_K_ASSUMPTIONS)
    solution = solve_linear(problem, _VI_K_ASSUMPTIONS)
    assert [str(a.nonzero) for a in solution.assumptions_used] == used


def test_an_uncertified_parametric_pivot_is_the_dense_reference_pivot():
    matrix = solver.coefficient_rows(LinearProblem.cocycle_in_delta(bianchi_vi_k()))
    assumptions = [a for a in _VI_K_ASSUMPTIONS if str(a.nonzero) != "5*k^2 - 13"]
    with pytest.raises(PivotAmbiguous) as sparse:
        row_reduce(_sparse(matrix), assumptions)
    with pytest.raises(PivotAmbiguous) as dense:
        reference_loops.row_reduce(matrix, assumptions)
    assert sparse.value.offending == dense.value.offending
    assert str(sparse.value.offending) == "-5*k^3 + 13*k"


# -- stability under basis permutation ----------------------------------------------------

def test_solution_dimension_is_basis_independent(sl2):
    perm = [1, 2, 0]
    sp = BasisSpace(tuple(sl2.space.labels[p] for p in perm))
    c = zeros3(3, 3, 3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                c[i][j][k] = sl2.c[perm[i]][perm[j]][perm[k]]
    permuted = LieAlgebra(sp, c)
    from lieb import check_lie_algebra

    assert check_lie_algebra(permuted).verdict is Verdict.PASS  # sanity
    for problem in (LinearProblem.weak_symplectic, LinearProblem.ad_invariance,
                    LinearProblem.cocycle_in_delta):
        original = solve_linear(problem(sl2))
        shuffled = solve_linear(problem(permuted))
        assert original.dimension == shuffled.dimension
        assert original.rank == shuffled.rank


# -- randomized refutation -----------------------------------------------------------------

def test_refute_finds_yang_baxter_violation(sl2):
    mat = zeros(3, 3)
    mat[0][1] = sc("lambda")
    mat[1][0] = sc("-lambda")
    bad = TwoTensor(sl2.space, mat)
    result = refute_by_sampling(
        lambda r: check_cybe(sl2, r), {"r": bad}, SampleConfig(seed=3))
    assert isinstance(result, RefutedAt)
    # the witness re-verifies exactly
    rebound = bind_parameters(bad, result.assignment)
    assert check_cybe(sl2, rebound).verdict is Verdict.FAIL


def test_refute_rejects_generic_diagonal(sl2):
    diag = make_operator(sl2.space, [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]])
    result = refute_by_sampling(
        lambda n: check_nijenhuis(sl2, n), {"n": diag}, SampleConfig(seed=1, trials=1))
    assert isinstance(result, RefutedAt)


def test_refute_confirms_passing_instance(sl2, n_example):
    result = refute_by_sampling(
        lambda n: check_nijenhuis(sl2, n), {"n": n_example}, SampleConfig(seed=5))
    assert isinstance(result, ConfirmedZero)
    assert result.trials == 32


def test_refute_binds_the_parameters_of_a_representations_algebra():
    from test_structures import parametric_line_rep
    result = refute_by_sampling(check_representation, {"R": parametric_line_rep()},
                                SampleConfig(seed=2, trials=4))
    assert isinstance(result, ConfirmedZero)


def test_solve_linear_propagates_pivot_ambiguity():
    from lieb import PivotAmbiguous
    from lieb.multilinear import BasisSpace

    sp = BasisSpace(("x", "y", "z"))
    c = zeros3(3, 3, 3)
    c[0][1][2] = sc("k1")
    c[1][0][2] = sc("-k1")
    parametric = LieAlgebra(sp, c)
    with pytest.raises(PivotAmbiguous):
        solve_linear(LinearProblem.ad_invariance(parametric))
    from lieb.scalars import Assumption, Polynomial

    solution = solve_linear(LinearProblem.ad_invariance(parametric),
                            [Assumption(Polynomial.variable("k1"))])
    assert solution.dimension >= 1


def test_refute_passes_a_structure_with_no_parameter_as_given(sl2):
    r = zeros(3, 3)
    r[1][2], r[2][1] = sc("lambda"), sc("-lambda")
    seen = []

    def check(L, r):
        seen.append(L)
        return check_cybe(L, r)

    result = refute_by_sampling(check, {"L": sl2, "r": TwoTensor(sl2.space, r)},
                                SampleConfig(seed=1, trials=4))
    assert isinstance(result, ConfirmedZero)
    assert len(seen) == 4 and all(L is sl2 for L in seen)


def test_refute_redraws_on_singular_denominators(sl2):
    singular = make_operator(sl2.space, [["1/k1", "0", "0"], ["0", "1/k1", "0"],
                                         ["0", "0", "1/k1"]])
    result = refute_by_sampling(
        lambda n: check_nijenhuis(sl2, n), {"n": singular},
        SampleConfig(seed=6, trials=3, numerator_bound=1))
    # scalar multiples of the identity are torsion-free wherever defined
    assert isinstance(result, ConfirmedZero)


def test_refute_avoids_assumption_zeros(sl2):
    op = make_operator(sl2.space, [["k1", "0", "0"], ["0", "k1", "0"], ["0", "0", "k1"]])
    avoid = [Assumption(Polynomial.variable("k1"))]
    result = refute_by_sampling(
        lambda n: check_nijenhuis(sl2, n), {"n": op},
        SampleConfig(seed=2, trials=4), avoid=avoid)
    assert isinstance(result, ConfirmedZero)
    with pytest.raises(ExhaustedSamples):
        refute_by_sampling(
            lambda n: check_nijenhuis(sl2, n), {"n": op},
            SampleConfig(seed=2, trials=4, numerator_bound=0, max_redraws=10),
            avoid=avoid)


def test_draw_returns_the_instances_bound_at_its_assignment(sl2):
    import random

    from lieb.solver import _draw

    # seed 0 draws k1 = 0 twice (1/k1 is singular there), then k1 = -1/33
    op = make_operator(sl2.space, [["1/k1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]])
    cfg = SampleConfig(seed=0, numerator_bound=1)
    assignment, bound = _draw(random.Random(cfg.seed), ["k1"], cfg, (), {"n": op})
    assert assignment == {"k1": Fraction(-1, 33)}
    assert bound["n"].matrix == bind_parameters(op, assignment).matrix
    assert str(bound["n"].matrix[0][0]) == "-33"
    result = refute_by_sampling(lambda n: check_nijenhuis(sl2, n), {"n": op}, cfg)
    assert isinstance(result, RefutedAt)
    assert result.assignment == {"k1": Fraction(-1, 33)}


def test_refutation_of_family_six_is_pinned():
    from lieb import catalog

    entry = catalog.get("nij-family-6")
    result = refute_by_sampling(
        lambda **kw: check_nijenhuis(**kw),
        {"L": entry.structures["sl2"], "N": entry.structures["N"]},
        SampleConfig(seed=5), tuple(entry.assumptions))
    assert isinstance(result, RefutedAt)
    assert result.assignment == {"k1": Fraction(29, 17), "k3": Fraction(44, 23),
                                 "k5": Fraction(19, 24), "k6": Fraction(33, 34)}
    # 4*k3*k6 at the witness
    assert [(r.identity, r.index, str(r.value)) for r in result.report.residuals] == [
        ("nijenhuis", (0, 1, 2), "(2904)/(391)"), ("nijenhuis", (1, 0, 2), "(-2904)/(391)")]
