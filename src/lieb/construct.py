"""Constructive maps between structures: induced (co)brackets, duals,
semidirect products, bicrossed doubles, and the operator bridges.

Builders are total: they never validate their hypotheses.  Run the checks in
``structures`` to decide whether the output has the property a theorem
promises; that split is what lets "if and only if" statements be tested in
both directions.

Direct-sum bases concatenate the first factor's labels before the second's;
dualised labels carry a ``*`` suffix.  The sign convention for the dual of a
representation, ``rho*(x) = -rho(x)^T``, is applied exactly once, in
``dual_representation``; algebra/coalgebra structure-constant duals and the
representation-to-corepresentation dual carry no sign.
"""

from __future__ import annotations

from typing import Sequence

from .multilinear import (
    BasisSpace,
    BilinearForm,
    LinearOperator,
    ShapeError,
    TwoTensor,
    ONE,
    Table,
    mat_mul,
    solve_right,
    transpose_matrix,
    zeros,
    zeros3,
)
from .scalars import Assumption
from .structures import (
    INDUCED_BRACKET, Corepresentation, LieAlgebra, LieCoalgebra, Representation,
)


class DegenerateForm(ValueError):
    """A construction needed a nondegenerate form but the determinant vanishes."""


# -- induced structures -------------------------------------------------------

# x -> r^1 (x) [x, r^2] + [x, r^1] (x) r^2
DELTA_FROM_R = Table("iab", "q: c[iqb] r[aq]; p: c[ipa] r[pb]")


def delta_from_r(L: LieAlgebra, r: TwoTensor) -> LieCoalgebra:
    """Cobracket x -> r^1 (x) [x, r^2] + [x, r^1] (x) r^2."""
    if r.space.dim != L.space.dim:
        raise ShapeError("tensor does not live on the algebra's space")
    return LieCoalgebra(L.space, DELTA_FROM_R.evaluate(c=L.c, r=r.matrix).dense())


def bracket_from_omega(C: LieCoalgebra, omega: BilinearForm) -> LieAlgebra:
    """Bracket induced on a coalgebra by a skew form.

    [x, y] = x_(1) omega(x_(2), y) - y_(2) omega(x, y_(1)); for co-antisymmetric
    cobrackets this is the unique antisymmetrised reading of the pairing, and it
    reproduces the dual-quasitriangular compatibility conditions exactly.
    """
    if omega.space.dim != C.space.dim:
        raise ShapeError("form does not live on the coalgebra's space")
    return LieAlgebra(C.space, INDUCED_BRACKET.evaluate(d=C.d, om=omega.matrix).dense())


# the operators x -> omega(x, r^1) r^2 and x -> r^1 omega(r^2, x), as matrices
NIJENHUIS_FROM_OMEGA_R = Table("ai", "p: om[ip] r[pa]")
P_FROM_R_OMEGA = Table("ai", "q: r[aq] om[qi]")


def nijenhuis_from_omega_r(L: LieAlgebra, omega: BilinearForm, r: TwoTensor) -> LinearOperator:
    """The operator x -> omega(x, r^1) r^2."""
    if omega.space.dim != L.space.dim or r.space.dim != L.space.dim:
        raise ShapeError("data does not live on the algebra's space")
    mat = NIJENHUIS_FROM_OMEGA_R.evaluate(om=omega.matrix, r=r.matrix).dense()
    return LinearOperator(L.space, L.space, mat)


def p_from_r_omega(C: LieCoalgebra, r: TwoTensor, omega: BilinearForm) -> LinearOperator:
    """The operator x -> r^1 omega(r^2, x)."""
    if omega.space.dim != C.space.dim or r.space.dim != C.space.dim:
        raise ShapeError("data does not live on the coalgebra's space")
    return LinearOperator(C.space, C.space, P_FROM_R_OMEGA.evaluate(r=r.matrix, om=omega.matrix).dense())


# -- duals --------------------------------------------------------------------

# the constants of the duals: d*[k][i][j] = c[i][j][k] and c*[i][j][k] = d[k][i][j]
DUAL_COBRACKET = Table("kij", "c[ijk]")
DUAL_BRACKET = Table("ijk", "d[kij]")


def dual_coalgebra(L: LieAlgebra) -> LieCoalgebra:
    """Cobracket on the dual space with d*[k][i][j] = c[i][j][k]."""
    return LieCoalgebra(L.space.dual(), DUAL_COBRACKET.evaluate(c=L.c).dense())


def dual_algebra(C: LieCoalgebra) -> LieAlgebra:
    """Bracket on the dual space with c*[i][j][k] = d[k][i][j]."""
    return LieAlgebra(C.space.dual(), DUAL_BRACKET.evaluate(d=C.d).dense())


def dual_representation(R: Representation) -> Representation:
    """Representation on the dual module: rho*(x) = -rho(x)^T."""
    action = [[[-mat[q][p] for q in range(R.space.dim)] for p in range(R.space.dim)]
              for mat in R.action]
    return Representation(R.algebra, R.space.dual(), action)


def corep_from_rep(R: Representation) -> Corepresentation:
    """Corepresentation of the dual coalgebra carried by the dual module.

    g[i][j][k] = action[j][i][k]; no sign enters here.
    """
    n, m = R.algebra.space.dim, R.space.dim
    coaction = [[[R.action[j][i][k] for k in range(m)] for j in range(n)] for i in range(m)]
    return Corepresentation(dual_coalgebra(R.algebra), R.space.dual(), coaction)


def rep_from_corep(K: Corepresentation) -> Representation:
    """Representation of the dual algebra on the dual module (no sign)."""
    n, m = K.coalgebra.space.dim, K.space.dim
    action = [[[K.coaction[k][j][mm] for mm in range(m)] for k in range(m)] for j in range(n)]
    return Representation(dual_algebra(K.coalgebra), K.space.dual(), action)


def dualize(obj: LieAlgebra | LieCoalgebra | Representation | Corepresentation | LinearOperator,
            *companions: LinearOperator):
    """Dual of a structure (optionally with transposed companion operators)."""
    if isinstance(obj, LieAlgebra):
        out = dual_coalgebra(obj)
    elif isinstance(obj, LieCoalgebra):
        out = dual_algebra(obj)
    elif isinstance(obj, Representation):
        out = dual_representation(obj)
    elif isinstance(obj, Corepresentation):
        out = rep_from_corep(obj)
    elif isinstance(obj, LinearOperator):
        out = obj.transpose()
    else:
        raise TypeError(f"cannot dualize {type(obj).__name__}")
    if companions:
        return (out, *[op.transpose() for op in companions])
    return out


def adjoint_representation(L: LieAlgebra) -> Representation:
    return Representation(L, L.space, [L.ad(i) for i in range(L.space.dim)])


def coadjoint_representation(L: LieAlgebra) -> Representation:
    return dual_representation(adjoint_representation(L))


# -- direct sums ---------------------------------------------------------------

def _sum_space(first: BasisSpace, second: BasisSpace) -> BasisSpace:
    """Concatenated basis; colliding second-factor labels get primes."""
    taken = set(first.labels)
    labels = list(first.labels)
    for label in second.labels:
        candidate = label
        while candidate in taken:
            candidate += "'"
        taken.add(candidate)
        labels.append(candidate)
    return BasisSpace(tuple(labels))


def _block_operator(first: LinearOperator, second: LinearOperator) -> LinearOperator:
    n, m = first.domain.dim, second.domain.dim
    dom = _sum_space(first.domain, second.domain)
    cod = _sum_space(first.codomain, second.codomain)
    mat = zeros(first.codomain.dim + second.codomain.dim, n + m)
    for i in range(first.codomain.dim):
        for j in range(n):
            mat[i][j] = first.matrix[i][j]
    for i in range(second.codomain.dim):
        for j in range(m):
            mat[first.codomain.dim + i][n + j] = second.matrix[i][j]
    return LinearOperator(dom, cod, mat)


def semidirect_product(L: LieAlgebra, R: Representation,
                       N: LinearOperator, alpha: LinearOperator) -> tuple[LieAlgebra, LinearOperator]:
    """Half-direct bracket [x+u, y+v] = [x,y] + rho(x)v - rho(y)u with block operator."""
    n, m = L.space.dim, R.space.dim
    total = n + m
    sp = _sum_space(L.space, R.space)
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
    return LieAlgebra(sp, c), _block_operator(N, alpha)


def semidirect_coproduct(C: LieCoalgebra, K: Corepresentation,
                         P: LinearOperator, beta: LinearOperator) -> tuple[LieCoalgebra, LinearOperator]:
    """Coproduct (x+v) -> delta(x) + gamma(v) - flip(gamma(v)) with block operator."""
    n, m = C.space.dim, K.space.dim
    total = n + m
    sp = _sum_space(C.space, K.space)
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
    return LieCoalgebra(sp, d), _block_operator(P, beta)


def double_matched_pair(L: LieAlgebra, H: LieAlgebra,
                        rho_L: Representation, rho_H: Representation,
                        N_L: LinearOperator, N_H: LinearOperator) -> tuple[LieAlgebra, LinearOperator]:
    """Bicrossed bracket on the direct sum of a matched pair, with block operator."""
    n, m = L.space.dim, H.space.dim
    if rho_L.space.dim != m or rho_H.space.dim != n:
        raise ShapeError("matched-pair actions have wrong module dimensions")
    total = n + m
    sp = _sum_space(L.space, H.space)
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
            # [e_i, h_b] = rho_L(e_i) h_b - rho_H(h_b) e_i
            for k in range(m):
                value = rho_L.action[i][k][b]
                c[i][n + b][n + k] = value
                c[n + b][i][n + k] = -value
            for k in range(n):
                value = rho_H.action[b][k][i]
                c[i][n + b][k] = -value
                c[n + b][i][k] = value
    return LieAlgebra(sp, c), _block_operator(N_L, N_H)


def dual_pair_actions(L: LieAlgebra, C: LieCoalgebra) -> tuple[Representation, Representation]:
    """The mutual coadjoint actions linking an algebra and a coalgebra on one space.

    Returns (rho_L on the dual space, rho_H on the primal space) where
    rho_L(e_i) e^b = -sum_j c[i][j][b] e^j and rho_H(e^a) e_j = -sum_b d[j][a][b] e_b.
    """
    n = L.space.dim
    if C.space.dim != n:
        raise ShapeError("algebra and coalgebra live on different spaces")
    rho_l = coadjoint_representation(L)
    dual = dual_algebra(C)
    action = [[[-C.d[j][a][b] for j in range(n)] for b in range(n)] for a in range(n)]
    rho_h = Representation(dual, L.space, action)
    return rho_l, rho_h


def manin_double(L: LieAlgebra, C: LieCoalgebra,
                 N: LinearOperator, P: LinearOperator) -> tuple[LieAlgebra, LinearOperator, BilinearForm]:
    """The bicrossed double on L + L* with its canonical pairing form.

    The double bracket restricts to the bracket on L and the dual bracket on
    L*; the mixed terms are the mutual coadjoint actions.  The operator is
    N + P^T and the form is B(x + a*, y + b*) = <a*, y> + <b*, x>.
    """
    rho_l, rho_h = dual_pair_actions(L, C)
    double, op = double_matched_pair(L, dual_algebra(C), rho_l, rho_h, N, P.transpose())
    n = L.space.dim
    b = zeros(2 * n, 2 * n)
    for i in range(n):
        b[i][n + i] = ONE
        b[n + i][i] = ONE
    return double, op, BilinearForm(double.space, b)


# -- operator bridges ----------------------------------------------------------

def adjoint_operator(B: BilinearForm, N: LinearOperator,
                     assumptions: Sequence[Assumption] = ()) -> LinearOperator:
    """The operator adjoint to N for a nondegenerate form: B(Nx, y) = B(x, N^ y)."""
    from .multilinear import determinant

    if B.space.dim != N.domain.dim:
        raise ShapeError("form and operator live on different spaces")
    det = determinant(B.matrix)
    if det.is_zero():
        raise DegenerateForm("the form is degenerate; no adjoint exists")
    target = mat_mul(transpose_matrix(N.matrix), B.matrix)
    mat = solve_right(B.matrix, target, assumptions)
    return LinearOperator(N.domain, N.codomain, mat)


def phi_r(r: TwoTensor) -> LinearOperator:
    """The map dual space -> space sending e^i to sum_j r[i][j] e_j."""
    n = r.space.dim
    mat = [[r.matrix[k][j] for k in range(n)] for j in range(n)]
    return LinearOperator(r.space.dual(), r.space, mat)


def r_from_T(T: LinearOperator, R: Representation) -> tuple[LieAlgebra, TwoTensor]:
    """Embed an operator V -> L as an antisymmetric 2-tensor on L + V*.

    The ambient algebra is the semidirect product along the dual
    representation; the tensor is sum_i (T(e_i) (x) e^i - e^i (x) T(e_i)).
    """
    n, m = R.algebra.space.dim, R.space.dim
    if T.domain.dim != m or T.codomain.dim != n:
        raise ShapeError("T must map the module into the algebra")
    ambient, _ = semidirect_product(
        R.algebra, dual_representation(R),
        LinearOperator.zero(R.algebra.space), LinearOperator.zero(R.space.dual()))
    total = n + m
    rm = zeros(total, total)
    for i in range(m):
        for a in range(n):
            rm[a][n + i] = rm[a][n + i] + T.matrix[a][i]
            rm[n + i][a] = rm[n + i][a] - T.matrix[a][i]
    return ambient, TwoTensor(ambient.space, rm)
