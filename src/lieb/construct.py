"""Constructive maps between structures: induced (co)brackets, duals,
semidirect products, bicrossed doubles, and the operator bridges.

Builders never validate their hypotheses.  Run the checks in ``structures``
to decide whether the output has the property a theorem promises; that split
is what lets "if and only if" statements be tested in both directions.  A
builder does test that its structures fit, with the fit of the check that
decides its hypothesis (``Check.fit``), so a misfit raises ``ShapeError`` in
that check's terms rather than building a wrong structure.

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
    Table,
    Tensor,
    TRANSPOSE,
    TwoTensor,
    solve_right,
)
from .scalars import ONE, Assumption
from .structures import (
    INDUCED_BRACKET, Corepresentation, LieAlgebra, LieCoalgebra, Representation, check_co_cybe,
    check_cocycle, check_corepresentation, check_cybe, check_matched_pair, check_nij_lie_bialgebra,
    check_rrbo, check_weak_cosymplectic, check_weak_symplectic,
)


class DegenerateForm(ValueError):
    """A construction needed a nondegenerate form but the determinant vanishes."""


# -- induced structures -------------------------------------------------------

# x -> r^1 (x) [x, r^2] + [x, r^1] (x) r^2
DELTA_FROM_R = Table("iab", "c[iqb] r[aq] + c[ipa] r[pb]")


def delta_from_r(L: LieAlgebra, r: TwoTensor) -> LieCoalgebra:
    """Cobracket x -> r^1 (x) [x, r^2] + [x, r^1] (x) r^2."""
    check_cybe.fit((L, r))
    return LieCoalgebra(L.space, DELTA_FROM_R.evaluate(c=L.tensor, r=r.tensor))


def bracket_from_omega(C: LieCoalgebra, omega: BilinearForm) -> LieAlgebra:
    """Bracket induced on a coalgebra by a skew form.

    [x, y] = x_(1) omega(x_(2), y) - y_(2) omega(x, y_(1)); for co-antisymmetric
    cobrackets this is the unique antisymmetrised reading of the pairing, and it
    reproduces the dual-quasitriangular compatibility conditions exactly.
    """
    check_co_cybe.fit((C, omega))
    return LieAlgebra(C.space, INDUCED_BRACKET.evaluate(d=C.tensor, om=omega.tensor))


# the operators x -> omega(x, r^1) r^2 and x -> r^1 omega(r^2, x), as matrices
NIJENHUIS_FROM_OMEGA_R = Table("ai", "om[ip] r[pa]")
P_FROM_R_OMEGA = Table("ai", "r[aq] om[qi]")


def nijenhuis_from_omega_r(L: LieAlgebra, omega: BilinearForm, r: TwoTensor) -> LinearOperator:
    """The operator x -> omega(x, r^1) r^2."""
    check_weak_symplectic.fit((L, omega))
    check_cybe.fit((L, r))
    return LinearOperator(L.space, L.space,
                          NIJENHUIS_FROM_OMEGA_R.evaluate(om=omega.tensor, r=r.tensor))


def p_from_r_omega(C: LieCoalgebra, r: TwoTensor, omega: BilinearForm) -> LinearOperator:
    """The operator x -> r^1 omega(r^2, x)."""
    check_weak_cosymplectic.fit((C, r))
    check_co_cybe.fit((C, omega))
    return LinearOperator(C.space, C.space, P_FROM_R_OMEGA.evaluate(r=r.tensor, om=omega.tensor))


# -- duals --------------------------------------------------------------------

# the constants of the duals: d*[k][i][j] = c[i][j][k] and c*[i][j][k] = d[k][i][j]
DUAL_COBRACKET = Table("kij", "c[ijk]")
DUAL_BRACKET = Table("ijk", "d[kij]")
# rho*(e_i) = -rho(e_i)^T; on a coaction g[i][a][k], the flipped -g[i][k][a]
DUAL_ACTION = Table("ipq", "-A[iqp]")
# coaction g[i][j][k] <-> action[j][i][k], either way round; no sign
SWAP_ACTION = Table("jik", "t[ijk]")
# ad(e_i) has columns [e_i, e_q]
ADJOINT = Table("ipq", "c[iqp]")
# rho_H(e^a) e_j = -sum_b d[j][a][b] e_b
COADJOINT_COACTION = Table("abj", "-d[jab]")


def dual_coalgebra(L: LieAlgebra) -> LieCoalgebra:
    """Cobracket on the dual space with d*[k][i][j] = c[i][j][k]."""
    return LieCoalgebra(L.space.dual(), DUAL_COBRACKET.evaluate(c=L.tensor))


def dual_algebra(C: LieCoalgebra) -> LieAlgebra:
    """Bracket on the dual space with c*[i][j][k] = d[k][i][j]."""
    return LieAlgebra(C.space.dual(), DUAL_BRACKET.evaluate(d=C.tensor))


def dual_representation(R: Representation) -> Representation:
    """Representation on the dual module: rho*(x) = -rho(x)^T."""
    return Representation(R.algebra, R.space.dual(), DUAL_ACTION.evaluate(A=R.tensor))


def corep_from_rep(R: Representation) -> Corepresentation:
    """Corepresentation of the dual coalgebra carried by the dual module.

    g[i][j][k] = action[j][i][k]; no sign enters here.
    """
    return Corepresentation(dual_coalgebra(R.algebra), R.space.dual(),
                            SWAP_ACTION.evaluate(t=R.tensor))


def rep_from_corep(K: Corepresentation) -> Representation:
    """Representation of the dual algebra on the dual module (no sign)."""
    return Representation(dual_algebra(K.coalgebra), K.space.dual(),
                          SWAP_ACTION.evaluate(t=K.tensor))


def dualize(obj: LieAlgebra | LieCoalgebra | Representation | Corepresentation | LinearOperator):
    """Dual of a structure."""
    if isinstance(obj, LieAlgebra):
        return dual_coalgebra(obj)
    if isinstance(obj, LieCoalgebra):
        return dual_algebra(obj)
    if isinstance(obj, Representation):
        return dual_representation(obj)
    if isinstance(obj, Corepresentation):
        return rep_from_corep(obj)
    if isinstance(obj, LinearOperator):
        return obj.transpose()
    raise TypeError(f"cannot dualize {type(obj).__name__}")


def adjoint_representation(L: LieAlgebra) -> Representation:
    return Representation(L, L.space, ADJOINT.evaluate(c=L.tensor))


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


def _blocks(shape: tuple[int, ...], *blocks: tuple[tuple[int, ...], Tensor]) -> Tensor:
    """The tensor of the given shape holding each (offsets, block) at its
    offsets, its entries in block order."""
    entries = {}
    for offsets, block in blocks:
        for idx, v in block.entries.items():
            entries[tuple([o + k for o, k in zip(offsets, idx)])] = v
    return Tensor(shape, entries)


def _block_operator(first: LinearOperator, second: LinearOperator) -> LinearOperator:
    rows, cols = first.codomain.dim, first.domain.dim
    mat = _blocks((rows + second.codomain.dim, cols + second.domain.dim),
                  ((0, 0), first.tensor), ((rows, cols), second.tensor))
    return LinearOperator(_sum_space(first.domain, second.domain),
                          _sum_space(first.codomain, second.codomain), mat)


# the mixed brackets with a module H: [e_i, h_b] = rho(e_i) h_b, as
# c[i][n+b][n+k] = A[i][k][b] and its mirror c[n+b][i][n+k]; with the roles
# swapped they place -rho_H(h_b) e_i too
ACTION_BRACKET = Table("ibk", "A[ikb]")
ACTION_MIRROR = Table("bik", "-A[ikb]")


def semidirect_product(L: LieAlgebra, R: Representation,
                       N: LinearOperator, alpha: LinearOperator) -> tuple[LieAlgebra, LinearOperator]:
    """Half-direct bracket [x+u, y+v] = [x,y] + rho(x)v - rho(y)u with block operator."""
    check_rrbo.fit((L, R, alpha, N, None))
    n, total = L.space.dim, L.space.dim + R.space.dim
    c = _blocks((total,) * 3, ((0, 0, 0), L.tensor),
                ((0, n, n), ACTION_BRACKET.evaluate(A=R.tensor)),
                ((n, 0, n), ACTION_MIRROR.evaluate(A=R.tensor)))
    return LieAlgebra(_sum_space(L.space, R.space), c), _block_operator(N, alpha)


def semidirect_coproduct(C: LieCoalgebra, K: Corepresentation,
                         P: LinearOperator, beta: LinearOperator) -> tuple[LieCoalgebra, LinearOperator]:
    """Coproduct (x+v) -> delta(x) + gamma(v) - flip(gamma(v)) with block operator."""
    if K.coalgebra.space.dim != C.space.dim:
        raise ShapeError("K must corepresent C")
    check_corepresentation.fit((K, P, beta))
    n, total = C.space.dim, C.space.dim + K.space.dim
    d = _blocks((total,) * 3, ((0, 0, 0), C.tensor), ((n, 0, n), K.tensor),
                ((n, n, 0), DUAL_ACTION.evaluate(A=K.tensor)))
    return LieCoalgebra(_sum_space(C.space, K.space), d), _block_operator(P, beta)


def double_matched_pair(L: LieAlgebra, H: LieAlgebra,
                        rho_L: Representation, rho_H: Representation,
                        N_L: LinearOperator, N_H: LinearOperator) -> tuple[LieAlgebra, LinearOperator]:
    """Bicrossed bracket on the direct sum of a matched pair, with block operator."""
    check_matched_pair.fit((L, H, rho_L, rho_H, N_L, N_H))
    n, m = L.space.dim, H.space.dim
    # [e_i, h_b] = rho_L(e_i) h_b - rho_H(h_b) e_i
    c = _blocks((n + m,) * 3, ((0, 0, 0), L.tensor), ((n, n, n), H.tensor),
                ((0, n, n), ACTION_BRACKET.evaluate(A=rho_L.tensor)),
                ((n, 0, n), ACTION_MIRROR.evaluate(A=rho_L.tensor)),
                ((0, n, 0), ACTION_MIRROR.evaluate(A=rho_H.tensor)),
                ((n, 0, 0), ACTION_BRACKET.evaluate(A=rho_H.tensor)))
    return LieAlgebra(_sum_space(L.space, H.space), c), _block_operator(N_L, N_H)


def dual_pair_actions(L: LieAlgebra, C: LieCoalgebra) -> tuple[Representation, Representation]:
    """The mutual coadjoint actions linking an algebra and a coalgebra on one space.

    Returns (rho_L on the dual space, rho_H on the primal space) where
    rho_L(e_i) e^b = -sum_j c[i][j][b] e^j and rho_H(e^a) e_j = -sum_b d[j][a][b] e_b.
    """
    check_cocycle.fit((L, C))
    rho_h = Representation(dual_algebra(C), L.space, COADJOINT_COACTION.evaluate(d=C.tensor))
    return coadjoint_representation(L), rho_h


def manin_double(L: LieAlgebra, C: LieCoalgebra,
                 N: LinearOperator, P: LinearOperator) -> tuple[LieAlgebra, LinearOperator, BilinearForm]:
    """The bicrossed double on L + L* with its canonical pairing form.

    The double bracket restricts to the bracket on L and the dual bracket on
    L*; the mixed terms are the mutual coadjoint actions.  The operator is
    N + P^T and the form is B(x + a*, y + b*) = <a*, y> + <b*, x>.
    """
    check_nij_lie_bialgebra.fit((L, C, N, P))
    rho_l, rho_h = dual_pair_actions(L, C)
    double, op = double_matched_pair(L, dual_algebra(C), rho_l, rho_h, N, P.transpose())
    n = L.space.dim
    eye = Tensor((n, n), {(i, i): ONE for i in range(n)})
    b = _blocks((2 * n, 2 * n), ((0, n), eye), ((n, 0), eye))
    return double, op, BilinearForm(double.space, b)


# -- operator bridges ----------------------------------------------------------

# N^T B, the form (x, y) -> B(Nx, y)
FORM_PULLBACK = Table("ij", "N[ki] B[kj]")
# the block of r_from_T on V* (x) L: -e^i (x) T(e_i)
R_FROM_T_MIRROR = Table("ia", "-T[ai]")


def adjoint_operator(B: BilinearForm, N: LinearOperator,
                     assumptions: Sequence[Assumption] = ()) -> LinearOperator:
    """The operator adjoint to N for a nondegenerate form: B(Nx, y) = B(x, N^ y)."""
    from .multilinear import determinant

    if not B.space.dim == N.domain.dim == N.codomain.dim:
        raise ShapeError("form and operator live on different spaces")
    det = determinant(B.matrix)
    if det.is_zero():
        raise DegenerateForm("the form is degenerate; no adjoint exists")
    target = BilinearForm(B.space, FORM_PULLBACK.evaluate(N=N.tensor, B=B.tensor))
    return LinearOperator(N.domain, N.codomain, solve_right(B.matrix, target.matrix, assumptions))


def phi_r(r: TwoTensor) -> LinearOperator:
    """The map dual space -> space sending e^i to sum_j r[i][j] e_j: its
    matrix is r's transpose."""
    return LinearOperator(r.space.dual(), r.space, TRANSPOSE.evaluate(M=r.tensor))


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
    rm = _blocks((n + m, n + m), ((0, n), T.tensor),
                 ((n, 0), R_FROM_T_MIRROR.evaluate(T=T.tensor)))
    return ambient, TwoTensor(ambient.space, rm)
