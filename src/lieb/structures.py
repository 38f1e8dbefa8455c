"""Algebraic structure records and the identity checks.

Every ``check_*`` evaluates its identities over all basis multi-indices and
returns a CheckReport listing the exactly-nonvanishing residual components.
A check passes when every residual is the zero scalar; it passes
conditionally when the input data carries parametric denominators whose
nonvanishing had to be assumed.  Each check whose every step is a table is a
``Check``, data that one runner evaluates: the entries of ``CHECKS``, which
documents name, and the matched-pair, compatible-pair and deformation checks,
the last behind a function that inverts its weight t.  The other two,
frobenius and pq-equivalents, each with a step that is not a table, are
functions.

Every identity is written once, as one signed einsum sum
(``multilinear.Table``), and one sparse engine evaluates them on the records'
stored tensors: it multiplies only nonzero entries and reports the
components in index order.  A component is one sum of its signed products;
``Scalar`` keeps num/den in lowest terms, so its value renders the same
whatever order the table is written or added in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from inspect import Parameter, Signature
from typing import Iterable, Sequence

from .multilinear import (
    BasisSpace,
    BilinearForm,
    LinearOperator,
    Record,
    ShapeError,
    Table,
    Tensor,
    TwoTensor,
    determinant,
)
from .scalars import Assumption, ONE, Scalar, covered_by_assumptions


class Verdict(Enum):
    PASS = "Pass"
    CONDITIONAL_PASS = "ConditionalPass"
    FAIL = "Fail"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Residual:
    """One nonvanishing component of a checked identity."""

    identity: str
    index: tuple
    value: Scalar


@dataclass
class CheckReport:
    verdict: Verdict
    residuals: list[Residual]
    assumptions_used: list[Assumption]
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict is not Verdict.FAIL


# -- structure records ------------------------------------------------------
# Each stores its data once as a zero-free Tensor, ``tensor``; the named
# attribute (``c``, ``d``, ``action``, ``coaction``) is its dense view (see
# multilinear.Record).

@dataclass(frozen=True)
class LieAlgebra(Record):
    """Bracket structure constants: [e_i, e_j] = sum_k c[i][j][k] e_k."""

    space: BasisSpace
    tensor: Tensor

    c = Record._dense

    def __post_init__(self):
        self._store((self.space.dim,) * 3, "bracket constants do not match the space")


@dataclass(frozen=True)
class LieCoalgebra(Record):
    """Cobracket structure constants: delta(e_i) = sum d[i][j][k] e_j (x) e_k."""

    space: BasisSpace
    tensor: Tensor

    d = Record._dense

    def __post_init__(self):
        self._store((self.space.dim,) * 3, "cobracket constants do not match the space")


@dataclass(frozen=True)
class Representation(Record):
    """Action matrices: action[i] is the matrix of rho(e_i) on the module."""

    algebra: LieAlgebra
    space: BasisSpace
    tensor: Tensor

    action = Record._dense

    def __post_init__(self):
        m = self.space.dim
        self._store((self.algebra.space.dim, m, m), "action matrices do not match the spaces")


@dataclass(frozen=True)
class Corepresentation(Record):
    """Coaction tensor: gamma(v_i) = sum g[i][j][k] e_j (x) v_k."""

    coalgebra: LieCoalgebra
    space: BasisSpace
    tensor: Tensor

    coaction = Record._dense

    def __post_init__(self):
        m = self.space.dim
        self._store((m, self.coalgebra.space.dim, m), "coaction tensor does not match the spaces")


# -- report assembly --------------------------------------------------------

def _build_report(items: Iterable[tuple[str, tuple, Scalar]],
                  inputs: Iterable,
                  assumptions: Sequence[Assumption],
                  details: dict | None = None) -> CheckReport:
    residuals = [Residual(name, idx, value)
                 for name, idx, value in items if not value.is_zero()]
    used = denominator_assumptions(inputs, assumptions)
    if residuals:
        verdict = Verdict.FAIL
    elif used:
        verdict = Verdict.CONDITIONAL_PASS
    else:
        verdict = Verdict.PASS
    return CheckReport(verdict, residuals, used, details or {})


def denominator_assumptions(inputs: Iterable, assumptions: Sequence[Assumption]) -> list[Assumption]:
    """The side conditions of the inputs' non-constant denominators, in input
    order: the declared assumptions that certify a denominator nonzero, or
    else the denominator itself, as an implicit assumption."""
    used: list[Assumption] = []
    seen = set()
    for scalar in _all_scalars(inputs):
        den = scalar.den
        if scalar.q is not None or den.is_constant() or den in seen:
            continue
        seen.add(den)
        certified = covered_by_assumptions(den, assumptions)
        for a in [Assumption(den)] if certified is None else certified:
            if a not in used:
                used.append(a)
    return used


def _all_scalars(objs: Iterable) -> list[Scalar]:
    """Every stored scalar of the given records, Tensors or scalars, in
    order: a record's fields are walked in order, so a (co)representation
    lists its (co)algebra's first."""
    out: list[Scalar] = []
    for obj in objs:
        if isinstance(obj, Scalar):
            out.append(obj)
        elif isinstance(obj, Tensor):
            out += obj.entries.values()
        elif isinstance(obj, Record):
            out += _all_scalars(obj.parts())
    return out


def map_scalars(obj, fn):
    """A record, Tensor or scalar rebuilt with fn applied to every stored
    scalar; a record's constructor drops an entry mapped to zero."""
    if isinstance(obj, Scalar):
        return fn(obj)
    if isinstance(obj, Tensor):
        return Tensor(obj.shape, {idx: fn(v) for idx, v in obj.entries.items()})
    if isinstance(obj, Record):
        return type(obj)(*[map_scalars(part, fn) for part in obj.parts()])
    return obj


def structure_parameters(*objs) -> frozenset[str]:
    """All parameter names appearing in the given structures."""
    names: set[str] = set()
    for scalar in _all_scalars(objs):
        names |= scalar.parameters()
    return frozenset(names)


def _items(name: str, values: Tensor) -> list[tuple[str, tuple, Scalar]]:
    return [(name, idx, v) for idx, v in values.entries.items()]


def _interleaved(*named: tuple[str, Tensor]) -> list[tuple[str, tuple, Scalar]]:
    """The items of identities over the same indices, alternating at each index."""
    keys = sorted(set().union(*(values.entries for _, values in named)))
    return [(name, key, values.entries[key])
            for key in keys for name, values in named if key in values.entries]


# -- identity tables ----------------------------------------------------------
# Each table is one signed einsum sum over every letter of a term that is not
# an output letter.  Operands: c bracket and d, e cobracket constants, r a
# 2-tensor, om and B forms, A action matrices (B too, in the matched pair), g, h
# coaction tensors, P, N, al, be operators and T: V -> L (a tensor in IMAGE).
# A name ending in 2 is the operator squared (SQUARE); the others are
# intermediates, evaluated once rather than in every term that reads them.

# c[ijk] + c[jik], d[iab] + d[iba]: a bracket's antisymmetry, a cobracket's
# co-antisymmetry; t[ij] + t[ji], t[ij] - t[ji]: a skew and a symmetric matrix
ANTISYMMETRY = Table("ijk", "c[ijk] + c[jik]")
CO_ANTISYMMETRY = Table("iab", "d[iab] + d[iba]")
SKEW = Table("ij", "t[ij] + t[ji]")
SYMMETRY = Table("ij", "t[ij] - t[ji]")
JACOBI = Table("ijkm", "c[ijl] c[lkm] + c[jkl] c[lim] + c[kil] c[ljm]")
# (id (x) e) d: e applied to the second factor of d; with the cyclic sum of
# its last three indices, the co-Jacobi sum of d and e = d
COMPOSITE = Table("ijab", "d[ijk] e[kab]")
CYCLIC = Table("ipqs", "t[ipqs] + t[iqsp] + t[ispq]")
# the cyclic sums of (id (x) e) d and (id (x) d) e
MIXED_CYCLIC = Table("ipqs", "t[ipqs] + t[iqsp] + t[ispq] + u[ipqs] + u[iqsp] + u[ispq]")
COCYCLE = Table("ijpq", "c[ijk] d[kpq] - c[iap] d[jaq] - d[jpa] c[iaq] + c[jap] d[iaq]"
                        " + d[ipa] c[jaq]")
# M^2: the operator squared
SQUARE = Table("ik", "M[ij] M[jk]")
# the image T(M e_i) of a basis vector: [N e_i, -], delta(P e_i), rho(N e_i), gamma(beta v_i)
IMAGE = Table("iab", "M[mi] T[mab]")
# [e_i, M e_j]
RIGHT_IMAGE = Table("ijk", "M[bj] c[ibk]")
# [Nx, Ny] + N^2[x, y] - (N[Nx, y] + N[x, Ny]), with left = [Nx, y], right = [x, Ny]
TORSION = Table("ijk", "N[ai] N[bj] c[abk] + N2[km] c[ijm] - N[km] left[ijm] - N[km] right[ijm]")
# P[Nx, y] + [x, P^2 y] - ([Nx, Py] + P[x, Py]), with left = [Nx, y], right = [x, Py]
OPERATOR_COMPATIBILITY = Table("ijk", "P[km] left[ijm] + P2[bj] c[ibk] - N[ai] P[bj] c[abk]"
                                      " - P[km] right[ijm]")
# (P(x)P) delta + delta P^2 - (P(x)id)(delta P) - (id(x)P)(delta P), with dP = delta(P e_i)
NIJENHUIS_COBRACKET = Table("iab", "d[ixy] P[ax] P[by] + P2[mi] d[mab] - P[ax] dP[ixb]"
                                   " - dP[iay] P[by]")
# (P(x)id) delta N + (id(x)N^2) delta - (P(x)N) delta - (id(x)N) delta N, with dN = delta(N e_i)
COBRACKET_COMPATIBILITY = Table("iab", "P[ax] dN[ixb] + d[iaq] N2[bq] - d[ixq] P[ax] N[bq]"
                                       " - dN[iaq] N[bq]")
# [r12, r13] + [r12, r23] + [r13, r23]
CYBE = Table("xyz", "c[ikx] r[iy] r[kz] + c[jlz] r[xj] r[yl] + c[jky] r[xj] r[kz]")
# (P (x) id - id (x) N)(r)
PAIRING = Table("ab", "P[ax] r[xb] - r[ay] N[by]")
# the r-forms of the Nijenhuis cobracket identity and of the cobracket
# compatibility for delta_r, with rho = (P (x) id - id (x) N)(r) and
# sig = (N (x) id - id (x) P)(r); only whether they vanish is read
PAIRING_FORM_1 = Table("iab", "rho[ay] P[bx] c[iyx] - rho[ay] P[xi] c[xyb] + P[xi] c[xya] sig[yb]"
                              " - P[ax] c[iyx] sig[yb]")
PAIRING_FORM_2 = Table("iab", "rho[ay] N[xi] c[xyb] - rho[ay] N[bx] c[iyx] + N[xi] c[xya] rho[yb]"
                              " + P[ax] c[iyx] rho[yb] - c[iya] P2[yx] r[xb]"
                              " + c[iya] r[yx] N2[bx]")
CO_CYBE = Table("ijk", "d[iab] om[aj] om[bk] + d[kab] om[ia] om[jb] + d[jab] om[ia] om[bk]")
# the co-CYBE slice: the polarisation of CO_CYBE, with x in one om slot of
# each term and om in the other, so that CO_CYBE(om + x) - CO_CYBE(om) - CO_CYBE(x)
CO_CYBE_SLICE = Table("ijk", "d[iab] x[aj] om[bk] + d[iab] om[aj] x[bk] + d[kab] x[ia] om[jb]"
                             " + d[kab] om[ia] x[jb] + d[jab] x[ia] om[bk] + d[jab] om[ia] x[bk]")
# [x, y] = x_(1) omega(x_(2), y) - y_(2) omega(x, y_(1))
INDUCED_BRACKET = Table("ijk", "d[ikb] om[bj] + d[jkb] om[ib]")
# with w the induced bracket
DUAL_QT_1 = Table("ijk", "w[ijm] om[mk] - d[kab] om[ia] om[jb]")
DUAL_QT_2 = Table("ijk", "w[jkm] om[im] + d[iab] om[aj] om[bk]")
WEAK_SYMPLECTIC = Table("ijk", "c[ijm] om[mk] + c[jkm] om[mi] + c[kim] om[mj]")
# the cyclic sum of t = (delta (x) id)(r)
DELTA_R = Table("abc", "d[xab] r[xc]")
WEAK_COSYMPLECTIC = Table("ijk", "t[ijk] + t[jki] + t[kij]")
# rho([x, y]) - (rho(x) rho(y) - rho(y) rho(x))
REPRESENTATION = Table("ijab", "c[ijk] A[kab] - A[iax] A[jxb] + A[jax] A[ixb]")
# the product T_i M of each matrix T_i with one matrix M: rho(e_i) alpha
RIGHT_PRODUCT = Table("ipq", "T[ipx] M[xq]")
# rho(Nx) al + al^2 rho(x) - (al rho(Nx) + al rho(x) al), with rN = rho(N e_i), rA = rho(e_i) al
NIJ_REPRESENTATION = Table("ipq", "rN[ipx] al[xq] + al2[px] A[ixq] - al[px] rN[ixq]"
                                  " - al[px] rA[ixq]")
# be rho(Nx) + rho(x) be^2 - (rho(Nx) be + be rho(x) be), with rB = rho(e_i) be
ADMISSIBLE = Table("ipq", "be[px] rN[ixq] + A[ipx] be2[xq] - rN[ipx] be[xq] - be[px] rB[ixq]")
COREPRESENTATION = Table("iabk", "g[ijk] d[jab] - g[iax] g[xbk] + g[ibx] g[xak]")
NIJ_COREPRESENTATION = Table("iak", "g[ijx] P[aj] be[kx] + be2[xi] g[xak] - g[xjk] be[xi] P[aj]"
                                    " - g[xaq] be[xi] be[kq]")
# coactions g of d and h of e
MIXED_COREPRESENTATION = Table("iabk", "g[ijk] e[jab] + h[ijk] d[jab] - g[iax] h[xbk]"
                                       " - h[iax] g[xbk] + g[ibx] h[xak] + h[ibx] g[xak]")
# D and G are the second cobracket and coaction; dP, DP, gb, Gb their images
DEFORMATION_1 = Table("iab", "DP[iab] - d[ixy] P[ax] P[by]")
DEFORMATION_2 = Table("iab", "dP[iab] + D[iab] - d[iay] P[by] - d[ixb] P[ax]")
DEFORMATION_3 = Table("iak", "Gb[iak] - g[ixq] P[ax] be[kq]")
DEFORMATION_4 = Table("iak", "gb[iak] + G[iak] - g[iaq] be[kq] - g[ixk] P[ax]")
# the second summand (st - s x) / t of a deformed tensor st = s x + t y, with u = 1/t
SECOND_SUMMAND = Table("ijk", "u[] st[ijk] - u[] s[] x[ijk]")
INVARIANCE = Table("ijk", "c[ijm] B[mk] - c[jkm] B[im]")
# (ad_x (x) id + id (x) ad_x)(r + r^sigma)
AD_INVARIANCE = Table("xpq", "c[xyp] r[yq] + c[xyp] r[qy] + c[xyq] r[py] + c[xyq] r[yp]")
# x.[u, v] - [x.u, v] - [u, x.v] - ((v.x).u - (u.x).v), where x acts by A on the
# algebra of c and u, v act back on x's by B
MATCHED_PAIR = Table("xuvk", "A[xkp] c[uvp] - A[xpu] c[pvk] - A[xqv] c[uqk] - B[vtx] A[tku]"
                             " + B[utx] A[tkv]")
# [Tu, Tv] - T(rho(Tu) v - rho(Tv) u), with inner = rho(Tu) v - rho(Tv) u
ROTA_BAXTER_INNER = Table("ijs", "T[pi] A[psj] - T[pj] A[psi]")
ROTA_BAXTER = Table("ija", "T[pi] T[qj] c[pqa] - T[as] inner[ijs]")
# N T - T alpha
INTERTWINING = Table("ia", "N[ap] T[pi] - T[ab] al[bi]")


# -- the checks declared as data -------------------------------------------------
# Each check whose every step is a table is a Check: data that one runner,
# Check.__call__, evaluates.  Its fields:
# * args: (parameter, operand, record type) for each argument, in call order.
#   The structure's tensor fills the operand, and a scalar a rank-0 operand;
#   a (co)representation's also fills c (d) with its (co)algebra's, unless an
#   argument fills it.  An argument that no table reads has operand None.  The
#   arguments after ``required`` are optional, given together or not at all,
#   and the steps and identities that read them run only when they are given.
# * steps: the intermediates as (name, table, renames), each evaluated once, in
#   order.  The renames "M=N T=c" fill the table's operand M with N and T with
#   c; an operand not renamed is filled by the one of its own name.  The
#   renames are resolved once, when the Check is built, not on every call.
# * identities: (tag, table, renames) triples in report order; a tuple of such
#   triples is reported interleaved, component by component.  A triple may
#   name a Check, a part, in place of the table: its renames map the part's
#   parameters to this check's, it receives its required arguments only, and
#   it runs when they are given.  Each of its residuals is named
#   "tag.identity", unless the identity starts with the tag, and its verdict
#   goes into details[tag], the worse one where two parts share a tag.
# * the fit, tested before any table runs.  By default every axis of every
#   argument lies on the first argument's space, and a misfit is named by its
#   record type ("operator does not act on the algebra").  A check with a
#   module declares ``axes``, a word of space letters for each argument ("-"
#   for a scalar), each letter sized by the first argument that has it, and
#   ``misfit``: one text for every later argument, or a text for each argument
#   tested, in order.  Builders test their arguments with the fit of the
#   check that decides their hypothesis, Check.fit.

# a single-space check's text for an argument off its first argument's space
_MISFIT = {LieCoalgebra: "algebra and coalgebra live on different spaces",
           LinearOperator: "operator does not act on the {}",
           BilinearForm: "form does not live on the {}'s space",
           TwoTensor: "tensor does not live on the {}'s space"}
# a (co)representation's (co)algebra, and the operand its tensor fills
_OWNER = {Representation: ("algebra", "c"), Corepresentation: ("coalgebra", "d")}
_SEVERITY = list(Verdict)  # from the best verdict to the worst


def _reads(part, renames: str) -> tuple[tuple[str, str], ...]:
    """(the part's name, this check's name) for each operand a table reads, or
    for each parameter a check requires."""
    given = dict(pair.split("=") for pair in renames.split())
    names = (part.names[:part.required] if isinstance(part, Check)
             else dict.fromkeys(name for _, factors in part.terms for name, _ in factors))
    return tuple((name, given.get(name, name)) for name in names)


class Check:
    """A check declared as data, run by calling it: with its structures by
    position or by parameter name, then its assumptions by position or as
    ``assumptions``."""

    def __init__(self, doc, args, steps=(), identities=(), required=None, axes=None, misfit=None):
        self.__doc__ = doc
        self.args = args
        self.names = names = [name for name, _, _ in args]
        self.required = len(args) if required is None else required
        self.__signature__ = Signature(
            [Parameter(name, Parameter.POSITIONAL_OR_KEYWORD, annotation=rtype,
                       default=Parameter.empty if i < self.required else None)
             for i, (name, _, rtype) in enumerate(args)]
            + [Parameter("assumptions", Parameter.POSITIONAL_OR_KEYWORD, default=())])
        self._operands = [operand for _, operand, _ in args]
        self._owners = [(i, *_OWNER[rtype]) for i, (_, _, rtype) in enumerate(args) if rtype in _OWNER]
        self._steps = [(name, table, _reads(table, renames)) for name, table, renames in steps]
        self._groups = [tuple((tag, part, _reads(part, renames)) for tag, part, renames in group)
                        for group in (g if isinstance(g[0], tuple) else (g,) for g in identities)]
        words = (axes or "sss " * len(args)).split()
        first = {}  # space letter -> (argument, axis) that sizes it
        for i, word in enumerate(words):
            for axis, letter in enumerate(word):
                first.setdefault(letter, (i, axis))
        if misfit is None:
            where = "algebra" if args[0][2] is LieAlgebra else "coalgebra"
            misfit = {name: _MISFIT[rtype].format(where) for name, _, rtype in args[1:]}
        elif isinstance(misfit, str):
            misfit = dict.fromkeys(names[1:], misfit)
        # (argument, the (argument, axis) sizing each of its axes, text), in misfit's order
        self._tests = [(names.index(name), [first[x] for x in words[names.index(name)]], text)
                       for name, text in misfit.items()]

    def __call__(self, *objs, **named):
        if named.keys() - {"assumptions"} or len(objs) != len(self.args):
            call = self.__signature__.bind(*objs, **named).arguments
            objs = [call.get(name) for name in self.names]
            named = {"assumptions": call.get("assumptions", ())}
        given = None not in objs[self.required:]
        if not given and any(obj is not None for obj in objs[self.required:]):
            raise ShapeError(" and ".join(self.names[self.required:]) + " must be supplied together")
        if self._tests:
            self.fit(objs)
        env = {operand: obj if isinstance(obj, Scalar) else obj.tensor
               for operand, obj in zip(self._operands, objs) if operand is not None and obj is not None}
        for i, attr, operand in self._owners:
            if objs[i] is not None:
                env.setdefault(operand, getattr(objs[i], attr).tensor)
        for name, table, operands in self._steps:
            if given or all(source in env for _, source in operands):
                env[name] = table.evaluate(**{key: env[source] for key, source in operands})
        items, details, by_name = [], {}, dict(zip(self.names, objs))
        for group in self._groups:
            tag, part, operands = group[0]
            if isinstance(part, Check):
                arguments = [by_name[source] for _, source in operands]
                if None in arguments:
                    continue
                report = part(*arguments)
                items += [(r.identity if r.identity.startswith(tag) else f"{tag}.{r.identity}",
                           r.index, r.value) for r in report.residuals]
                details[tag] = max(details.get(tag, report.verdict), report.verdict,
                                   key=_SEVERITY.index)
            elif given or all(source in env for _, _, operands in group for _, source in operands):
                values = [(tag, table.evaluate(**{key: env[source] for key, source in operands}))
                          for tag, table, operands in group]
                items += _items(*values[0]) if len(values) == 1 else _interleaved(*values)
        # an optional argument not given is None, which holds no scalar
        return _build_report(items, objs, named.get("assumptions", ()), details)

    def fit(self, objs):
        """ShapeError unless every tested argument's axes lie on its spaces:
        objs are the check's arguments in order, None for one not given."""
        shapes = [obj.tensor.shape if isinstance(obj, Record) else () for obj in objs]
        for i, sizes, text in self._tests:
            for n, (j, axis) in zip(shapes[i], sizes):  # "sss" fits a matrix too
                if n != shapes[j][axis]:
                    raise ShapeError(text)


CHECKS = {
    "lie-algebra": Check(
        "Antisymmetry of the bracket and the Jacobi identity.", (("L", "c", LieAlgebra),),
        identities=(("antisymmetry", ANTISYMMETRY, ""), ("jacobi", JACOBI, ""))),
    "lie-coalgebra": Check(
        "Co-antisymmetry and the co-Jacobi identity of the cobracket.", (("C", "d", LieCoalgebra),),
        steps=(("t", COMPOSITE, "e=d"),),
        identities=(("co-antisymmetry", CO_ANTISYMMETRY, ""), ("co-jacobi", CYCLIC, ""))),
    "cocycle": Check(
        "The bialgebra compatibility of the cobracket with the bracket.",
        (("L", "c", LieAlgebra), ("C", "d", LieCoalgebra)), identities=(("cocycle", COCYCLE, ""),)),
    "nijenhuis": Check(
        "The torsion identity [Nx,Ny] + N^2[x,y] = N[Nx,y] + N[x,Ny].",
        (("L", "c", LieAlgebra), ("N", "N", LinearOperator)),
        steps=(("N2", SQUARE, "M=N"), ("left", IMAGE, "M=N T=c"), ("right", RIGHT_IMAGE, "M=N")),
        identities=(("nijenhuis", TORSION, ""),)),
    "nij-coalgebra": Check(
        "(P(x)P)delta + delta P^2 = (P(x)id)(delta P) + (id(x)P)(delta P).",
        (("C", "d", LieCoalgebra), ("P", "P", LinearOperator)),
        steps=(("P2", SQUARE, "M=P"), ("dP", IMAGE, "M=P T=d")),
        identities=(("nijenhuis-cobracket", NIJENHUIS_COBRACKET, ""),)),
    "cybe": Check(
        "The classical Yang-Baxter equation plus antisymmetry of r.",
        (("L", "c", LieAlgebra), ("r", "r", TwoTensor)),
        identities=(("antisymmetry", SKEW, "t=r"), ("cybe", CYBE, ""))),
    "co-cybe": Check(
        "The classical co-Yang-Baxter equation for a skew form on a coalgebra.",
        (("C", "d", LieCoalgebra), ("omega", "om", BilinearForm)),
        identities=(("skew", SKEW, "t=om"), ("co-cybe", CO_CYBE, ""))),
    "dual-qt": Check(
        "Both dual-quasitriangular compatibility conditions, reported separately.",
        (("C", "d", LieCoalgebra), ("omega", "om", BilinearForm)), steps=(("w", INDUCED_BRACKET, ""),),
        identities=(("skew", SKEW, "t=om"),
                    (("dual-qt-1", DUAL_QT_1, ""), ("dual-qt-2", DUAL_QT_2, "")))),
    "weak-symplectic": Check(
        "Skew-symmetry plus the cyclic identity om([x,y],z)+om([y,z],x)+om([z,x],y)=0.",
        (("L", "c", LieAlgebra), ("omega", "om", BilinearForm)),
        identities=(("skew", SKEW, "t=om"), ("weak-symplectic", WEAK_SYMPLECTIC, ""))),
    "weak-cosymplectic": Check(
        "Antisymmetry of r plus the cyclic sum of (delta (x) id)(r).",
        (("C", "d", LieCoalgebra), ("r", "r", TwoTensor)), steps=(("dr", DELTA_R, ""),),
        identities=(("antisymmetry", SKEW, "t=r"), ("weak-cosymplectic", WEAK_COSYMPLECTIC, "t=dr"))),
    "representation": Check(
        "rho([x,y]) = rho(x)rho(y) - rho(y)rho(x) on all basis pairs.", (("R", "A", Representation),),
        identities=(("representation", REPRESENTATION, ""),)),
    "nij-representation": Check(
        "rho(Nx)alpha + alpha^2 rho(x) = alpha rho(Nx) + alpha rho(x) alpha.",
        (("R", "A", Representation), ("N", "N", LinearOperator), ("alpha", "al", LinearOperator)),
        steps=(("rN", IMAGE, "M=N T=A"), ("al2", SQUARE, "M=al"), ("rA", RIGHT_PRODUCT, "T=A M=al")),
        identities=(("nijenhuis-representation", NIJ_REPRESENTATION, ""),),
        axes="LVV LL VV", misfit="operator shapes do not match the representation"),
    "admissible": Check(
        "beta rho(Nx) + rho(x) beta^2 = rho(Nx) beta + beta rho(x) beta.",
        (("R", "A", Representation), ("N", "N", LinearOperator), ("beta", "be", LinearOperator)),
        steps=(("rN", IMAGE, "M=N T=A"), ("be2", SQUARE, "M=be"), ("rB", RIGHT_PRODUCT, "T=A M=be")),
        identities=(("admissible", ADMISSIBLE, ""),),
        axes="LVV LL VV", misfit="operator shapes do not match the representation"),
    "corepresentation": Check(
        "Coaction axiom; with (P, beta), also the Nijenhuis corepresentation identity.",
        (("K", "g", Corepresentation), ("P", "P", LinearOperator), ("beta", "be", LinearOperator)),
        steps=(("be2", SQUARE, "M=be"),),
        identities=(("corepresentation", COREPRESENTATION, ""),
                    ("nijenhuis-corepresentation", NIJ_COREPRESENTATION, "")),
        required=1, axes="VCV CC VV", misfit="operator shapes do not match the corepresentation"),
    "cpnybe": Check(
        "The Yang-Baxter equation enriched with the operator-pairing constraint.",
        (("L", "c", LieAlgebra), ("r", "r", TwoTensor), ("N", "N", LinearOperator),
         ("P", "P", LinearOperator)),
        identities=(("antisymmetry", SKEW, "t=r"), ("cybe", CYBE, ""),
                    ("operator-pairing", PAIRING, ""))),
    "rrbo": Check(
        "The weak relative Rota-Baxter conditions for T: V -> L.",
        (("L", "c", LieAlgebra), ("R", "A", Representation), ("alpha", "al", LinearOperator),
         ("N", "N", LinearOperator), ("T", "T", LinearOperator)),
        steps=(("inner", ROTA_BAXTER_INNER, ""),),
        identities=(("rota-baxter", ROTA_BAXTER, ""), ("operator-intertwining", INTERTWINING, "")),
        axes="LLL LVV VV LL LV",
        misfit={"T": "T must map the module into the algebra", "alpha": "alpha must act on the module",
                "N": "N must act on the algebra", "R": "R must represent the algebra"}),
}
check_lie_algebra = CHECKS["lie-algebra"]
check_lie_coalgebra = CHECKS["lie-coalgebra"]
check_cocycle = CHECKS["cocycle"]
check_nijenhuis = CHECKS["nijenhuis"]
check_nijenhuis_coalgebra = CHECKS["nij-coalgebra"]
check_cybe = CHECKS["cybe"]
check_co_cybe = CHECKS["co-cybe"]
check_dual_qt = CHECKS["dual-qt"]
check_weak_symplectic = CHECKS["weak-symplectic"]
check_weak_cosymplectic = CHECKS["weak-cosymplectic"]
check_representation = CHECKS["representation"]
check_nij_representation = CHECKS["nij-representation"]
check_admissible = CHECKS["admissible"]
check_corepresentation = CHECKS["corepresentation"]
check_cpnybe = CHECKS["cpnybe"]
check_rrbo = CHECKS["rrbo"]


CHECKS["nij-lie-bialgebra"] = check_nij_lie_bialgebra = Check(
    "Everything a Nijenhuis Lie bialgebra must satisfy, in one report.",
    (("L", "c", LieAlgebra), ("C", "d", LieCoalgebra), ("N", "N", LinearOperator),
     ("P", "P", LinearOperator)),
    steps=(("P2", SQUARE, "M=P"), ("left", IMAGE, "M=N T=c"), ("right", RIGHT_IMAGE, "M=P"),
           ("N2", SQUARE, "M=N"), ("dN", IMAGE, "M=N T=d")),
    identities=(("lie-algebra", check_lie_algebra, ""), ("lie-coalgebra", check_lie_coalgebra, ""),
                ("cocycle", check_cocycle, ""), ("nijenhuis", check_nijenhuis, ""),
                ("nijenhuis-cobracket", check_nijenhuis_coalgebra, ""),
                ("operator-compatibility", OPERATOR_COMPATIBILITY, ""),
                ("cobracket-compatibility", COBRACKET_COMPATIBILITY, "")),
    misfit={"C": _MISFIT[LieCoalgebra], "N": "operator does not act on the algebra",
            "P": "operator does not act on the coalgebra"})

# checks that no document kind names; documents cannot name compatible-pair's scalars
check_matched_pair = Check(
    "Mutual representations, their Nijenhuis compatibilities, and both matched-pair mixing"
    " identities.",
    (("L", "c", LieAlgebra), ("H", "h", LieAlgebra), ("rho_L", "A", Representation),
     ("rho_H", "B", Representation), ("N_L", None, LinearOperator), ("N_H", None, LinearOperator)),
    identities=(("first-action", check_representation, "R=rho_L"),
                ("second-action", check_representation, "R=rho_H"),
                ("first-action", check_nij_representation, "R=rho_L N=N_L alpha=N_H"),
                ("second-action", check_nij_representation, "R=rho_H N=N_H alpha=N_L"),
                ("matched-pair-1", MATCHED_PAIR, "A=B B=A"), ("matched-pair-2", MATCHED_PAIR, "c=h")),
    axes="LLL HHH LHH HLL LL HH",
    misfit={"rho_L": "rho_L must represent the first algebra on the second's space",
            "rho_H": "rho_H must represent the second algebra on the first's space",
            "N_L": "N_L must act on the first algebra", "N_H": "N_H must act on the second algebra"})
check_compatible_pair = Check(
    """Both cobrackets are Lie coalgebras and their mixed co-Jacobi sum vanishes.

    When coreps are given, also checks each coaction axiom and the mixed
    corepresentation identity, i.e. everything needed for s*delta + t*Delta and
    s*gamma + t*Gamma to work for independent deformation weights.""",
    (("C1", "d", LieCoalgebra), ("C2", "e", LieCoalgebra), ("s", None, Scalar), ("t", None, Scalar),
     ("corep1", "g", Corepresentation), ("corep2", "h", Corepresentation)),
    steps=(("de", COMPOSITE, ""), ("ed", COMPOSITE, "d=e e=d")),
    identities=(("first", check_lie_coalgebra, "C=C1"), ("second", check_lie_coalgebra, "C=C2"),
                ("mixed-co-jacobi", MIXED_CYCLIC, "t=de u=ed"),
                ("first", check_corepresentation, "K=corep1"),
                ("second", check_corepresentation, "K=corep2"),
                ("mixed-corepresentation", MIXED_COREPRESENTATION, "")),
    required=4, axes="CCC CCC - - VCV VCV",
    misfit={"C2": "cobrackets live on different spaces",
            "corep1": "corep1 must corepresent the first cobracket",
            "corep2": "corep2 must corepresent the second cobracket on corep1's module"})


# -- checks with a step that is not a table ----------------------------------------

# check_deformed_homomorphism, given u = 1/t; t is an argument that no table
# reads, so that its denominators stay side conditions
_DEFORMED_HOMOMORPHISM = Check(
    "The four deformation-homomorphism identities, given u = 1/t.",
    (("C", "d", LieCoalgebra), ("C_st", "dst", LieCoalgebra), ("K", "g", Corepresentation),
     ("K_st", "gst", Corepresentation), ("P", "P", LinearOperator), ("beta", "be", LinearOperator),
     ("s", "s", Scalar), ("t", None, Scalar), ("u", "u", Scalar)),
    steps=(("D", SECOND_SUMMAND, "st=dst x=d"), ("G", SECOND_SUMMAND, "st=gst x=g"),
           ("DP", IMAGE, "M=P T=D"), ("dP", IMAGE, "M=P T=d"), ("Gb", IMAGE, "M=be T=G"),
           ("gb", IMAGE, "M=be T=g")),
    identities=((("deformation-1", DEFORMATION_1, ""), ("deformation-2", DEFORMATION_2, "")),
                (("deformation-3", DEFORMATION_3, ""), ("deformation-4", DEFORMATION_4, ""))),
    axes="CCC CCC VCV VCV CC VV - - -",
    misfit={"C_st": "C_st must live on C's space", "K": "K must corepresent C",
            "K_st": "K_st must corepresent C_st on K's module", "P": "P must act on C's space",
            "beta": "beta must act on K's module"})


def check_deformed_homomorphism(C: LieCoalgebra, C_st: LieCoalgebra,
                                K: Corepresentation, K_st: Corepresentation,
                                P: LinearOperator, beta: LinearOperator,
                                s: Scalar, t: Scalar,
                                assumptions: Sequence[Assumption] = ()) -> CheckReport:
    """The four deformation-homomorphism identities linking (P, beta) to (delta, Delta).

    C_st and K_st carry s*delta + t*Delta and s*gamma + t*Gamma; the second
    summands are recovered by exact division, so t must be invertible.
    """
    if t.is_zero():
        raise ShapeError("deformation weight t must be invertible to recover the second cobracket")
    return _DEFORMED_HOMOMORPHISM(C, C_st, K, K_st, P, beta, s, t, ONE / t, assumptions=assumptions)


def check_frobenius(L: LieAlgebra, B: BilinearForm,
                    N: LinearOperator | None = None,
                    assumptions: Sequence[Assumption] = ()) -> CheckReport:
    """Symmetry, invariance B([x,y],z)=B(x,[y,z]), and exact nondegeneracy.

    A nonzero parametric determinant is a side condition, certified like an
    input's denominator; with N the torsion identity for N is included.
    """
    check_weak_symplectic.fit((L, B))
    bm = B.tensor
    items = _items("symmetry", SYMMETRY.evaluate(t=bm))
    items += _items("invariance", INVARIANCE.evaluate(c=L.tensor, B=bm))
    det = determinant(B.matrix)
    inputs = [L, B] + ([N] if N is not None else [])
    if det.is_zero():
        items.append(("nondegeneracy", (), ONE))
    else:
        inputs.append(ONE / det)
    if N is not None:
        sub = check_nijenhuis(L, N)
        items += [(r.identity, r.index, r.value) for r in sub.residuals]
    return _build_report(items, inputs, assumptions, details={"determinant": det})


def check_pq_equivalents(L: LieAlgebra, r: TwoTensor,
                         N: LinearOperator, P: LinearOperator,
                         assumptions: Sequence[Assumption] = ()) -> CheckReport:
    """Cross-checks the cobracket-level identities against their r-level forms.

    Evaluates the Nijenhuis-cobracket identity and the bialgebra cobracket
    compatibility on the induced cobracket, and independently their closed
    forms in r; the report passes when each verdict pair agrees, which is the
    content of the equivalence theorem.  Sub-verdicts land in details.
    """
    from .construct import delta_from_r  # local import to avoid a cycle

    check_cpnybe.fit((L, r, N, P))  # the same arguments, before any table runs
    C = delta_from_r(L, r)
    nc_direct = check_nijenhuis_coalgebra(C, P)
    c, d, rm, nm, p = L.tensor, C.tensor, r.tensor, N.tensor, P.tensor
    n2 = SQUARE.evaluate(M=nm)
    compatibility = COBRACKET_COMPATIBILITY.evaluate(d=d, P=p, N=nm, N2=n2,
                                                     dN=IMAGE.evaluate(M=nm, T=d))
    nlb2_direct = _build_report(_items("cobracket-compatibility", compatibility), [L, C, N, P], ())

    rho = PAIRING.evaluate(P=p, r=rm, N=nm)
    form_1 = PAIRING_FORM_1.evaluate(rho=rho, sig=PAIRING.evaluate(P=nm, r=rm, N=p), P=p, c=c)
    form_2 = PAIRING_FORM_2.evaluate(rho=rho, N=nm, P=p, c=c, r=rm, P2=SQUARE.evaluate(M=p), N2=n2)
    nc_r = _build_report(_items("pairing-form-1", form_1), [L, r, N, P], ())
    nlb2_r = _build_report(_items("pairing-form-2", form_2), [L, r, N, P], ())

    items = []
    if nc_direct.passed != nc_r.passed:
        items.append(("pair-one-disagreement", (), ONE))
    if nlb2_direct.passed != nlb2_r.passed:
        items.append(("pair-two-disagreement", (), ONE))
    details = {
        "cobracket-identity": nc_direct.verdict,
        "cobracket-identity-r-form": nc_r.verdict,
        "compatibility-identity": nlb2_direct.verdict,
        "compatibility-identity-r-form": nlb2_r.verdict,
    }
    return _build_report(items, [L, r, N, P], assumptions, details=details)
