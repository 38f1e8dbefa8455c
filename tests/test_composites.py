"""The full reports of the composite and function checks, against recorded goldens.

``golden/composites/composites.json`` holds, for each named call in ``CALLS``,
the report of ``check_nij_lie_bialgebra``, ``check_matched_pair`` or
``check_compatible_pair``: its verdict, every residual (identity, index,
value text) in order, the assumptions used and the details.  The inputs are
the four operator pairs on the quasitriangular sl2, the coadjoint matched
pairs of its double, seeded random rational data on dimensions 3 and 2, and
data with the denominator ``k``.

``golden/function_checks/function_checks.json`` holds the same for each call in
``FUNCTION_CALLS``, of ``check_pq_equivalents``, ``check_frobenius`` and
``check_deformed_homomorphism``, or the text of the ``ShapeError`` it raises.
The inputs are the four operator pairs on the quasitriangular sl2, each also
swapped; the zero, Killing and k-times-Killing forms on sl2; and seeded random
data on dimensions 2 and 3, a third of it with the denominators k, k + 1 and
k - 1.

After a deliberate change of the reports, rewrite both goldens with
``PYTHONPATH=src:tests python tests/test_composites.py``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lieb import (
    Assumption,
    BasisSpace,
    Corepresentation,
    LieAlgebra,
    LieCoalgebra,
    LinearOperator,
    Representation,
    BilinearForm,
    Scalar,
    ShapeError,
    TwoTensor,
    adjoint_representation,
    check_compatible_pair,
    check_deformed_homomorphism,
    check_frobenius,
    check_matched_pair,
    check_nij_lie_bialgebra,
    check_pq_equivalents,
    corep_from_rep,
    delta_from_r,
    dual_algebra,
    dual_pair_actions,
    map_scalars,
)
from lieb.multilinear import Table, Tensor
from lieb.scalars import ZERO

from conftest import bialgebra_pair, make_sl2, sc

GOLDEN = Path(__file__).parent / "golden" / "composites" / "composites.json"
FUNCTION_GOLDEN = Path(__file__).parent / "golden" / "function_checks" / "function_checks.json"

# a half zeros, so that random structures leave some components zero
_RATIONALS = [Fraction(v) for v in ("0", "0", "0", "0", "1", "-1", "2", "1/2", "-3/2")]


def _space(n: int) -> BasisSpace:
    return BasisSpace(tuple(f"b{i}" for i in range(n)))


def _random(rng: random.Random, *shape: int, entries=None):
    """A nested-list tensor of the given shape with seeded rational entries."""
    if not shape:
        return entries[rng.randrange(len(entries))] if entries else \
            Scalar.from_fraction(rng.choice(_RATIONALS))
    return [_random(rng, *shape[1:], entries=entries) for _ in range(shape[0])]


def _op(rng, space, entries=None):
    return LinearOperator(space, space, _random(rng, space.dim, space.dim, entries=entries))


def _assume(*texts: str) -> list[Assumption]:
    return [Assumption(sc(text).num) for text in texts]


def _qt_r(sl2) -> TwoTensor:
    """The quasitriangular r on sl2."""
    return TwoTensor(sl2.space, [[sc("0")] * 3, [sc("0"), sc("0"), sc("lambda")],
                                 [sc("0"), sc("-lambda"), sc("0")]])


def _bialgebra_calls(calls):
    sl2 = make_sl2()
    dr = delta_from_r(sl2, _qt_r(sl2))
    rho_l, rho_h = dual_pair_actions(sl2, dr)
    for which in "abcd":
        n_op, p_op = bialgebra_pair(which, sl2.space)
        for order, (first, second) in (("", (n_op, p_op)), ("swapped/", (p_op, n_op))):
            calls[f"nij-lie-bialgebra/pair-{which}/{order}plain"] = \
                lambda f=first, s=second: check_nij_lie_bialgebra(sl2, dr, f, s)
            calls[f"nij-lie-bialgebra/pair-{which}/{order}assume-k2"] = \
                lambda f=first, s=second: check_nij_lie_bialgebra(sl2, dr, f, s, _assume("k2"))
        calls[f"matched-pair/dual-pair-{which}"] = lambda n=n_op, p=p_op: check_matched_pair(
            sl2, dual_algebra(dr), rho_l, rho_h, n, p.transpose())
    adjoint = corep_from_rep(adjoint_representation(sl2))
    coreg = Corepresentation(dr, dr.space, dr.d)
    calls["compatible-pair/sl2-with-itself"] = lambda: check_compatible_pair(
        dr, dr, sc("s"), sc("t"))
    calls["compatible-pair/sl2-coregular"] = lambda: check_compatible_pair(
        dr, dr, sc("s"), sc("t"), coreg, coreg)
    calls["compatible-pair/sl2-adjoint-coaction"] = lambda: check_compatible_pair(
        dr, dr, sc("s"), sc("t"), adjoint, coreg)


def _random_calls(calls):
    for seed, n, m in ((0, 3, 2), (1, 2, 3), (2, 3, 3), (3, 2, 2)):
        rng = random.Random(seed)
        L = LieAlgebra(_space(n), _random(rng, n, n, n))
        C = LieCoalgebra(_space(n), _random(rng, n, n, n))
        N, P = _op(rng, L.space), _op(rng, L.space)
        calls[f"nij-lie-bialgebra/random-{seed}-dim-{n}"] = \
            lambda L=L, C=C, N=N, P=P: check_nij_lie_bialgebra(L, C, N, P)
        H = LieAlgebra(_space(m), _random(rng, m, m, m))
        rho_l = Representation(L, H.space, _random(rng, n, m, m))
        rho_h = Representation(H, L.space, _random(rng, m, n, n))
        N_H = _op(rng, H.space)
        calls[f"matched-pair/random-{seed}-dims-{n}-{m}"] = \
            lambda L=L, H=H, a=rho_l, b=rho_h, N=N, N_H=N_H: check_matched_pair(L, H, a, b, N, N_H)
        C2 = LieCoalgebra(_space(n), _random(rng, n, n, n))
        s, t = Scalar.from_fraction(Fraction(seed + 1, 2)), sc("t")
        K1 = Corepresentation(C, _space(m), _random(rng, m, n, m))
        K2 = Corepresentation(C2, _space(m), _random(rng, m, n, m))
        calls[f"compatible-pair/random-{seed}-dim-{n}"] = \
            lambda C=C, C2=C2, s=s, t=t: check_compatible_pair(C, C2, s, t)
        calls[f"compatible-pair/random-{seed}-dim-{n}/coreps-{m}"] = \
            lambda C=C, C2=C2, s=s, t=t, K1=K1, K2=K2: check_compatible_pair(C, C2, s, t, K1, K2)


def _denominator_calls(calls):
    # entries with the denominators k, k^2 and k + 1 on dimension 2, where
    # assuming k != 0 certifies k^2 != 0
    entries = [sc(text) for text in ("0", "0", "0", "1/k", "-1/k^2", "1", "k/(k+1)")]
    rng = random.Random(7)
    sp, mod = _space(2), _space(2)
    L = LieAlgebra(sp, _random(rng, 2, 2, 2, entries=entries))
    C = LieCoalgebra(sp, _random(rng, 2, 2, 2, entries=entries))
    C2 = LieCoalgebra(sp, _random(rng, 2, 2, 2, entries=entries))
    N, P = _op(rng, sp, entries), _op(rng, sp, entries)
    H = LieAlgebra(mod, _random(rng, 2, 2, 2, entries=entries))
    rho_l = Representation(L, mod, _random(rng, 2, 2, 2, entries=entries))
    rho_h = Representation(H, sp, _random(rng, 2, 2, 2, entries=entries))
    K1 = Corepresentation(C, mod, _random(rng, 2, 2, 2, entries=entries))
    K2 = Corepresentation(C2, mod, _random(rng, 2, 2, 2, entries=entries))
    for name, assumed in (("plain", ()), ("assume-k", _assume("k"))):
        calls[f"nij-lie-bialgebra/denominator-k/{name}"] = \
            lambda a=assumed: check_nij_lie_bialgebra(L, C, N, P, a)
        calls[f"matched-pair/denominator-k/{name}"] = \
            lambda a=assumed: check_matched_pair(L, H, rho_l, rho_h, N, P, a)
        calls[f"compatible-pair/denominator-k/{name}"] = \
            lambda a=assumed: check_compatible_pair(C, C2, sc("1/k"), sc("t"), assumptions=a)
        calls[f"compatible-pair/denominator-k/coreps/{name}"] = \
            lambda a=assumed: check_compatible_pair(C, C2, sc("1/k"), sc("t"), K1, K2, a)


def _calls():
    calls = {}
    for add in (_bialgebra_calls, _random_calls, _denominator_calls):
        add(calls)
    return calls


CALLS = _calls()


def _pq_calls(calls):
    sl2 = make_sl2()
    r = _qt_r(sl2)
    for which in "abcd":
        n_op, p_op = bialgebra_pair(which, sl2.space)
        for order, (first, second) in (("", (n_op, p_op)), ("swapped/", (p_op, n_op))):
            for name, assumed in (("plain", ()), ("assume-k2", _assume("k2"))):
                calls[f"pq-equivalents/pair-{which}/{order}{name}"] = \
                    lambda f=first, s=second, a=assumed: check_pq_equivalents(sl2, r, f, s, a)


# the Killing form tr(ad x ad y)
_KILLING = Table("ij", "c[iab] c[jba]")


def _frobenius_calls(calls):
    sl2 = make_sl2()
    killing = _KILLING.evaluate(c=sl2.tensor)
    k = sc("k")
    forms = {"zero": BilinearForm(sl2.space, Tensor((3, 3), {})),
             "killing": BilinearForm(sl2.space, killing),
             "k-killing": BilinearForm(sl2.space, Tensor((3, 3), {idx: k * v for idx, v
                                                                   in killing.entries.items()}))}
    n_op, _ = bialgebra_pair("a", sl2.space)
    for form, B in forms.items():
        for with_n, N in (("", None), ("with-N/", n_op)):
            for name, assumed in (("plain", ()), ("assume-k", _assume("k"))):
                calls[f"frobenius/{form}/{with_n}{name}"] = \
                    lambda B=B, N=N, a=assumed: check_frobenius(sl2, B, N, a)


# entries with the denominators k, k + 1 and k - 1, a third zeros
_PARAMETRIC = [sc(text) for text in ("0", "0", "k", "1/k", "1/(k+1)", "k/(k-1)")]
# the deformation weights; each t is taken with each s on some data
_T_WEIGHTS = ("-2/3", "k", "1/(k+1)")
_S_WEIGHTS = ("1", "k", "0")


def _random_function_calls(calls):
    for seed, n, m in ((0, 3, 2), (1, 2, 3), (2, 3, 3), (3, 2, 2), (4, 3, 2), (5, 2, 3)):
        rng = random.Random(100 + seed)
        entries = _PARAMETRIC if seed % 3 == 2 else None
        L = LieAlgebra(_space(n), _random(rng, n, n, n, entries=entries))
        C = LieCoalgebra(_space(n), _random(rng, n, n, n, entries=entries))
        C_st = LieCoalgebra(_space(n), _random(rng, n, n, n, entries=entries))
        K = Corepresentation(C, _space(m), _random(rng, m, n, m, entries=entries))
        K_st = Corepresentation(C_st, _space(m), _random(rng, m, n, m, entries=entries))
        N, P = _op(rng, L.space, entries), _op(rng, L.space, entries)
        beta = _op(rng, K.space, entries)
        r = TwoTensor(L.space, _random(rng, n, n, entries=entries))
        B = BilinearForm(L.space, _random(rng, n, n, entries=entries))
        assumed = [("plain", ())] + ([("assume-k", _assume("k"))] if entries else [])
        prefix = f"random-{seed}-dims-{n}-{m}"
        for name, a in assumed:
            calls[f"pq-equivalents/{prefix}/{name}"] = \
                lambda L=L, r=r, N=N, P=P, a=a: check_pq_equivalents(L, r, N, P, a)
            calls[f"frobenius/{prefix}/{name}"] = lambda L=L, B=B, a=a: check_frobenius(L, B, None, a)
            calls[f"frobenius/{prefix}/with-N/{name}"] = \
                lambda L=L, B=B, N=N, a=a: check_frobenius(L, B, N, a)
            for i, t in enumerate(_T_WEIGHTS):
                s = _S_WEIGHTS[(seed + i) % 3]
                calls[f"deformed-homomorphism/{prefix}/s={s}/t={t}/{name}"] = \
                    lambda args=(C, C_st, K, K_st, P, beta, sc(s), sc(t)), a=a: \
                    check_deformed_homomorphism(*args, a)


def _deformation_calls(calls):
    # with P and beta the identity, the four identities hold exactly when the
    # second cobracket and coaction equal the first: C_st = (s + t) C
    sl2 = make_sl2()
    C = delta_from_r(sl2, _qt_r(sl2))
    K = Corepresentation(C, C.space, C.tensor)
    one = LinearOperator(C.space, C.space, Tensor((3, 3), {(i, i): sc("1") for i in range(3)}))
    for s, t in zip(_S_WEIGHTS, _T_WEIGHTS):
        C_st, K_st = (map_scalars(x, lambda v, w=sc(s) + sc(t): v * w) for x in (C, K))
        calls[f"deformed-homomorphism/sl2-identity/s={s}/t={t}"] = \
            lambda args=(C, C_st, K, K_st, one, one, sc(s), sc(t)): check_deformed_homomorphism(*args)
    calls["deformed-homomorphism/sl2-identity/t=0"] = \
        lambda: check_deformed_homomorphism(C, C, K, K, one, one, sc("1"), ZERO)


def _function_calls():
    calls = {}
    for add in (_pq_calls, _frobenius_calls, _random_function_calls, _deformation_calls):
        add(calls)
    return calls


FUNCTION_CALLS = _function_calls()


def _outcome(call) -> dict:
    """The call's report, or the text of the ShapeError it raises."""
    try:
        report = call()
    except ShapeError as exc:
        return {"error": str(exc)}
    return {"verdict": str(report.verdict),
            "residuals": [[r.identity, list(r.index), str(r.value)] for r in report.residuals],
            "assumptions_used": [str(a) for a in report.assumptions_used],
            "details": {key: str(value) for key, value in report.details.items()}}


def _dump(outcomes: dict) -> str:
    """Indented JSON with one residual a line."""
    lines = ["{"]
    for i, (name, outcome) in enumerate(outcomes.items()):
        lines.append(f"  {json.dumps(name)}: {{")
        fields = [f"    {json.dumps(key)}: {json.dumps(outcome[key])}"
                  for key in ("verdict", "assumptions_used", "details", "error") if key in outcome]
        if "residuals" in outcome:
            residuals = [f"      {json.dumps(r)}" for r in outcome["residuals"]]
            fields.append('    "residuals": [' + ("\n" + ",\n".join(residuals) + "\n    ]"
                                                   if residuals else "]"))
        lines.append(",\n".join(fields))
        lines.append("  }" + ("," if i < len(outcomes) - 1 else ""))
    return "\n".join(lines + ["}", ""])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def function_golden():
    return json.loads(FUNCTION_GOLDEN.read_text(encoding="utf-8"))


def test_the_golden_names_every_call(golden, function_golden):
    assert list(golden) == list(CALLS)
    assert list(function_golden) == list(FUNCTION_CALLS)


@pytest.mark.parametrize("name", list(CALLS))
def test_the_composite_report_matches_the_golden(name, golden):
    assert _outcome(CALLS[name]) == golden[name]


@pytest.mark.parametrize("name", list(FUNCTION_CALLS))
def test_the_function_check_report_matches_the_golden(name, function_golden):
    assert _outcome(FUNCTION_CALLS[name]) == function_golden[name]


if __name__ == "__main__":
    for path, calls in ((GOLDEN, CALLS), (FUNCTION_GOLDEN, FUNCTION_CALLS)):
        path.parent.mkdir(exist_ok=True)
        path.write_text(_dump({name: _outcome(call) for name, call in calls.items()}),
                        encoding="utf-8")
