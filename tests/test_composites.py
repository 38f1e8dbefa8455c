"""The full reports of the composite checks, against a recorded golden.

``golden/composites/composites.json`` holds, for each named call below, the
report of ``check_nij_lie_bialgebra``, ``check_matched_pair`` or
``check_compatible_pair``: its verdict, every residual (identity, index,
value text) in order, the assumptions used and the details.  The inputs are
the four operator pairs on the quasitriangular sl2, the coadjoint matched
pairs of its double, seeded random rational data on dimensions 3 and 2, and
data with the denominator ``k``.  After a deliberate change of the reports,
rewrite the golden with ``PYTHONPATH=src:tests python tests/test_composites.py``.
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
    Scalar,
    TwoTensor,
    adjoint_representation,
    check_compatible_pair,
    check_matched_pair,
    check_nij_lie_bialgebra,
    corep_from_rep,
    delta_from_r,
    dual_algebra,
    dual_pair_actions,
)

from conftest import bialgebra_pair, make_sl2, sc

GOLDEN = Path(__file__).parent / "golden" / "composites" / "composites.json"

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


def _bialgebra_calls(calls):
    sl2 = make_sl2()
    r = TwoTensor(sl2.space, [[sc("0")] * 3, [sc("0"), sc("0"), sc("lambda")],
                              [sc("0"), sc("-lambda"), sc("0")]])
    dr = delta_from_r(sl2, r)
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


def _report(report) -> dict:
    return {"verdict": str(report.verdict),
            "residuals": [[r.identity, list(r.index), str(r.value)] for r in report.residuals],
            "assumptions_used": [str(a) for a in report.assumptions_used],
            "details": {key: str(value) for key, value in report.details.items()}}


def _dump(reports: dict) -> str:
    """Indented JSON with one residual a line."""
    lines = ["{"]
    for i, (name, report) in enumerate(reports.items()):
        lines.append(f"  {json.dumps(name)}: {{")
        for key in ("verdict", "assumptions_used", "details"):
            lines.append(f"    {json.dumps(key)}: {json.dumps(report[key])},")
        residuals = [f"      {json.dumps(r)}" for r in report["residuals"]]
        lines.append('    "residuals": [' + ("\n" + ",\n".join(residuals) + "\n    ]"
                                            if residuals else "]"))
        lines.append("  }" + ("," if i < len(reports) - 1 else ""))
    return "\n".join(lines + ["}", ""])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_golden_names_every_call(golden):
    assert list(golden) == list(CALLS)


@pytest.mark.parametrize("name", list(CALLS))
def test_the_composite_report_matches_the_golden(name, golden):
    assert _report(CALLS[name]()) == golden[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dump({name: _report(call()) for name, call in CALLS.items()}),
                      encoding="utf-8")
