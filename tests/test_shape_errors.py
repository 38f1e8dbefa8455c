"""Every check reports an argument on a space of the wrong size in its own terms.

``golden/shape_errors/shape_errors.json`` holds a base document and, for each
document check kind with more than one argument, one statement per space an
argument lives on (an operator's domain, its codomain and both; a
representation's algebra and its module) with that space swapped for one of
another size, each with the exact text ``lieb check`` exits 2 with.  A
one-argument kind has nothing to misfit: its structure's constructor checks
its shape.  The golden also holds the ``ShapeError`` of direct calls, named
as in ``_CALLS``: of the checks that documents cannot reach, of the builders
(one for each argument a builder can be given off its spaces) and of the
solver.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from lieb import (
    Corepresentation,
    ShapeError,
    adjoint_operator,
    bracket_from_omega,
    check_compatible_pair,
    check_corepresentation,
    check_deformed_homomorphism,
    check_matched_pair,
    delta_from_r,
    double_matched_pair,
    dual_pair_actions,
    manin_double,
    nijenhuis_from_omega_r,
    p_from_r_omega,
    parse_document,
    r_from_T,
    semidirect_coproduct,
    semidirect_product,
)
from lieb.cli import EXIT_PARSE_ERROR, main
from lieb.document import CHECK_KINDS
from lieb.multilinear import Tensor
from lieb.scalars import ONE, ZERO
from lieb.solver import LinearProblem, solve_linear

GOLDEN = json.loads((Path(__file__).parent / "golden" / "shape_errors" / "shape_errors.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN["statements"], ids=lambda case: case["statement"])
def test_a_misfit_argument_exits_2_with_the_recorded_text(case, tmp_path, capsys):
    path = tmp_path / "misfit.lieb"
    path.write_text(GOLDEN["document"] + case["statement"] + "\n", encoding="utf-8")
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_PARSE_ERROR, "", case["error"])


def test_the_golden_misfits_every_kind_with_more_than_one_argument():
    kinds = {case["statement"].split()[1] for case in GOLDEN["statements"]}
    assert kinds == {kind for kind, (argc, _) in CHECK_KINDS.items() if argc > 1}
    # no misfit reaches the table engine, whose errors name only index letters
    texts = [case["error"] for case in GOLDEN["statements"]] + list(GOLDEN["calls"].values())
    assert not [text for text in texts if "conflicting sizes" in text]


def _structures():
    doc = parse_document(GOLDEN["document"])
    s = dict(doc.structures)
    C, CV = s["C"], s["CV"]
    L, V = C.space, CV.space
    s["K"] = Corepresentation(C, V, Tensor((2, 3, 2), {}))     # C's corep on V
    s["KL"] = Corepresentation(C, L, Tensor((3, 3, 3), {}))    # ... on L
    s["KCV"] = Corepresentation(CV, V, Tensor((2, 2, 2), {}))  # CV's corep on V
    return s


# each direct call, given the structures of the golden's document and those
# that _structures adds; a call fits but for what its name gives
_CALLS = {
    "compatible-pair/second-cobracket":
        lambda s: check_compatible_pair(s["C"], s["CV"], ONE, ONE),
    "compatible-pair/one-corep":
        lambda s: check_compatible_pair(s["C"], s["C"], ONE, ONE, s["K"]),
    "compatible-pair/second-corep-module":
        lambda s: check_compatible_pair(s["C"], s["C"], ONE, ONE, s["K"], s["KL"]),
    "compatible-pair/coreps-coalgebra":
        lambda s: check_compatible_pair(s["C"], s["C"], ONE, ONE, s["KCV"], s["KCV"]),
    "deformed-homomorphism/zero-t":
        lambda s: check_deformed_homomorphism(s["C"], s["C"], s["K"], s["K"], s["LL"], s["VV"],
                                              ONE, ZERO),
    "deformed-homomorphism/deformed-cobracket":
        lambda s: check_deformed_homomorphism(s["C"], s["CV"], s["K"], s["K"], s["LL"], s["VV"],
                                              ONE, ONE),
    "deformed-homomorphism/deformed-corep":
        lambda s: check_deformed_homomorphism(s["C"], s["C"], s["K"], s["KL"], s["LL"], s["VV"],
                                              ONE, ONE),
    "deformed-homomorphism/P":
        lambda s: check_deformed_homomorphism(s["C"], s["C"], s["K"], s["K"], s["VV"], s["VV"],
                                              ONE, ONE),
    "deformed-homomorphism/beta":
        lambda s: check_deformed_homomorphism(s["C"], s["C"], s["K"], s["K"], s["LL"], s["LL"],
                                              ONE, ONE),
    "matched-pair/rho_L-algebra":
        lambda s: check_matched_pair(s["g"], s["a"], s["Ra"], s["RaL"], s["LL"], s["VV"]),
    "matched-pair/rho_L-module":
        lambda s: check_matched_pair(s["g"], s["a"], s["RL"], s["RaL"], s["LL"], s["VV"]),
    "matched-pair/rho_H-module":
        lambda s: check_matched_pair(s["g"], s["a"], s["R"], s["Ra"], s["LL"], s["VV"]),
    "matched-pair/rho_H-algebra":
        lambda s: check_matched_pair(s["g"], s["a"], s["R"], s["RL"], s["LL"], s["VV"]),
    "matched-pair/N_L":
        lambda s: check_matched_pair(s["g"], s["a"], s["R"], s["RaL"], s["VV"], s["VV"]),
    "matched-pair/N_H":
        lambda s: check_matched_pair(s["g"], s["a"], s["R"], s["RaL"], s["LL"], s["LL"]),
    "corepresentation/P-without-beta":
        lambda s: check_corepresentation(s["K"], s["LL"]),
    "corepresentation/P":
        lambda s: check_corepresentation(s["K"], s["VV"], s["VV"]),
    "corepresentation/beta":
        lambda s: check_corepresentation(s["K"], s["LL"], s["LL"]),
    "deformed-homomorphism/K":
        lambda s: check_deformed_homomorphism(s["C"], s["C"], s["KCV"], s["K"], s["LL"], s["VV"],
                                              ONE, ONE),
    "delta-from-r/r": lambda s: delta_from_r(s["g"], s["rV"]),
    "bracket-from-omega/omega": lambda s: bracket_from_omega(s["C"], s["omV"]),
    "nijenhuis-from-omega-r/omega": lambda s: nijenhuis_from_omega_r(s["g"], s["omV"], s["r"]),
    "nijenhuis-from-omega-r/r": lambda s: nijenhuis_from_omega_r(s["g"], s["om"], s["rV"]),
    "p-from-r-omega/r": lambda s: p_from_r_omega(s["C"], s["rV"], s["om"]),
    "p-from-r-omega/omega": lambda s: p_from_r_omega(s["C"], s["r"], s["omV"]),
    "dual-pair-actions/C": lambda s: dual_pair_actions(s["g"], s["CV"]),
    "double-matched-pair/rho_L-algebra":
        lambda s: double_matched_pair(s["g"], s["a"], s["Ra"], s["RaL"], s["LL"], s["VV"]),
    "double-matched-pair/rho_L-module":
        lambda s: double_matched_pair(s["g"], s["a"], s["RL"], s["RaL"], s["LL"], s["VV"]),
    "double-matched-pair/rho_H-module":
        lambda s: double_matched_pair(s["g"], s["a"], s["R"], s["Ra"], s["LL"], s["VV"]),
    "double-matched-pair/rho_H-algebra":
        lambda s: double_matched_pair(s["g"], s["a"], s["R"], s["RL"], s["LL"], s["VV"]),
    "double-matched-pair/N_L":
        lambda s: double_matched_pair(s["g"], s["a"], s["R"], s["RaL"], s["VV"], s["VV"]),
    "double-matched-pair/N_H":
        lambda s: double_matched_pair(s["g"], s["a"], s["R"], s["RaL"], s["LL"], s["LL"]),
    "manin-double/C": lambda s: manin_double(s["g"], s["CV"], s["LL"], s["LL"]),
    "manin-double/N": lambda s: manin_double(s["g"], s["C"], s["VV"], s["LL"]),
    "manin-double/P": lambda s: manin_double(s["g"], s["C"], s["LL"], s["VV"]),
    "semidirect-product/R": lambda s: semidirect_product(s["g"], s["Ra"], s["LL"], s["VV"]),
    "semidirect-product/N": lambda s: semidirect_product(s["g"], s["R"], s["VV"], s["VV"]),
    "semidirect-product/alpha": lambda s: semidirect_product(s["g"], s["R"], s["LL"], s["LL"]),
    "semidirect-coproduct/K": lambda s: semidirect_coproduct(s["C"], s["KCV"], s["LL"], s["VV"]),
    "semidirect-coproduct/P": lambda s: semidirect_coproduct(s["C"], s["K"], s["VV"], s["VV"]),
    "semidirect-coproduct/beta": lambda s: semidirect_coproduct(s["C"], s["K"], s["LL"], s["LL"]),
    "adjoint-operator/N-domain": lambda s: adjoint_operator(s["B"], s["VL"]),
    "adjoint-operator/N-codomain": lambda s: adjoint_operator(s["B"], s["LV"]),
    "r-from-T/T-domain": lambda s: r_from_T(s["LL"], s["R"]),
    "r-from-T/T-codomain": lambda s: r_from_T(s["VV"], s["R"]),
    "co-cybe-slice/omega": lambda s: solve_linear(LinearProblem.co_cybe_slice(s["C"], s["omV"])),
}


def test_direct_calls_raise_the_recorded_shape_errors():
    assert set(_CALLS) == set(GOLDEN["calls"])
    s = _structures()
    for name, call in _CALLS.items():
        with pytest.raises(ShapeError) as err:
            call(s)
        assert str(err.value) == GOLDEN["calls"][name], name
