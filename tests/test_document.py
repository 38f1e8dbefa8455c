"""The .lieb file format: parsing, diagnostics, rendering round trips."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieb import BasisSpace, BilinearForm, LieAlgebra, LieCoalgebra, LinearOperator, Verdict
from lieb.document import (
    DuplicateNameError,
    ParseError,
    UnknownNameError,
    _tokenize,
    default_checks,
    parse_document,
    render_document,
    run_check_statement,
    run_constructs,
)
from lieb.multilinear import Tensor, TwoTensor

from conftest import make_sl2, sc
from reference_loops import zeros


SL2_TEXT = """
space L : e f g
algebra sl2 on L {
  [e, f] = g
  [e, g] = -2*e
  [f, g] = 2*f
}
check lie-algebra sl2
"""


def test_parse_sl2_matches_reference():
    doc = parse_document(SL2_TEXT)
    parsed = doc.structures["sl2"]
    assert isinstance(parsed, LieAlgebra)
    assert parsed.c == make_sl2().c
    assert doc.checks[0].kind == "lie-algebra"


def test_mirror_pairs_autofilled():
    doc = parse_document(SL2_TEXT)
    alg = doc.structures["sl2"]
    assert alg.c[1][0][2] == sc("-1")
    assert alg.c[2][0][0] == sc("2")


def test_explicit_mirror_violation_is_preserved():
    text = SL2_TEXT.replace("[e, f] = g", "[e, f] = g\n  [f, e] = g")
    doc = parse_document(text)
    alg = doc.structures["sl2"]
    assert alg.c[0][1][2] == sc("1")
    assert alg.c[1][0][2] == sc("1")


def test_empty_document_is_valid():
    doc = parse_document("")
    assert not doc.structures
    assert not doc.checks
    assert parse_document("# only a comment\n").params == []


def test_undefined_space_reports_location():
    text = "space L : e f\nalgebra a on V {\n}\n"
    with pytest.raises(UnknownNameError) as err:
        parse_document(text)
    assert err.value.line == 2
    assert "V" in str(err.value)


def test_duplicate_name_rejected():
    text = "space L : e f\nspace L : x y\n"
    with pytest.raises(DuplicateNameError):
        parse_document(text)


def test_syntax_error_reports_line_and_column():
    text = "space L : e f\nalgebra a on L {\n  [e, f] = = g\n}\n"
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert err.value.line == 3


_ALGEBRA = "space L : e f h\nalgebra g on L {\n  [e, f] = h\n}\n"


@pytest.mark.parametrize("text, error", [
    (_ALGEBRA + "check foo g\n", "ParseError: line 5, column 7: unknown check kind 'foo'"),
    (_ALGEBRA + "check lie-foo g\n", "ParseError: line 5, column 7: unknown check kind 'lie-foo'"),
    (_ALGEBRA + "construct foo g as h\n",
     "ParseError: line 5, column 11: unknown construction 'foo'"),
    ("space V :", "ParseError: line 1, column 10: a space needs at least one basis label"),
    ("space V : a a", "ParseError: line 1, column 13: duplicate basis label 'a'"),
    ("space V : a b* b*", "ParseError: line 1, column 16: duplicate basis label 'b*'"),
])
def test_statement_errors_name_their_position(text, error):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert f"{type(err.value).__name__}: {err.value}" == error


def test_unknown_parameter_in_expression():
    text = "space L : e f\nalgebra a on L {\n  [e, f] = zeta*e\n}\n"
    with pytest.raises(UnknownNameError) as err:
        parse_document(text)
    assert err.value.line == 3


def test_negative_powers_in_entries():
    doc = parse_document("params k\nspace L : e f\nalgebra a on L {\n  [e, f] = k^-1*e\n}\n")
    assert doc.structures["a"].c[0][1][0] == sc("1/k")
    with pytest.raises(ParseError, match="division by zero"):
        parse_document("space L : e f\nalgebra a on L {\n  [e, f] = 0^-1*e\n}\n")


def test_dangling_operator_names_the_end_of_line():
    with pytest.raises(ParseError) as err:
        parse_document("space L : e f h\nalgebra a on L {\n  [e, f] = h +\n}\n")
    assert (err.value.line, err.value.col) == (3, 15)
    assert "unexpected end of line in expression" in str(err.value)


@pytest.mark.parametrize("body, entries", [
    ("f@g -\n  g@f", {(1, 2): "1", (2, 1): "-1"}),
    ("-\n  f@g", {(1, 2): "-1"}),
    ("f@g\n  - g@f", {(1, 2): "1", (2, 1): "-1"}),
    ("2 *\n  f@g", {(1, 2): "2"}),
    ("(f@g\n  - g@f)", {(1, 2): "1", (2, 1): "-1"}),
])
def test_a_line_break_in_a_tensor_block_is_whitespace(body, entries):
    doc = parse_document(f"space L : e f g\ntensor r on L {{\n  {body}\n}}\n")
    assert doc.structures["r"].tensor.entries == {idx: sc(v) for idx, v in entries.items()}


def test_a_dangling_operator_in_a_tensor_block_names_the_end_of_line():
    # the line break before the closing brace still ends the expression
    with pytest.raises(ParseError) as err:
        parse_document("space L : e f g\ntensor r on L {\n  f@g -\n}\n")
    assert (err.value.line, err.value.col) == (3, 8)
    assert "unexpected end of line in expression" in str(err.value)


@pytest.mark.parametrize("text", ["", "a", "a\n", "a\n\n# note\n", "a\r\nb", "a\n  "])
def test_end_token_follows_the_last_line(text):
    end = _tokenize(text)[-1]
    assert (end.kind, end.line, end.col) == ("end", len(text.splitlines()) + 1, 1)


def test_zero_assumption_is_a_parse_error():
    with pytest.raises(ParseError, match="assumption must be nonzero"):
        parse_document("params k\nassume k - k\n")


def test_rank_errors_in_expressions():
    with pytest.raises(ParseError):
        parse_document("space L : e f\nalgebra a on L {\n  [e, f] = e@f\n}\n")
    with pytest.raises(ParseError):
        parse_document("params t\nspace L : e f\ntensor r on L {\n  t\n}\n")
    with pytest.raises(ParseError):
        parse_document("space L : e f\ntensor r on L {\n  e@f@e\n}\n")


def test_form_skew_autofill_and_override():
    text = """
params nu
space L : e f
form omega on L skew {
  (e, f) = nu
}
form asym on L {
  (e, f) = nu
}
"""
    doc = parse_document(text)
    skew = doc.structures["omega"]
    assert skew.matrix[1][0] == sc("-nu")
    plain = doc.structures["asym"]
    assert plain.matrix[1][0].is_zero()


def test_operator_unlisted_labels_are_zero():
    text = "space L : e f\noperator N : L -> L {\n  e -> f\n}\n"
    op = parse_document(text).structures["N"]
    assert op.matrix[1][0] == sc("1")
    assert op.matrix[0][1].is_zero() and op.matrix[1][1].is_zero()


def test_rep_block():
    text = """
space L : x y
space V : u v
algebra a on L {
  [x, y] = 0
}
rep rho of a on V {
  x : u -> v
  x : v -> u
}
check representation rho
"""
    doc = parse_document(text)
    rep = doc.structures["rho"]
    assert rep.action[0][1][0] == sc("1")
    report = run_check_statement(doc, doc.checks[0])
    assert report.verdict is Verdict.PASS


def test_constructs_execute_and_register():
    text = """
params lambda
space L : e f g
algebra sl2 on L {
  [e, f] = g
  [e, g] = -2*e
  [f, g] = 2*f
}
tensor r on L {
  lambda*(f@g - g@f)
}
construct delta-from-r sl2 r as dr
check lie-coalgebra dr
"""
    doc = parse_document(text)
    with pytest.raises(UnknownNameError) as err:
        # checks referencing construct results resolve only after running them
        run_check_statement(doc, doc.checks[0])
    assert str(err.value) == "line 13, column 21: undefined structure 'dr'"
    run_constructs(doc)
    assert isinstance(doc.structures["dr"], LieCoalgebra)
    assert run_check_statement(doc, doc.checks[0]).verdict is Verdict.PASS


def test_check_assume_clause_and_document_assume():
    text = """
params k3
space L : e f g
algebra sl2 on L {
  [e, f] = g
  [e, g] = -2*e
  [f, g] = 2*f
}
assume k3
operator N : L -> L {
  e -> k3*e
}
check nijenhuis sl2 N assume k3, k3 - 1
"""
    doc = parse_document(text)
    assert len(doc.assumptions) == 1
    stmt = doc.checks[0]
    assert len(stmt.assumptions) == 2
    assert run_check_statement(doc, stmt).verdict is Verdict.PASS


def test_default_checks_cover_declared_structures():
    doc = parse_document(SL2_TEXT.replace("check lie-algebra sl2\n", ""))
    kinds = {stmt.kind for stmt in default_checks(doc)}
    assert kinds == {"lie-algebra"}


def test_render_parse_round_trip(sl2, dr, r_qt, omega_symp, n_example):
    rendered = render_document({
        "sl2": sl2, "dr": dr, "r": r_qt, "omega": omega_symp, "N": n_example,
    })
    doc = parse_document(rendered)
    assert doc.structures["sl2"].c == sl2.c
    assert doc.structures["dr"].d == dr.d
    assert doc.structures["r"].matrix == r_qt.matrix
    assert doc.structures["omega"].matrix == omega_symp.matrix
    assert doc.structures["N"].matrix == n_example.matrix


def test_render_preserves_antisymmetry_violations(sl2):
    c = [[list(col) for col in plane] for plane in sl2.c]
    c[0][1][2] = sc("-1")
    broken = LieAlgebra(sl2.space, c)
    rendered = render_document({"broken": broken})
    doc = parse_document(rendered)
    assert doc.structures["broken"].c == broken.c


def test_render_multiline_tensor_and_fractions(sl2):
    mat = zeros(3, 3)
    mat[0][1] = sc("(k9-k1)*(k5-k9)/(4*k3)")
    mat[1][0] = sc("-1/2")
    tensor = TwoTensor(sl2.space, mat)
    doc = parse_document(render_document({"t": tensor}))
    assert doc.structures["t"].matrix == mat


def test_zero_tensor_round_trips(sl2):
    zero = TwoTensor(sl2.space, Tensor((3, 3), {}))
    rendered = render_document({"r": zero})
    assert "tensor r on V1 {\n  0\n}" in rendered
    assert parse_document(rendered).structures["r"] == zero


@pytest.mark.parametrize("entry, col", [("²*e", 12), ("k^²*e", 14), ("2²*e", 13)])
def test_superscript_digits_are_a_parse_error(entry, col):
    # str.isdigit accepts them but int() does not, so an int token holds none
    text = f"params k\nspace L : e f g\nalgebra a on L {{\n  [e, f] = {entry}\n}}\n"
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert str(exc.value) == f"line 4, column {col}: unexpected character '²'"


RENDERED = Path(__file__).parent / "golden" / "render"


def test_every_shipped_file_parses_to_its_golden_rendering():
    # Each golden is render_document of a shipped file's parsed structures,
    # written by the parser that filled dense nested lists.
    shipped = {p.name: p for p in resources.files("lieb.data").iterdir() if p.name.endswith(".lieb")}
    assert {p.name for p in RENDERED.glob("*.lieb")} == set(shipped)
    for name, path in sorted(shipped.items()):
        doc = parse_document(path.read_text(encoding="utf-8"))
        assert render_document(doc.structures, params=doc.params) == \
            (RENDERED / name).read_text(encoding="utf-8"), name


GOLDEN = Path(__file__).parent / "golden"


def test_malformed_blocks_fail_as_the_golden_records():
    # Recorded from the per-block readers that preceded the block table: each
    # block's header and entry head with every token missing or replaced,
    # unknown labels, rank mismatches, a rep of a non-algebra and the tensor
    # block's line breaks, each with its exact error.
    cases = json.loads((GOLDEN / "parse_errors" / "parse_errors.json").read_text(encoding="utf-8"))
    got = []
    for case in cases:
        with pytest.raises(ParseError) as err:
            parse_document(case["document"])
        got.append(f"{type(err.value).__name__}: {err.value}")
    assert got == [case["error"] for case in cases]


def test_every_construct_result_reads_back_as_written():
    # dualize and phi-r write dual labels such as a*, which read as one label
    results = [p for p in sorted((GOLDEN / "construct").glob("*.lieb")) if p.stem != "parametric"]
    assert {p.stem for p in results} >= {"dual_g", "dual_n", "phi"}
    for path in results:
        text = path.read_text(encoding="utf-8")
        doc = parse_document(text)
        assert render_document(doc.structures, params=doc.params) == text, path.stem


_STARRED = "params k\nspace V : a b a* b*\noperator N : V -> V {\n  %s -> %s\n}\n"


@pytest.mark.parametrize("head, expr, column", [
    ("a", "a*", {2: "1"}),
    ("a*", "2*b*", {3: "2"}),
    ("b", "k*a* - b*", {2: "k", 3: "-1"}),
    ("a", "k*a", {0: "k"}),
    ("a", "a*k", {0: "k"}),  # an operand follows a*: the product of a and k
    ("a", "k * a", {0: "k"}),
    ("a", "k*(a + b)", {0: "k", 1: "k"}),
    ("a", "k*-a", {0: "-k"}),
    ("a", "a*2", {0: "2"}),
    ("a", "(a*)", {2: "1"}),
])
def test_a_starred_name_is_one_label_unless_an_operand_follows(head, expr, column):
    op = parse_document(_STARRED % (head, expr)).structures["N"]
    j = ("a", "b", "a*", "b*").index(head)
    assert op.tensor.entries == {(i, j): sc(v) for i, v in column.items()}


def test_a_starred_label_is_one_token_only_when_its_stars_touch_it():
    with pytest.raises(ParseError, match="unexpected '\\*' at end of statement"):
        parse_document("space V : a *\n")
    doc = parse_document("space V : a** b\ntensor r on V {\n  a**@b - b@a**\n}\n")
    assert doc.spaces["V"].labels == ("a**", "b")
    assert doc.structures["r"].tensor.entries == {(0, 1): sc("1"), (1, 0): sc("-1")}


# spaces with dual labels, and the direct sum of a space and its dual
_SPACES = [("e", "f", "g"), ("a*", "b*"), ("a", "b", "a*", "b*"), ("x",)]
_COEFFICIENTS = ["1", "-1", "2", "-1/2", "k", "-k", "1/k", "k + 1", "(k - 1)/(k + 2)", "k*k1"]


@st.composite
def _records(draw):
    """A record of a renderable type with sparse random entries."""
    kind = draw(st.sampled_from([LieAlgebra, LieCoalgebra, LinearOperator, BilinearForm,
                                 TwoTensor]))
    spaces = [BasisSpace(draw(st.sampled_from(_SPACES)))
              for _ in range(2 if kind is LinearOperator else 1)]
    rank = {LieAlgebra: 3, LieCoalgebra: 3}.get(kind, 2)
    shape = (spaces[-1].dim, spaces[0].dim) if kind is LinearOperator else (spaces[0].dim,) * rank
    entries = draw(st.dictionaries(st.tuples(*(st.integers(0, n - 1) for n in shape)),
                                   st.sampled_from(_COEFFICIENTS), max_size=6))
    return kind(*spaces, Tensor(shape, {idx: sc(v) for idx, v in entries.items()}))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_records(), min_size=1, max_size=3))
def test_render_parse_render_is_a_fixed_point(records):
    structures = {f"s{k}": record for k, record in enumerate(records)}
    text = render_document(structures)
    doc = parse_document(text)
    assert doc.structures == structures
    assert render_document(doc.structures, params=doc.params) == text
