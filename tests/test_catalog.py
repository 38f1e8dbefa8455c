"""The shipped instance catalog: listing, loading, binding, regression."""

from __future__ import annotations

import pytest

from lieb import Verdict, catalog
from lieb.catalog import BindingError, UnknownId
from lieb.document import parse_document, run_check_statement
from lieb.scalars import Scalar

from conftest import sc


def test_listing_is_deterministic_and_complete():
    ids = [entry_id for entry_id, _ in catalog.list_entries()]
    assert "sl2" in ids
    assert sum(1 for i in ids if i.startswith("nij-family-")) == 7
    assert sum(1 for i in ids if i.startswith("nliebialg-")) == 4
    assert catalog.list_entries() == catalog.list_entries()


def test_get_unknown_id():
    with pytest.raises(UnknownId):
        catalog.get("no-such-entry")


def test_sl2_payload(sl2):
    entry = catalog.get("sl2")
    assert entry.structures["sl2"].c == sl2.c


def test_every_entry_passes_its_declared_checks():
    for entry_id, _ in catalog.list_entries():
        entry = catalog.get(entry_id)
        for stmt in entry.document.checks:
            report = run_check_statement(entry.document, stmt)
            assert report.passed, (entry_id, stmt.kind, report.residuals[:3])


def test_conditional_entries_echo_their_stated_assumptions():
    expectations = {
        "nij-family-2": {"k3"},
        "nij-family-3": {"k2", "k8"},
        "nij-family-5": {"k4", "k7"},
        "nij-family-7": {"k7"},
    }
    for entry_id, names in expectations.items():
        entry = catalog.get(entry_id)
        stmt = next(s for s in entry.document.checks if s.kind == "nijenhuis")
        report = run_check_statement(entry.document, stmt)
        assert report.verdict is Verdict.CONDITIONAL_PASS
        used = {str(a.nonzero) for a in report.assumptions_used}
        assert used == names
        declared = {str(a.nonzero) for a in stmt.assumptions}
        assert used <= declared


def test_family_four_binding_reproduces_the_example_operator(n_example):
    bindings = {
        "k1": Scalar.from_int(0),
        "k3": Scalar.from_int(0),
        "k6": Scalar.from_int(0),
        "k2": sc("-lambda*kappa"),
        "k5": sc("2*lambda*kappa"),
    }
    entry = catalog.get("nij-family-4", bindings)
    assert entry.structures["N"].matrix == n_example.matrix


def test_binding_undeclared_parameter_rejected():
    with pytest.raises(BindingError):
        catalog.get("sl2", {"zeta": Scalar.from_int(1)})


def test_binding_that_voids_an_assumption_rejected():
    # family 2 divides by 4*k3: its assumption must be checked before the substitution
    for entry_id, bindings, voided in [("nij-family-6", {"k5": sc("k1")}, "k1 - k5"),
                                       ("nij-family-2", {"k3": Scalar.from_int(0)}, "k3")]:
        with pytest.raises(BindingError, match=f"binding voids the assumption {voided} != 0"):
            catalog.get(entry_id, bindings)


def test_binding_that_zeroes_an_uncovered_denominator_rejected(monkeypatch):
    # every shipped denominator is covered by an assumption, so load a file whose is not
    text = "params k\nspace L : e\noperator N : L -> L {\n  e -> e/k\n}\n"
    monkeypatch.setattr(catalog, "_load_document", lambda filename: parse_document(text))
    with pytest.raises(BindingError, match="denominator k vanish"):
        catalog.get("sl2", {"k": Scalar.from_int(0)})


def test_known_issue_metadata():
    assert catalog.get("symp-sl2").metadata["solution_space_dimension"] == 3
    fam3 = catalog.get("nij-family-3").metadata
    assert fam3["blank_read_as_zero"] is True
    assert fam3["blank_check_outcome"] == "pass"
    assert "4*k3*k6" in catalog.get("nij-family-6").metadata["known_defect"]
    assert "-4*k2*k3" in catalog.get("nliebialg-c").metadata["known_defect"]


def test_entry_assumptions_collect_all_stated_conditions():
    fam7 = catalog.get("nij-family-7")
    stated = {str(a.nonzero) for a in fam7.assumptions}
    assert stated == {"k4", "k7", "k2*k4 - k3*k7"}
    fam6 = catalog.get("nij-family-6")
    assert {str(a.nonzero) for a in fam6.assumptions} == {"k1 - k5"}
