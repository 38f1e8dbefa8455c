"""Built-in parametric instances, loaded from the .lieb files shipped with the
package.  Entries are data, not constructors: the file format itself is
exercised every time the catalog loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Mapping

from .document import Document, parse_document, run_constructs
from .scalars import Assumption, DivisionByZero, Scalar
from .structures import map_scalars


class UnknownId(KeyError):
    """No catalog entry with the requested id."""


class BindingError(ValueError):
    """A binding referenced an undeclared parameter or voided an assumption."""


@dataclass
class CatalogEntry:
    id: str
    description: str
    source: str
    document: Document
    assumptions: list[Assumption]
    metadata: dict

    @property
    def structures(self) -> dict[str, object]:
        return self.document.structures


# id -> (description, source label, metadata), the entry's file being
# <id>.lieb; order is the deterministic listing order.
_REGISTRY: dict[str, tuple[str, str, dict]] = {
    "sl2": ("the 3-dimensional simple Lie algebra in the Cartan-Weyl basis",
            "sl2 bracket table", {}),
    "qt-sl2": ("antisymmetric Yang-Baxter solution lambda*(f@g - g@f) with its induced cobracket",
               "quasitriangular structure on sl2", {}),
    "caybe-sl2": ("generic skew form solving the co-Yang-Baxter equation on the induced cobracket",
                  "co-Yang-Baxter solutions on sl2", {}),
    "symp-sl2": ("kappa-family of weak symplectic forms on sl2", "weak symplectic structures on sl2",
                 {"solution_space_dimension": 3,
                  "completeness": "the shipped family spans 1 of the 3 solution dimensions"}),
    "nsl2": ("torsion-free operator omega(x, r^1) r^2 with its quasitriangular data",
             "operator induced by the symplectic form and the Yang-Baxter tensor", {}),
    "nij-family-1": ("torsion-free operator family 1 on sl2",
                     "operator classification, family 1", {}),
    "nij-family-2": ("torsion-free operator family 2 on sl2 (k3 != 0)",
                     "operator classification, family 2", {}),
    "nij-family-3": ("torsion-free operator family 3 on sl2 (k2, k8 != 0)",
                     "operator classification, family 3",
                     {"blank_read_as_zero": True, "blank_check_outcome": "pass"}),
    "nij-family-4": ("torsion-free operator family 4 on sl2",
                     "operator classification, family 4", {}),
    "nij-family-5": ("torsion-free operator family 5 on sl2 (k4, k7 != 0)",
                     "operator classification, family 5", {}),
    "nij-family-6": ("operator family 6 on sl2 (k5 != k1), stored verbatim",
                     "operator classification, family 6",
                     {"known_defect": "torsion residual 4*k3*k6 at (e, f); needs k3*k6 = 0"}),
    "nij-family-7": ("torsion-free operator family 7 on sl2 (k4, k7 != 0, k2*k4 != k3*k7)",
                     "operator classification, family 7", {}),
    "nij-diag-1": ("diagonal torsion-free operator diag(k1, k5, k5), k5 != k1",
                   "diagonalisable operator classification", {}),
    "nij-diag-2": ("diagonal torsion-free operator diag(k1, k5, k1)",
                   "diagonalisable operator classification", {}),
    "nliebialg-a": ("operator bialgebra pair (a): nilpotent shear with scalar P",
                    "operator pairs on the quasitriangular sl2 bialgebra", {}),
    "nliebialg-b": ("operator bialgebra pair (b): independent shear weights",
                    "operator pairs on the quasitriangular sl2 bialgebra", {}),
    "nliebialg-c": ("operator bialgebra pair (c), stored verbatim",
                    "operator pairs on the quasitriangular sl2 bialgebra",
                    {"known_defect":
                     "operator-compatibility residual -4*k2*k3 at (e, e); needs k2*k3 = 0"}),
    "nliebialg-d": ("operator bialgebra pair (d): P flips both shears",
                    "operator pairs on the quasitriangular sl2 bialgebra",
                    {"stated_conditions": "k2 != 0, k3 != 0"}),
}


def _load_document(filename: str) -> Document:
    text = resources.files("lieb.data").joinpath(filename).read_text(encoding="utf-8")
    doc = parse_document(text)
    run_constructs(doc)
    return doc


def list_entries() -> list[tuple[str, str]]:
    """Deterministic (id, description) pairs for every entry."""
    return [(entry_id, info[0]) for entry_id, info in _REGISTRY.items()]


def get(entry_id: str, bindings: Mapping[str, Scalar] | None = None) -> CatalogEntry:
    """Load an entry; with bindings, substitute scalars for declared parameters.
    BindingError if a binding names an undeclared parameter, voids one of the
    entry's assumptions or makes a denominator vanish."""
    if entry_id not in _REGISTRY:
        raise UnknownId(entry_id)
    description, source, metadata = _REGISTRY[entry_id]
    doc = _load_document(f"{entry_id}.lieb")
    assumptions = list(doc.assumptions)
    for stmt in doc.checks:
        for a in stmt.assumptions:
            if a not in assumptions:
                assumptions.append(a)
    if bindings:
        undeclared = set(bindings) - set(doc.params)
        if undeclared:
            raise BindingError(f"bindings for undeclared parameters: {sorted(undeclared)}")
        rebound = []
        for a in assumptions:
            value = Scalar(a.nonzero).substitute(bindings)
            if value.is_zero():
                raise BindingError(f"binding voids the assumption {a}")
            if not value.num.is_constant():
                rebound.append(Assumption(value.num))
        assumptions = rebound
        try:
            doc.structures.update({
                name: map_scalars(obj, lambda s: s.substitute(bindings))
                for name, obj in doc.structures.items()
            })
        except DivisionByZero as exc:  # a denominator that no assumption covers
            raise BindingError(f"binding: {exc}") from exc
    return CatalogEntry(entry_id, description, source, doc, assumptions, dict(metadata))
