"""The table engine's memo on its operands.

``Table`` keeps, on each operand Tensor, its all-constant flag, its scaled
copy on each lane and each join step's index (see ``Tensor``).  That is sound
only because no code in the package changes a Tensor's entries after building
it, so the first test reads every module of the package and fails on any
write through ``.entries`` and any rebinding of it outside
``Tensor.__init__``.  The others check that a memoized operand evaluates as a
fresh copy of it does: every module-level table of ``structures`` and
``construct`` on catalog tensors that already carry memos from other tables,
a solve repeated on one algebra, and throwaway tables that read one operand
with different letters.  The last ones check that the packs of the integer
lane's packed join live on the operand, not in the module, and that the
engine never imports numpy.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import defaultdict
from itertools import zip_longest
from pathlib import Path

import pytest

import lieb
from lieb import (BilinearForm, LieAlgebra, LieCoalgebra, LinearProblem, catalog, construct,
                  multilinear, structures)
from lieb.catalog import BindingError
from lieb.multilinear import Table, Tensor
from lieb.solver import solve_linear

from conftest import sc
from test_solver import _VI_K_ASSUMPTIONS, bianchi_vi_k


# -- no code in the package changes a Tensor's entries ------------------------------

_MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__",
             "__ior__"}


def _is_entries(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "entries"


def _targets(node):
    """The targets a statement assigns or deletes, tuples and starred ones unpacked."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        pending = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor,
                           ast.comprehension, ast.NamedExpr)):
        pending = [node.target]
    elif isinstance(node, ast.withitem) and node.optional_vars is not None:
        pending = [node.optional_vars]
    else:
        pending = []
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending += target.elts
        elif isinstance(target, ast.Starred):
            pending.append(target.value)
        else:
            yield target


def _entries_writes(source: str) -> list[str]:
    """'line N: what' for each write through ``.entries`` and each rebinding
    of it outside ``Tensor.__init__``."""
    tree = ast.parse(source)
    constructor = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Tensor":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    constructor |= {id(node) for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        for target in _targets(node):
            if isinstance(target, ast.Subscript) and _is_entries(target.value):
                found.append(f"line {node.lineno}: item of .entries written")
            elif _is_entries(target) and id(target) not in constructor:
                found.append(f"line {node.lineno}: .entries rebound")
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS and _is_entries(func.value):
                found.append(f"line {node.lineno}: .entries.{func.attr}()")
            named = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if named in ("setattr", "__setattr__", "delattr", "__delattr__") and any(
                    isinstance(arg, ast.Constant) and arg.value == "entries" for arg in node.args):
                found.append(f"line {node.lineno}: {named}(..., 'entries', ...)")
    return found


@pytest.mark.parametrize("path", sorted(Path(lieb.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_changes_the_entries_of_a_tensor(path):
    assert _entries_writes(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "t.entries[k] = v",
    "a.b.entries[k], x = v, 1",
    "del t.entries[k]",
    "t.entries[k] += v",
    "t.entries[k]: int = v",
    "for t.entries[k] in values: pass",
    "t.entries.update(other)",
    "t.entries.pop(k)",
    "t.entries.setdefault(k, v)",
    "t.entries.clear()",
    "t.entries.popitem()",
    "t.entries = {}",
    "del t.entries",
    "setattr(t, 'entries', {})",
    "object.__setattr__(t, 'entries', {})",
    "class Tensor:\n    def dense(self):\n        self.entries = {}",
])
def test_the_guard_sees_every_kind_of_write(source):
    assert len(_entries_writes(source)) == 1


@pytest.mark.parametrize("source", [
    "entries = dict(t.entries)\nentries[k] = v",
    "x = t.entries[k]",
    "x = t.entries.get(k)",
    "class Tensor:\n    def __init__(self, shape, entries):\n        self.entries = entries",
])
def test_the_guard_passes_reads_and_the_constructor(source):
    assert _entries_writes(source) == []


# -- a memoized operand evaluates as a fresh copy ------------------------------------

def _fresh(t: Tensor) -> Tensor:
    return Tensor(t.shape, dict(t.entries))


def _bound(entry_id: str):
    """The entry with its parameters bound to distinct constants; None if a
    binding voids one of its assumptions."""
    params = catalog.get(entry_id).document.params
    try:
        return catalog.get(entry_id, {p: sc(str(k + 2)) for k, p in enumerate(params)})
    except BindingError:
        return None


def _pool() -> dict[int, list[Tensor]]:
    """Distinct catalog tensors on three-dimensional spaces by rank, constant
    and parametric ones alternating, at most six of each rank; rank 3 adds
    images of the first algebra under operators, rank 4 holds composites of
    rank-3 tensors and rank 0 a constant and a parameter."""
    kinds: dict[tuple, list[Tensor]] = defaultdict(list)
    for entry_id, _ in catalog.list_entries():
        for entry in (catalog.get(entry_id), _bound(entry_id)):
            for obj in (entry.structures.values() if entry else ()):
                t = obj.tensor
                parametric = any(v.q is None for v in t.entries.values())
                if set(t.shape) == {3} and t.entries and t not in kinds[len(t.shape), parametric]:
                    kinds[len(t.shape), parametric].append(t)
    pool = {rank: [t for pair in zip_longest(kinds[rank, False], kinds[rank, True])
                   for t in pair if t is not None][:6] for rank in (2, 3)}
    pool[3] += [structures.IMAGE.evaluate(M=m, T=pool[3][0]) for m in pool[2][:3]]
    pool[4] = [structures.COMPOSITE.evaluate(d=pool[3][k], e=pool[3][k + 1]) for k in range(3)]
    pool[0] = [Tensor((), {(): sc("2/3")}), Tensor((), {(): sc("k")})]
    return pool


def _tables() -> dict[str, Table]:
    found = {}
    for module in (structures, construct):
        for name, table in vars(module).items():
            if isinstance(table, Table) and all(table is not t for t in found.values()):
                found[f"{module.__name__}.{name}"] = table
    return found


def _operands(table: Table, pool, turn: int) -> dict[str, Tensor]:
    """A tensor of the pool for each of the table's operands, chosen by turn."""
    names = list(dict.fromkeys(name for name, _ in table._factors))
    ranks = {name: len(spec) for name, spec in table._factors}
    return {name: pool[ranks[name]][(turn + k) % len(pool[ranks[name]])]
            for k, name in enumerate(names)}


def test_every_table_evaluates_memoized_operands_as_fresh_copies():
    pool, tables = _pool(), _tables()
    assert all(len(pool[rank]) >= 2 for rank in pool)
    turns = range(4)
    for turn in turns:  # memos from every table, before any comparison
        for table in tables.values():
            table.evaluate(**_operands(table, pool, turn))
    for turn in turns:
        for key, table in tables.items():
            operands = _operands(table, pool, turn)
            assert all(hasattr(t, "_memo") for t in operands.values()), key
            fresh = table.evaluate(**{name: _fresh(t) for name, t in operands.items()})
            assert table.evaluate(**operands) == fresh, (key, turn)


def _copy(algebra: LieAlgebra) -> LieAlgebra:
    return LieAlgebra(algebra.space, _fresh(algebra.tensor))


@pytest.mark.parametrize("algebra, assumptions", [
    (catalog.get("sl2").structures["sl2"], []),
    (bianchi_vi_k(), _VI_K_ASSUMPTIONS),
], ids=["sl2", "vi-k"])
@pytest.mark.parametrize("problem", [LinearProblem.weak_symplectic, LinearProblem.ad_invariance,
                                     LinearProblem.cocycle_in_delta], ids=lambda f: f.__name__)
def test_a_repeated_solve_equals_a_solve_on_a_fresh_copy(algebra, assumptions, problem):
    solutions = [solve_linear(problem(alg), assumptions) for alg in (algebra, algebra, _copy(algebra))]
    results = [(s.basis, s.rank, s.assumptions_used) for s in solutions]
    assert results[0] == results[1] == results[2]
    assert solutions[0].basis


def test_a_repeated_co_cybe_slice_solve_equals_one_on_fresh_copies():
    entry = catalog.get("caybe-sl2").structures
    coalgebra, form = entry["dr"], entry["omega"]
    copies = (LieCoalgebra(coalgebra.space, _fresh(coalgebra.tensor)),
              BilinearForm(form.space, _fresh(form.tensor)))
    solutions = [solve_linear(LinearProblem.co_cybe_slice(*pair))
                 for pair in ((coalgebra, form), (coalgebra, form), copies)]
    results = [(s.basis, s.rank, s.assumptions_used) for s in solutions]
    assert results[0] == results[1] == results[2]


# products of two 3x3 matrices: (output letters, terms, the dense reference)
_PRODUCTS = [
    ("ik", "a[ij] b[jk]", lambda a, b, i, k: sum(a[i][j] * b[j][k] for j in range(3))),
    ("pr", "a[pq] b[qr]", lambda a, b, i, k: sum(a[i][j] * b[j][k] for j in range(3))),
    ("ki", "a[ij] b[jk]", lambda a, b, i, k: sum(a[k][j] * b[j][i] for j in range(3))),
    ("ik", "a[ji] b[jk]", lambda a, b, i, k: sum(a[j][i] * b[j][k] for j in range(3))),
    ("ik", "a[ij] b[kj]", lambda a, b, i, k: sum(a[i][j] * b[k][j] for j in range(3))),
    ("ik", "b[jk] a[ij]", lambda a, b, i, k: sum(a[i][j] * b[j][k] for j in range(3))),
    ("ik", "a[ij] a[jk] - b[ij] b[jk]",
     lambda a, b, i, k: sum(a[i][j] * a[j][k] - b[i][j] * b[j][k] for j in range(3))),
]


@pytest.mark.parametrize("parametric", [False, True])
def test_throwaway_tables_with_other_letters_read_one_operand_correctly(parametric):
    a = Tensor.of([[sc("1"), sc("2/3"), sc("0")], [sc("0"), sc("-1"), sc("5")],
                   [sc("k" if parametric else "7"), sc("0"), sc("1/2")]])
    b = Tensor.of([[sc("0"), sc("1"), sc("-2")], [sc("3"), sc("0"), sc("1/5")],
                   [sc("1"), sc("1"), sc("0")]])
    dense_a, dense_b = a.dense(), b.dense()
    for _ in range(2):
        for out, terms, reference in _PRODUCTS:
            expected = {(i, k): v for i in range(3) for k in range(3)
                        if not (v := reference(dense_a, dense_b, i, k)).is_zero()}
            assert Table(out, terms).evaluate(a=a, b=b).entries == expected, (out, terms)


# -- the packs of the packed join live on the operand ---------------------------------

def test_multilinear_keeps_no_module_level_cache_and_its_packs_live_on_the_operand():
    def module_state():
        return {name: value for name, value in vars(multilinear).items()
                if not name.startswith("__")
                and (isinstance(value, (dict, list, set, bytearray)) or hasattr(value, "cache_info"))}

    assert module_state() == {}
    # a dense constant bracket of dimension 4: each Jacobi term reads c[lkm]
    # by l for 64 partial products, so every term packs
    c = Tensor.of([[[sc(str((i * 7 + j * 3 + k) % 5 - 2)) for k in range(4)] for j in range(4)]
                   for i in range(4)])
    before = structures.JACOBI.evaluate(c=c)
    assert module_state() == {}
    _, scaled = c._memo[True]
    packs = [packs for _, packs in scaled._memo.values() if packs]  # the last factors' only
    assert len(packs) == 3 and all(any(type(B) is int for B in p) for p in packs)
    assert structures.JACOBI.evaluate(c=c) == before == structures.JACOBI.evaluate(c=_fresh(c))


_NO_NUMPY = """
import sys
from itertools import product
from lieb import construct, structures
from lieb.multilinear import Table, Tensor
from lieb.scalars import Scalar

tables = [t for module in (structures, construct) for t in vars(module).values()
          if isinstance(t, Table)]
for dim in (2, 4):
    for table in tables:
        ranks = {name: len(spec) for name, spec in table._factors}
        table.evaluate(**{name: Tensor((dim,) * rank, {
            idx: Scalar.from_int(sum(idx) % 3 - 1 or 5) for idx in product(range(dim), repeat=rank)})
            for name, rank in ranks.items()})
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_evaluating_every_table_on_constants_does_not_import_numpy():
    # numpy would add about 14 MB and 65 ms to a process; a fresh interpreter,
    # since another test may have imported it into this one
    env = {**os.environ, "PYTHONPATH": str(Path(lieb.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _NO_NUMPY], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
