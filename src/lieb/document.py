"""The .lieb structure file format: parser, statement registry, renderer.

A document declares parameters, basis spaces, structures (algebra, coalgebra,
operator, form, tensor, rep blocks of coefficient expressions), and named
checks / constructions to run.  Conventions are fixed once here and printed in
the header of every exported file:

* bracket blocks list ``[a, b] = <vector expr>``; an unlisted mirror pair
  defaults to the negation of its listed partner (explicit entries always win,
  so deliberate antisymmetry violations are expressible);
* coalgebra blocks list ``delta(a) = <2-tensor expr>`` built with ``@``;
* operator blocks list ``a -> <vector expr>`` (unlisted labels map to 0);
* form blocks list ``(a, b) = <scalar expr>``; inside ``form ... skew`` the
  mirror of a listed pair defaults to its negation;
* rep blocks list ``x : v -> <vector expr>`` for the action of x on v;
* a tensor block holds one 2-tensor expression, in which a line break is
  whitespace;
* wherever a vector or 2-tensor is expected, a zero scalar stands for zero.

An expression's value is a Scalar or, for a vector or a 2-tensor, a sparse
Tensor of its nonzero entries; arithmetic touches only those, and each block
builds its record's Tensor from them directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, get_args, get_type_hints

from .multilinear import (
    TRANSPOSE, BasisSpace, BilinearForm, LinearOperator, ShapeError, Tensor, TwoTensor,
)
from .scalars import ONE, Assumption, DivisionByZero, Scalar
from .structures import (
    Corepresentation,
    LieAlgebra,
    LieCoalgebra,
    Representation,
    check_admissible,
    check_cocycle,
    check_co_cybe,
    check_corepresentation,
    check_cybe,
    check_cpnybe,
    check_dual_qt,
    check_frobenius,
    check_lie_algebra,
    check_lie_coalgebra,
    check_nij_lie_bialgebra,
    check_nij_representation,
    check_nijenhuis,
    check_nijenhuis_coalgebra,
    check_pq_equivalents,
    check_representation,
    check_rrbo,
    check_weak_cosymplectic,
    check_weak_symplectic,
)
from . import construct as _construct


class ParseError(ValueError):
    """Syntax or resolution failure, with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class UnknownNameError(ParseError):
    pass


class DuplicateNameError(ParseError):
    pass


@dataclass
class CheckStatement:
    kind: str
    args: list[str]
    assumptions: list[Assumption]
    line: int


@dataclass
class ConstructStatement:
    op: str
    args: list[str]
    result: str
    line: int


@dataclass
class Document:
    params: list[str] = field(default_factory=list)
    spaces: dict[str, BasisSpace] = field(default_factory=dict)
    structures: dict[str, object] = field(default_factory=dict)
    checks: list[CheckStatement] = field(default_factory=list)
    constructs: list[ConstructStatement] = field(default_factory=list)
    assumptions: list[Assumption] = field(default_factory=list)

    def structure(self, name: str, line: int = 0, col: int = 0):
        if name not in self.structures:
            raise UnknownNameError(f"undefined structure {name!r}", line, col)
        return self.structures[name]


# Check kinds available in documents: kind -> (argument count, check), called
# as check(*structures, assumptions=...).
CHECK_KINDS = {
    "lie-algebra": (1, check_lie_algebra),
    "lie-coalgebra": (1, check_lie_coalgebra),
    "cocycle": (2, check_cocycle),
    "nijenhuis": (2, check_nijenhuis),
    "nij-coalgebra": (2, check_nijenhuis_coalgebra),
    "cybe": (2, check_cybe),
    "co-cybe": (2, check_co_cybe),
    "dual-qt": (2, check_dual_qt),
    "weak-symplectic": (2, check_weak_symplectic),
    "weak-cosymplectic": (2, check_weak_cosymplectic),
    "representation": (1, check_representation),
    "nij-representation": (3, check_nij_representation),
    "admissible": (3, check_admissible),
    "corepresentation": (1, check_corepresentation),
    "frobenius": (2, check_frobenius),
    "frobenius-nij": (3, check_frobenius),
    "nij-lie-bialgebra": (4, check_nij_lie_bialgebra),
    "cpnybe": (4, check_cpnybe),
    "pq-equivalents": (4, check_pq_equivalents),
    "rrbo": (5, check_rrbo),
}

# Construction ops usable in documents (single-result builders only).
CONSTRUCT_OPS = {
    "delta-from-r": (2, _construct.delta_from_r),
    "bracket-from-omega": (2, _construct.bracket_from_omega),
    "nijenhuis-from-omega-r": (3, _construct.nijenhuis_from_omega_r),
    "p-from-r-omega": (3, _construct.p_from_r_omega),
    "dualize": (1, _construct.dualize),
    "phi-r": (1, _construct.phi_r),
}


def _argument_types(table: dict) -> dict[str, tuple[tuple[type, ...], ...]]:
    """kind -> for each structure argument, the types its callee annotates."""
    return {kind: tuple(get_args(t) or (t,) for t in list(get_type_hints(fn).values())[:argc])
            for kind, (argc, fn) in table.items()}


_CHECK_ARGUMENTS = _argument_types(CHECK_KINDS)
_CONSTRUCT_ARGUMENTS = _argument_types(CONSTRUCT_OPS)


# -- tokenizer ----------------------------------------------------------------

class _Token(NamedTuple):
    kind: str          # "name" | "int" | punctuation | "nl" | "end"
    text: str
    line: int
    col: int

    def describe(self) -> str:
        return {"nl": "end of line", "end": "end of input"}.get(self.kind, repr(self.text))


# punctuation, an int (only what int() reads), a word, or any other character
_TOKEN = re.compile(r"(->|[][(){},:=@+*/^-])|(\d+)|(\w+)|(\S)")
_KIND = (None, None, "int", "name", None)  # by match group; None: the text is the kind


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for m in _TOKEN.finditer(line):
            word, group = m.group(), m.lastindex
            if group == 4 or group == 3 and not (word[0].isalpha() or word[0] == "_"):
                raise ParseError(f"unexpected character {word[0]!r}", lineno, m.start() + 1)
            tokens.append(_Token(_KIND[group] or word, word, lineno, m.start() + 1))
        if tokens and tokens[-1].line == lineno:
            tokens.append(_Token("nl", "", lineno, len(line) + 1))
    tokens.append(_Token("end", "", lineno + 1, 1))
    return tokens


# -- expression values ---------------------------------------------------------

def _rank(value) -> int:
    return len(value.shape) if isinstance(value, Tensor) else 0


def _combine(op: str, a, b, tok: _Token):
    if op in ("+", "-"):
        if _rank(a) != _rank(b):
            raise ParseError(f"cannot {'add' if op == '+' else 'subtract'} rank {_rank(a)} "
                             f"and rank {_rank(b)} expressions", tok.line, tok.col)
        if not _rank(a):
            return a + b if op == "+" else a - b
        if a.shape != b.shape:
            raise ParseError(f"{('vectors', 'tensors')[_rank(a) - 1]} from different spaces",
                             tok.line, tok.col)
        entries = dict(a.entries)
        for idx, v in (b if op == "+" else _negate(b)).entries.items():
            prev = entries.get(idx)
            if prev is None:
                entries[idx] = v
            elif (total := prev + v).is_zero():
                del entries[idx]
            else:
                entries[idx] = total
        return Tensor(a.shape, entries)
    if op == "*":
        if _rank(a) and _rank(b):
            raise ParseError("use @ for tensor products, * only scales", tok.line, tok.col)
        return _scale(a, b) if not _rank(a) else _scale(b, a)
    if op == "/":
        if _rank(b):
            raise ParseError("can only divide by a scalar", tok.line, tok.col)
        if b.is_zero():
            raise ParseError("division by zero", tok.line, tok.col)
        return _scale(ONE / b, a)
    if op == "@":
        if _rank(a) == 1 and _rank(b) == 1:
            return Tensor(a.shape + b.shape, {i + j: x * y for i, x in a.entries.items()
                                              for j, y in b.entries.items()})
        raise ParseError("@ takes two vectors", tok.line, tok.col)
    raise AssertionError(op)


def _negate(value):
    if not _rank(value):
        return -value
    return Tensor(value.shape, {idx: -v for idx, v in value.entries.items()})


def _scale(s: Scalar, value):
    """value times the scalar s."""
    if not _rank(value):
        return s * value
    if s.is_zero():
        return Tensor(value.shape, {})
    return Tensor(value.shape, {idx: s * v for idx, v in value.entries.items()})


# -- parser --------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.doc = Document()

    # token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.describe()}", tok.line, tok.col)
        return tok

    def expect_name(self, expected: str | None = None) -> _Token:
        tok = self.expect("name")
        if expected is not None and tok.text != expected:
            raise ParseError(f"expected {expected!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def dashed_name(self) -> _Token:
        """A multi-word identifier joined by dashes, e.g. ``lie-algebra``."""
        first = self.expect("name")
        parts = [first.text]
        while self.peek().kind == "-" and self.tokens[self.pos + 1].kind == "name":
            self.advance()
            parts.append(self.advance().text)
        return _Token("name", "-".join(parts), first.line, first.col)

    def skip_newlines(self):
        while self.peek().kind == "nl":
            self.advance()

    def end_statement(self):
        tok = self.advance()
        if tok.kind not in ("nl", "end"):
            raise ParseError(f"unexpected {tok.text!r} at end of statement", tok.line, tok.col)

    # document grammar

    def parse(self) -> Document:
        while True:
            self.skip_newlines()
            tok = self.peek()
            if tok.kind == "end":
                return self.doc
            if tok.kind != "name":
                raise ParseError(f"expected a statement, found {tok.text!r}", tok.line, tok.col)
            handler = getattr(self, f"_stmt_{tok.text.replace('-', '_')}", None)
            if handler is None:
                raise ParseError(f"unknown statement {tok.text!r}", tok.line, tok.col)
            self.advance()
            handler()

    def _fresh(self, name_tok: _Token) -> str:
        """The token's name, which no space or structure may already have."""
        name = name_tok.text
        if name in self.doc.structures or name in self.doc.spaces:
            raise DuplicateNameError(f"name {name!r} is already defined",
                                     name_tok.line, name_tok.col)
        return name

    def _stmt_params(self):
        while self.peek().kind == "name":
            name = self.advance().text
            if name not in self.doc.params:
                self.doc.params.append(name)
        self.end_statement()

    def _stmt_space(self):
        name = self._fresh(self.expect("name"))
        self.expect(":")
        labels = []
        while self.peek().kind == "name":
            labels.append(self.advance().text)
        if not labels:
            tok = self.peek()
            raise ParseError("a space needs at least one basis label", tok.line, tok.col)
        self.end_statement()
        self.doc.spaces[name] = BasisSpace(tuple(labels))

    def _space_ref(self) -> BasisSpace:
        tok = self.expect("name")
        if tok.text not in self.doc.spaces:
            raise UnknownNameError(f"undefined space {tok.text!r}", tok.line, tok.col)
        return self.doc.spaces[tok.text]

    def _stmt_algebra(self):
        name_tok = self.expect("name")
        self.expect_name("on")
        sp = self._space_ref()
        listed: dict[tuple[int, int], Tensor] = {}  # [e_i, e_j] by (i, j)

        def entry():
            self.expect("[")
            i = self._label_index(sp)
            self.expect(",")
            j = self._label_index(sp)
            self.expect("]")
            self.expect("=")
            listed[i, j] = self._rank_expr(sp, 1)
        self._block(entry)
        for (i, j), vector in list(listed.items()):
            if (j, i) not in listed:
                listed[j, i] = _negate(vector)
        c = {(i, j, k): v for (i, j), vector in listed.items()
             for (k,), v in vector.entries.items()}
        self.doc.structures[self._fresh(name_tok)] = LieAlgebra(sp, Tensor((sp.dim,) * 3, c))

    def _stmt_coalgebra(self):
        name_tok = self.expect("name")
        self.expect_name("on")
        sp = self._space_ref()
        rows: dict[int, Tensor] = {}  # delta(e_i) by i

        def entry():
            self.expect_name("delta")
            self.expect("(")
            i = self._label_index(sp)
            self.expect(")")
            self.expect("=")
            rows[i] = self._rank_expr(sp, 2)
        self._block(entry)
        d = {(i, j, k): v for i, row in rows.items() for (j, k), v in row.entries.items()}
        self.doc.structures[self._fresh(name_tok)] = LieCoalgebra(sp, Tensor((sp.dim,) * 3, d))

    def _stmt_operator(self):
        name_tok = self.expect("name")
        self.expect(":")
        dom = self._space_ref()
        self.expect("->")
        cod = self._space_ref()
        columns: dict[int, Tensor] = {}  # the image of e_j by j

        def entry():
            j = self._label_index(dom)
            self.expect("->")
            columns[j] = self._rank_expr(cod, 1)
        self._block(entry)
        m = {(i, j): v for j, column in columns.items() for (i,), v in column.entries.items()}
        self.doc.structures[self._fresh(name_tok)] = LinearOperator(
            dom, cod, Tensor((cod.dim, dom.dim), m))

    def _stmt_form(self):
        name_tok = self.expect("name")
        self.expect_name("on")
        sp = self._space_ref()
        skew = False
        if self.peek().kind == "name" and self.peek().text == "skew":
            self.advance()
            skew = True
        listed: dict[tuple[int, int], Scalar] = {}

        def entry():
            self.expect("(")
            i = self._label_index(sp)
            self.expect(",")
            j = self._label_index(sp)
            self.expect(")")
            self.expect("=")
            listed[i, j] = self._rank_expr(sp, 0)
        self._block(entry)
        if skew:
            for (i, j), v in list(listed.items()):
                listed.setdefault((j, i), -v)
        self.doc.structures[self._fresh(name_tok)] = BilinearForm(sp, Tensor((sp.dim,) * 2, listed))

    def _stmt_tensor(self):
        name_tok = self.expect("name")
        self.expect_name("on")
        sp = self._space_ref()
        self._open_block()
        # a line break in the block is whitespace, as in one expression; the
        # one before the closing brace ends it
        end = self.pos
        while self.tokens[end].kind not in ("}", "end"):
            end += 1
        self.tokens[self.pos:end - 1] = [t for t in self.tokens[self.pos:end - 1] if t.kind != "nl"]
        value = self._rank_expr(sp, 2, wrong="a tensor block must contain one 2-tensor expression")
        self.skip_newlines()
        self._close_block()
        self.doc.structures[self._fresh(name_tok)] = TwoTensor(sp, value)

    def _stmt_rep(self):
        name_tok = self.expect("name")
        self.expect_name("of")
        alg_tok = self.expect("name")
        algebra = self.doc.structure(alg_tok.text, alg_tok.line, alg_tok.col)
        if not isinstance(algebra, LieAlgebra):
            raise ParseError(f"{alg_tok.text!r} is not an algebra", alg_tok.line, alg_tok.col)
        self.expect_name("on")
        sp = self._space_ref()
        images: dict[tuple[int, int], Tensor] = {}  # x_i . v_j by (i, j)

        def entry():
            i = self._label_index(algebra.space)
            self.expect(":")
            j = self._label_index(sp)
            self.expect("->")
            images[i, j] = self._rank_expr(sp, 1)
        self._block(entry)
        action = {(i, k, j): v for (i, j), image in images.items()
                  for (k,), v in image.entries.items()}
        self.doc.structures[self._fresh(name_tok)] = Representation(
            algebra, sp, Tensor((algebra.space.dim, sp.dim, sp.dim), action))

    def _stmt_assume(self):
        self.doc.assumptions.extend(self._assumption_list())
        self.end_statement()

    def _stmt_check(self):
        kind_tok = self.dashed_name()
        kind = kind_tok.text
        if kind not in CHECK_KINDS:
            raise ParseError(f"unknown check kind {kind!r}", kind_tok.line, kind_tok.col)
        argc = CHECK_KINDS[kind][0]
        pending = {c.result for c in self.doc.constructs}
        args = []
        for _ in range(argc):
            tok = self.expect("name")
            if tok.text not in pending:
                self.doc.structure(tok.text, tok.line, tok.col)
            args.append(tok.text)
        assumptions: list[Assumption] = []
        if self.peek().kind == "name" and self.peek().text == "assume":
            self.advance()
            assumptions = self._assumption_list()
        self.end_statement()
        self.doc.checks.append(CheckStatement(kind, args, assumptions, kind_tok.line))

    def _stmt_construct(self):
        op_tok = self.dashed_name()
        if op_tok.text not in CONSTRUCT_OPS:
            raise ParseError(f"unknown construction {op_tok.text!r}", op_tok.line, op_tok.col)
        argc = CONSTRUCT_OPS[op_tok.text][0]
        args = []
        for _ in range(argc):
            tok = self.expect("name")
            self.doc.structure(tok.text, tok.line, tok.col)
            args.append(tok.text)
        self.expect_name("as")
        result = self._fresh(self.expect("name"))
        self.end_statement()
        self.doc.constructs.append(ConstructStatement(op_tok.text, args, result, op_tok.line))

    # block and expression helpers

    def _open_block(self):
        self.expect("{")
        self.skip_newlines()

    def _close_block(self):
        self.expect("}")
        self.end_statement()

    def _block(self, entry):
        """``{``, then entries read by ``entry`` up to ``}``, each ended by a
        line break and followed by any further ones."""
        self._open_block()
        while self.peek().kind != "}":
            entry()
            self.end_statement()
            self.skip_newlines()
        self._close_block()

    def _label_index(self, sp: BasisSpace) -> int:
        tok = self.expect("name")
        if tok.text not in sp.labels:
            raise UnknownNameError(f"{tok.text!r} is not a basis label of this space",
                                   tok.line, tok.col)
        return sp.index(tok.text)

    def _assumption_list(self) -> list[Assumption]:
        out = []
        while True:
            value = self._rank_expr(None, 0)
            tok = self.peek()
            if value.is_zero():
                raise ParseError("assumption must be nonzero", tok.line, tok.col)
            if not value.den.is_constant():
                raise ParseError("assumption must be polynomial (clear denominators)",
                                 tok.line, tok.col)
            out.append(Assumption(value.num))
            if tok.kind != ",":
                return out
            self.advance()

    def _rank_expr(self, sp: BasisSpace | None, rank: int, wrong: str | None = None):
        """An expression of the given rank (0 scalar, 1 vector, 2 2-tensor); a
        zero scalar stands for the zero vector or 2-tensor on sp.  ``wrong``
        is the message for an expression of another rank."""
        value = self._expr(sp)
        if rank and not _rank(value) and value.is_zero():
            return Tensor((sp.dim,) * rank, {})
        if _rank(value) != rank:
            tok = self.peek()
            raise ParseError(wrong or f"expected a {('scalar', 'vector', '2-tensor')[rank]} "
                             "expression", tok.line, tok.col)
        return value

    def _expr(self, sp: BasisSpace | None):
        """A sum."""
        value = self._expr_product(sp)
        while True:
            tok = self.peek()
            if tok.kind in ("+", "-"):
                self.advance()
                rhs = self._expr_product(sp)
                value = _combine(tok.kind, value, rhs, tok)
            else:
                return value

    def _expr_product(self, sp):
        value = self._expr_unary(sp)
        while True:
            tok = self.peek()
            if tok.kind in ("*", "/", "@"):
                self.advance()
                rhs = self._expr_unary(sp)
                value = _combine(tok.kind, value, rhs, tok)
            else:
                return value

    def _expr_unary(self, sp):
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return _negate(self._expr_unary(sp))
        if tok.kind == "+":
            self.advance()
            return self._expr_unary(sp)
        return self._expr_power(sp)

    def _expr_power(self, sp):
        base = self._expr_atom(sp)
        while self.peek().kind == "^":
            tok = self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            exp = sign * int(self.expect("int").text)
            if _rank(base):
                raise ParseError("only scalars can be raised to powers", tok.line, tok.col)
            if exp < 0 and base.is_zero():
                raise ParseError("division by zero", tok.line, tok.col)
            base = base ** exp
        return base

    def _expr_atom(self, sp):
        tok = self.advance()
        if tok.kind == "int":
            return Scalar.from_int(int(tok.text))
        if tok.kind == "(":
            value = self._expr(sp)
            self.expect(")")
            return value
        if tok.kind == "name":
            if sp is not None and tok.text in sp.labels:
                return Tensor((sp.dim,), {(sp.index(tok.text),): ONE})
            if tok.text in self.doc.params:
                return Scalar.parameter(tok.text)
            raise UnknownNameError(
                f"{tok.text!r} is neither a basis label here nor a declared parameter",
                tok.line, tok.col)
        raise ParseError(f"unexpected {tok.describe()} in expression", tok.line, tok.col)


def parse_document(text: str) -> Document:
    """Parse a .lieb document; raises ParseError with line/column on failure."""
    return _Parser(_tokenize(text)).parse()


def _expression_parser(text: str, params: Iterable[str] | None) -> _Parser:
    """A parser over one expression, in which a line break is whitespace."""
    tokens = _tokenize(text)
    parser = _Parser([t for t in tokens[:-2] if t.kind != "nl"] + tokens[-2:])
    names = [t.text for t in tokens if t.kind == "name"]
    parser.doc.params = names if params is None else list(params)
    return parser


def parse_scalar(text: str, allowed: Iterable[str] | None = None) -> Scalar:
    """Parse a coefficient expression; every name is a parameter unless ``allowed`` lists them."""
    parser = _expression_parser(text, allowed)
    value = parser._rank_expr(None, 0)
    parser.end_statement()
    return value


def parse_assumptions(text: str, params: Iterable[str]) -> list[Assumption]:
    """Parse an ``assume`` list (``k3, k1 - k2``) over a document's ``params``."""
    parser = _expression_parser(text, params)
    out = parser._assumption_list()
    parser.end_statement()
    return out


# Errors that well-typed arguments of the wrong shape or value raise inside a
# construction or a check; a document that provokes one is ill-formed.
_ILL_FORMED = (ShapeError, DivisionByZero, _construct.DegenerateForm)


def _arguments(doc: Document, stmt, what: str, types: tuple[tuple[type, ...], ...]) -> list:
    """The statement's structures, each of a type its callee accepts."""
    args = []
    for name, accepted in zip(stmt.args, types):
        obj = doc.structure(name, stmt.line, 1)
        if not isinstance(obj, accepted):
            wanted = " or ".join(t.__name__ for t in accepted if t is not type(None))
            raise ParseError(f"{what}: {name!r} is a {type(obj).__name__}, not a {wanted}",
                             stmt.line, 1)
        args.append(obj)
    return args


def run_constructs(doc: Document) -> None:
    """Execute the document's construct statements, registering the results."""
    for stmt in doc.constructs:
        if stmt.result in doc.structures:
            continue
        args = _arguments(doc, stmt, f"construct {stmt.op}", _CONSTRUCT_ARGUMENTS[stmt.op])
        try:
            doc.structures[stmt.result] = CONSTRUCT_OPS[stmt.op][1](*args)
        except _ILL_FORMED as exc:
            raise ParseError(f"construct {stmt.op}: {exc}", stmt.line, 1) from exc


# the check of each structure type's intrinsic axioms
_DEFAULT_CHECKS = {LieAlgebra: "lie-algebra", LieCoalgebra: "lie-coalgebra",
                   Representation: "representation", Corepresentation: "corepresentation"}


def default_checks(doc: Document) -> list[CheckStatement]:
    """Validity checks for every declared structure with intrinsic axioms."""
    return [CheckStatement(_DEFAULT_CHECKS[type(obj)], [name], [], 0)
            for name, obj in doc.structures.items() if type(obj) in _DEFAULT_CHECKS]


def run_check_statement(doc: Document, stmt: CheckStatement,
                        extra_assumptions: tuple[Assumption, ...] = ()):
    args = _arguments(doc, stmt, f"check {stmt.kind}", _CHECK_ARGUMENTS[stmt.kind])
    assumptions = list(doc.assumptions) + list(stmt.assumptions) + list(extra_assumptions)
    try:
        return CHECK_KINDS[stmt.kind][1](*args, assumptions=assumptions)
    except _ILL_FORMED as exc:
        raise ParseError(f"check {stmt.kind}: {exc}", stmt.line, 1) from exc


# -- rendering -----------------------------------------------------------------

_HEADER = """\
# lieb structure file
# conventions: operator columns are images of basis vectors; form entry
# (a, b) is the value on (a, b); a 2-tensor entry a@b is the coefficient of
# a (x) b; bracket tables list [a, b] with unlisted mirrors defaulting to
# the negation; cobrackets list delta(a) as a 2-tensor expression.
"""


def _space_name(doc_spaces: dict[str, BasisSpace], sp: BasisSpace,
                counter: list[int]) -> str:
    for name, known in doc_spaces.items():
        if known.labels == sp.labels:
            return name
    counter[0] += 1
    name = f"V{counter[0]}"
    doc_spaces[name] = sp
    return name


def _term(coeff: Scalar, *labels: str) -> str:
    body = "@".join(labels)
    text = str(coeff)
    if text == "1":
        return body
    if text == "-1":
        return f"-{body}"
    if coeff.den.is_constant() and len(coeff.num.terms) <= 1:
        return f"{text}*{body}"
    return f"({text})*{body}"


def _sum_terms(terms: list[str]) -> str:
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _grouped(tensor, lead: int) -> dict[tuple, list]:
    """A tensor's entries in order, grouped by the first ``lead`` places of
    their index: those places -> [(the rest of the index, value)]."""
    groups: dict[tuple, list] = {}
    for idx, v in tensor.entries.items():
        groups.setdefault(idx[:lead], []).append((idx[lead:], v))
    return groups


def render_document(structures: dict[str, object],
                    params: list[str] | None = None) -> str:
    """Canonical text for a set of named structures (with header conventions)."""
    from .structures import structure_parameters

    lines = [_HEADER]
    names: set[str] = set(structure_parameters(*structures.values()))
    for p in params or []:
        names.add(p)
    if names:
        lines.append("params " + " ".join(sorted(names)))
    spaces: dict[str, BasisSpace] = {}
    counter = [0]
    body: list[str] = []
    for name, obj in structures.items():
        if isinstance(obj, LieAlgebra):
            sp = _space_name(spaces, obj.space, counter)
            labels = obj.space.labels
            pairs = _grouped(obj.tensor, 2)
            entries = []
            for i, j in sorted({(min(pair), max(pair)) for pair in pairs}):
                # a pair is listed both ways, zero included, unless its mirror is its negation
                mirrored = pairs.get((j, i), []) == [(k, -v) for k, v in pairs.get((i, j), [])]
                for a, b in [(i, j)] if i == j or mirrored else [(i, j), (j, i)]:
                    terms = [_term(v, labels[k]) for (k,), v in pairs.get((a, b), [])]
                    entries.append(f"  [{labels[a]}, {labels[b]}] = " + _sum_terms(terms))
            body.append(f"algebra {name} on {sp} {{\n" + "\n".join(entries) + "\n}")
        elif isinstance(obj, LieCoalgebra):
            sp = _space_name(spaces, obj.space, counter)
            labels = obj.space.labels
            entries = [f"  delta({labels[i]}) = " + _sum_terms([_term(v, labels[a], labels[b])
                                                                for (a, b), v in row])
                       for (i,), row in _grouped(obj.tensor, 1).items()]
            body.append(f"coalgebra {name} on {sp} {{\n" + "\n".join(entries) + "\n}")
        elif isinstance(obj, LinearOperator):
            dom = _space_name(spaces, obj.domain, counter)
            cod = _space_name(spaces, obj.codomain, counter)
            entries = [f"  {obj.domain.labels[j]} -> "
                       + _sum_terms([_term(v, obj.codomain.labels[i]) for (i,), v in column])
                       for (j,), column in _grouped(TRANSPOSE.evaluate(M=obj.tensor), 1).items()]
            body.append(f"operator {name} : {dom} -> {cod} {{\n" + "\n".join(entries) + "\n}")
        elif isinstance(obj, BilinearForm):
            sp = _space_name(spaces, obj.space, counter)
            labels = obj.space.labels
            entries = [f"  ({labels[i]}, {labels[j]}) = {v}" for (i, j), v in obj.tensor.entries.items()]
            body.append(f"form {name} on {sp} {{\n" + "\n".join(entries) + "\n}")
        elif isinstance(obj, TwoTensor):
            sp = _space_name(spaces, obj.space, counter)
            labels = obj.space.labels
            terms = [_term(v, labels[i], labels[j]) for (i, j), v in obj.tensor.entries.items()]
            body.append(f"tensor {name} on {sp} {{\n  " + _sum_terms(terms) + "\n}")
        elif isinstance(obj, (Representation, Corepresentation)):
            raise TypeError("rendering a (co)representation requires naming its (co)algebra; "
                            "export the (co)algebra alongside and write the block by hand")
        else:
            raise TypeError(f"cannot render {type(obj).__name__}")
    for name, sp in spaces.items():
        lines.append(f"space {name} : " + " ".join(sp.labels))
    lines.extend(body)
    return "\n".join(lines) + "\n"
