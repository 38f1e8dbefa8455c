"""The .lieb structure file format: parser, statement registry, renderer.

A document declares parameters, basis spaces, structures (algebra, coalgebra,
operator, form, tensor, rep blocks of coefficient expressions), and named
checks / constructions to run.  Each block's entry syntax is declared once, in
``_BLOCKS``, and both the parser and the renderer read it:

* algebra: ``[a, b] = <vector>``; an unlisted mirror pair defaults to the
  negation of its listed partner (explicit entries always win, so deliberate
  antisymmetry violations are expressible);
* coalgebra: ``delta(a) = <2-tensor>``, built with ``@``;
* operator (``: D -> C``): ``a -> <vector>``, the image of a; unlisted labels map to 0;
* form: ``(a, b) = <scalar>``; inside ``form ... skew`` the mirror of a
  listed pair defaults to its negation;
* tensor: one 2-tensor expression, in which a line break is whitespace;
* rep (``of A on S``): ``x : v -> <vector>``, the action of x on v.

A label is a name with any ``*`` directly after it, so the dual labels that
``dualize`` writes (``a*``) read back.  Wherever a vector or 2-tensor is
expected, a zero scalar stands for zero.

An expression's value is a sparse Tensor of its nonzero entries, a scalar
being one of rank 0; arithmetic touches only those entries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from inspect import signature
from typing import Iterable, NamedTuple, get_args

from .multilinear import (
    BasisSpace, BilinearForm, LinearOperator, ShapeError, Tensor, TwoTensor,
)
from .scalars import ONE, ZERO, Assumption, DivisionByZero, ExponentOverflow, Scalar
from .structures import (
    CHECKS,
    Corepresentation,
    LieAlgebra,
    LieCoalgebra,
    Representation,
    check_frobenius,
    check_pq_equivalents,
    structure_parameters,
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
    cols: list[int]  # each argument's


@dataclass
class ConstructStatement:
    op: str
    args: list[str]
    result: str
    line: int
    cols: list[int]  # each argument's


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
# as check(*structures, assumptions=...); a CHECKS entry takes its required ones.
CHECK_KINDS = {**{kind: (check.required, check) for kind, check in CHECKS.items()},
               "frobenius": (2, check_frobenius), "frobenius-nij": (3, check_frobenius),
               "pq-equivalents": (4, check_pq_equivalents)}

# Construction ops usable in documents (single-result builders only).
CONSTRUCT_OPS = {
    "delta-from-r": (2, _construct.delta_from_r),
    "bracket-from-omega": (2, _construct.bracket_from_omega),
    "nijenhuis-from-omega-r": (3, _construct.nijenhuis_from_omega_r),
    "p-from-r-omega": (3, _construct.p_from_r_omega),
    "dualize": (1, _construct.dualize),
    "phi-r": (1, _construct.phi_r),
}
# check kind or construct op -> for each structure a statement names, the
# type its callee annotates
_ARGUMENT_TYPES = {name: tuple(param.annotation for param in
                               list(signature(fn, eval_str=True).parameters.values())[:argc])
                   for callees in (CHECK_KINDS, CONSTRUCT_OPS) for name, (argc, fn) in callees.items()}


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

def _constant(s: Scalar) -> Tensor:
    """A scalar as a rank-0 Tensor, with no entry when it is zero."""
    return Tensor((), {(): s} if not s.is_zero() else {})


# the binary operators of a sum (level 0) and of a product (level 1)
_OPERATORS = (("+", "-"), ("*", "/", "@"))


def _combine(op: str, a: Tensor, b: Tensor, tok: _Token) -> Tensor:
    ra, rb = len(a.shape), len(b.shape)
    if op in ("+", "-"):
        if ra != rb:
            raise ParseError(f"cannot {'add' if op == '+' else 'subtract'} rank {ra} "
                             f"and rank {rb} expressions", tok.line, tok.col)
        if a.shape != b.shape:
            raise ParseError(f"{('vectors', 'tensors')[ra - 1]} from different spaces",
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
    if op == "*" and ra and rb:
        raise ParseError("use @ for tensor products, * only scales", tok.line, tok.col)
    if op == "/":
        if rb:
            raise ParseError("can only divide by a scalar", tok.line, tok.col)
        if not b.entries:
            raise ParseError("division by zero", tok.line, tok.col)
        b = Tensor((), {(): ONE / b.entries[()]})
    elif op == "@" and not ra == rb == 1:
        raise ParseError("@ takes two vectors", tok.line, tok.col)
    # a product scales, divides or takes the tensor product: the outer product
    return Tensor(a.shape + b.shape, {i + j: x * y for i, x in a.entries.items()
                                      for j, y in b.entries.items()})


def _negate(value: Tensor) -> Tensor:
    return Tensor(value.shape, {idx: -v for idx, v in value.entries.items()})


# -- structure blocks ----------------------------------------------------------

class _Block:
    """A structure block's entry syntax, read by the parser and the renderer.

    ``head`` is the text before an entry's value, with label slots ``{a}``
    and ``{b}``; ``layout`` spells the record tensor's axes with the head's
    slot letters and ``x``, ``y``, the axes of the value.  Slot ``a`` ranges
    over the block's first space, every other letter over its last.
    """

    def __init__(self, head: str, layout: str, record: type):
        self.head, self.layout, self.record = head, layout, record
        # the head's tokens: (None, letter) for a slot, else (token kind, text)
        self.plan = [(None, slot) if slot else ("name" if word.isalpha() else word, word)
                     for slot, word in re.findall(r"\{(\w)\}|(->|\w+|\S)", head)]
        self.slots = "".join(letter for kind, letter in self.plan if kind is None)
        value = "".join(sorted(set(layout) - set(self.slots)))
        self.rank = len(value)
        order = self.slots + value  # an entry's head key, then an index of its value
        self.place = itemgetter(*map(order.index, layout))  # key + index -> record index
        self.split = itemgetter(*map(layout.index, order))  # record index -> key + index


# keyword -> entry head, record tensor axes, record
_BLOCKS = {
    "algebra": _Block("[{a}, {b}] = ", "abx", LieAlgebra),      # [a, b] = sum c[a][b][x] x
    "coalgebra": _Block("delta({a}) = ", "axy", LieCoalgebra),  # delta(a) = sum d[a][x][y] x@y
    "operator": _Block("{a} -> ", "xa", LinearOperator),        # a -> sum M[x][a] x
    "form": _Block("({a}, {b}) = ", "ab", BilinearForm),        # (a, b) = B[a][b]
    "tensor": _Block("", "xy", TwoTensor),                      # sum r[x][y] x@y
    "rep": _Block("{a} : {b} -> ", "axb", Representation),      # a : b -> sum action[a][x][b] x
}


def _letter_spaces(fields: list) -> dict[str, BasisSpace]:
    """The space of each index letter of a block whose record has these fields
    before its tensor (a rep's first field is its algebra)."""
    first, last = getattr(fields[0], "space", fields[0]), fields[-1]
    return {"a": first, "b": last, "x": last, "y": last}


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

    def accept(self, word: str) -> bool:
        """Whether the next token is the name ``word``, read if so."""
        found = self.peek().kind == "name" and self.peek().text == word
        self.pos += found
        return found

    def _stars(self, tok: _Token) -> str:
        """The ``*`` tokens directly after the name token just read, as text."""
        n, end = self.pos, tok.col + len(tok.text) - self.pos
        while (t := self.tokens[n]).kind == "*" and t.col == end + n and t.line == tok.line:
            n += 1
        return "*" * (n - self.pos)

    def label(self) -> _Token:
        """A name and the ``*`` tokens directly after it, read as one label."""
        tok = self.expect("name")
        if self.tokens[self.pos].kind != "*":  # the common case, kept cheap
            return tok
        stars = self._stars(tok)
        self.pos += len(stars)
        return tok._replace(text=tok.text + stars)

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
            handler = (partial(self._structure, tok.text) if tok.text in _BLOCKS
                       else getattr(self, f"_stmt_{tok.text.replace('-', '_')}", None))
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
            tok = self.label()
            if tok.text in labels:
                raise ParseError(f"duplicate basis label {tok.text!r}", tok.line, tok.col)
            labels.append(tok.text)
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

    def _structure(self, keyword: str):
        """A structure block: its name, header, and entries in braces."""
        block = _BLOCKS[keyword]
        name_tok = self.expect("name")
        fields = self._header(keyword)
        mirror = keyword == "algebra" or keyword == "form" and self.accept("skew")
        space = _letter_spaces(fields)
        listed: dict[tuple, Tensor] = {}  # each entry's value by its head key
        self.expect("{")
        self.skip_newlines()
        if block.plan:
            while self.peek().kind != "}":
                key = self._head(block.plan, space)
                listed[key] = self._rank_expr(space["x"], block.rank)
                self.end_statement()
                self.skip_newlines()
        else:
            # a tensor block holds one expression, in which a line break is
            # whitespace; the one before the closing brace ends it
            end = self.pos
            while self.tokens[end].kind not in ("}", "end"):
                end += 1
            self.tokens[self.pos:end - 1] = [t for t in self.tokens[self.pos:end - 1]
                                             if t.kind != "nl"]
            listed[()] = self._rank_expr(space["x"], 2,
                                         "a tensor block must contain one 2-tensor expression")
            self.skip_newlines()
        self.expect("}")
        self.end_statement()
        if mirror:  # an unlisted mirror (b, a) is the negation of (a, b)
            for (i, j), value in list(listed.items()):
                listed.setdefault((j, i), _negate(value))
        entries = {block.place(key + idx): v for key, value in listed.items()
                   for idx, v in value.entries.items()}
        shape = tuple(space[letter].dim for letter in block.layout)
        self.doc.structures[self._fresh(name_tok)] = block.record(*fields, Tensor(shape, entries))

    def _header(self, keyword: str) -> list:
        """The fields of the block's record before its tensor, read from its
        header: ``: D -> C`` for an operator, ``of A on S`` for a rep and
        ``on S`` for the others."""
        if keyword == "operator":
            self.expect(":")
            domain = self._space_ref()
            self.expect("->")
            return [domain, self._space_ref()]
        fields = []
        if keyword == "rep":
            self.expect_name("of")
            tok = self.expect("name")
            algebra = self.doc.structure(tok.text, tok.line, tok.col)
            if not isinstance(algebra, LieAlgebra):
                raise ParseError(f"{tok.text!r} is not an algebra", tok.line, tok.col)
            fields.append(algebra)
        self.expect_name("on")
        return fields + [self._space_ref()]

    def _head(self, plan: list, space: dict[str, BasisSpace]) -> tuple[int, ...]:
        """An entry's head, read by its block's plan: the indices of its labels."""
        key = []
        for kind, text in plan:
            if kind is None:
                key.append(self._label_index(space[text]))
            elif kind == "name":
                self.expect_name(text)
            else:
                self.expect(kind)
        return tuple(key)

    def _stmt_assume(self):
        self.doc.assumptions.extend(self._assumption_list())
        self.end_statement()

    def _stmt_check(self):
        tok, args, cols = self._call(CHECK_KINDS, "check kind", {c.result for c in self.doc.constructs})
        assumptions = self._assumption_list() if self.accept("assume") else []
        self.end_statement()
        self.doc.checks.append(CheckStatement(tok.text, args, assumptions, tok.line, cols))

    def _stmt_construct(self):
        tok, args, cols = self._call(CONSTRUCT_OPS, "construction")
        self.expect_name("as")
        result = self._fresh(self.expect("name"))
        self.end_statement()
        self.doc.constructs.append(ConstructStatement(tok.text, args, result, tok.line, cols))

    def _call(self, callees: dict, what: str, pending: set = frozenset()) -> tuple[_Token, list, list]:
        """A statement's dashed name, which callees must hold (``what`` names
        its entries), and the names and columns of as many structures as its
        callee takes, each declared or a pending construct result."""
        tok = self.dashed_name()
        if tok.text not in callees:
            raise ParseError(f"unknown {what} {tok.text!r}", tok.line, tok.col)
        args = []
        for _ in range(callees[tok.text][0]):
            arg = self.expect("name")
            if arg.text not in pending:
                self.doc.structure(arg.text, arg.line, arg.col)
            args.append(arg)
        return tok, [arg.text for arg in args], [arg.col for arg in args]

    # expression helpers

    def _label_index(self, sp: BasisSpace) -> int:
        tok = self.label()
        if tok.text not in sp.labels:
            raise UnknownNameError(f"{tok.text!r} is not a basis label of this space",
                                   tok.line, tok.col)
        return sp.index(tok.text)

    def _assumption_list(self) -> list[Assumption]:
        out = []
        while True:
            value = self._scalar()
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

    def _scalar(self) -> Scalar:
        return self._rank_expr(None, 0).entries.get((), ZERO)

    def _rank_expr(self, sp: BasisSpace | None, rank: int, wrong: str | None = None) -> Tensor:
        """An expression of the given rank (0 scalar, 1 vector, 2 2-tensor); a
        zero scalar stands for the zero vector or 2-tensor on sp.  ``wrong``
        is the message for an expression of another rank."""
        value = self._expr(sp)
        if rank and not value.shape and not value.entries:
            return Tensor((sp.dim,) * rank, {})
        if len(value.shape) != rank:
            tok = self.peek()
            raise ParseError(wrong or f"expected a {('scalar', 'vector', '2-tensor')[rank]} "
                             "expression", tok.line, tok.col)
        return value

    def _expr(self, sp: BasisSpace | None, level: int = 0):
        """A sum (level 0) of products (level 1) of unary expressions, each
        combined left to right."""
        value = self._expr(sp, 1) if level == 0 else self._expr_unary(sp)
        while (tok := self.peek()).kind in _OPERATORS[level]:
            self.advance()
            rhs = self._expr(sp, 1) if level == 0 else self._expr_unary(sp)
            try:
                value = _combine(tok.kind, value, rhs, tok)
            except ExponentOverflow as exc:
                raise ParseError(str(exc), tok.line, tok.col) from exc
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
            exp_tok = self.expect("int")
            exp = sign * int(exp_tok.text)
            if base.shape:
                raise ParseError("only scalars can be raised to powers", tok.line, tok.col)
            if exp < 0 and not base.entries:
                raise ParseError("division by zero", tok.line, tok.col)
            try:
                base = _constant(base.entries.get((), ZERO) ** exp)
            except ExponentOverflow as exc:
                raise ParseError(str(exc), exp_tok.line, exp_tok.col) from exc
        return base

    def _expr_atom(self, sp):
        tok = self.advance()
        if tok.kind == "int":
            return _constant(Scalar.from_int(int(tok.text)))
        if tok.kind == "(":
            value = self._expr(sp)
            self.expect(")")
            return value
        if tok.kind == "name":
            label = tok.text
            if sp is not None and self.tokens[self.pos].kind == "*":
                # a starred label, unless an operand (name, int or bracket)
                # follows: k*a scales a
                stars = self._stars(tok)
                if (label + stars in sp.labels
                        and self.tokens[self.pos + len(stars)].kind not in ("name", "int", "(")):
                    label += stars
                    self.pos += len(stars)
            if sp is not None and label in sp.labels:
                return Tensor((sp.dim,), {(sp.index(label),): ONE})
            if tok.text in self.doc.params:
                return Tensor((), {(): Scalar.parameter(tok.text)})
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
    value = parser._scalar()
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
_ILL_FORMED = (ShapeError, DivisionByZero, ExponentOverflow, _construct.DegenerateForm)


def _run(doc: Document, stmt, name: str, callees: dict, what: str, **keywords):
    """Call the statement's callee, looked up in callees now, on its
    structures, each of the type (or a type of the union) the callee takes;
    ``what`` heads the ParseError of a wrong (at its column) or ill-formed argument."""
    args = []
    for arg, col, accepted in zip(stmt.args, stmt.cols, _ARGUMENT_TYPES[name]):
        obj = doc.structure(arg, stmt.line, col)
        if not isinstance(obj, accepted):
            wanted = " or ".join(t.__name__ for t in get_args(accepted) or (accepted,)
                                 if t is not type(None))
            raise ParseError(f"{what}: {arg!r} is a {type(obj).__name__}, not a {wanted}",
                             stmt.line, col)
        args.append(obj)
    try:
        return callees[name][1](*args, **keywords)
    except _ILL_FORMED as exc:
        raise ParseError(f"{what}: {exc}", stmt.line, 1) from exc


def run_constructs(doc: Document) -> None:
    """Execute the document's construct statements, registering the results."""
    for stmt in doc.constructs:
        doc.structures[stmt.result] = _run(doc, stmt, stmt.op, CONSTRUCT_OPS,
                                           f"construct {stmt.op}")


# the check of each structure type's intrinsic axioms: the kind that takes it alone
_DEFAULT_CHECKS = {_ARGUMENT_TYPES[kind][0]: kind
                   for kind, (argc, _) in CHECK_KINDS.items() if argc == 1}


def default_checks(doc: Document) -> list[CheckStatement]:
    """Validity checks for every declared structure with intrinsic axioms."""
    return [CheckStatement(_DEFAULT_CHECKS[type(obj)], [name], [], 0, [0])
            for name, obj in doc.structures.items() if type(obj) in _DEFAULT_CHECKS]


def run_check_statement(doc: Document, stmt: CheckStatement,
                        extra_assumptions: tuple[Assumption, ...] = ()):
    return _run(doc, stmt, stmt.kind, CHECK_KINDS, f"check {stmt.kind}",
                assumptions=[*doc.assumptions, *stmt.assumptions, *extra_assumptions])


# -- rendering -----------------------------------------------------------------

_HEADER = """\
# lieb structure file
# conventions: operator columns are images of basis vectors; form entry
# (a, b) is the value on (a, b); a 2-tensor entry a@b is the coefficient of
# a (x) b; bracket tables list [a, b] with unlisted mirrors defaulting to
# the negation; cobrackets list delta(a) as a 2-tensor expression.
"""


def _space_name(doc_spaces: dict[str, BasisSpace], sp: BasisSpace) -> str:
    """The name of the space with sp's labels, V1, V2, ... in order of first use."""
    for name, known in doc_spaces.items():
        if known.labels == sp.labels:
            return name
    name = f"V{len(doc_spaces) + 1}"
    doc_spaces[name] = sp
    return name


def _term(coeff: Scalar, *labels: str) -> str:
    body = "@".join(labels)
    text = str(coeff)
    if not body:
        return text
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


def _render_block(keyword: str, name: str, obj, spaces: dict[str, BasisSpace]) -> str:
    block = _BLOCKS[keyword]
    *fields, tensor = obj.parts()
    names = [_space_name(spaces, sp) for sp in fields]
    header = f": {names[0]} -> {names[1]}" if keyword == "operator" else f"on {names[0]}"
    space = _letter_spaces(fields)
    # each head key's value entries, in order; a tensor block has one entry, zero included
    groups: dict[tuple, list] = {} if block.plan else {(): []}
    for full, v in sorted(((block.split(idx), v) for idx, v in tensor.entries.items()),
                          key=itemgetter(0)):
        groups.setdefault(full[:len(block.slots)], []).append((full[len(block.slots):], v))
    keys = list(groups)
    if keyword == "algebra":
        keys = []
        for i, j in sorted({(min(pair), max(pair)) for pair in groups}):
            # a pair is listed both ways, zero included, unless its mirror is its negation
            mirrored = groups.get((j, i), []) == [(k, -v) for k, v in groups.get((i, j), [])]
            keys += [(i, j)] if i == j or mirrored else [(i, j), (j, i)]
    entries = []
    for key in keys:
        slots = {letter: space[letter].labels[k] for letter, k in zip(block.slots, key)}
        terms = [_term(v, *(space["x"].labels[k] for k in idx)) for idx, v in groups.get(key, [])]
        entries.append("  " + block.head.format(**slots) + _sum_terms(terms))
    return f"{keyword} {name} {header} {{\n" + "\n".join(entries) + "\n}"


_KEYWORDS = {block.record: keyword for keyword, block in _BLOCKS.items()}


def render_document(structures: dict[str, object],
                    params: list[str] | None = None) -> str:
    """Canonical text for a set of named structures (with header conventions)."""
    lines = [_HEADER]
    names = set(structure_parameters(*structures.values())) | set(params or [])
    if names:
        lines.append("params " + " ".join(sorted(names)))
    spaces: dict[str, BasisSpace] = {}
    body: list[str] = []
    for name, obj in structures.items():
        if isinstance(obj, (Representation, Corepresentation)):
            raise TypeError("rendering a (co)representation requires naming its (co)algebra; "
                            "export the (co)algebra alongside and write the block by hand")
        if type(obj) not in _KEYWORDS:
            raise TypeError(f"cannot render {type(obj).__name__}")
        body.append(_render_block(_KEYWORDS[type(obj)], name, obj, spaces))
    for name, sp in spaces.items():
        lines.append(f"space {name} : " + " ".join(sp.labels))
    lines.extend(body)
    return "\n".join(lines) + "\n"
