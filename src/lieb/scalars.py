"""Exact scalar arithmetic: integer polynomials and rational functions in named parameters.

A monomial is a tuple of (parameter, exponent) pairs, sorted by parameter name,
with all exponents >= 1.  A Polynomial maps monomials to arbitrary-precision
integer coefficients; zero coefficients are never stored, so the representation
is canonical and equality is plain dict equality.

A Scalar is a quotient num/den of two Polynomials in canonical form: the
denominator is nonzero, num and den are jointly reduced by their integer
content, and the denominator's leading coefficient (graded-lex order) is
positive.  Equality of scalars is decided by cross-multiplication, so no
multivariate gcd is ever needed.  Ordering of monomials affects printing only.

Constants take a fast path.  A Scalar whose num and den are both constant
also carries its value as a reduced int pair p/q with q > 0.  When every
operand of +, -, *, /, ** or == is constant, the result is computed on those
pairs with math.gcd and built directly in canonical form: the same num and
den terms the polynomial path gives, with zero sharing the constant
polynomials 0 and 1.  Any symbolic operand takes the polynomial path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping

Monomial = tuple[tuple[str, int], ...]

_EMPTY: Monomial = ()


class DivisionByZero(ZeroDivisionError):
    """Division by a scalar that is zero as a rational function."""


class EvalSingular(ArithmeticError):
    """Evaluation hit a point where the denominator vanishes."""


class ExpressionError(ValueError):
    """A coefficient expression failed to parse; carries the offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.pos = pos


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _mono_key(mono: Monomial):
    # Graded lex, biggest first: higher total degree wins, then earlier
    # parameters with higher exponents.  Sorting ascending by this key lists
    # monomials in canonical (descending) print order.
    return (-sum(e for _, e in mono), tuple((name, -e) for name, e in mono))


class Polynomial:
    """Multivariate polynomial with integer coefficients, canonical by construction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {
            m: c for m, c in (terms or {}).items() if c != 0
        }

    @classmethod
    def zero(cls) -> Polynomial:
        return cls()

    @classmethod
    def integer(cls, n: int) -> Polynomial:
        return cls({_EMPTY: int(n)})

    @classmethod
    def variable(cls, name: str) -> Polynomial:
        return cls({((name, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        terms = self.terms
        return not terms or (len(terms) == 1 and _EMPTY in terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(_EMPTY, 0)

    def parameters(self) -> frozenset[str]:
        return frozenset(name for mono in self.terms for name, _ in mono)

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e for _, e in mono) for mono in self.terms)

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda item: _mono_key(item[0]))

    def leading_term(self) -> tuple[Monomial, int]:
        """The first term in print order (graded lex); the polynomial is nonzero."""
        return min(self.terms.items(), key=lambda item: _mono_key(item[0]))

    def leading_coefficient(self) -> int:
        if not self.terms:
            return 0
        return self.leading_term()[1]

    def __add__(self, other: Polynomial) -> Polynomial:
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(out)

    def __neg__(self) -> Polynomial:
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial) -> Polynomial:
        if not self.terms or not other.terms:
            return Polynomial()
        out: dict[Monomial, int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return Polynomial(out)

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.integer(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, n: int) -> Polynomial:
        return Polynomial({m: c * n for m, c in self.terms.items()})

    def divide_by_content(self, g: int) -> Polynomial:
        return Polynomial({m: c // g for m, c in self.terms.items()})

    def divide_exact(self, divisor: Polynomial) -> Polynomial | None:
        """Exact polynomial quotient self/divisor, or None if not divisible."""
        if divisor.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if self.is_zero():
            return Polynomial()
        lead_m, lead_c = divisor.leading_term()
        lead_exp = dict(lead_m)
        quotient: dict[Monomial, int] = {}
        rem = self
        while not rem.is_zero():
            rm, rc = rem.leading_term()
            rexp = dict(rm)
            if rc % lead_c != 0:
                return None
            qexp = {}
            for name, e in lead_exp.items():
                re = rexp.get(name, 0)
                if re < e:
                    return None
                if re > e:
                    qexp[name] = re - e
            for name, e in rexp.items():
                if name not in lead_exp and e > 0:
                    qexp[name] = e
            qm = tuple(sorted(qexp.items()))
            qc = rc // lead_c
            quotient[qm] = quotient.get(qm, 0) + qc
            rem = rem - Polynomial({qm: qc}) * divisor
        return Polynomial(quotient)

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = Fraction(coeff)
            for name, e in mono:
                term *= Fraction(assignment[name]) ** e
            total += term
        return total

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.sorted_terms():
            factors = [name if e == 1 else f"{name}^{e}" for name, e in mono]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


_P_ZERO = Polynomial()
_P_ONE = Polynomial.integer(1)


class Assumption:
    """A polynomial asserted to be nonzero (a side condition of a result)."""

    __slots__ = ("nonzero",)

    def __init__(self, nonzero: Polynomial):
        if nonzero.is_zero():
            raise ValueError("assumption polynomial must be nonzero")
        g = abs(nonzero.content())
        poly = nonzero.divide_by_content(g) if g > 1 else nonzero
        if poly.leading_coefficient() < 0:
            poly = -poly
        self.nonzero = poly

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Assumption) and self.nonzero == other.nonzero

    def __hash__(self) -> int:
        return hash(self.nonzero)

    def __str__(self) -> str:
        return f"{self.nonzero} != 0"

    def __repr__(self) -> str:
        return f"Assumption({self.nonzero})"


class Scalar:
    """Exact rational function num/den over the parameter ring.

    When num and den are both constants, ``p``/``q`` also hold the value as a
    reduced int pair (``q > 0``); otherwise both are None.
    """

    __slots__ = ("num", "den", "p", "q")

    def __init__(self, num: Polynomial, den: Polynomial = _P_ONE):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            self.num, self.den, self.p, self.q = _P_ZERO, _P_ONE, 0, 1
            return
        g = gcd(num.content(), den.content())
        if den.leading_coefficient() < 0:
            g = -g
        if g not in (0, 1):
            num = num.divide_by_content(g)
            den = den.divide_by_content(g)
        self.num = num
        self.den = den
        nt, dt = num.terms, den.terms
        if len(nt) == 1 and len(dt) == 1 and _EMPTY in nt and _EMPTY in dt:
            self.p, self.q = nt[_EMPTY], dt[_EMPTY]
        else:
            self.p = self.q = None

    @classmethod
    def from_int(cls, n: int) -> Scalar:
        return _constant(int(n), 1)

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> Scalar:
        q = Fraction(q)
        return _constant(q.numerator, q.denominator)

    @classmethod
    def parameter(cls, name: str) -> Scalar:
        return cls(Polynomial.variable(name))

    @staticmethod
    def _coerce(value) -> Scalar:
        if isinstance(value, Scalar):
            return value
        if isinstance(value, int):
            return Scalar.from_int(value)
        if isinstance(value, Fraction):
            return Scalar.from_fraction(value)
        raise TypeError(f"cannot treat {value!r} as a scalar")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def parameters(self) -> frozenset[str]:
        return self.num.parameters() | self.den.parameters()

    def __add__(self, other) -> Scalar:
        if not isinstance(other, Scalar):
            other = self._coerce(other)
        if self.q is not None and other.q is not None:
            return _constant_sum(self.p, self.q, other.p, other.q)
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        if self.q is not None:
            return _constant(-self.p, self.q)
        return Scalar(-self.num, self.den)

    def __sub__(self, other) -> Scalar:
        if not isinstance(other, Scalar):
            other = self._coerce(other)
        if self.q is not None and other.q is not None:
            return _constant_sum(self.p, self.q, -other.p, other.q)
        return self + (-other)

    def __rsub__(self, other) -> Scalar:
        return self._coerce(other) - self

    def __mul__(self, other) -> Scalar:
        if not isinstance(other, Scalar):
            other = self._coerce(other)
        q1, q2 = self.q, other.q
        if q1 is not None and q2 is not None:
            p1, p2 = self.p, other.p
            if not p1 or not p2:
                return ZERO
            g1, g2 = gcd(p1, q2), gcd(p2, q1)
            return _constant((p1 // g1) * (p2 // g2), (q1 // g2) * (q2 // g1))
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Scalar:
        if not isinstance(other, Scalar):
            other = self._coerce(other)
        if other.num.is_zero():
            raise DivisionByZero("division by zero scalar")
        q1, q2 = self.q, other.q
        if q1 is not None and q2 is not None:
            p1, p2 = self.p, other.p
            if not p1:
                return ZERO
            g1, g2 = gcd(p1, p2), gcd(q1, q2)
            num, den = (p1 // g1) * (q2 // g2), (q1 // g2) * (p2 // g1)
            return _constant(-num, -den) if den < 0 else _constant(num, den)
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> Scalar:
        return self._coerce(other) / self

    def __pow__(self, n: int) -> Scalar:
        if n < 0:
            return ONE / self ** (-n)
        if self.q is not None:
            return _constant(self.p**n, self.q**n)
        return Scalar(self.num**n, self.den**n)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.q is not None and other.q is not None:
            return self.p == other.p and self.q == other.q
        return (self.num * other.den - other.num * self.den).is_zero()

    __hash__ = None  # cross-multiplied equality is not hash-compatible

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        den = self.den.evaluate(assignment)
        if den == 0:
            raise EvalSingular(f"denominator {self.den} vanishes at {dict(assignment)}")
        return self.num.evaluate(assignment) / den

    def substitute(self, bindings: Mapping[str, Scalar]) -> Scalar:
        """Replace parameters by scalar values (symbolic substitution)."""

        def poly_sub(poly: Polynomial) -> Scalar:
            total = Scalar.from_int(0)
            for mono, coeff in poly.terms.items():
                term = Scalar.from_int(coeff)
                for name, e in mono:
                    base = bindings.get(name, Scalar.parameter(name))
                    term = term * base**e
                total = total + term
            return total

        den = poly_sub(self.den)
        if den.num.is_zero():
            raise DivisionByZero(f"substitution makes denominator {self.den} vanish")
        return poly_sub(self.num) / den

    def __str__(self) -> str:
        if self.den == _P_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _constant(p: int, q: int) -> Scalar:
    """The constant p/q, for a reduced pair with q > 0, in the canonical form
    Scalar.__init__ would give it, built without normalising."""
    if not p:
        return ZERO
    s = object.__new__(Scalar)
    num = object.__new__(Polynomial)
    num.terms = {_EMPTY: p}
    if q == 1:
        den = _P_ONE
    else:
        den = object.__new__(Polynomial)
        den.terms = {_EMPTY: q}
    s.num, s.den, s.p, s.q = num, den, p, q
    return s


def _constant_sum(p1: int, q1: int, p2: int, q2: int) -> Scalar:
    """p1/q1 + p2/q2 for reduced pairs."""
    if q1 == q2:
        num, den = p1 + p2, q1
    else:
        num, den = p1 * q2 + p2 * q1, q1 * q2
    g = gcd(num, den)
    return _constant(num // g, den // g)


ZERO = Scalar(_P_ZERO)
ONE = Scalar.from_int(1)


def covered_by_assumptions(poly: Polynomial, assumptions: Iterable[Assumption]) -> list[Assumption] | None:
    """Which assumptions certify poly != 0, or None if they do not suffice.

    A polynomial is certified when repeated exact division by assumption
    polynomials reduces it to a nonzero integer constant.
    """
    g = abs(poly.content())
    current = poly.divide_by_content(g) if g > 1 else poly
    used: list[Assumption] = []
    assumptions = list(assumptions)
    progress = True
    while not current.is_constant() and progress:
        progress = False
        for a in assumptions:
            if a.nonzero.is_constant():
                continue
            q = current.divide_exact(a.nonzero)
            if q is not None:
                current = q
                if a not in used:
                    used.append(a)
                progress = True
                break
    if current.is_constant() and current.constant_value() != 0:
        return used
    return None


# ---------------------------------------------------------------------------
# Coefficient expression grammar: integers, parameters, + - * / ^ and parens.
# ---------------------------------------------------------------------------

_TOKEN_CHARS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _ExprParser:
    def __init__(self, tokens: list[tuple[str, str, int]], allowed: frozenset[str] | None):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.advance()
        if tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self) -> Scalar:
        value = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> Scalar:
        value = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            rhs = self.parse_unary()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ExpressionError("division by zero", pos)
                value = value / rhs
        return value

    def parse_unary(self) -> Scalar:
        kind = self.peek()[0]
        if kind == "-":
            self.advance()
            return -self.parse_unary()
        if kind == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Scalar:
        base = self.parse_atom()
        while self.peek()[0] == "^":
            self.advance()
            neg = False
            if self.peek()[0] == "-":
                self.advance()
                neg = True
            tok = self.expect("int")
            exp = int(tok[1])
            base = base ** (-exp if neg else exp)
        return base

    def parse_atom(self) -> Scalar:
        kind, text, pos = self.advance()
        if kind == "int":
            return Scalar.from_int(int(text))
        if kind == "name":
            if self.allowed is not None and text not in self.allowed:
                raise ExpressionError(f"unknown parameter {text!r}", pos)
            return Scalar.parameter(text)
        if kind == "(":
            value = self.parse_expr()
            self.expect(")")
            return value
        raise ExpressionError(f"unexpected token {text or 'end of input'!r}", pos)


def parse_scalar(text: str, allowed: Iterable[str] | None = None) -> Scalar:
    """Parse a coefficient expression into an exact Scalar.

    When ``allowed`` is given, parameter tokens outside it are rejected.
    """
    parser = _ExprParser(_tokenize(text), None if allowed is None else frozenset(allowed))
    value = parser.parse_expr()
    end = parser.peek()
    if end[0] != "end":
        raise ExpressionError(f"trailing input {end[1]!r}", end[2])
    return value


def iter_scalars(obj) -> Iterator[Scalar]:
    """Walk nested lists/tuples/dicts yielding every Scalar inside."""
    if isinstance(obj, Scalar):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from iter_scalars(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from iter_scalars(item)
