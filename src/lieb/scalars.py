"""Exact scalar arithmetic: integer polynomials and rational functions in named parameters.

A Polynomial maps monomials to arbitrary-precision integer coefficients;
zero coefficients are never stored, so the representation is canonical and
equality is plain dict equality.  The monomial 1 is (); any other is one int,
its exponent vector packed (Monagan & Pearce, CASC 2007) in 32-bit slots that
a process-wide, append-only registry gives each parameter on its first use.
Exponents run to 2**31 - 1: a product of monomials is one int addition, and
the slots' top bits guard it, raising ExponentOverflow instead of a carry.
Terms print and order by parameter name, whatever the registry's order;
``monomials()`` gives them decoded, in the form the constructor takes.

A Scalar is a quotient num/den of two Polynomials in lowest terms: the
denominator is nonzero, num and den have no common factor in Z[parameters]
(their gcd, content included, is 1), and the denominator's leading
coefficient (graded-lex order) is positive.  Every value of Q(parameters) has
exactly one such form, so equality of scalars is equality of num and den and
a result does not depend on the order its terms were added in.  The gcd is
primitive PRS (Collins, JACM 1967; Brown & Traub, JACM 1971): on dense int
coefficient lists for two polynomials in one parameter, and recursively in a
main parameter over Z[the others] otherwise, where coprime inputs are first
settled by their images at an integer point.  A constant or monomial side
and a constant denominator need no polynomial gcd, and + and * on reduced
operands take the smaller gcds of their denominators and cross factors, as
fractions.Fraction does.  Ordering of monomials affects printing only.

A Scalar whose num and den are both constant also carries its value as a
reduced int pair p/q with q > 0, a cached view of num and den that the table
engine's and row_reduce's int lanes read; otherwise p and q are None.
Arithmetic does not branch on them: constants take the polynomial path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Mapping

Monomial = tuple[tuple[str, int], ...]  # decoded: (parameter, exponent) pairs by name

_EMPTY: Monomial = ()

_BITS = 32
_MASK = (1 << _BITS) - 1
_SHIFTS: dict[str, int] = {}  # parameter -> the shift of its slot
_NAMES: list[str] = []  # slot -> parameter
_GUARD = 0  # the top bit of every slot given out


class DivisionByZero(ZeroDivisionError):
    """Division by a scalar that is zero as a rational function."""


class EvalSingular(ArithmeticError):
    """Evaluation hit a point where the denominator vanishes."""


class ExponentOverflow(OverflowError):
    """A monomial's exponent of one parameter would exceed 2**31 - 1."""


def _shift(name: str) -> int:
    """The shift of name's slot, given to it on its first use."""
    global _GUARD
    if name not in _SHIFTS:
        _SHIFTS[name] = _BITS * len(_NAMES)
        _NAMES.append(name)
        _GUARD |= 1 << (_SHIFTS[name] + _BITS - 1)
    return _SHIFTS[name]


def _overflow(m: int) -> ExponentOverflow:
    """The error for a sum of keys that sets a guard bit, naming its parameter."""
    name = next(_NAMES[sh // _BITS] for sh, e in _slots(m) if e >> _BITS - 1)
    return ExponentOverflow(f"the exponent of {name} exceeds {_MASK >> 1}")


def _pack(mono: Monomial) -> int | Monomial:
    """A monomial given as (parameter, exponent) pairs, as a key."""
    m = 0
    for name, e in mono:
        if e < 0:
            raise ValueError(f"negative exponent of {name}")
        m += min(e, 1 << _BITS - 1) << _shift(name)  # trips the guard, never carries
        if m & _GUARD:
            raise _overflow(m)
    return m or _EMPTY


def _slots(m) -> list[tuple[int, int]]:
    """(shift, exponent) of each nonzero slot of a key; none for ()."""
    return [(sh, e) for sh in range(0, (m or 0).bit_length(), _BITS) if (e := m >> sh & _MASK)]


@lru_cache(maxsize=1 << 12)
def _unpack(m) -> Monomial:
    """A key as (parameter, exponent) pairs sorted by parameter."""
    return tuple(sorted((_NAMES[sh // _BITS], e) for sh, e in _slots(m)))


@lru_cache(maxsize=1 << 12)
def _mono_key(m):
    # Graded lex, biggest first: higher total degree wins, then earlier
    # parameters with higher exponents.  Sorting ascending by this key lists
    # monomials in canonical (descending) print order.
    mono = _unpack(m)
    return (-sum(e for _, e in mono), tuple((name, -e) for name, e in mono))


def _raw(terms: dict) -> Polynomial:
    """The polynomial with these terms, which hold no zero coefficient."""
    p = object.__new__(Polynomial)
    p.terms = terms
    return p


class Polynomial:
    """Multivariate polynomial with integer coefficients, canonical by construction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms: dict[int | Monomial, int] = {
            _pack(m): c for m, c in (terms or {}).items() if c != 0
        }

    @classmethod
    def integer(cls, n: int) -> Polynomial:
        return _raw({_EMPTY: int(n)} if n else {})

    @classmethod
    def variable(cls, name: str) -> Polynomial:
        return _raw({1 << _shift(name): 1})

    def monomials(self) -> dict[Monomial, int]:
        """The terms, each monomial as (parameter, exponent) pairs by name."""
        return {_unpack(m): c for m, c in self.terms.items()}

    def __reduce__(self):
        return Polynomial, (self.monomials(),)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        terms = self.terms
        return not terms or (len(terms) == 1 and _EMPTY in terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(_EMPTY, 0)

    def parameters(self) -> frozenset[str]:
        bits = 0
        for m in self.terms:
            bits |= m or 0
        return frozenset(_NAMES[sh // _BITS] for sh, _ in _slots(bits))

    def degree(self) -> int:
        return max((-_mono_key(m)[0] for m in self.terms), default=0)

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    def leading_coefficient(self) -> int:
        """The coefficient of the first term in print order (graded lex); 0 for 0."""
        terms = self.terms
        if len(terms) <= 1:
            return next(iter(terms.values()), 0)
        return terms[min(terms, key=_mono_key)]

    def __add__(self, other: Polynomial) -> Polynomial:
        out = dict(self.terms)
        for m, c in other.terms.items():
            if c := out.pop(m, 0) + c:
                out[m] = c
        return _raw(out)

    def __neg__(self) -> Polynomial:
        return _raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __rmul__(self, n: int) -> Polynomial:
        """n * self for an int n."""
        return self.scale(n)

    def __mul__(self, other: Polynomial) -> Polynomial:
        a, b = self.terms, other.terms
        if len(a) == 1 and len(b) == 1:
            ((ma, ca),), ((mb, cb),) = a.items(), b.items()
            if ma and mb:
                ma += mb
                if ma & _GUARD:
                    raise _overflow(ma)
            return _raw({ma or mb: ca * cb})
        out: dict[int, int] = {}
        pairs = [(mb or 0, cb) for mb, cb in b.items()]
        for ma, ca in a.items():
            ma = ma or 0
            for mb, cb in pairs:
                mb += ma
                out[mb] = out.get(mb, 0) + ca * cb
        for m in out:
            if m & _GUARD:
                raise _overflow(m)
        return _raw({m or _EMPTY: c for m, c in out.items() if c})

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = _P_ONE, self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, n: int) -> Polynomial:
        return _raw({m: c * n for m, c in self.terms.items()} if n else {})

    def divide_by_content(self, g: int) -> Polynomial:
        return _raw({m: c // g for m, c in self.terms.items()})

    def gcd(self, other: Polynomial) -> Polynomial:
        """The greatest common divisor in Z[parameters], content included, with
        a positive leading coefficient; gcd(0, 0) is 0."""
        if len(self.terms) <= 1 or len(other.terms) <= 1:
            return _monomial_gcd(self, other)
        names = self.parameters() | other.parameters()
        if len(names) == 1:
            (x,) = names
            ca, fa = _primitive(_int_coeffs(self, x), gcd, 1)
            cb, fb = _primitive(_int_coeffs(other, x), gcd, 1)
            c, g = gcd(ca, cb), _prs(fa, fb, gcd, 1)
            if g is None:
                return Polynomial.integer(c)
            return _from_ints([c * v for v in g] if g[0] > 0 else [-c * v for v in g], x)
        # over Z[the others], in the parameter of least degree
        x = min(names, key=lambda name: (max(_degree_in(self, name), _degree_in(other, name)), name))
        ca, fa = _primitive(_poly_coeffs(self, x), Polynomial.gcd, _P_ONE)
        cb, fb = _primitive(_poly_coeffs(other, x), Polynomial.gcd, _P_ONE)
        c = ca.gcd(cb)
        # coprime inputs, about half of those that get here, are settled by
        # their images: primitive PRS over Z[the others] swells on them
        if _coprime_images(fa, fb, sorted(names - {x})):
            return c
        g = _prs(fa, fb, Polynomial.gcd, _P_ONE)
        if g is None:
            return c
        out = c * _from_polys(g, x)
        return -out if out.leading_coefficient() < 0 else out

    def __floordiv__(self, divisor: Polynomial) -> Polynomial:
        """The exact quotient by a divisor of self.  No remainder is checked:
        for a divisor that does not divide self the result is undefined."""
        if divisor.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if len(divisor.terms) == 1:
            ((m, c),) = divisor.terms.items()
            return _raw({(mono - m or _EMPTY) if m else mono: v // c for mono, v in self.terms.items()})
        if not self.terms:
            return self
        names = self.parameters() | divisor.parameters()
        x = min(names)
        if len(names) == 1:
            return _from_ints(_quo(_int_coeffs(self, x), _int_coeffs(divisor, x)), x)
        return _from_polys(_quo(_poly_coeffs(self, x), _poly_coeffs(divisor, x)), x)

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = Fraction(coeff)
            for name, e in _unpack(mono):
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
        for mono, coeff in sorted(self.terms.items(), key=lambda item: _mono_key(item[0])):
            factors = [name if e == 1 else f"{name}^{e}" for name, e in _unpack(mono)]
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
_ONE_TERMS = _P_ONE.terms


def _monomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """gcd(a, b) when one side is zero, a constant or a monomial: the gcd of
    its coefficient with the other's content, times the least power of each of
    its parameters in the other."""
    if not a.terms or not b.terms:
        other = b if not a.terms else a
        return -other if other.leading_coefficient() < 0 else other
    if len(a.terms) > 1:
        a, b = b, a
    ((mono, c),) = a.terms.items()
    exps = dict(_slots(mono))  # shift -> exponent
    for m in b.terms:
        exps = {sh: min(e, p) for sh, e in exps.items() if (p := (m or 0) >> sh & _MASK)}
    return _raw({sum(e << sh for sh, e in exps.items()) or _EMPTY: gcd(c, *b.terms.values())})


def _int_coeffs(p: Polynomial, x: str) -> list[int]:
    """The coefficients of a polynomial in x alone, highest degree first."""
    sh = _SHIFTS[x]
    deg = max(m >> sh if m else 0 for m in p.terms)
    out = [0] * (deg + 1)
    for m, c in p.terms.items():
        out[deg - (m >> sh if m else 0)] = c
    return out


def _from_ints(coeffs: list[int], x: str) -> Polynomial:
    deg, sh = len(coeffs) - 1, _SHIFTS[x]
    return _raw({(deg - i) << sh or _EMPTY: c for i, c in enumerate(coeffs) if c})


def _degree_in(p: Polynomial, x: str) -> int:
    sh = _SHIFTS[x]
    return max((m >> sh & _MASK for m in p.terms if m), default=0)


def _poly_coeffs(p: Polynomial, x: str) -> list[Polynomial]:
    """The coefficients of p as a polynomial in x over the other parameters,
    highest degree first."""
    sh, split = _SHIFTS[x], {}
    for m, c in p.terms.items():
        e = m >> sh & _MASK if m else 0
        split.setdefault(e, {})[(m - (e << sh) or _EMPTY) if e else m] = c
    return [_raw(split[e]) if e in split else _P_ZERO for e in range(max(split), -1, -1)]


def _from_polys(coeffs: list[Polynomial], x: str) -> Polynomial:
    deg, sh = len(coeffs) - 1, _SHIFTS[x]
    out = {}
    for i, c in enumerate(coeffs):
        e = (deg - i) << sh
        for m, v in c.terms.items():
            out[(m or 0) + e if e else m] = v
    return _raw(out)


def _coprime_images(f: list[Polynomial], g: list[Polynomial], rest: list[str]) -> bool:
    """Whether f and g, primitive in x over Z[rest], are shown coprime by their
    images at a point of rest where neither leading coefficient vanishes: the
    gcd's degree in x is at most its image's."""
    for shift in range(3):
        point = {name: 2 + 3 * j + 5 * shift for j, name in enumerate(rest)}
        if f[0].evaluate(point) and g[0].evaluate(point):
            fi = _primitive([int(v.evaluate(point)) for v in f], gcd, 1)[1]
            gi = _primitive([int(v.evaluate(point)) for v in g], gcd, 1)[1]
            return _prs(fi, gi, gcd, 1) is None
    return False


# Dense polynomials in one variable, highest degree first, over Z (int
# coefficients) or Z[other parameters] (Polynomial coefficients): both support
# -, *, exact // and a truth value.

def _primitive(f: list, gcd2, one) -> tuple:
    """(the content of f, the primitive part of f)."""
    c = f[0]
    for v in f[1:]:
        if c == one:
            break
        c = gcd2(c, v)
    return c, f if c == one else [v // c for v in f]


def _prem(f: list, g: list) -> list:
    """A nonzero constant multiple of the remainder of f by g, deg f >= deg g,
    with no leading zeros: the pseudo-remainder."""
    lc, n = g[0], len(g)
    r = f
    while len(r) >= n:
        q = r[0]
        r = [lc * a - q * b for a, b in zip(r[1:n], g[1:])] + [lc * a for a in r[n:]]
        k = 0
        while k < len(r) and not r[k]:
            k += 1
        r = r[k:]
    return r


def _prs(f: list, g: list, gcd2, one):
    """The gcd of primitive f and g up to sign by primitive PRS, or None when
    it is 1."""
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        r = _prem(f, g)
        if not r:
            return g
        f, g = g, _primitive(r, gcd2, one)[1]
    return None


def _quo(f: list, g: list) -> list:
    """The exact quotient f / g for a divisor g of f."""
    lc, n = g[0], len(g)
    r = list(f)
    q = []
    for i in range(len(f) - n + 1):
        c = r[i] // lc
        q.append(c)
        if c:
            for j in range(1, n):
                r[i + j] = r[i + j] - c * g[j]
    return q


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
        if den.is_constant():
            # the gcd of num and a constant is its content's gcd with it
            g = gcd(num.content(), den.terms[_EMPTY])
            if den.terms[_EMPTY] < 0:
                g = -g
            if g != 1:
                num = num.divide_by_content(g)
                den = den.divide_by_content(g)
        else:
            g = num.gcd(den)
            if g.terms != _ONE_TERMS:
                num, den = num // g, den // g
            if den.leading_coefficient() < 0:
                num, den = -num, -den
        self._set(num, den)

    def _set(self, num: Polynomial, den: Polynomial) -> None:
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
    def ratio(cls, p: int, q: int) -> Scalar:
        """p/q for ints p and q > 0."""
        g = gcd(p, q)
        return _constant(p // g, q // g)

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
        return not self.num.terms

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def parameters(self) -> frozenset[str]:
        return self.num.parameters() | self.den.parameters()

    def __add__(self, other) -> Scalar:
        if not isinstance(other, Scalar):
            other = self._coerce(other)
        na, da, nb, db = self.num, self.den, other.num, other.den
        if not na.terms:
            return other
        if not nb.terms:
            return self
        if da.is_constant() and db.is_constant():
            return Scalar(na * db + nb * da, da * db)
        # Fraction's sum: only the gcd of the denominators can be common.  With
        # this and the product's shortcut replaced by the constructor's gcd,
        # test_scalars.py::test_ring_laws took 602 s, not under 1.5 s, on a 2-core Xeon.
        g = da.gcd(db)
        if g.terms == _ONE_TERMS:
            return _coprime(na * db + nb * da, da * db)
        s = da // g
        t = na * (db // g) + nb * s
        g2 = t.gcd(g)
        if g2.terms == _ONE_TERMS:
            return _coprime(t, s * db)
        return _coprime(t // g2, s * (db // g2))

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        return _coprime(-self.num, self.den)

    def __sub__(self, other) -> Scalar:
        if not isinstance(other, Scalar):
            other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other) -> Scalar:
        return self._coerce(other) - self

    def __mul__(self, other) -> Scalar:
        if not isinstance(other, Scalar):
            other = self._coerce(other)
        na, da, nb, db = self.num, self.den, other.num, other.den
        if da.is_constant() and db.is_constant():
            return Scalar(na * nb, da * db)
        if not na.terms or not nb.terms:
            return ZERO
        # Fraction's product: only the cross pairs can have common factors (see __add__)
        g1, g2 = na.gcd(db), nb.gcd(da)
        if g1.terms != _ONE_TERMS:
            na, db = na // g1, db // g1
        if g2.terms != _ONE_TERMS:
            nb, da = nb // g2, da // g2
        return _coprime(na * nb, da * db)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Scalar:
        if not isinstance(other, Scalar):
            other = self._coerce(other)
        if other.num.is_zero():
            raise DivisionByZero("division by zero scalar")
        num, den = other.num, other.den
        if num.leading_coefficient() < 0:
            num, den = -num, -den
        return self * _coprime(den, num)

    def __rtruediv__(self, other) -> Scalar:
        return self._coerce(other) / self

    def __pow__(self, n: int) -> Scalar:
        if n < 0:
            return ONE / self ** (-n)
        return _coprime(self.num**n, self.den**n)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num.terms == other.num.terms and self.den.terms == other.den.terms

    def __hash__(self) -> int:
        if self.q is not None:  # equal to the int or Fraction of the same value
            return hash(Fraction(self.p, self.q))
        return hash((self.num, self.den))

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        den = self.den.evaluate(assignment)
        if den == 0:
            raise EvalSingular(f"denominator {self.den} vanishes at {dict(assignment)}")
        return self.num.evaluate(assignment) / den

    def substitute(self, bindings: Mapping[str, Scalar]) -> Scalar:
        """Replace parameters by scalar values (symbolic substitution)."""

        def poly_sub(poly: Polynomial) -> Scalar:
            total = Scalar.from_int(0)
            for mono, coeff in poly.monomials().items():
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


def _coprime(num: Polynomial, den: Polynomial) -> Scalar:
    """num/den for coprime num and den, den with a positive leading coefficient."""
    if not num.terms:
        return ZERO
    s = object.__new__(Scalar)
    s._set(num, den)
    return s


ZERO = Scalar(_P_ZERO)
ONE = Scalar.from_int(1)


def covered_by_assumptions(poly: Polynomial, assumptions: Iterable[Assumption]) -> list[Assumption] | None:
    """Which assumptions certify poly != 0, or None if they do not suffice.

    A polynomial is certified when repeated exact division by assumption
    polynomials reduces it to a nonzero integer constant.
    """
    used, rest = divide_out_assumptions(poly, assumptions)
    return used if rest.is_constant() and rest.constant_value() != 0 else None


def divide_out_assumptions(poly: Polynomial,
                           assumptions: Iterable[Assumption]) -> tuple[list[Assumption], Polynomial]:
    """(the assumptions whose polynomials divide poly, what is left of poly
    once they are divided out and its content is removed)."""
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
            if current.gcd(a.nonzero) == a.nonzero:
                current = current // a.nonzero
                if a not in used:
                    used.append(a)
                progress = True
                break
    return used, current
