"""Exact scalar arithmetic, canonical form, parsing and evaluation."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lieb.scalars
from lieb.document import ParseError, parse_scalar
from lieb.scalars import (
    Assumption,
    DivisionByZero,
    EvalSingular,
    ExponentOverflow,
    Polynomial,
    Scalar,
    covered_by_assumptions,
)

from reference_loops import TuplePolynomial


def sc(text: str) -> Scalar:
    return parse_scalar(text)


# -- polynomial / scalar strategies for property tests -----------------------

_PARAMS = ("k1", "k2", "lambda")


@st.composite
def polynomials(draw, max_terms: int = 5, max_degree: int = 3) -> Polynomial:
    terms = draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(_PARAMS), max_size=max_degree),
            st.integers(min_value=-9, max_value=9),
        ),
        max_size=max_terms,
    ))
    total = Polynomial()
    for names, coeff in terms:
        mono = Polynomial.integer(coeff)
        for name in names:
            mono = mono * Polynomial.variable(name)
        total = total + mono
    return total


@st.composite
def scalars(draw, max_terms: int = 5, max_degree: int = 3) -> Scalar:
    num = draw(polynomials(max_terms, max_degree))
    den = draw(polynomials(max_terms, max_degree).filter(lambda p: not p.is_zero()))
    return Scalar(num, den)


# -- basic arithmetic ---------------------------------------------------------

def test_rational_addition():
    assert sc("1/2") + sc("1/3") == sc("5/6")


def test_parameter_cancellation():
    value = sc("k1") - sc("k1")
    assert value.is_zero()
    assert not value.num.terms


def test_family_entry_cross_multiplied_equality():
    entry = sc("(k9-k1)*(k5-k9)/(4*k3)")
    # equality must hold against the form with cleared denominator
    assert entry * sc("4*k3") == sc("(k9-k1)*(k5-k9)")
    assert str(entry) == "(-k1*k5 + k1*k9 + k5*k9 - k9^2)/(4*k3)"


def test_division_by_zero_scalar():
    with pytest.raises(DivisionByZero):
        sc("1") / (sc("k1") - sc("k1"))


def test_is_zero_ignores_certifying_assumptions():
    # k3 certifies the denominator; the numerator is zero with or without it
    value = sc("k3*(k5-k5)/k3")
    assert value.is_zero()
    assert not sc("lambda*kappa").is_zero()


def test_canonical_form_idempotent():
    raw = Scalar(Polynomial.integer(2) * Polynomial.variable("k1"),
                 Polynomial.integer(-4))
    again = Scalar(raw.num, raw.den)
    assert raw.num == again.num and raw.den == again.den
    assert str(raw) == "(-k1)/(2)"
    assert raw == sc("-k1/2")


def test_denominator_sign_normalised():
    value = Scalar(Polynomial.variable("k1"), Polynomial.integer(-3))
    assert value.den.leading_coefficient() > 0


def test_two_parameter_common_factor_cancels():
    assert str(sc("((k1 - k2)*(k1 + k2))/((k1 - k2)*k2)")) == "(k1 + k2)/(k2)"


def test_coprime_multivariate_pair_is_settled_by_images(monkeypatch):
    # a Hypothesis draw: primitive PRS in lambda over Z[k1, k2] takes about
    # 25 s to find that these are coprime, their images at a point a few us
    a = sc("10*k1^4*k2^3*lambda - 40*k1^4*k2^2*lambda^2 + 18*k1^2*k2^5*lambda"
           " - 72*k1^2*k2^4*lambda^2 - 80*k1^3*k2^2*lambda^2 - 15*k1^2*k2^3*lambda^2"
           " + 60*k1^2*k2^2*lambda^3 - 144*k1*k2^4*lambda^2 + 36*k1^2*k2^4"
           " - 144*k1^2*k2^3*lambda - 5*k1^2*k2^2*lambda^2 + 20*k1^2*k2*lambda^3"
           " + 120*k1*k2^2*lambda^3 - 50*k1^3*k2*lambda + 10*k1^2*k2^2*lambda"
           " - 40*k1^2*k2*lambda^2 - 387*k1*k2^3*lambda + 36*k1*k2^2*lambda^2"
           " + 40*k1*k2*lambda^3 - 5*k1*k2*lambda^2 + 72*k2^2*lambda^2 - 198*k1*k2^2"
           " + 72*k1*k2*lambda + 25*k1*lambda^2 - 50*k1*lambda + 189*k2*lambda + 90").num
    b = sc("6*k1*k2^2 + lambda^3").num
    prs = lieb.scalars._prs

    def over_z_only(f, g, gcd2, one):
        assert gcd2 is not Polynomial.gcd, "primitive PRS over a polynomial ring"
        return prs(f, g, gcd2, one)

    monkeypatch.setattr(lieb.scalars, "_prs", over_z_only)
    assert str(a.gcd(b)) == "1"
    h = sc("k1 + k2*lambda + 1").num
    monkeypatch.setattr(lieb.scalars, "_prs", prs)
    assert (a * h).gcd(b * h) == h


def test_equal_values_are_equal_forms_and_hashes():
    a, b = sc("(k^2 - 1)/(k^2 + k)"), sc("1 - 1/k")
    assert (a.num.terms, a.den.terms) == (b.num.terms, b.den.terms)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # a constant hashes as the int or Fraction it equals
    assert hash(sc("6/4")) == hash(Fraction(3, 2)) and hash(sc("k/k + 2")) == hash(3)


@given(a=scalars(), b=scalars(), c=scalars())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + (b + c) == (a + b) + c
    assert a - a == Scalar.from_int(0)


@given(a=scalars(), b=scalars())
@settings(max_examples=60, deadline=None)
def test_cross_multiplication_equality(a, b):
    # a/bden == c/d iff ad - cb == 0; here: a == b iff their difference is zero
    assert (a == b) == (a - b).is_zero()


@given(a=scalars(), b=scalars())
@settings(max_examples=40, deadline=None)
def test_eval_is_multiplicative(a, b):
    point = {name: Fraction(idx + 2, 3) for idx, name in enumerate(_PARAMS)}
    try:
        lhs = (a * b).evaluate(point)
        rhs = a.evaluate(point) * b.evaluate(point)
    except EvalSingular:
        return
    assert lhs == rhs


def test_eval_examples():
    assert sc("2*lambda*kappa").evaluate({"lambda": Fraction(1, 2), "kappa": Fraction(3)}) == 3
    with pytest.raises(EvalSingular):
        sc("1/k3").evaluate({"k3": Fraction(0)})
    point = {"k1": Fraction(0), "k5": Fraction(1), "k9": Fraction(1), "k3": Fraction(7)}
    assert sc("(k9-k1)*(k5-k9)/(4*k3)").evaluate(point) == 0


def test_substitute_symbolic():
    bound = sc("k2 + k5").substitute({"k2": sc("-lambda*kappa"), "k5": sc("2*lambda*kappa")})
    assert bound == sc("lambda*kappa")
    with pytest.raises(DivisionByZero):
        sc("1/k3").substitute({"k3": Scalar.from_int(0)})


# -- the coefficient grammar ---------------------------------------------------

def test_parse_whitespace_insensitive():
    assert sc(" ( k9-k1 ) * ( k5\t- k9 ) / (4*k3)") == sc("(k9-k1)*(k5-k9)/(4*k3)")
    assert sc("k1 +\n k2") == sc("k1 + k2")


def test_parse_powers_and_unary():
    assert sc("-k1^2") == -(sc("k1") * sc("k1"))
    assert sc("2^3") == sc("8")
    assert sc("+k1") == sc("k1")


def test_parse_negative_powers():
    assert sc("k^-2") == sc("1/k^2")
    assert sc("2^-3") == sc("1/8")
    with pytest.raises(ParseError, match="division by zero"):
        parse_scalar("0^-1")


def test_parse_rejects_unknown_parameter_when_restricted():
    with pytest.raises(ParseError):
        parse_scalar("k1 + zeta", allowed=("k1",))


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_scalar("k1 + ")
    assert err.value.col == 6
    assert "unexpected end of line" in str(err.value)
    with pytest.raises(ParseError):
        parse_scalar("k1 ~ k2")
    with pytest.raises(ParseError):
        parse_scalar("(k1")
    with pytest.raises(ParseError):
        parse_scalar("k1 k2")


@given(a=scalars())
@settings(max_examples=60, deadline=None)
def test_print_parse_round_trip(a):
    assert parse_scalar(str(a)) == a


# -- assumptions ---------------------------------------------------------------

def test_assumption_rejects_zero():
    with pytest.raises(ValueError):
        Assumption(Polynomial())


def test_assumption_normalised():
    a = Assumption(Polynomial.integer(-4) * Polynomial.variable("k3"))
    assert str(a) == "k3 != 0"


def test_covered_by_assumptions():
    k3 = Assumption(Polynomial.variable("k3"))
    k7 = Assumption(Polynomial.variable("k7"))
    four_k3 = sc("4*k3").num
    assert covered_by_assumptions(four_k3, [k3]) == [k3]
    k7_sq = sc("16*k7^2").num
    assert covered_by_assumptions(k7_sq, [k7]) == [k7]
    assert covered_by_assumptions(sc("k3*k7").num, [k3, k7]) == [k3, k7]
    assert covered_by_assumptions(sc("k3 + 1").num, [k3]) is None
    assert covered_by_assumptions(sc("7").num, []) == []


# -- constants: canonical form and the p/q view -----------------------------------

_INTS = st.one_of(st.integers(-12, 12), st.integers(-10**40, 10**40))
_DENS = st.one_of(st.integers(1, 12), st.integers(1, 10**40))
_FRACTIONS = st.one_of(st.just(Fraction(0)), st.builds(Fraction, _INTS, _DENS))


@st.composite
def fraction_pairs(draw) -> tuple[Fraction, Fraction]:
    if draw(st.booleans()):
        return draw(_FRACTIONS), draw(_FRACTIONS)
    den = draw(_DENS)  # a shared denominator before reduction
    return Fraction(draw(_INTS), den), Fraction(draw(_INTS), den)


def canonical(value: Fraction) -> Scalar:
    """A constant normalised by the constructor: the canonical form."""
    return Scalar(Polynomial.integer(value.numerator), Polynomial.integer(value.denominator))


def assert_constant(result: Scalar, expected: Fraction) -> None:
    reference = canonical(expected)
    assert result.num.terms == reference.num.terms
    assert result.den.terms == reference.den.terms
    assert str(result) == str(reference)
    assert (result.p, result.q) == (expected.numerator, expected.denominator)
    assert result.evaluate({}) == expected


def assert_pair_matches_polynomials(value: Scalar) -> None:
    """p/q are set exactly when num and den are constant, and agree with them."""
    if value.num.is_constant() and value.den.is_constant():
        p, q = value.num.constant_value(), value.den.constant_value()
        assert (value.p, value.q) == (p, q)
        assert q > 0 and gcd(p, q) == 1
    else:
        assert value.p is None and value.q is None


@given(pair=fraction_pairs())
@settings(max_examples=200, deadline=None)
def test_constant_ops_match_fraction_and_slow_form(pair):
    x, y = pair
    a, b = Scalar.from_fraction(x), Scalar.from_fraction(y)
    assert_constant(a, x)
    assert_constant(canonical(x), x)
    assert_constant(a + b, x + y)
    assert_constant(a - b, x - y)
    assert_constant(a * b, x * y)
    assert_constant(-a, -x)
    for n in (0, 1, 2, 3):
        assert_constant(a**n, x**n)
    if y:
        assert_constant(a / b, x / y)
        assert_constant(b**-2, y**-2)
    assert (a == b) == (x == y)
    assert (a == canonical(x)) and (canonical(x) == a)
    # int and Fraction operands on either side
    n = y.numerator
    assert_constant(a + n, x + n)
    assert_constant(n + a, n + x)
    assert_constant(a - y, x - y)
    assert_constant(y - a, y - x)
    assert_constant(n * a, n * x)
    assert (a == x) and (a == n) == (x == n)
    if x:
        assert_constant(y / a, y / x)


def test_division_by_zero_constant_raises():
    three, zero = Scalar.from_int(3), Scalar.from_fraction(Fraction(0))
    for divisor in (zero, 0, Fraction(0), Scalar.from_int(2) - Scalar.from_int(2)):
        with pytest.raises(DivisionByZero, match="division by zero scalar"):
            three / divisor
    with pytest.raises(DivisionByZero, match="division by zero scalar"):
        1 / zero
    with pytest.raises(DivisionByZero, match="division by zero scalar"):
        zero**-1


@st.composite
def symbolic_scalars(draw) -> Scalar:
    return draw(scalars().filter(lambda s: s.parameters()))


@given(x=_FRACTIONS, s=symbolic_scalars())
@settings(max_examples=60, deadline=None)
def test_mixed_constant_symbolic_ops(x, s):
    c = Scalar.from_fraction(x)
    results = [(c + s, x, 1), (s - c, -x, 1), (c * s, 0, x)]
    if x:
        results.append((s / c, 0, 1 / x))
    point = {name: Fraction(idx + 3, 7) for idx, name in enumerate(_PARAMS)}
    try:
        at_point = s.evaluate(point)
    except EvalSingular:  # then every result's denominator vanishes there too
        at_point = None
    for value, shift, scale in results:  # value = shift + scale * s
        assert_pair_matches_polynomials(value)
        again = Scalar(value.num, value.den)
        assert (value.num.terms, value.den.terms) == (again.num.terms, again.den.terms)
        if at_point is not None:
            assert value.evaluate(point) == shift + scale * at_point
    assert_constant(s - s + c, x)
    assert c * s == s * c and (c + s) - s == c
    with pytest.raises(DivisionByZero, match="division by zero scalar"):
        s / Scalar.from_int(0)


# -- differential check against sympy ----------------------------------------------

def _to_sympy(sympy, poly: Polynomial):
    total = sympy.Integer(0)
    for mono, coeff in poly.monomials().items():
        term = sympy.Integer(coeff)
        for name, e in mono:
            term *= sympy.Symbol(name) ** e
        total += term
    return total


def _scalar_to_sympy(sympy, value: Scalar):
    return _to_sympy(sympy, value.num) / _to_sympy(sympy, value.den)


@given(a=scalars(), b=scalars())
@settings(max_examples=40, deadline=None)
def test_results_are_in_lowest_terms(a, b):
    sympy = pytest.importorskip("sympy")
    A, B = _scalar_to_sympy(sympy, a), _scalar_to_sympy(sympy, b)
    results = [(a + b, A + B), (a - b, A - B), (a * b, A * B)]
    if not b.is_zero():
        results.append((a / b, A / B))
    for ours, theirs in results:
        num, den = _to_sympy(sympy, ours.num), _to_sympy(sympy, ours.den)
        assert sympy.gcd(num, den).is_number
        p, q = sympy.fraction(sympy.cancel(theirs))
        assert sympy.expand(num * q - den * p) == 0


_SMALL = scalars(max_terms=3, max_degree=2)


@given(a=_SMALL, b=_SMALL, c=_SMALL)
@settings(max_examples=20, deadline=None)
def test_against_sympy_cancel(a, b, c):
    sympy = pytest.importorskip("sympy")
    A, B, C = (_scalar_to_sympy(sympy, v) for v in (a, b, c))

    def same(ours: Scalar, theirs) -> bool:
        return sympy.cancel(_scalar_to_sympy(sympy, ours) - theirs) == 0

    # ring laws: each side against the cancelled sympy value of the other
    assert same((a + b) * c, A * C + B * C)
    assert same(a * b - b, (A - 1) * B)
    if not b.is_zero():
        assert same(a / b, A / B)
    # zero test
    assert (a - b).is_zero() == (sympy.cancel(A - B) == 0)
    # evaluation at a rational point
    point = {name: Fraction(2 * idx + 1, idx + 4) for idx, name in enumerate(_PARAMS)}
    subs = {sympy.Symbol(name): sympy.Rational(v.numerator, v.denominator)
            for name, v in point.items()}
    for ours, theirs in ((a, A), (a * b + c, A * B + C)):
        if _to_sympy(sympy, ours.den).subs(subs) == 0:
            continue
        value = ours.evaluate(point)
        assert sympy.Rational(value.numerator, value.denominator) == theirs.subs(subs)


# -- packed monomials ----------------------------------------------------------

@st.composite
def packed_pairs(draw, max_terms: int = 4, max_exponent: int = 3):
    """(Polynomial, TuplePolynomial) pairs over 4-5 parameters that the
    package first meets in the drawn order, not their name order."""
    names = [f"d{n}" for n in draw(st.lists(st.integers(0, 10**6), min_size=4, max_size=5,
                                              unique=True))]
    for name in names:
        Polynomial.variable(name)
    monomial = st.lists(st.tuples(st.sampled_from(names), st.integers(1, max_exponent)),
                        max_size=3, unique_by=lambda pair: pair[0])
    terms = st.dictionaries(monomial.map(lambda m: tuple(sorted(m))), st.integers(-9, 9),
                            max_size=max_terms)
    pairs = []
    for _ in range(3):
        t = draw(terms)
        pairs.append((Polynomial(t), TuplePolynomial(t)))
    return names, pairs


@given(packed_pairs(), st.lists(st.fractions(-5, 5, max_denominator=7), min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_packed_polynomials_agree_with_tuple_monomials(drawn, values):
    names, ((a, ra), (b, rb), (c, rc)) = drawn
    for p, ref in ((a, ra), (b, rb), (a * b, ra * rb), (a + b, ra + rb), (a - b, ra - rb),
                   (-a, -ra), (a * b + c, ra * rb + rc), (a ** 2, ra * ra)):
        assert TuplePolynomial(p.monomials()) == ref
        assert str(p) == str(ref)
        assert (p.parameters(), p.degree()) == (ref.parameters(), ref.degree())
        assert p.evaluate(dict(zip(names, values))) == ref.evaluate(dict(zip(names, values)))
    if b:
        assert (a * b) // b == a
    if c and (a or b):
        # gcd(a c, b c) divides both and is divided by c (checked by the
        # reference's exact division)
        g = TuplePolynomial((a * c).gcd(b * c).monomials())
        for ref in (ra * rc, rb * rc):
            assert ref // g * g == ref
        assert g // rc * rc == g


def test_a_product_reaching_two_to_the_31_raises_and_names_the_parameter():
    top = 2**31 - 1
    big = Polynomial({(("k", top), ("zj", 5)): 3})
    assert (big * Polynomial.variable("zj")).monomials() == {(("k", top), ("zj", 6)): 3}
    for product in (lambda: big * Polynomial.variable("k"),
                    lambda: (big + Polynomial.integer(1)) * (Polynomial.variable("k") + big),
                    lambda: Polynomial({(("k", 2**31),): 1}),
                    lambda: sc("k") ** 2**31):
        with pytest.raises(ExponentOverflow, match="^the exponent of k exceeds 2147483647$"):
            product()
    assert issubclass(ExponentOverflow, OverflowError)


def test_power_forms_no_product_above_its_degree(monkeypatch):
    p = sc("k1 + k2 + k3 + 1").num
    expected = [Polynomial.integer(1)]
    for _ in range(9):
        expected.append(expected[-1] * p)
    degrees = []
    mul = Polynomial.__mul__

    def spy(a, b):
        degrees.append(a.degree() + b.degree())
        return mul(a, b)
    monkeypatch.setattr(Polynomial, "__mul__", spy)
    for n, power in enumerate(expected):
        degrees.clear()
        assert p ** n == power
        assert max(degrees, default=0) <= n
    k = Polynomial.variable("k")
    assert (k ** 2**30).monomials() == {(("k", 2**30),): 1}  # no square past the last bit


def _python(script: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(lieb.scalars.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_pickled_scalar_loads_equal_where_parameters_were_met_in_another_order():
    text = "k9 + 4*k3*k4/k7 - 4*k2*k4^2/k7^2"  # a classification family 7 entry
    dumped = _python("import pickle, sys\n"
                     "from lieb import parse_scalar\n"
                     "parse_scalar('k2*k3*k4*k7*k9')\n"
                     f"sys.stdout.write(pickle.dumps(parse_scalar({text!r})).hex())\n")
    loaded = _python("import pickle\n"
                     "from lieb import parse_scalar\n"
                     "from lieb.scalars import _NAMES\n"
                     "parse_scalar('zz*k9*k7*k4*k3*k2')\n"
                     f"value = pickle.loads(bytes.fromhex({dumped!r}))\n"
                     f"print(value == parse_scalar({text!r}), value, _NAMES[:6])\n")
    assert loaded == ("True (-4*k2*k4^2 + 4*k3*k4*k7 + k7^2*k9)/(k7^2) "
                      "['zz', 'k9', 'k7', 'k4', 'k3', 'k2']\n")
    value = pickle.loads(pickle.dumps(sc(text)))
    assert value == sc(text) and str(value) == str(sc(text))
