"""The fraction-free coefficient kernel: ``CoeffPoly`` against a per-term
Fraction model on random inputs, and its canonical form on engine data."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cobschub.flagring import FlagContext
from cobschub.ringcore import CoeffPoly
from cobschub.schubert import bs_class
from cobschub.weylops import Permutation, reduced_word

from oracles import FractionPoly

bmonomials = st.dictionaries(st.integers(1, 4), st.integers(1, 3),
                             max_size=3).map(
                                 lambda d: tuple(sorted(d.items())))
rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
term_maps = st.dictionaries(bmonomials, rationals, max_size=5)
scalars = st.one_of(st.integers(-6, 6), rationals)
SETTINGS = settings(max_examples=150, deadline=None)


def assert_canonical(p: CoeffPoly) -> None:
    assert isinstance(p.den, int) and p.den > 0
    assert all(isinstance(v, int) and v for v in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    assert p.denominator_lcm() == math.lcm(
        *(value.denominator for value in p.terms.values()))


def assert_matches(p: CoeffPoly, model: FractionPoly) -> None:
    assert_canonical(p)
    assert p.terms == model.terms


@SETTINGS
@given(term_maps, term_maps, term_maps, scalars, st.integers(0, 3))
def test_arithmetic_matches_fraction_model(ta, tb, tc, scalar, exponent):
    a, b, c = CoeffPoly(ta), CoeffPoly(tb), CoeffPoly(tc)
    ma, mb, mc = FractionPoly(ta), FractionPoly(tb), FractionPoly(tc)
    for p in (a, b, c):
        assert_canonical(p)
    assert_matches(a + b, ma + mb)
    assert_matches(a - b, ma - mb)
    assert_matches(-a, -ma)
    assert_matches(a * b, ma * mb)
    assert_matches((a + b) * c - a * c, mb * mc)
    assert_matches(a * scalar, ma * scalar)
    assert_matches(scalar * a, ma * scalar)
    assert_matches(a + scalar, ma + FractionPoly({(): scalar}))
    assert_matches(a**exponent, ma**exponent)
    assert_matches(CoeffPoly.rational(scalar), FractionPoly({(): scalar}))


@SETTINGS
@given(term_maps, st.dictionaries(st.integers(1, 4), rationals,
                                  min_size=4, max_size=4))
def test_specialize_matches_fraction_model(ta, values):
    expected = FractionPoly(ta).specialize(values)
    assert CoeffPoly(ta).specialize(values) == expected


@SETTINGS
@given(term_maps, term_maps, term_maps)
def test_equal_values_from_different_routes_hash_equal(tx, ty, tz):
    x, y, z = CoeffPoly(tx), CoeffPoly(ty), CoeffPoly(tz)
    routes = [
        ((x + y) * z, x * z + y * z),
        (x * y, y * x),
        ((x + y) - y, x),
        (x - x, CoeffPoly.zero()),
        (x * 2 * Fraction(1, 2), x),
        (CoeffPoly((x * z).terms), x * z),
    ]
    for left, right in routes:
        assert left == right
        assert hash(left) == hash(right)


def test_engine_coefficients_are_canonical():
    ctx = FlagContext(4)
    law = ctx.fgl
    series = [law.log, law.exp, law.F, law.chi, law.q, *law.pair_pack()]
    for s in series:
        for coeff in s.terms.values():
            assert_canonical(coeff)
    w0 = bs_class(ctx, reduced_word(Permutation((4, 3, 2, 1))))
    for coeff in w0.terms.values():
        assert_canonical(coeff)
    # the lcm of the rank-4 longest word's class, recorded before the kernel
    # went fraction-free
    assert w0.denominator_lcm() == 2
