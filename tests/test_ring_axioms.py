"""The ring axioms, by Hypothesis, for both element types that share the
module operations of ``ringcore.TermMap``: series in two variables
truncated at degree 4, and flag elements of rank 3 built from raw
polynomials by canonical reduction.  Monomials above the cap and the
presentation's ideal are both ideals, so truncation and reduction must keep
every axiom exactly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobschub.flagring import FlagContext, reduce_canonical
from cobschub.ringcore import CoeffPoly, TruncSeries

from oracles import coeff_from_fractions

CTX = FlagContext(3)
VARS, CAP = ("u", "v"), 4

coeffs = st.dictionaries(
    st.sampled_from([(), ((1, 1),), ((2, 1),), ((1, 2),)]),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    min_size=1, max_size=2).map(coeff_from_fractions)
exponents = st.integers(0, 2)
KINDS = {
    "series": (
        st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                        coeffs, max_size=4).map(
            lambda terms: TruncSeries(VARS, CAP, terms)),
        TruncSeries.zero(VARS, CAP), TruncSeries.one(VARS, CAP)),
    "flag": (
        st.dictionaries(st.tuples(exponents, exponents, exponents), coeffs,
                        max_size=4).map(
            lambda terms: reduce_canonical(CTX, terms)),
        CTX.zero(), CTX.one()),
}
scalars = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-3, 3),
                              st.integers(1, 3)),
                    coeffs)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_axioms(kind, data):
    elements, zero, one = KINDS[kind]
    a, b, c = (data.draw(elements) for _ in range(3))
    s, t = data.draw(scalars), data.draw(scalars)
    # the additive group
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert a + zero == a
    assert (a - a).is_zero() and (a + (-a)).is_zero()
    assert a - b == a + (-b) and -(-a) == a
    # the multiplicative monoid, commutative
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert one * a == a == a * one
    assert (a * zero).is_zero()
    # distributivity, and the products with coefficients
    assert a * (b + c) == a * b + a * c
    assert (a - b) * c == a * c - b * c
    assert (a * s) * b == (a * b) * s == s * (a * b)
    assert a * s + a * t == a * (CoeffPoly.coerce(s) + t)
    assert (a * 0).is_zero() and a * 1 == a
    assert (a * 2).coefficient((0,) * len(a.vars)) == (
        a.constant_term() * 2)
