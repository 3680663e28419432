"""The fraction-free coefficient kernel: ``CoeffPoly`` against a per-term
Fraction model on random inputs, its packed b-monomials at the edges of
their fields, its canonical form on engine data, and the shared
multiply-accumulate kernel against products taken one pair at a time."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cobschub.flagring import FlagContext, reduce_canonical, times_terms
from cobschub.ringcore import (
    MAX_EXPONENT,
    MAX_INDEX,
    CoeffPoly,
    TruncSeries,
    UsageError,
    compose,
    sum_of_products,
)
from cobschub.schubert import bs_class
from cobschub.weylops import Permutation, reduced_word

from oracles import (
    FractionPoly,
    coeff_degrees,
    coeff_from_fractions,
    denominator_lcm,
    fraction_coeff_str,
    fraction_terms,
    law_of,
    pairwise_flag_mul,
    pairwise_series_mul,
    pairwise_sum_of_products,
    specialize,
    support_indices,
    termwise_compose,
)

# b_16 is the highest generator of the rank-6 law (cap 17); exponents reach
# the field limit, so products and powers also leave it
INDICES = st.integers(1, 16)
EXPONENTS = st.one_of(st.integers(1, 3), st.integers(1, MAX_EXPONENT),
                      st.integers(MAX_EXPONENT - 2, MAX_EXPONENT))


def bmonomials(exponents=EXPONENTS):
    return st.dictionaries(INDICES, exponents, max_size=3).map(
        lambda d: tuple(sorted(d.items())))


rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
term_maps = st.dictionaries(bmonomials(), rationals, max_size=5)
# two monomials of these multiply without leaving the field
half_term_maps = st.dictionaries(
    bmonomials(st.integers(1, MAX_EXPONENT // 2)), rationals, max_size=5)
scalars = st.one_of(st.integers(-6, 6), rationals)
SETTINGS = settings(max_examples=150, deadline=None)


def assert_canonical(p: CoeffPoly) -> None:
    assert isinstance(p.den, int) and p.den > 0
    assert all(isinstance(v, int) and v for v in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    assert p.den == math.lcm(
        *(value.denominator for value in fraction_terms(p).values()))


def assert_matches(p: CoeffPoly, model: FractionPoly) -> None:
    assert_canonical(p)
    assert fraction_terms(p) == model.terms


def top_exponent(model: FractionPoly) -> int:
    return max((e for key in model.terms for _, e in key), default=0)


def product_or_overflow(compute, model: FractionPoly, parts=()):
    """compute() matches the model while every exponent of the model and of
    its partial products ``parts`` fits its field, and raises UsageError when
    one does not."""
    if max(map(top_exponent, (model, *parts))) > MAX_EXPONENT:
        with pytest.raises(UsageError):
            compute()
        return None
    result = compute()
    assert_matches(result, model)
    return result


@SETTINGS
@given(term_maps, term_maps, term_maps, scalars, st.integers(0, 3))
def test_arithmetic_matches_fraction_model(ta, tb, tc, scalar, exponent):
    a, b, c = map(coeff_from_fractions, (ta, tb, tc))
    ma, mb, mc = FractionPoly(ta), FractionPoly(tb), FractionPoly(tc)
    for p in (a, b, c):
        assert_canonical(p)
    assert_matches(a + b, ma + mb)
    assert_matches(a - b, ma - mb)
    assert_matches(-a, -ma)
    product_or_overflow(lambda: a * b, ma * mb)
    left = product_or_overflow(lambda: (a + b) * c, (ma + mb) * mc)
    right = product_or_overflow(lambda: a * c, ma * mc)
    if left is not None and right is not None:
        assert_matches(left - right, mb * mc)
    assert_matches(a * scalar, ma * scalar)
    assert_matches(scalar * a, ma * scalar)
    assert_matches(a + scalar, ma + FractionPoly({(): scalar}))
    product_or_overflow(lambda: a**exponent, ma**exponent)
    # the kernel with CoeffPoly and integer factors on one key; a product
    # that leaves the field raises even when the sum cancels it
    factor = scalar if isinstance(scalar, int) else CoeffPoly.rational(scalar)
    product_or_overflow(
        lambda: sum_of_products([(0, a, b), (0, b, c), (0, c, factor)]).get(
            0, CoeffPoly.zero()),
        ma * mb + mb * mc + mc * scalar, (ma * mb, mb * mc))
    assert_matches(CoeffPoly.rational(scalar), FractionPoly({(): scalar}))


@SETTINGS
@given(term_maps, st.fixed_dictionaries(
    {i: rationals for i in range(1, 17)}))
def test_specialize_matches_fraction_model(ta, values):
    expected = FractionPoly(ta).specialize(values)
    assert specialize(coeff_from_fractions(ta), values) == expected


@SETTINGS
@given(half_term_maps, half_term_maps, half_term_maps)
def test_equal_values_from_different_routes_hash_equal(tx, ty, tz):
    x, y, z = map(coeff_from_fractions, (tx, ty, tz))
    routes = [
        ((x + y) * z, x * z + y * z),
        (x * y, y * x),
        ((x + y) - y, x),
        (x - x, CoeffPoly.zero()),
        (x * 2 * Fraction(1, 2), x),
        (coeff_from_fractions(fraction_terms(x * z)), x * z),
        # a rational constant equals, and so hashes as, its int or Fraction
        (CoeffPoly.one(), 1),
        (x - x, 0),
        (CoeffPoly.rational(Fraction(1, 2)), Fraction(1, 2)),
        ((x - x) + Fraction(-3, 4), Fraction(-3, 4)),
    ]
    for left, right in routes:
        assert left == right
        assert hash(left) == hash(right)


def test_exponents_beyond_the_field_raise():
    limit = MAX_EXPONENT
    for bad in ((2, limit + 1), (MAX_INDEX + 1, 1)):
        with pytest.raises(UsageError):
            CoeffPoly.b(*bad)
    top = CoeffPoly.b(3, limit)
    # a field that wrapped would carry into b_4 and return b_4 (or b_3 b_4
    # for the square): never a different monomial, always an error
    for overflowing in (lambda: top * CoeffPoly.b(3),
                        lambda: (top + 1) * (CoeffPoly.b(3) - 1),
                        lambda: CoeffPoly.b(3, limit // 2 + 1) ** 2,
                        lambda: (CoeffPoly.b(1) * top) * CoeffPoly.b(3, 2)):
        with pytest.raises(UsageError, match="field limit"):
            overflowing()
    # the same in series, flag and composition products, whose kernel merges
    # many pairs; in the first series and flag products, b3^16 * (-b3^16) +
    # b3^31 * b3 leaves the field and cancels on one monomial, and every
    # other product fits or lies above the cap
    half = CoeffPoly.b(3, 16)
    t = ("t",)
    series = TruncSeries(t, 2, {(0,): half, (2,): top})
    other = TruncSeries(t, 2, {(0,): CoeffPoly.b(3), (2,): -half})
    ctx = FlagContext(2)
    elem = reduce_canonical(ctx, {(0, 0): half, (0, 1): top})
    elem_other = reduce_canonical(ctx, {(0, 0): CoeffPoly.b(3),
                                        (0, 1): -half})
    outer = TruncSeries(t, 3, {(1,): top})
    for overflowing in (
            lambda: series * other,
            lambda: series * TruncSeries(t, 2, {(0,): CoeffPoly.b(3)}),
            lambda: elem * elem_other,
            lambda: elem * reduce_canonical(ctx, {(0, 0): CoeffPoly.b(3)}),
            lambda: compose(outer, [TruncSeries(t, 3, {(1,): CoeffPoly.b(3)})]),
            lambda: compose(outer * TruncSeries.variable(t, 3, "t"),
                            [TruncSeries(t, 3, {(1,): 1, (2,): top})])):
        with pytest.raises(UsageError, match="field limit"):
            overflowing()
    # the edge of the field and its neighbours stay exact
    assert (top * CoeffPoly.b(2) * CoeffPoly.b(4)).ratios() == [
        (((2, 1), (3, limit), (4, 1)), 1, 1)]
    assert CoeffPoly.b(3, limit // 2) ** 2 * CoeffPoly.b(3, limit % 2) == top
    assert CoeffPoly.b(MAX_INDEX, limit).ratios() == [
        (((MAX_INDEX, limit),), 1, 1)]


def test_guard_sees_flag_products_on_monomials_with_empty_forms():
    # x_4^4 lies in the ideal at rank 4, so its normal form is empty and a
    # flag product spreads nothing from it.  b3^16 * (-b3^16) + b3^15 * b3^17
    # leaves the field on x_4^4 and cancels, and b3^16 * b3^17 leaves it on
    # x_4^5, whose form is empty too; every other product fits.  A guard
    # that saw only what was spread would let both through.
    ctx = FlagContext(4)
    assert ctx._normal_forms[ctx.pack((0, 0, 0, 4))] == ()
    half = CoeffPoly.b(3, 16)
    a = reduce_canonical(ctx, {(0, 0, 0, 3): half,
                               (0, 0, 0, 2): CoeffPoly.b(3, 15)})
    b = reduce_canonical(ctx, {(0, 0, 0, 1): -half,
                               (0, 0, 0, 2): CoeffPoly.b(3, 17)})
    # through degree 4 the only overflow is the one that cancels
    for overflowing in (lambda: a * b,
                        lambda: times_terms(ctx, a.terms, b.terms, 4)):
        with pytest.raises(UsageError, match="field limit"):
            overflowing()
    assert times_terms(ctx, a.terms, b.terms, 3) == {
        ctx.pack((0, 0, 0, 3)): -CoeffPoly.b(3, 31)}


def test_terms_keys_are_sorted_tuples():
    p = coeff_from_fractions({((1, 3), (5, 2)): 1, (): Fraction(2, 3),
                              ((2, 4), (16, 1)): -1})
    assert p.ratios() == [((), 2, 3), (((1, 3), (5, 2)), 1, 1),
                          (((2, 4), (16, 1)), -1, 1)]
    for key, _, _ in (p * p).ratios():
        assert isinstance(key, tuple)
        assert all(isinstance(pair, tuple) and len(pair) == 2
                   for pair in key)
        assert list(key) == sorted(key)
        assert len({i for i, _ in key}) == len(key)
    assert coeff_degrees(p) == {-13, 0, -24}
    assert support_indices(p) == {1, 2, 5, 16}
    assert str(p) == "2/3 + b1^3*b5^2 - b2^4*b16"


@SETTINGS
@given(term_maps)
@example({})
@example({(): Fraction(-3, 4)})
@example({((1, MAX_EXPONENT),): Fraction(5, 6), ((2, 1),): Fraction(-1, 4),
          ((16, 2),): Fraction(0), (): Fraction(7, 2)})
def test_ratios_are_the_fraction_view_in_lowest_terms(terms):
    # mixed denominators, negative numerators, zeros, pure rationals and
    # exponents up to the field limit; str reads the same view
    c = coeff_from_fractions(terms)
    ratios = c.ratios()
    assert ratios == sorted((key, value.numerator, value.denominator)
                            for key, value in fraction_terms(c).items())
    assert all(type(num) is int and type(den) is int and den > 0
               for _, num, den in ratios)
    assert str(c) == fraction_coeff_str(c)


def test_engine_coefficients_are_canonical():
    ctx = FlagContext(4)
    law = law_of(ctx)
    # the context's log, exp and the pack the operators read, and the rest
    # of the law
    series = [ctx.log, ctx.exp, ctx.unit_inv, law.F, law.chi, law.q]
    for s in series:
        for coeff in s.terms.values():
            assert_canonical(coeff)
    w0 = bs_class(ctx, reduced_word(Permutation((4, 3, 2, 1))))
    for coeff in w0.terms.values():
        assert_canonical(coeff)
    # the lcm of the rank-4 longest word's class, recorded before the kernel
    # went fraction-free
    assert denominator_lcm(w0) == 2


# ---------------------------------------------------------------------------
# The multiply-accumulate kernel against products one pair at a time


def random_coeff(rng) -> CoeffPoly:
    """One to three b-monomials with rational coefficients over mixed
    denominators."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = tuple(sorted({rng.randint(1, 4): rng.randint(1, 2)
                            for _ in range(rng.randint(0, 2))}.items()))
        terms[key] = Fraction(rng.choice((-5, -2, -1, 1, 3, 4)),
                              rng.choice((1, 2, 3, 4, 6)))
    return coeff_from_fractions(terms)


def random_terms(rng, n: int, top: int, low: int = 0, size: int = 6) -> dict:
    terms = {}
    while len(terms) < size:
        key = tuple(rng.randint(0, top) for _ in range(n))
        if low <= sum(key) <= top:
            terms[key] = random_coeff(rng)
    return terms


def cancellations(a_terms, b_terms, cap: int, result_terms) -> int:
    """How many output monomials that some pair of terms reaches sum to zero."""
    reached = {tuple(map(sum, zip(k1, k2)))
               for k1 in a_terms for k2 in b_terms
               if sum(k1) + sum(k2) <= cap}
    return len(reached - result_terms.keys())


def mixed_denominator_terms(rng):
    """Kernel terms whose coprime denominators spread over the keys 0..5,
    so each key's lcm differs and most keys' denominators grow as their
    pairs arrive; (p, 1) singletons on the keys 6..9; and a key "cancels"
    whose pairs cancel.  Returns the shuffled terms and the singletons."""
    dens = (1, 2, 3, 5, 7, 11, 13)

    def coeff(den) -> CoeffPoly:
        return coeff_from_fractions({
            tuple(sorted({rng.randint(1, 3): rng.randint(1, 2)
                          for _ in range(rng.randint(0, 2))}.items())):
            Fraction(rng.choice((-4, -1, 1, 2, 3)), den)
            for _ in range(rng.randint(1, 3))})

    terms = []
    for key in range(6):
        for _ in range(rng.randint(1, 4)):
            q = rng.choice((rng.randint(-3, 3) or 1, coeff(rng.choice(dens))))
            terms.append((key, coeff(rng.choice(dens)), q))
    singles = {key: coeff(rng.choice(dens)) for key in range(6, 10)}
    terms += [(key, p, 1) for key, p in singles.items()]
    p, q = coeff(7), coeff(11)
    terms += [("cancels", p, q), ("cancels", -p, q)]
    rng.shuffle(terms)
    return terms, singles


@pytest.mark.parametrize("seed", range(6))
def test_kernel_takes_each_keys_denominator_from_its_pairs(seed):
    terms, singles = mixed_denominator_terms(random.Random(300 + seed))
    # any iterable that can be read once
    got = sum_of_products(iter(terms))
    assert {key: fraction_terms(value) for key, value in got.items()} == (
        pairwise_sum_of_products(terms))
    for value in got.values():
        assert_canonical(value)
    assert "cancels" not in got
    for key, p in singles.items():
        assert got[key] == p


# spreads for the keys of ``mixed_denominator_terms``: several unit entries
# on one key (a moved sum once sat under two skeys, so what was added to one
# showed in the other), scaled entries, skeys that many keys share, an
# empty spread, and a key that is its own spread
SPREADS = {0: (("s", 1), ("t", 1)), 1: (("s", -2), ("u", 1)), 2: (),
           3: (("t", 1),), 4: (("u", 3), ("s", 1)),
           5: (("v", 1), ("w", 1), ("s", 1)), 6: (("s", 1), ("w", 2)),
           7: ((7, 1),), 8: (("t", -1),), 9: (("w", 1), ("t", 1)),
           "cancels": (("v", 1),)}


@pytest.mark.parametrize("seed", range(6))
def test_spread_matches_spreading_each_pair(seed):
    # each key's sum goes into every skey of its spread once all its pairs
    # are in; spreading every pair on its own gives the same sums
    terms, _ = mixed_denominator_terms(random.Random(400 + seed))
    got = sum_of_products(iter(terms), SPREADS)
    assert {key: fraction_terms(value) for key, value in got.items()} == (
        pairwise_sum_of_products((skey, p, c * q) for key, p, q in terms
                                 for skey, c in SPREADS[key]))
    for value in got.values():
        assert_canonical(value)


def test_keys_whose_pairs_all_have_zero_coefficients_are_left_out():
    # a zero CoeffPoly on either side and an int q of 0 make no entry, with
    # and without a spread, and a key's empty sum moved onto an skey first
    # does not keep a zero there
    p = coeff_from_fractions({((1, 1),): Fraction(1, 2), (): Fraction(3)})
    zero = CoeffPoly.zero()
    terms = [("zero q", p, zero), ("zero q", p, 0), ("int 0", p, 0),
             ("zero p", zero, p), ("kept", p, 3)]
    assert sum_of_products(iter(terms)) == {"kept": p * 3}
    spread = {"zero q": (("s", 1),), "int 0": (("s", 2), ("t", 1)),
              "zero p": (("t", 1),), "kept": (("u", -1), ("s", 1))}
    got = sum_of_products(iter(terms), spread)
    assert got == {"u": p * -3, "s": p * 3}
    alone = sum_of_products(iter(terms[:4]), spread)
    assert alone == {}


def test_guard_sees_an_overflow_on_the_last_of_many_clean_keys():
    # the guard runs once per merge; an overflow confined to the last key's
    # sum, after many keys that fit, still raises, with a spread too, and
    # the clean keys alone merge
    top = CoeffPoly.b(3, MAX_EXPONENT)
    clean = [(key, CoeffPoly.b(1 + key % 5), CoeffPoly.b(2, 1 + key % 7))
             for key in range(60)]
    spread = {key: ((("s", key % 4), 1), (key, 2)) for key in range(61)}
    for terms in (clean + [(60, top, CoeffPoly.b(3))],
                  clean + [(60, top, CoeffPoly.b(3)),
                           (60, -top, CoeffPoly.b(3))]):
        for args in ((), (spread,)):
            with pytest.raises(UsageError, match="field limit"):
                sum_of_products(iter(terms), *args)
    assert len(sum_of_products(iter(clean))) == 60
    assert len(sum_of_products(iter(clean), spread)) == 64


def test_guard_sees_flag_products_on_monomials_divisible_by_e_n():
    # x_1 x_2 x_3 x_4 = e_4 lies in the ideal at rank 4, so the table gives
    # it the empty form at once; b3^16 * b3^16 leaves the field on it, and
    # every other product of the merge fits
    ctx = FlagContext(4)
    half = CoeffPoly.b(3, 16)
    low = {ctx.pack((1, 1, 0, 0)): half,
           ctx.pack((0, 1, 0, 0)): CoeffPoly.b(3)}
    high = {ctx.pack((0, 0, 1, 1)): half}
    with pytest.raises(UsageError, match="field limit"):
        times_terms(ctx, low, high, 4)
    assert ctx._normal_forms[ctx.pack((1, 1, 1, 1))] == ()
    assert times_terms(ctx, low, high, 3) == times_terms(
        ctx, {ctx.pack((0, 1, 0, 0)): CoeffPoly.b(3)}, high, 3)


@pytest.mark.parametrize("n", [3, 4])
def test_series_and_flag_products_match_pairwise_routes(n):
    rng = random.Random(100 + n)
    ctx = FlagContext(n)
    cancelled = 0
    for cap in range(5, 9):
        # (f (x1 - x2)) (f (x1 + x2)) has cross terms that cancel
        x1, x2 = (TruncSeries.variable(ctx.vars, cap, v) for v in ("x1", "x2"))
        for _ in range(3):
            f = TruncSeries(ctx.vars, cap, random_terms(rng, n, cap))
            g = TruncSeries(ctx.vars, cap, random_terms(rng, n, cap))
            for a, b in ((f, g), (f * (x1 - x2), f * (x1 + x2))):
                expected = pairwise_series_mul(a, b)
                assert a * b == expected
                cancelled += cancellations(a.terms, b.terms, cap,
                                           expected.terms)
    x1, x2 = ctx.x_elem(1), ctx.x_elem(2)
    for _ in range(4):
        f = reduce_canonical(ctx, random_terms(rng, n, ctx.d))
        g = reduce_canonical(ctx, random_terms(rng, n, ctx.d))
        for a, b in ((f, g), (f * (x1 - x2), f * (x1 + x2))):
            expected = pairwise_flag_mul(a, b)
            assert a * b == expected
    assert cancelled > 0


@pytest.mark.parametrize("n", [3, 4])
def test_compose_matches_the_termwise_route(n):
    rng = random.Random(200 + n)
    ctx = FlagContext(n)
    for cap in range(5, 9):
        for outer_vars in (("t",), ("u", "v")):
            outer = TruncSeries(outer_vars, cap,
                                random_terms(rng, len(outer_vars), cap))
            args = [TruncSeries(ctx.vars, cap,
                                random_terms(rng, n, 2, low=1, size=3))
                    for _ in outer_vars]
            assert compose(outer, args) == termwise_compose(outer, args)
    # the law's own F, whose coefficients are b-polynomials
    law = law_of(ctx)
    args = [TruncSeries(ctx.vars, law.degree_cap,
                        random_terms(rng, n, 1, low=1, size=2))
            for _ in range(2)]
    args[1] = args[1] - args[0]
    assert compose(law.F, args) == termwise_compose(law.F, args)
