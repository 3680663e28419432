"""The context's packed x-monomials and its table of integer normal forms.

Packing round-trips every exponent vector of degree at most d, its bit
tests for "staircase" and for the first field that is not are their tuple
definitions, the sum of two packs is the pack of the product while the
degrees add up to at most d, and the one entry from tuples refuses
malformed ones, at ranks 2-8 (rank 7 is the first whose fields are 6 bits
wide).  Each form is staircase and congruent to its monomial modulo the
symmetric ideal, the one-variable peel gives the forms of the full h_j
cascade and is linear in each variable, the table stays small, and
reduction through the table agrees with the rewrite sweep on CoeffPoly
coefficients.  Every entry that returns an element keys its terms by
staircase packs of degree at most d, and the tuple view of an element
reduces back to it."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cobschub.flagring import (
    THEORIES,
    FlagContext,
    FlagElem,
    Weight,
    c1_weight,
    point_class,
    reduce_canonical,
    rho_weight,
    theory_law,
)
from cobschub.ringcore import CoeffPoly, TruncSeries, UsageError
from cobschub.schubert import bs_class
from cobschub.weylops import (
    Permutation,
    _op_pack,
    divided_diff,
    divided_diff_dual,
    reduced_word,
    sigma_op,
)

from oracles import (
    cascade_normal_form,
    coeff_from_fractions,
    heap_reduce,
    in_symmetric_ideal,
    random_flag_elem,
    unpack,
)


def is_staircase(key) -> bool:
    return all(e <= j for j, e in enumerate(key))


def first_climb(key) -> int:
    """The first j with x_j-exponent at least j, 0 for a staircase key."""
    return next((j for j, e in enumerate(key, start=1) if e >= j), 0)


@functools.lru_cache(maxsize=None)
def chow_context(n):
    # the layout and the forms do not depend on the law
    return FlagContext(n, Fraction(0))


def monomials_through(n, degree):
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            key = [0] * n
            for pos in combo:
                key[pos] += 1
            yield tuple(key)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_monomial_through_d_round_trips(n):
    ctx = chow_context(n)
    one = CoeffPoly.one()
    packs = set()
    for key in monomials_through(n, ctx.d):
        m = ctx.pack(key)
        assert unpack(ctx, m) == key and m >> ctx.degree_shift == sum(key)
        assert ctx.unpack(m) == key
        assert FlagElem._raw(ctx, {m: one}).exponents() == {key: one}
        assert ctx._climb(m) == first_climb(key), key
        packs.add(m)
    assert len(packs) == math.comb(n + ctx.d, n)


@st.composite
def rank_and_two_monomials(draw):
    """A rank 2-8 and two exponent vectors whose degrees add up to at most
    d, with the whole degree often on one variable."""
    n = draw(st.integers(2, 8))

    def monomial(room):
        key = [0] * n
        if draw(st.booleans()):
            key[draw(st.integers(0, n - 1))] = draw(st.integers(0, room))
        else:
            for pos in draw(st.lists(st.integers(0, n - 1), max_size=room)):
                key[pos] += 1
        return tuple(key)

    a = monomial(n * (n - 1) // 2)
    return n, a, monomial(n * (n - 1) // 2 - sum(a))


@settings(max_examples=300, deadline=None)
@given(rank_and_two_monomials())
@example((7, (21, 0, 0, 0, 0, 0, 0), (0,) * 7))
@example((7, (10, 0, 0, 0, 0, 0, 0), (11, 0, 0, 0, 0, 0, 0)))
@example((8, (0,) * 7 + (13,), (0,) * 7 + (15,)))
@example((7, (0, 1, 2, 3, 4, 5, 6), (0,) * 7))
def test_packed_monomials_multiply_by_adding(case):
    # no field carries into the next, up to an exponent of d in one field
    n, a, b = case
    ctx = chow_context(n)
    total = tuple(map(sum, zip(a, b)))
    m = ctx.pack(a) + ctx.pack(b)
    assert m == ctx.pack(total)
    assert unpack(ctx, m) == total
    assert m >> ctx.degree_shift == sum(total)
    assert ctx._climb(m) == first_climb(total)
    assert (ctx._climb(m) == 0) == is_staircase(total)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("key", [
    lambda n: (0,) * (n - 1), lambda n: (0,) * (n + 1),
    lambda n: (-1,) + (1,) * (n - 1), lambda n: (0,) * (n - 1) + (-3,),
    lambda n: (1.0,) + (0,) * (n - 1), lambda n: ("1",) + (0,) * (n - 1),
    lambda n: (None,) * n,
], ids=["short", "long", "negative", "negative-last", "float", "str",
        "none"])
def test_malformed_keys_are_refused_at_every_rank(n, key):
    # one warm context per rank, which has just reduced x_1: (1.0, 0, ..)
    # equals (1, 0, ..) and hashes alike, and is still refused
    ctx = chow_context(n)
    assert reduce_canonical(ctx, {(1,) + (0,) * (n - 1): 1}) == ctx.x_elem(1)
    key = key(n)
    with pytest.raises(UsageError, match="malformed exponent vector"):
        ctx.pack(key)
    with pytest.raises(UsageError, match="malformed exponent vector"):
        reduce_canonical(ctx, {key: 1})


@pytest.mark.parametrize("n", range(2, 9))
def test_keys_above_degree_d_reduce_to_zero(n):
    ctx = chow_context(n)
    for key in ((ctx.d + 1,) + (0,) * (n - 1), (0,) * (n - 1) + (ctx.d + 5,),
                (ctx.d,) * n):
        assert ctx.pack(key) is None
        assert reduce_canonical(ctx, {key: 1}).is_zero()
    # the same keys beside one of degree d keep only that one
    top = (0,) * (n - 2) + (n - 2, n - 1) if n > 2 else (0, 1)
    assert reduce_canonical(ctx, {top: 3, (ctx.d + 1,) + (0,) * (n - 1): 1}
                            ) == reduce_canonical(ctx, {top: 3})


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_normal_forms_are_staircase_and_congruent(n):
    # the table does not depend on the law, so the Chow context serves
    ctx = FlagContext(n, Fraction(0))
    staircase = list(itertools.product(*(range(j + 1) for j in range(n))))
    monomials = {tuple(map(sum, zip(a, b)))
                 for a, b in itertools.combinations_with_replacement(
                     staircase, 2)}
    monomials = sorted(m for m in monomials if sum(m) <= ctx.d)
    rewritten = 0
    for mono in monomials:
        form = tuple((unpack(ctx, s), c)
                     for s, c in ctx._normal_forms[ctx.pack(mono)])
        keys = [key for key, _ in form]
        assert len(set(keys)) == len(keys)
        for key, value in form:
            assert is_staircase(key) and sum(key) == sum(mono)
            assert isinstance(value, int) and value
        if is_staircase(mono):
            assert form == ((mono, 1),)
            continue
        rewritten += 1
        difference = {mono: Fraction(1)}
        for key, value in form:
            difference[key] = difference.get(key, 0) - value
        assert in_symmetric_ideal(difference), mono
    assert rewritten or n == 2
    # monomials above degree d lie in the ideal
    assert ctx.pack((ctx.d + 1,) + (0,) * (n - 1)) is None


def unpacked_form(ctx, mono) -> dict:
    """The packed form of an exponent vector, keyed by tuples; {} above
    degree d."""
    m = ctx.pack(mono)
    return {} if m is None else {
        unpack(ctx, s): c for s, c in ctx._normal_forms[m]}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_peel_matches_the_full_cascade(n):
    ctx = FlagContext(n, Fraction(0))
    cascade = {}
    for mono in monomials_through(n, ctx.d + 1):
        assert unpacked_form(ctx, mono) == dict(
            cascade_normal_form(ctx, mono, cascade)), mono


@pytest.mark.parametrize("n, empty_forms", [(2, 0), (3, 4), (4, 85),
                                             (5, 1707)])
def test_ideal_monomials_have_empty_forms(n, empty_forms):
    # the table's two add-and-mask tests read "some exponent is at least n"
    # and "every exponent is at least 1", and each monomial either decides
    # has an empty form by the full cascade and in the table.  The empty
    # forms through degree d are exactly the monomials whose decreasingly
    # sorted exponents have alpha_(s) >= n - s + 1 for some s; that is
    # measured here, not proven, and s = 1 and s = n are the two tests
    ctx = FlagContext(n, Fraction(0))
    guard = ctx._guard
    cascade = {}
    empty = 0
    for mono in monomials_through(n, ctx.d):
        m = ctx.pack(mono)
        decided = bool(m + ctx._power_bias & guard) or (
            m + ctx._unit_bias & guard == guard)
        assert decided == (max(mono) >= n or min(mono) >= 1), mono
        form = cascade_normal_form(ctx, mono, cascade)
        if decided:
            assert form == () and ctx._normal_forms[m] == (), mono
        assert (form == ()) == any(
            e >= n - s for s, e in enumerate(sorted(mono, reverse=True))
        ), mono
        empty += form == ()
    assert empty == empty_forms


@pytest.mark.parametrize("n, seed", [(6, 61), (7, 71)])
def test_peel_matches_the_full_cascade_on_random_monomials(n, seed):
    # each monomial on a cold table, so the peel fills it from scratch
    rng = random.Random(seed)
    cascade = {}
    for _ in range(20):
        key = [0] * n
        for _ in range(rng.randint(0, n * (n - 1) // 2)):
            key[rng.randrange(n)] += 1
        mono = tuple(key)
        assert unpacked_form(FlagContext(n, Fraction(0)), mono) == dict(
            cascade_normal_form(chow_context(n), mono, cascade)), mono


@st.composite
def rank_and_monomial(draw):
    """A rank 3-5 and an exponent vector of degree at most d."""
    n = draw(st.integers(3, 5))
    positions = draw(st.lists(st.integers(0, n - 1),
                              max_size=n * (n - 1) // 2))
    key = [0] * n
    for pos in positions:
        key[pos] += 1
    return n, tuple(key)


@settings(max_examples=100, deadline=None)
@given(rank_and_monomial())
def test_forms_are_linear_in_each_variable(case):
    # NF(x_k m), read through the reduction of x_k m, is the reduction of
    # x_k NF(m), and both are the rewrite sweep's form of x_k m; a cold
    # table per example varies the order in which forms are filled
    n, mono = case
    ctx = FlagContext(n, Fraction(0))
    form = unpacked_form(ctx, mono).items()
    for k in range(n):
        bump = tuple(int(p == k) for p in range(n))
        raised = tuple(map(sum, zip(mono, bump)))
        expected = reduce_canonical(ctx, {raised: 1})
        times_form = {tuple(map(sum, zip(key, bump))): c for key, c in form}
        assert reduce_canonical(ctx, times_form) == expected, (mono, k)
        assert heap_reduce(ctx, {raised: 1}) == expected, (mono, k)
        assert heap_reduce(ctx, times_form) == expected, (mono, k)


def test_operators_fill_few_normal_forms():
    # the full h_j cascade filled 3021 forms for the first rank-5 pack and
    # 3087 after the class of w0: nearly every monomial through degree d;
    # the first pack reduces only the last pair's pack (32 forms), and the
    # class's products with raw moved packs fill 1242
    ctx = FlagContext(5)
    _op_pack(ctx, 1)
    assert len(ctx._normal_forms) <= 32
    bs_class(ctx, reduced_word(Permutation((5, 4, 3, 2, 1))))
    assert len(ctx._normal_forms) <= 1242


def random_raw(ctx, rng):
    """A raw polynomial with b-coefficients on exponent vectors that need
    not be staircase, some of them above degree d."""
    raw = {}
    for _ in range(rng.randint(1, 8)):
        key = tuple(rng.randint(0, ctx.n) for _ in range(ctx.n))
        if sum(key) > ctx.d + 1:
            continue
        terms = {(): Fraction(rng.randint(-4, 4), rng.randint(1, 3))}
        for _ in range(rng.randint(0, 3)):
            index = rng.randint(1, ctx.d + 1)
            terms[((index, rng.randint(1, 3)),)] = Fraction(
                rng.randint(-5, 5), rng.randint(1, 4))
        raw[key] = coeff_from_fractions(terms)
    return raw


@pytest.mark.parametrize("n, seed", [(3, 11), (4, 12)])
def test_reduce_canonical_matches_the_rewrite_sweep(n, seed):
    rng = random.Random(seed)
    warm = FlagContext(n)  # later inputs find earlier forms in its table
    for _ in range(60):
        raw = random_raw(warm, rng)
        expected = heap_reduce(warm, raw)
        assert reduce_canonical(warm, raw) == expected
        assert reduce_canonical(FlagContext(n), raw).terms == expected.terms
        series = TruncSeries(warm.vars, warm.work_cap, raw)
        assert reduce_canonical(warm, series.terms) == expected


@pytest.mark.parametrize("key", [(-1, 2, 0), (0, -1, 2), (-1, 5, 0),
                                 (0, 0, -4), (1, 1)])
def test_malformed_exponent_vectors_are_refused(key):
    # a negative exponent once gave non-canonical terms, and one of degree
    # above d the empty form
    ctx = FlagContext(3)
    with pytest.raises(UsageError):
        ctx.pack(key)
    with pytest.raises(UsageError):
        reduce_canonical(ctx, {key: 1})


def assert_packed_canonical(elem):
    # int keys, each a staircase monomial of degree at most d, read from
    # the fields alone
    ctx = elem.ctx
    for m in elem.terms:
        assert type(m) is int, m
        key = unpack(ctx, m)
        assert ctx._climb(m) == 0 and is_staircase(key), key
        assert m >> ctx.degree_shift == sum(key) <= ctx.d, key


@pytest.mark.parametrize("theory", THEORIES)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_entry_returns_packed_canonical_terms(n, theory):
    ctx = FlagContext(n, *theory_law(theory, Fraction(2, 3)))
    rng = random.Random(f"contract-{n}-{theory}")
    w0 = reduced_word(Permutation(range(n, 0, -1)))
    a, b = random_flag_elem(ctx, rng), random_flag_elem(ctx, rng)
    c1 = c1_weight(ctx, rho_weight(n))
    raw = {tuple(rng.randint(0, n) for _ in range(n)): rng.randint(-3, 3)
           for _ in range(8)}
    results = [ctx.one(), ctx.zero(), point_class(ctx), reduce_canonical(
        ctx, raw), a + b, a - b, -a, Fraction(-3, 2) * a, a * 2, a * b,
        c1 * a, bs_class(ctx, w0), bs_class(ctx, w0[:n]), c1, c1_weight(
            ctx, Weight(tuple(rng.randint(-2, 2) for _ in range(n))))]
    for i in range(1, n + 1):
        # -e_i takes the shortcut to x_i
        minus_e_i = Weight(-int(k == i) for k in range(1, n + 1))
        results += [ctx.x_elem(i), c1_weight(ctx, minus_e_i)]
    for i in range(1, n):
        for f in (a, c1):
            results += [divided_diff(ctx, i, f), divided_diff_dual(ctx, i, f),
                        sigma_op(ctx, i, f)]
    # the checks meet terms of every degree through d
    assert {m >> ctx.degree_shift for f in results
            for m in f.terms} == set(range(ctx.d + 1))
    for elem in results:
        assert_packed_canonical(elem)
    # the tuple view reduces back to the element
    for elem in results + [random_flag_elem(ctx, rng) for _ in range(5)]:
        assert reduce_canonical(ctx, elem.exponents()) == elem
