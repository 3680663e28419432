"""The context's table of integer normal forms: each form is staircase and
congruent to its monomial modulo the symmetric ideal, the one-variable peel
gives the forms of the full h_j cascade and is linear in each variable, the
table stays small, and reduction through the table agrees with the rewrite
sweep on CoeffPoly coefficients."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobschub.flagring import FlagContext, reduce_canonical
from cobschub.ringcore import CoeffPoly, TruncSeries, UsageError
from cobschub.schubert import bs_class
from cobschub.weylops import Permutation, _op_pack, reduced_word

from oracles import cascade_normal_form, heap_reduce, in_symmetric_ideal


def is_staircase(key) -> bool:
    return all(e <= j for j, e in enumerate(key))


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
        form = ctx.normal_form(mono)
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
    assert ctx.normal_form((ctx.d + 1,) + (0,) * (n - 1)) == ()


def monomials_through(n, degree):
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            key = [0] * n
            for pos in combo:
                key[pos] += 1
            yield tuple(key)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_peel_matches_the_full_cascade(n):
    ctx = FlagContext(n, Fraction(0))
    cascade = {}
    for mono in monomials_through(n, ctx.d + 1):
        assert dict(ctx.normal_form(mono)) == dict(
            cascade_normal_form(ctx, mono, cascade)), mono


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
    form = ctx.normal_form(mono)
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
        raw[key] = CoeffPoly(terms)
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
    # above d the empty form; the check runs only on a table miss
    ctx = FlagContext(3)
    with pytest.raises(UsageError):
        ctx.normal_form(key)
    with pytest.raises(UsageError):
        reduce_canonical(ctx, {key: 1})
    assert key not in ctx._normal_forms
