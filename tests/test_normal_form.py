"""The context's table of integer normal forms: each form is staircase and
congruent to its monomial modulo the symmetric ideal, and reduction through
the table agrees with the rewrite sweep on CoeffPoly coefficients."""

import itertools
import random
from fractions import Fraction

import pytest

from cobschub.flagring import FlagContext, reduce_canonical
from cobschub.ringcore import CoeffPoly, TruncSeries, UsageError

from oracles import heap_reduce, in_symmetric_ideal


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
        assert in_symmetric_ideal(difference, n), mono
    assert rewritten or n == 2
    # monomials above degree d lie in the ideal
    assert ctx.normal_form((ctx.d + 1,) + (0,) * (n - 1)) == ()


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
