import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from cobschub.fgl import log_and_exp, unit_inverse
from cobschub.ringcore import CoeffPoly, InternalError, UsageError
from cobschub.flagring import (
    THEORIES,
    FlagContext,
    Weight,
    c1_weight,
    fundamental_weight,
    point_class,
    reduce_canonical,
    rho_weight,
    simple_root,
    theory_law,
)
from cobschub.weylops import (
    Permutation,
    all_permutations,
    coroot_pairing,
    divided_diff,
    divided_diff_dual,
    reduced_word,
    weyl_act,
)
from cobschub.schubert import (
    bs_class,
    c1_times_bs,
    chevalley_coeff,
    expand_in_bs_basis,
    pieri_exponents,
    poly_times_bs,
    product_bs,
)

from cobschub import schubert, weylops
from oracles import (
    all_reduced_words,
    canonical_poly_times_bs,
    chow_elem,
    coeff_degrees,
    commutation_class,
    denominator_lcm,
    full_tree_c1_times_bs,
    is_reduced,
    iterated_poly_times_bs,
    law_of,
    perm_product,
    random_flag_elem,
    table_expand_in_bs_basis,
    total_degrees,
    walk_chevalley_coeff,
    words_up_to,
)

F = Fraction
b1 = CoeffPoly.b(1)
b2 = CoeffPoly.b(2)
a11 = -b1
a12 = b1**2 - b2


@pytest.fixture(scope="module")
def ctx3():
    return FlagContext(3)


@pytest.fixture(scope="module")
def ctx4():
    return FlagContext(4)


def subsets(positions):
    positions = tuple(positions)
    for size in range(1, len(positions) + 1):
        yield from itertools.combinations(positions, size)


# ---------------------------------------------------------------------------
# Bott-Samelson classes


def test_rank3_canonical_values(ctx3):
    assert bs_class(ctx3, ()) == point_class(ctx3)
    assert bs_class(ctx3, (1,)).exponents() == {(0, 0, 2): CoeffPoly.one()}
    assert bs_class(ctx3, (2,)).exponents() == {(0, 1, 1): CoeffPoly.one()}
    assert bs_class(ctx3, (2, 1)).exponents() == {(0, 0, 1): CoeffPoly.one()}
    assert bs_class(ctx3, (2, 1, 2)).exponents() == {
        (0, 0, 0): CoeffPoly.one(), (0, 1, 1): a12}


def test_bs_classes_are_integral(ctx3, ctx4):
    from oracles import LazardLattice

    # at rank 3 every class is integral even in the b-coordinates
    for word in words_up_to(3, 3):
        assert denominator_lcm(bs_class(ctx3, word)) == 1
    # at rank 4 b-denominators of 2 do occur (the b_i span the integral
    # coefficient ring only up to finite index), but the classes stay in
    # the lattice generated by the law's coefficients
    lattice = LazardLattice(law_of(ctx4))
    seen_denominators = set()
    for word in [(1, 2, 3), (3, 2, 1), (2, 1, 3, 2), (1, 2, 1, 3),
                 (1, 2, 1, 3, 2, 1)]:
        cls = bs_class(ctx4, word)
        seen_denominators.add(denominator_lcm(cls))
        assert all(lattice.contains(c) for c in cls.terms.values()), word
    assert seen_denominators <= {1, 2}
    # the oracle itself rejects genuinely fractional vectors
    assert not lattice.contains(b1 * F(1, 2))


def test_bs_word_validation(ctx3):
    with pytest.raises(UsageError):
        bs_class(ctx3, (3,))
    with pytest.raises(UsageError):
        bs_class(ctx3, (0,))


def test_reduced_words_of_longest_element_differ_in_cobordism(ctx3):
    r121 = bs_class(ctx3, (1, 2, 1))
    r212 = bs_class(ctx3, (2, 1, 2))
    assert r121 != r212
    assert chow_elem(r121) == chow_elem(r212) == ctx3.one()


@pytest.mark.parametrize("n, count, classes", [(3, 2, 2), (4, 16, 8)])
def test_braid_moves_change_the_class_only_in_cobordism(n, count, classes):
    # over all reduced words of w0, the Chow and K-theory classes agree;
    # the cobordism classes agree exactly when commutations alone relate
    # the words
    words = all_reduced_words(Permutation(range(n, 0, -1)))
    assert len(words) == count
    component = {word: commutation_class(word) for word in words}
    assert len(set(component.values())) == classes
    for law in ((F(0),), (F(2, 3),)):
        ctx = theory_context(n, *law)
        assert len({bs_class(ctx, word) for word in words}) == 1, law
    ctx = theory_context(n)
    for u, v in itertools.combinations(words, 2):
        same = component[u] == component[v]
        assert (bs_class(ctx, u) == bs_class(ctx, v)) == same, (u, v)


# ---------------------------------------------------------------------------
# Chevalley coefficients


def test_chevalley_singleton_is_beta_pairing(ctx3, ctx4):
    from cobschub.weylops import beta_sequence

    rng = random.Random(3)
    for ctx in (ctx3, ctx4):
        for word in [(1,), (2, 1), (1, 2, 1)] if ctx.n == 3 else [
                (1, 2, 3), (3, 1, 2)]:
            lam = Weight(tuple(rng.randint(-2, 2) for _ in range(ctx.n)))
            betas = beta_sequence(word, ctx.n)
            for j in range(len(word)):
                got = chevalley_coeff(ctx3 if ctx.n == 3 else ctx4,
                                      word, (j,), lam)
                assert got == CoeffPoly.rational(
                    coroot_pairing(lam, betas[j]))


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("beta", [Fraction(0), Fraction(2, 3)],
                         ids=["chow", "ktheory-2/3"])
def test_class_of_w0_is_one_at_ranks_7_and_8(n, beta):
    # the first classes built on fields 6 bits wide (d = 21 and 28); the
    # Chow and K-theory classes of w0 are the fundamental class
    ctx = FlagContext(n, beta)
    assert bs_class(ctx, reduced_word(Permutation(range(n, 0, -1)))) == \
        ctx.one()


@pytest.mark.parametrize("word", [
    (1, 2, 1, 3, 2, 1), (6, 5, 4, 3, 2, 1), (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)])
def test_chow_chevalley_rows_are_beta_pairings_at_rank_7(word):
    # in Chow only single removals survive, each with the pairing of its
    # root: the check the benchmark makes at rank 4
    from cobschub.weylops import beta_sequence

    ctx = FlagContext(7, Fraction(0))
    for i in (1, 2, 3):
        lam = fundamental_weight(i, 7)
        expected = Counter()
        for j, root in enumerate(beta_sequence(word, 7)):
            expected[word[:j] + word[j + 1:]] += coroot_pairing(lam, root)
        got = c1_times_bs(ctx, lam, word).by_word()
        assert got == {kept: CoeffPoly.rational(value)
                       for kept, value in expected.items() if value}, i


def test_c1_times_bs_matches_per_mask_walk():
    # the tree walk, which carries each state only through the degrees its
    # reads reach, against one full operator string per removal set, every
    # operator applied in full, on fresh contexts: rank 3 up to length 4
    # (non-reduced words included, and longer than d = 3), rank 4 up to
    # length 3 in cobordism, Chow and K-theory; omega_k, rho and seeded
    # random weights; and rho on one length-4 word at rank 5
    rng = random.Random(41)
    beta = Fraction(2, 3)
    cases = [(3, (), 4, 2)] + [(4, theory_law(theory, beta), 3, 1)
                               for theory in THEORIES]
    for n, law, length, randoms in cases:
        ctx = FlagContext(n, *law)
        weights = [fundamental_weight(k, n) for k in range(1, n)]
        weights += [rho_weight(n)]
        weights += [Weight(tuple(rng.randint(-2, 2) for _ in range(n)))
                    for _ in range(randoms)]
        for lam in weights:
            for word in words_up_to(n, length):
                assert c1_times_bs(ctx, lam, word).terms == walk_terms(
                    ctx, lam, word), (n, law, lam, word)
    ctx = FlagContext(5)
    word = (1, 2, 1, 3)
    assert c1_times_bs(ctx, rho_weight(5), word).terms == walk_terms(
        ctx, rho_weight(5), word)


def test_c1_times_bs_matches_the_full_tree_walk():
    # the walk whose position-1 nodes read both children from their own
    # state, against the same walk applying every operator down to
    # position 0, at ranks 3-5 in cobordism, Chow and K-theory, on seeded
    # random weights and one random word of each length 1..7 per weight
    rng = random.Random(67)
    beta = Fraction(2, 3)
    non_reduced = 0
    for n, weights in ((3, 2), (4, 2), (5, 1)):
        for theory in THEORIES:
            ctx = FlagContext(n, *theory_law(theory, beta))
            for _ in range(weights):
                lam = Weight(tuple(rng.randint(-3, 3) for _ in range(n)))
                for length in range(1, 8):
                    word = tuple(rng.randint(1, n - 1)
                                 for _ in range(length))
                    non_reduced += not is_reduced(word, n)
                    assert c1_times_bs(ctx, lam, word).terms == (
                        full_tree_c1_times_bs(ctx, lam, word)), (
                        n, theory, lam, word)
    assert non_reduced


def walk_terms(ctx, lam, word):
    """The expansion's terms by kept positions, one walk per removal set."""
    expected = {}
    for removed in subsets(range(len(word))):
        coeff = walk_chevalley_coeff(ctx, word, removed, lam)
        if coeff:
            kept = tuple(p for p in range(len(word)) if p not in removed)
            expected[kept] = coeff
    return expected


def counting(counts, name, op):
    """``op`` wrapped to count its calls in ``counts[name]``."""
    def wrapper(*args):
        counts[name] += 1
        return op(*args)
    return wrapper


def test_c1_times_bs_operator_count(monkeypatch):
    # a word of length l >= 2 costs 2^(l-2) - 1 dual steps and as many
    # swaps, not one string per removal set: the nodes at position 1 read
    # both children from their own state, so a word of length at most 2
    # applies no operator
    counts = Counter()
    for name in ("dual_step", "swap_step"):
        monkeypatch.setattr(schubert, name,
                            counting(counts, name, getattr(schubert, name)))
    ctx = FlagContext(3)
    lam = rho_weight(3)
    for word in [(1,), (2, 1), (1, 2, 1), (1, 2, 1, 2), (2, 1, 2, 2, 1)]:
        counts.clear()
        c1_times_bs(ctx, lam, word)
        expected = max(2 ** (len(word) - 2) - 1, 0)
        assert counts["dual_step"] == expected, word
        assert counts["swap_step"] == expected, word


def test_chevalley_coeff_checks_its_word_once(monkeypatch, ctx3):
    # one check of the word and one walk per call, and every bad argument
    # is still refused: a letter, a position and a weight
    counts = Counter()
    monkeypatch.setattr(schubert, "validate_word", counting(
        counts, "validate_word", schubert.validate_word))
    rho, word = rho_weight(3), (1, 2, 1)
    expected = c1_times_bs(ctx3, rho, word).terms[(1, 2)]
    counts.clear()
    assert chevalley_coeff(ctx3, word, (0,), rho) == expected
    assert counts["validate_word"] == 1
    for bad in (lambda: chevalley_coeff(ctx3, (1, 3), (0,), rho),
                lambda: chevalley_coeff(ctx3, (1, 3), (), rho),
                lambda: chevalley_coeff(ctx3, word, (3,), rho),
                lambda: chevalley_coeff(ctx3, word, (0,), Weight((1, 0)))):
        with pytest.raises(UsageError):
            bad()


def test_returned_expansions_are_the_callers_own(ctx3):
    # an expansion is mutable, so no call hands out one that a later call
    # returns or reads again
    rho, word = rho_weight(3), (1, 2, 1)
    expected = c1_times_bs(FlagContext(3), rho, word)
    assert chevalley_coeff(ctx3, word, (0,), rho) == 1
    for _ in range(2):
        got = c1_times_bs(ctx3, rho, word)
        assert got == expected
        got.terms.clear()
    assert c1_times_bs(ctx3, rho, word) == expected
    assert chevalley_coeff(ctx3, word, (0,), rho) == 1


def test_c1_times_bs_evaluates_to_product(ctx3):
    rng = random.Random(10)
    for word in words_up_to(3, 3):
        lam = Weight(tuple(rng.randint(-2, 2) for _ in range(3)))
        exp = c1_times_bs(ctx3, lam, word)
        assert exp.evaluate(ctx3) == c1_weight(ctx3, lam) * bs_class(
            ctx3, word)


def test_c1_times_bs_chow_coefficients(ctx3):
    # in the additive theory only single removals survive, with the beta
    # pairings as values
    from cobschub.weylops import beta_sequence

    rng = random.Random(30)
    for word in words_up_to(3, 3):
        lam = Weight(tuple(rng.randint(-2, 2) for _ in range(3)))
        betas = beta_sequence(word, 3)
        exp = c1_times_bs(ctx3, lam, word)
        for kept, coeff in exp.terms.items():
            removed = [p for p in range(len(word)) if p not in kept]
            spec = coeff.constant()
            if len(removed) == 1:
                assert spec == coroot_pairing(lam, betas[removed[0]])
            else:
                assert spec == 0


def test_chow_chevalley_matches_classical_formula(ctx3):
    # the additive-theory product keeps the single removals with reduced
    # residual word; compare against the classical Schubert-cycle formula
    from cobschub.weylops import beta_sequence

    rng = random.Random(77)
    for word in words_up_to(3, 3):
        if not is_reduced(word, 3):
            continue
        lam = Weight(tuple(rng.randint(-2, 2) for _ in range(3)))
        left = chow_elem(c1_times_bs(ctx3, lam, word).evaluate(ctx3))
        betas = beta_sequence(word, 3)
        right = ctx3.zero()
        for j in range(len(word)):
            dropped = word[:j] + word[j + 1:]
            if not is_reduced(dropped, 3):
                continue
            right = right + coroot_pairing(lam, betas[j]) * chow_elem(
                bs_class(ctx3, dropped))
        assert left == right, word


def test_nonreduced_words_die_in_chow(ctx3):
    for word in [(1, 1), (2, 2), (1, 2, 2), (1, 1, 2), (2, 1, 1)]:
        assert chow_elem(bs_class(ctx3, word)).is_zero(), word


# ---------------------------------------------------------------------------
# Polynomial products


def test_poly_times_bs_constant(ctx3):
    exp = poly_times_bs(ctx3, ctx3.one(), (2, 1))
    assert exp.terms == {(0, 1): CoeffPoly.one()}
    scaled = poly_times_bs(ctx3, ctx3.one() * b1, (2, 1))
    assert scaled.terms == {(0, 1): b1}


def test_poly_times_bs_single_chern_factor_matches(ctx3):
    # the walk started at a first Chern class against the full tree walk,
    # which applies every operator down to position 0
    for lam in (fundamental_weight(1, 3), Weight((0, -1, 0)),
                simple_root(1, 3), rho_weight(3)):
        for word in [(2, 1), (1, 2), (1, 2, 1)]:
            viapoly = poly_times_bs(ctx3, c1_weight(ctx3, lam), word)
            assert viapoly.terms == full_tree_c1_times_bs(ctx3, lam, word)


def random_factor(ctx, rng):
    """A random element with a nonzero constant term, b-coefficients, and a
    part of degree d at the staircase monomial x_2 x_3^2 ... x_n^(n-1)."""
    terms = random_flag_elem(ctx, rng, max_terms=6).exponents()
    terms[(0,) * ctx.n] = CoeffPoly.rational(rng.choice((-2, -1, 1, 3))) + (
        rng.randint(-2, 2) * b1)
    terms[tuple(range(ctx.n))] = rng.randint(1, 3) * b2 + 1
    return reduce_canonical(ctx, terms)


@pytest.mark.parametrize("theory", THEORIES)
@pytest.mark.parametrize("n, longest", [(2, 3), (3, 4), (4, 7), (5, 8)])
def test_poly_times_bs_matches_the_iterated_route(n, longest, theory):
    # the one walk started at f against multiplying f's monomials in one
    # variable at a time, each factor a Chevalley expansion of a running
    # subword, on random f with parts of every degree up to d; words are
    # empty, random, with a repeated letter, and at ranks 2-4 as long as
    # d or longer
    ctx = FlagContext(n, *theory_law(theory, Fraction(2, 3)))
    rng = random.Random(f"{n}{theory}")
    words = [(), (1, 1)] + [tuple(rng.randint(1, n - 1) for _ in range(k))
                            for k in range(1, longest + 1)]
    for word in words:
        for f in (random_factor(ctx, rng), random_factor(ctx, rng)):
            got = poly_times_bs(ctx, f, word)
            assert got.terms == iterated_poly_times_bs(ctx, f, word), word
            assert got.evaluate(ctx) == f * bs_class(ctx, word), word
    assert any(len(word) >= ctx.d for word in words) == (n < 5)


@pytest.mark.parametrize("law", [(), (Fraction(0),), (Fraction(2, 3),),
                                 (Fraction(-1, 2),)],
                         ids=THEORIES + ("ktheory-negative",))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_walk_on_raw_states_matches_the_canonical_walk(n, law):
    # the walk carries plain mappings and leaves its swapped states raw; the
    # canonical walk reduces every swap and keeps every state an element;
    # both give the same terms for Chevalley walks of random weights and for
    # products with zero and nonzero outputs, on random words, reduced or
    # not, of every length up to d + 1 (7 at rank 5)
    ctx = FlagContext(n, *law)
    rng = random.Random(f"raw-walk-{n}-{law}")
    words = [tuple(rng.randint(1, n - 1) for _ in range(k))
             for k in range(min(ctx.d + 1, 7) + 1)]
    words.append((1, 1) + words[-1][2:])
    assert not all(map(is_reduced, words, [n] * len(words)))
    for word in words:
        lam = Weight(tuple(rng.randint(-2, 3) for _ in range(n)))
        f = c1_weight(ctx, lam)
        assert c1_times_bs(ctx, lam, word).terms == canonical_poly_times_bs(
            ctx, f, word), (lam, word)
    # a left class one letter short of degree len(right) multiplies Z_right
    # to zero by degree, and a reduced one a letter longer in general does
    # not; with the empty right word the walk reads the class's constant
    # term alone
    w0 = reduced_word(Permutation(tuple(range(n, 0, -1))))
    products = set()
    for right in words:
        for k in (ctx.d - len(right) - 1, ctx.d - len(right) + 1):
            left = w0[:max(k, 0)]
            got = poly_times_bs(ctx, bs_class(ctx, left), right).terms
            assert got == canonical_poly_times_bs(
                ctx, bs_class(ctx, left), right), (left, right)
            assert product_bs(ctx, left, right).terms == got, (left, right)
            products.add(bool(got))
    assert products == {False, True}


@pytest.mark.parametrize("theory", THEORIES)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_walks_store_no_zero_and_leave_the_shared_zero_as_it_was(n, theory):
    # a walk stores a read only when it is nonzero, and a read of nothing is
    # the one shared zero of weylops, which no walk may edit: Chevalley
    # walks of the determinant weight (c1 = 0) and of random weights, and
    # products on both sides of the zero-by-degree bound, on random words of
    # every length up to d + 1 (7 at rank 5); K-theory at beta = 2/3
    ctx = FlagContext(n, *theory_law(theory, Fraction(2, 3)))
    assert weylops.dual_read(ctx, 1, {}) is weylops._ZERO
    rng = random.Random(f"no-zero-{n}-{theory}")
    words = [tuple(rng.randint(1, n - 1) for _ in range(k))
             for k in range(min(ctx.d + 1, 7) + 1)]
    w0 = reduced_word(Permutation(range(n, 0, -1)))
    expansions = []
    for word in words:
        for lam in (Weight((1,) * n),
                    Weight(tuple(rng.randint(-2, 3) for _ in range(n)))):
            expansions.append(c1_times_bs(ctx, lam, word))
        for k in (ctx.d - len(word), ctx.d - len(word) + 1):
            expansions.append(product_bs(ctx, w0[:max(k, 0)], word))
    assert any(e.terms for e in expansions)
    for e in expansions:
        assert all(e.terms.values()), e
    assert weylops._ZERO.num == {} and weylops._ZERO.den == 1


def test_product_operator_count(monkeypatch):
    # a product walks the operator tree once from the left class: a right
    # word of length l >= 2 costs 2^(l-2) - 1 dual steps, as many swaps and
    # no first Chern class (one Chevalley expansion per variable factor
    # took 72 dual divided differences on the rank-5 product)
    counts = Counter()
    for name in ("dual_step", "swap_step", "c1_weight"):
        monkeypatch.setattr(schubert, name,
                            counting(counts, name, getattr(schubert, name)))
    for n, left, right in [(3, (1, 2), (2, 1)), (4, (1, 2, 1), (1, 2, 1, 3)),
                           (5, (1, 2, 1, 3, 2, 1, 4, 3), (2, 1, 4, 3, 2)),
                           (5, (1, 2, 1, 3, 2, 1, 4, 3), (2, 2, 3, 1, 2, 4))]:
        counts.clear()
        assert product_bs(FlagContext(n), left, right).terms, (left, right)
        assert counts["dual_step"] == 2 ** (len(right) - 2) - 1, (
            left, right)
        assert counts["swap_step"] == counts["dual_step"], (left, right)
        assert counts["c1_weight"] == 0, (left, right)


def test_product_consistency_small(ctx3):
    for left in words_up_to(3, 2):
        for right in words_up_to(3, 2):
            exp = product_bs(ctx3, left, right)
            assert exp.evaluate(ctx3) == bs_class(ctx3, left) * bs_class(
                ctx3, right), (left, right)


@pytest.mark.parametrize("theory", ["cobordism", "chow", "ktheory"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_products_zero_by_length_match_the_distributed_route(n, theory):
    # a product with len(left) + len(right) < d has only coefficients of
    # positive degree, so it is empty without building the left class; at
    # len(left) + len(right) = d the shortcut no longer applies
    ctx = FlagContext(n, THEORY_LAWS[theory])
    d = ctx.d
    rng = random.Random(17 * n)
    for _ in range(4):
        total = rng.randint(0, d - 1)
        cut = rng.randint(0, total)
        left, right = (tuple(rng.randint(1, n - 1) for _ in range(k))
                       for k in (cut, total - cut))
        expected = poly_times_bs(ctx, bs_class(ctx, left), right)
        assert expected.terms == {}, (left, right)
        ctx._bs_cache.clear()
        got = product_bs(ctx, left, right)
        assert got == expected, (left, right)
        assert not ctx._bs_cache, (left, right)
    w0_word = reduced_word(Permutation(range(n, 0, -1)))
    assert product_bs(ctx, w0_word, ()).by_word() == {(): CoeffPoly.one()}


def test_product_argument_order_evaluates_equal(ctx3):
    for left, right in [((1, 2), (2, 1)), ((1, 2, 1), (2, 1)),
                        ((1, 1), (2, 1, 2))]:
        one_way = product_bs(ctx3, left, right).evaluate(ctx3)
        other = product_bs(ctx3, right, left).evaluate(ctx3)
        assert one_way == other


def test_algebraic_chevalley_pieri_identity(ctx3):
    # c1(L(lam)) A_1 ... A_l [pt] = sum_j A_1 .. A_{j-1} m_j A_{j+1} .. A_l [pt]
    # with m_j the multiplication by the dual difference of c1(L(lam_j)),
    # lam_j = s_{j-1} ... s_1 lam
    rng = random.Random(111)

    def chain(letters, elem):
        for letter in reversed(letters):
            elem = divided_diff(ctx3, letter, elem)
        return elem

    for word in words_up_to(3, 3):
        lam = Weight(tuple(rng.randint(-2, 2) for _ in range(3)))
        pt = point_class(ctx3)
        left = c1_weight(ctx3, lam) * chain(word, pt)
        right = ctx3.zero()
        for j in range(1, len(word) + 1):
            lam_j = lam
            for p in range(1, j):
                lam_j = weyl_act(Permutation.simple(word[p - 1], 3), lam_j)
            mult = divided_diff_dual(
                ctx3, word[j - 1], c1_weight(ctx3, lam_j))
            inner = mult * chain(word[j:], pt)
            right = right + chain(word[:j - 1], inner)
        assert left == right, (word, lam)


# ---------------------------------------------------------------------------
# Basis expansion


def test_expand_basis_indicator(ctx3):
    for w in all_permutations(3):
        got = expand_in_bs_basis(ctx3, bs_class(ctx3, reduced_word(w)))
        assert got == {w: CoeffPoly.one()}


def test_expand_point_class(ctx3):
    got = expand_in_bs_basis(ctx3, point_class(ctx3))
    assert got == {Permutation(range(1, 4)): CoeffPoly.one()}


def test_expand_nonbasis_word(ctx3):
    w0 = Permutation((3, 2, 1))
    got = expand_in_bs_basis(ctx3, bs_class(ctx3, (2, 1, 2)))
    assert got[w0] == CoeffPoly.one()
    rebuilt = ctx3.zero()
    for w, coeff in got.items():
        rebuilt = rebuilt + coeff * bs_class(ctx3, reduced_word(w))
    assert rebuilt == bs_class(ctx3, (2, 1, 2))


def test_expand_round_trip_random(ctx3):
    # rank 3 and 4 cobordism, and ranks 4 and 5 in Chow and K-theory
    rng = random.Random(55)
    cases = [(ctx3, 10), (FlagContext(4), 3)] + [
        (FlagContext(n, beta), 3)
        for n in (4, 5) for beta in (Fraction(0), Fraction(2, 3))]
    for ctx, count in cases:
        for _ in range(count):
            a = random_flag_elem(ctx, rng, max_terms=8)
            expansion = expand_in_bs_basis(ctx, a)
            rebuilt = ctx.zero()
            for w, coeff in expansion.items():
                rebuilt = rebuilt + coeff * bs_class(ctx, reduced_word(w))
            assert rebuilt == a, ctx


def lehmer_code(v: Permutation) -> tuple[int, ...]:
    """c_i = the number of j > i with v(j) < v(i)."""
    images = v.images
    return tuple(sum(later < image for later in images[i + 1:])
                 for i, image in enumerate(images))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_basis_leading_monomials_are_distinct_with_coefficient_one(n):
    # the Schubert-polynomial leading-term property that the peeling in
    # expand_in_bs_basis rests on: the class of w leads, with coefficient 1,
    # with the reversed Lehmer code of w * w0, which differs for every w
    ctx = FlagContext(n, Fraction(0))
    w0 = Permutation(range(n, 0, -1))
    leads = set()
    for w in all_permutations(n):
        cls = bs_class(ctx, reduced_word(w))
        lead = tuple(reversed(lehmer_code(perm_product(w, w0))))
        terms = cls.exponents()
        assert terms[lead] == 1, w
        assert max(terms, key=lambda key: (-sum(key), key)) == lead, w
        assert expand_in_bs_basis(ctx, cls) == {w: CoeffPoly.one()}
        leads.add(lead)
    assert len(leads) == math.factorial(n)


THEORY_LAWS = {"cobordism": None, "chow": Fraction(0),
               "ktheory": Fraction(2, 3)}


@pytest.mark.parametrize("theory", THEORY_LAWS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_expand_matches_the_table_route(n, theory):
    ctx = FlagContext(n, THEORY_LAWS[theory])
    elems = [bs_class(ctx, reduced_word(w)) for w in all_permutations(n)]
    rng = random.Random(3 * n)
    elems += [random_flag_elem(ctx, rng, max_terms=8) for _ in range(5)]
    # a reduced word of w0 that is not the basis word, and a word that is
    # not reduced
    w0 = Permutation(range(n, 0, -1))
    elems.append(bs_class(ctx, reduced_word(w0)[::-1]))
    elems.append(bs_class(ctx, (1, 1, n - 1)))
    for a in elems:
        assert expand_in_bs_basis(ctx, a) == table_expand_in_bs_basis(ctx, a)


def test_expand_builds_only_the_prefixes_of_its_word():
    ctx = FlagContext(5)
    w0 = Permutation((5, 4, 3, 2, 1))
    word = reduced_word(w0)
    got = expand_in_bs_basis(ctx, bs_class(ctx, word))
    assert got == {w0: CoeffPoly.one()}
    assert set(ctx._bs_cache) == {word[:k] for k in range(len(word) + 1)}


@pytest.mark.parametrize("wrong", [
    lambda right: right * 2,
    lambda right: right.ctx.zero(),
], ids=["twice", "zero"])
def test_expand_rejects_a_wrong_basis_class(monkeypatch, ctx3, wrong):
    a = bs_class(ctx3, (2, 1, 2))
    right_class = schubert.bs_class
    monkeypatch.setattr(schubert, "bs_class",
                        lambda ctx, word: wrong(right_class(ctx, word)))
    with pytest.raises(InternalError):
        expand_in_bs_basis(ctx3, a)


def context_at_cap(n, cap):
    # the same rank-n context with everything it reads of the law rebuilt
    # at another degree cap: log and exp at cap, and the operators' pack
    # U^-1 through cap - 1, so that the operators read its terms above
    # 2n - 3 too
    ctx = FlagContext(n)
    ctx.work_cap = cap
    ctx.log, ctx.exp = log_and_exp(cap)
    ctx.unit_inv = unit_inverse(ctx.log, ctx.exp, cap - 1)
    return ctx


def headroom_results(ctx, length):
    """Classes of every word up to length 3 and every reduced word, the
    Chevalley expansions of omega_k over reduced words up to ``length``, the
    basis expansions of some classes, a product and random elements, and
    both operators on 1 and the random elements."""
    n = ctx.n
    words = list(words_up_to(n, 3)) + [
        reduced_word(w) for w in all_permutations(n)]
    classes = {word: bs_class(ctx, word) for word in words}
    chevalley = {(k, word): c1_times_bs(ctx, fundamental_weight(k, n), word)
                 for k in range(1, n) for word in words_up_to(n, length)
                 if is_reduced(word, n)}
    rng = random.Random(71)
    randoms = [random_flag_elem(ctx, rng) for _ in range(3)]
    elems = [classes[word] for word in words_up_to(n, 3)] + randoms
    elems.append(classes[(1,)] * classes[(n - 1,)] * c1_weight(
        ctx, rho_weight(n)))
    expansions = [expand_in_bs_basis(ctx, a) for a in elems]
    operators = [op(ctx, i, a)
                 for op in (divided_diff, divided_diff_dual)
                 for a in [ctx.one()] + randoms for i in range(1, n)]
    return classes, chevalley, expansions, operators


@pytest.mark.parametrize("n, length", [(3, 3), (4, 2)])
def test_results_do_not_depend_on_headroom(n, length):
    # canonical elements stay within degree d and every operator step is
    # reduced, so headroom in the law must not change any result; the
    # default context builds log and exp at max(d, 2n - 2) and U^-1 through
    # 2n - 3, the least that serves c1_weight and the operators
    d = n * (n - 1) // 2
    expected = headroom_results(FlagContext(n), length)
    for cap in (d + 2, d + 3, d + 4):
        ctx = context_at_cap(n, cap)
        assert max(map(sum, ctx.unit_inv.terms)) == cap - 1 > 2 * n - 3
        assert headroom_results(ctx, length) == expected, cap


# ---------------------------------------------------------------------------
# Grading: with b_i in degree -i, each x_j in degree 1 and
# wt(b^m) = sum i * m_i, every cobordism output is homogeneous


@lru_cache(maxsize=None)
def theory_context(n, *law):
    return FlagContext(n, *law)


def weights(coeff) -> set[int]:
    """wt(b^m) over the b-monomials of a coefficient."""
    return {-degree for degree in coeff_degrees(coeff)}


@st.composite
def rank_two_words_and_weight(draw):
    n = draw(st.sampled_from((3, 4)))
    d = n * (n - 1) // 2
    word = st.lists(st.integers(1, n - 1), max_size=d + 1).map(tuple)
    coords = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return n, draw(word), draw(word), Weight(tuple(draw(coords)))


@settings(max_examples=60, deadline=None)
@given(rank_two_words_and_weight())
def test_cobordism_outputs_are_homogeneous(case):
    n, left, word, lam = case
    ctx = theory_context(n)
    cls = bs_class(ctx, word)
    # each term x^k b^m of Z_J has |k| - wt(m) = d - len(J)
    assert total_degrees(cls) <= {ctx.d - len(word)}
    for kept, coeff in product_bs(ctx, left, word).terms.items():
        assert weights(coeff) <= {len(left) + len(word) - len(kept) - ctx.d}
    for w, coeff in expand_in_bs_basis(ctx, cls).items():
        assert weights(coeff) <= {len(word) - w.inversions()}
    # c1(L(lam)) has degree 1, so the subword with r letters removed has a
    # coefficient of weight r - 1
    for kept, coeff in c1_times_bs(ctx, lam, word).terms.items():
        assert weights(coeff) <= {len(word) - len(kept) - 1}


@settings(max_examples=30, deadline=None)
@given(rank_two_words_and_weight(),
       st.sampled_from(((F(0),), (F(2, 3),), (F(-1, 2),))))
def test_chow_and_ktheory_classes_start_at_their_degree(case, law):
    # the images of the cobordism grading: Z_J is homogeneous of x-degree
    # d - len(J) in Chow, and in K-theory, whose coefficients are rational,
    # it has no term below that degree
    n, _, word, _ = case
    ctx = theory_context(n, *law)
    degrees = {sum(key) for key in bs_class(ctx, word).exponents()}
    if law == (F(0),):
        assert degrees <= {ctx.d - len(word)}
    else:
        assert all(degree >= ctx.d - len(word) for degree in degrees)


# ---------------------------------------------------------------------------
# Geometric exponents


def test_pieri_exponents_generic():
    lam = Weight((2, -1, 3))
    got = pieri_exponents(3, (1, 2, 1), lam)
    gamma1 = simple_root(1, 3)
    gamma2 = simple_root(2, 3)
    assert got == [
        ((2, 1), coroot_pairing(lam, gamma2)),
        ((1, 1), coroot_pairing(lam, Weight((1, 0, -1)))),
        ((1, 2), coroot_pairing(lam, gamma1)),
    ]


def test_pieri_exponents_fundamental():
    for k in (1, 2):
        got = pieri_exponents(3, (k,), fundamental_weight(k, 3))
        assert got == [((), 1)]
    got = pieri_exponents(3, (1, 2), fundamental_weight(1, 3))
    assert [e for _, e in got] == [1, 0]


@pytest.mark.parametrize("apply", [
    lambda lam: c1_weight(FlagContext(3), lam),
    lambda lam: c1_times_bs(FlagContext(3), lam, ()),
    lambda lam: pieri_exponents(3, (), lam),
    lambda lam: weyl_act(Permutation.simple(1, 3), lam),
    lambda lam: coroot_pairing(lam, simple_root(1, 3)),
    lambda lam: rho_weight(3) - lam,
], ids=["c1_weight", "c1_times_bs", "pieri_exponents", "weyl_act",
        "coroot_pairing", "sub"])
def test_weights_of_another_length_are_refused(apply):
    # one rule with one message, also where no operator runs (the empty
    # word) and where zip would have cut the longer weight short
    for lam in (Weight((1, 2)), Weight((1, 2, 0, 0))):
        with pytest.raises(UsageError, match="weight must have length 3"):
            apply(lam)
