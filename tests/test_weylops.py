import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cobschub import fgl, flagring, ringcore, weylops
from cobschub.ringcore import (
    CoeffPoly,
    TruncSeries,
    UsageError,
    divide_by_linear,
    sum_of_products,
)
from cobschub.flagring import (
    THEORIES,
    FlagContext,
    FlagElem,
    Weight,
    basis_weight,
    c1_weight,
    fundamental_weight,
    reduce_canonical,
    rho_weight,
    simple_root,
    theory_law,
    times_terms,
)
from cobschub.weylops import (
    Permutation,
    all_permutations,
    beta_sequence,
    coroot_pairing,
    divided_diff,
    divided_diff_dual,
    divided_difference_terms,
    dual_read,
    dual_reads_after,
    dual_step,
    reduced_word,
    sigma_op,
    swap_step,
    weyl_act,
    _antisymmetrize,
    _op_pack,
)

from cobschub import schubert
from cobschub.schubert import bs_class, c1_times_bs
from cobschub.selftest import classical_divided_difference

from oracles import (
    as_series,
    coeff_from_fractions,
    direct_op_pack,
    full_degree_op_pack,
    is_canonical,
    is_reduced,
    packed,
    perm_product,
    random_flag_elem,
    reference_op_pack,
    series_divided_diff,
    series_divided_diff_dual,
    specialize,
    through_degree,
    two_pass_product,
    unpacked,
    word_permutation,
)

F = Fraction
b1 = CoeffPoly.b(1)
b2 = CoeffPoly.b(2)


@pytest.fixture(scope="module")
def ctx3():
    return FlagContext(3)


@pytest.fixture(scope="module")
def ctx4():
    return FlagContext(4)


def random_weight(rng, n):
    return Weight(tuple(rng.randint(-3, 3) for _ in range(n)))


# ---------------------------------------------------------------------------
# Combinatorics


def test_weyl_act_examples():
    s1 = Permutation.simple(1, 3)
    assert weyl_act(s1, Weight((1, 0, 0))) == Weight((0, 1, 0))
    e = Permutation(range(1, 4))
    assert weyl_act(e, Weight((2, -1, 3))) == Weight((2, -1, 3))
    s2 = Permutation.simple(2, 3)
    gamma1 = simple_root(1, 3)
    assert weyl_act(perm_product(s1, s2), gamma1) == simple_root(2, 3)
    assert weyl_act(s2, gamma1) == Weight((1, 0, -1))


def test_permutation_algebra():
    w = Permutation((3, 1, 2))
    assert perm_product(w, w.inverse()) == Permutation(range(1, 4))
    assert w.inversions() == 2
    assert Permutation((2, 1, 3)).inversions() == 1
    with pytest.raises(UsageError):
        Permutation((1, 1, 2))
    assert len(list(all_permutations(3))) == 6


def test_coroot_pairing_examples():
    omega1 = fundamental_weight(1, 3)
    gamma1 = simple_root(1, 3)
    assert coroot_pairing(omega1, gamma1) == 1
    assert coroot_pairing(gamma1, gamma1) == 2
    with pytest.raises(UsageError):
        coroot_pairing(omega1, Weight((1, 1, -2)))
    with pytest.raises(UsageError):
        coroot_pairing(omega1, Weight((2, -2, 0)))


def test_coroot_pairing_weyl_invariance():
    rng = random.Random(8)
    perms = list(all_permutations(4))
    roots = [basis_weight(i, 4) - basis_weight(j, 4)
             for i in range(1, 5) for j in range(1, 5) if i != j]
    for _ in range(20):
        w = rng.choice(perms)
        lam = random_weight(rng, 4)
        alpha = rng.choice(roots)
        assert coroot_pairing(lam, alpha) == coroot_pairing(
            weyl_act(w, lam), weyl_act(w, alpha))


def test_coroot_pairing_defining_identity():
    rng = random.Random(12)
    for _ in range(10):
        lam = random_weight(rng, 4)
        i, j = rng.sample(range(1, 5), 2)
        alpha = basis_weight(i, 4) - basis_weight(j, 4)
        # s_alpha acts by the transposition (i j)
        trans = list(range(1, 5))
        trans[i - 1], trans[j - 1] = trans[j - 1], trans[i - 1]
        s_alpha = Permutation(trans)
        k = coroot_pairing(lam, alpha)
        assert weyl_act(s_alpha, lam) == Weight(
            c - k * a for c, a in zip(lam.coords, alpha.coords))


def test_beta_sequence_examples():
    got = beta_sequence((1, 2, 1), 3)
    # e_1 - e_3 is the sum of the two simple roots
    assert got == [simple_root(2, 3), Weight((1, 0, -1)), simple_root(1, 3)]
    assert beta_sequence((2,), 3) == [simple_root(2, 3)]
    assert beta_sequence((1, 2), 3) == [Weight((1, 0, -1)), simple_root(2, 3)]


def test_is_reduced():
    assert is_reduced((1, 2, 1), 3)
    assert not is_reduced((1, 1), 3)
    assert is_reduced((), 3)
    with pytest.raises(UsageError):
        is_reduced((3,), 3)


def test_reduced_word_longest_element():
    w0 = Permutation((3, 2, 1))
    assert reduced_word(w0) == (1, 2, 1)


def test_reduced_word_round_trip_s4():
    # in S_4 and S_5
    for n in (4, 5):
        for w in all_permutations(n):
            word = reduced_word(w)
            assert word_permutation(word, n) == w
            assert len(word) == w.inversions()
            # lexicographic minimality against brute force for short words
            if w.inversions() <= 3:
                candidates = [c for c in itertools.product(
                                  range(1, n), repeat=w.inversions())
                              if word_permutation(c, n) == w]
                assert word == min(candidates)


# ---------------------------------------------------------------------------
# sigma


def test_sigma_weyl_lemma(ctx3, ctx4):
    rng = random.Random(5)
    for ctx in (ctx3, ctx4):
        for _ in range(4):
            lam = random_weight(rng, ctx.n)
            for i in range(1, ctx.n):
                left = sigma_op(ctx, i, c1_weight(ctx, lam))
                right = c1_weight(
                    ctx, weyl_act(Permutation.simple(i, ctx.n), lam))
                assert left == right


def test_sigma_involution_and_symmetric_fixed(ctx3):
    rng = random.Random(6)
    for _ in range(6):
        a = random_flag_elem(ctx3, rng)
        for i in (1, 2):
            assert sigma_op(ctx3, i, sigma_op(ctx3, i, a)) == a
    # an element symmetric in x_1, x_2 is fixed by sigma_1
    sym = reduce_canonical(ctx3, {(1, 1, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1})
    assert sigma_op(ctx3, 1, sym) == sym


def test_sigma_is_ring_map(ctx3):
    rng = random.Random(61)
    for _ in range(5):
        a = random_flag_elem(ctx3, rng)
        b = random_flag_elem(ctx3, rng)
        i = rng.randint(1, 2)
        assert sigma_op(ctx3, i, a * b) == sigma_op(ctx3, i, a) * sigma_op(
            ctx3, i, b)


# ---------------------------------------------------------------------------
# Divided differences


def test_op_pack_is_the_relabeled_law_pack(ctx3, ctx4):
    # the two-variable U^-1 read in x_i, x_{i+1} reduces to the inverse
    # unit built and checked directly in n variables, in canonical form
    for ctx in (ctx3, ctx4):
        for i in range(1, ctx.n):
            _, ref_unit_inv = reference_op_pack(ctx, i)
            assert reduce_canonical(
                ctx, unpacked(ctx, _op_pack(ctx, i))) == reduce_canonical(
                ctx, ref_unit_inv.terms), (ctx.n, i)


# Exponent vectors of degree at most d = 6 at rank 4, so that they pack
fraction_terms = st.dictionaries(
    st.tuples(*(st.integers(0, 4) for _ in range(4))).filter(
        lambda key: sum(key) <= 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)), max_size=8)


@settings(max_examples=200, deadline=None)
@given(fraction_terms, st.integers(0, 2))
@example({(0, 3, 1, 0): F(2), (0, 1, 3, 0): F(-1, 2),
          (1, 2, 2, 0): F(5)}, 1)
@example({(0, 0, 0, 6): F(1), (6, 0, 0, 0): F(3), (0, 0, 6, 0): F(-1)}, 2)
def test_divided_difference_kernel_matches_classical(terms, i):
    # the packed kernel at letter i + 1 divides by x_{i+2} - x_{i+1}, as
    # classical_divided_difference at 0-based i does; it moves fields of
    # exponents up to d and does not reduce
    ctx = FlagContext(4, F(0))
    expected = {key: CoeffPoly.rational(value) for key, value in
                classical_divided_difference(terms, i).items()}
    coeffs = {key: CoeffPoly.rational(value) for key, value in terms.items()}
    got = sum_of_products(divided_difference_terms(
        ctx, i + 1, packed(ctx, coeffs)))
    assert unpacked(ctx, got) == expected
    # and it is the exact quotient of f - s f by x_{i+2} - x_{i+1}
    f = TruncSeries(("a", "b", "c", "d"), 16, terms)
    swap = f.swap_vars(i, i + 1)
    assert divide_by_linear(f - swap, i + 1, i).terms == expected


# ---------------------------------------------------------------------------
# The operator pack stops at degree 2n - 3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pair_monomials_above_2n_minus_3_reduce_to_zero(n):
    # every monomial of degree 2n - 2 in a pair of adjacent variables lies
    # in the ideal, so every monomial of higher degree does too; the pair
    # staircase monomial x_{n-1}^(n-2) x_n^(n-1) of degree 2n - 3 does not;
    # forms do not depend on the law, so the Chow context serves
    ctx = FlagContext(n, F(0))
    top = 2 * n - 3
    for i in range(1, n):
        for a in range(top + 2):
            key = [0] * n
            key[i - 1], key[i] = a, top + 1 - a
            # above degree d a monomial has no pack: it lies in the ideal
            m = ctx.pack(tuple(key))
            assert m is None or ctx._normal_forms[m] == (), (n, key)
    corner = ctx.pack((0,) * (n - 2) + (n - 2, n - 1))
    assert ctx._normal_forms[corner] == ((corner, 1),)


@pytest.mark.parametrize("law", [(), (F(0),), (F(2, 3),), (F(-1, 2),)],
                         ids=THEORIES + ("ktheory-negative",))
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_op_pack_is_the_full_degree_pack(n, law):
    # the pack through 2n - 3 reduces to the pack through d, read in the
    # same pair and reduced
    ctx = FlagContext(n, *law)
    for i in range(1, n):
        assert reduce_canonical(
            ctx, unpacked(ctx, _op_pack(ctx, i))) == full_degree_op_pack(
            ctx, i), i


@pytest.mark.parametrize("law", [(), (F(0),), (F(2, 3),), (F(-1, 2),)],
                         ids=THEORIES + ("ktheory-negative",))
@pytest.mark.parametrize("n", [3, 4, 5])
def test_moved_packs_and_dual_products_match_the_direct_routes(n, law):
    # the last pack is canonical, and every other pack is its terms moved to
    # the pair and not reduced, a representative of the pack read at the
    # pair; the dual operator's product with a raw pack reduces inside the
    # kernel; both match the routes they replaced, at every cap
    ctx = FlagContext(n, *law)
    rng = random.Random(f"dual-{n}-{law}")
    last = _op_pack(ctx, n - 1)
    assert last == direct_op_pack(ctx, n - 1).terms
    for i in range(1, n):
        pack = unpacked(ctx, _op_pack(ctx, i))
        assert list(pack.values()) == list(last.values()), i
        assert all(sum(key) == sum(key[i - 1:i + 1]) for key in pack), i
        assert reduce_canonical(ctx, pack) == direct_op_pack(ctx, i), i
    for i in range(1, n):
        a = random_flag_elem(ctx, rng, max_terms=6)
        quotient = FlagElem._raw(ctx, _antisymmetrize(ctx, i, a.terms))
        for top in range(ctx.d + 1):
            assert dual_step(ctx, i, a.terms, top) == two_pass_product(
                quotient, direct_op_pack(ctx, i), top).terms, (i, top)
        # a class times a pack: long b-coefficients on many raw monomials
        z = bs_class(ctx, tuple(range(1, n))[:i])
        assert times_terms(ctx, z.terms, _op_pack(ctx, i), ctx.d) == \
            two_pass_product(z, direct_op_pack(ctx, i)).terms, i


def test_cold_class_of_w0_reduces_once_per_pack(monkeypatch):
    # products reduce inside the kernel and every pack but the last is
    # moved from it unreduced, so a cold class reduces a mapping once
    # (``reduce_terms``, which ``reduce_canonical`` calls too), for the
    # last pack: it made 9 reductions at rank 4 when each of its 6
    # products reduced in a second pass, and one per pack (3 at rank 4, 4
    # at rank 5) while the moved packs were reduced.  Products with raw
    # packs meet more raw monomials, 125 normal forms at rank 4 and 1242 at
    # rank 5 (81 and 562 with canonical packs), far below the 3021 forms of
    # the full h_j cascade at rank 5
    calls = []
    reduce = flagring.reduce_terms

    def spy(ctx, p):
        calls.append(ctx.n)
        return reduce(ctx, p)

    for module in (flagring, weylops):
        monkeypatch.setattr(module, "reduce_terms", spy)
    for n, reductions, forms in ((4, 1, 125), (5, 1, 1242)):
        ctx = FlagContext(n)
        calls.clear()
        bs_class(ctx, reduced_word(Permutation(tuple(range(n, 0, -1)))))
        assert len(calls) == reductions, n
        assert len(ctx._normal_forms) <= forms, n


def test_chevalley_walks_reduce_only_mappings(monkeypatch):
    # operators check their input with FlagContext.own, not by passing it
    # through a reduction (``reduce_terms``, which ``reduce_canonical``
    # calls too), and the walk leaves its swapped states raw,
    # so the 45 walks of the chev_r4 set (omega_1..omega_3 on the
    # lexicographically smallest reduced words of length at most 3 at rank
    # 4, with packs and Chern classes built first) make no reduction, where
    # reduced swaps made 18 and pass-through checks of flag elements 87
    # more; a cold class of w0 makes 1, for its last pack, where reduced
    # moved packs made 3
    inputs = []
    reduce = flagring.reduce_terms

    def spy(ctx, p):
        inputs.append(p)
        return reduce(ctx, p)

    for module in (flagring, weylops, schubert):
        monkeypatch.setattr(module, "reduce_terms", spy, raising=False)
    n = 4
    ctx = FlagContext(n)
    for i in range(1, n):
        bs_class(ctx, (i,))
        c1_weight(ctx, fundamental_weight(i, n))
    words = [word for word in map(reduced_word, all_permutations(n))
             if len(word) <= 3]
    walks = [(fundamental_weight(i, n), word)
             for i in range(1, n) for word in words]
    assert len(walks) == 45
    inputs.clear()
    for lam, word in walks:
        c1_times_bs(ctx, lam, word)
    assert inputs == []
    bs_class(FlagContext(n), reduced_word(Permutation(tuple(range(n, 0, -1)))))
    assert len(inputs) == 1
    assert all(type(p) is dict for p in inputs)


def test_context_builds_its_pack_once_through_2n_minus_3(monkeypatch):
    # a context asks fgl for U^-1 once, through 2n - 3, however many
    # operators read it, and never builds the whole law (F, chi and q)
    asked, built = [], []
    build_pack = flagring.unit_inverse

    def spy(log, exp, top):
        asked.append(top)
        return build_pack(log, exp, top)

    monkeypatch.setattr(flagring, "unit_inverse", spy)
    for module in (fgl, flagring, weylops, schubert):
        monkeypatch.setattr(module, "build_universal_fgl",
                            lambda *args: built.append(args), raising=False)
    for n in (2, 3, 4, 5):
        ctx = FlagContext(n)
        for i in range(1, n):
            _op_pack(ctx, i)
        bs_class(ctx, tuple(range(1, n)))
        c1_weight(ctx, rho_weight(n))
        assert asked == [2 * n - 3], n
        asked.clear()
    assert built == []


@pytest.mark.parametrize("op", [
    divided_diff, divided_diff_dual, sigma_op,
], ids=["divided_diff", "divided_diff_dual", "sigma_op"])
def test_operator_index_validation(ctx3, op):
    # a linear form with distinct coefficients: letters 0 and n are
    # refused before any operator reads it
    a = ctx3.x_elem(2) + 2 * ctx3.x_elem(3)
    for i in (0, 3):
        with pytest.raises(UsageError):
            op(ctx3, i, a)


@pytest.mark.parametrize("apply", [
    lambda ctx, a: sigma_op(ctx, 1, a),
    lambda ctx, a: divided_diff(ctx, 1, a),
    lambda ctx, a: divided_diff_dual(ctx, 1, a),
    lambda ctx, a: schubert.poly_times_bs(ctx, a, (1, 2)),
    lambda ctx, a: schubert.expand_in_bs_basis(ctx, a),
], ids=["sigma_op", "divided_diff", "divided_diff_dual", "poly_times_bs",
        "expand_in_bs_basis"])
def test_operators_reject_an_element_of_another_context(ctx3, ctx4, apply):
    # a cobordism element carries b1, which a Chow result must never hold;
    # a raw mapping is no element, even with canonical terms
    chow = FlagContext(3, F(0))
    a = bs_class(ctx3, (1, 2))
    assert any(not coeff.is_rational() for coeff in a.terms.values())
    for ctx, elem in ((chow, a), (ctx3, chow.x_elem(1)),
                      (ctx3, ctx4.x_elem(1)), (ctx3, dict(a.terms))):
        with pytest.raises(UsageError):
            apply(ctx, elem)
    # a context of the same rank and law is not another ring
    apply(FlagContext(3), a)


@pytest.mark.parametrize("meet", [
    lambda x, y: x + y,
    lambda x, y: x - y,
    lambda x, y: y - x,
    lambda x, y: x * y,
    lambda x, y: divided_diff(x.ctx, 1, y),
    lambda x, y: divided_diff_dual(x.ctx, 1, y),
    lambda x, y: sigma_op(x.ctx, 1, y),
    lambda x, y: schubert.poly_times_bs(x.ctx, y, (1, 2)),
    lambda x, y: schubert.expand_in_bs_basis(x.ctx, y),
], ids=["add", "sub", "rsub", "mul", "divided_diff", "divided_diff_dual",
        "sigma_op", "poly_times_bs", "expand_in_bs_basis"])
def test_two_rings_meet_only_through_own(meet):
    # every way two elements meet admits what ``own`` admits and refuses
    # the rest with its one message, sums and differences included
    x = FlagContext(3).x_elem(1)
    y = FlagContext(3, F(0)).x_elem(2)
    with pytest.raises(UsageError, match="expected an element of FlagContext"):
        meet(x, y)
    meet(x, FlagContext(3).x_elem(2))


def test_operators_take_no_series_route(monkeypatch):
    # once the packs are built, bs_class of w0 and the Chevalley walks of
    # the chev_r4 set never swap series variables or divide by a linear form;
    # flag elements have no series view to fall back on
    n = 4
    words = [reduced_word(w) for w in all_permutations(n)]
    w0 = max(words, key=len)
    walks = [(fundamental_weight(k, n), word) for k in range(1, n)
             for word in words if len(word) <= 3]
    expected = FlagContext(n)
    ctx = FlagContext(n)
    for i in range(1, n):
        _op_pack(ctx, i)

    def refuse(*args, **kwargs):
        raise AssertionError("the operators left the integer kernel")

    monkeypatch.setattr(TruncSeries, "swap_vars", refuse)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cobschub" and getattr(
                module, "divide_by_linear", None) is ringcore.divide_by_linear:
            monkeypatch.setattr(module, "divide_by_linear", refuse)
    got_w0 = bs_class(ctx, w0)
    got_walks = [c1_times_bs(ctx, lam, word) for lam, word in walks]
    monkeypatch.undo()
    assert got_w0 == bs_class(expected, w0)
    assert got_walks == [c1_times_bs(expected, lam, word)
                         for lam, word in walks]


def test_c1_takes_no_series_route(monkeypatch):
    # once the law is built, first Chern classes and the Chevalley walks of
    # the chev_r4 set compute with flag elements only: no composition and
    # no series product
    n = 4
    words = [reduced_word(w) for w in all_permutations(n)]
    weights = [fundamental_weight(k, n) for k in range(1, n)] + [rho_weight(n)]
    walks = [(lam, word) for lam in weights for word in words
             if len(word) <= 3]
    expected = FlagContext(n)
    ctx = FlagContext(n)
    for i in range(1, n):
        _op_pack(ctx, i)  # the law's own pack is built by series products

    def refuse(*args, **kwargs):
        raise AssertionError("the flag ring built a series")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cobschub" and getattr(
                module, "compose", None) is ringcore.compose:
            monkeypatch.setattr(module, "compose", refuse)
    monkeypatch.setattr(TruncSeries, "__mul__", refuse)
    monkeypatch.setattr(TruncSeries, "__rmul__", refuse)
    got_c1 = [c1_weight(ctx, lam) for lam in weights]
    got_walks = [c1_times_bs(ctx, lam, word) for lam, word in walks]
    monkeypatch.undo()
    assert got_c1 == [c1_weight(expected, lam) for lam in weights]
    assert got_walks == [c1_times_bs(expected, lam, word)
                         for lam, word in walks]


def test_operators_match_series_route_on_random_elements(ctx3, ctx4):
    rng = random.Random(47)
    for ctx in (ctx3, ctx4):
        for _ in range(3):
            a = random_flag_elem(ctx, rng)
            for i in range(1, ctx.n):
                assert divided_diff(ctx, i, a) == series_divided_diff(
                    ctx, i, a)
                assert divided_diff_dual(ctx, i, a) == \
                    series_divided_diff_dual(ctx, i, a)


def test_operators_match_series_route_on_engine_inputs(monkeypatch):
    # every operator input reached by bs_class of every reduced word, by
    # the Chevalley walks of omega_k over words of length <= 3 (all of rank
    # 3, the chev_r4 set at rank 4) and by the walk of rho over the longest
    # word, each rank on a fresh context, against the series route; from
    # length 4 on the walk hands the dual step raw mappings (its swapped
    # states), and it asks for the image only through a degree top, which
    # is compared with the series route's image of the same raw input cut
    # there
    calls = []

    def recording(op, oracle):
        def wrapper(ctx, i, a, *top):
            result = op(ctx, i, a, *top)
            # a packed mapping is carried to the series route as an element
            calls.append((oracle, ctx, i) + tuple(
                FlagElem._raw(ctx, x) if type(x) is dict else x
                for x in (a, top, result)))
            return result
        return wrapper

    monkeypatch.setattr(schubert, "divided_diff",
                        recording(divided_diff, series_divided_diff))
    monkeypatch.setattr(schubert, "dual_step",
                        recording(dual_step, series_divided_diff_dual))
    for n in (3, 4):
        ctx = FlagContext(n)
        words = [reduced_word(w) for w in all_permutations(n)]
        for word in words:
            bs_class(ctx, word)
        for k in range(1, n):
            for word in words:
                if len(word) <= 3:
                    c1_times_bs(ctx, fundamental_weight(k, n), word)
        c1_times_bs(ctx, rho_weight(n), max(words, key=len))
    assert {op for op, *_ in calls} == {series_divided_diff,
                                        series_divided_diff_dual}
    assert any(top and top[0] < ctx.d for _, ctx, _, _, top, _ in calls)
    assert any(not is_canonical(a.exponents())
               for _, _, _, a, _, _ in calls)
    for oracle, ctx, i, a, top, result in calls:
        expected = oracle(ctx, i, a)
        if top:
            expected = through_degree(expected, *top)
        assert result == expected, (ctx.n, i, a, top)


@pytest.mark.parametrize("theory", THEORIES)
@pytest.mark.parametrize("n", (3, 4))
def test_bounded_dual_is_the_image_through_top(n, theory):
    # dual_step(ctx, i, a, top) is the series route's image cut to degree
    # <= top for every top in 0..d, and divided_diff_dual the whole image,
    # on random elements and on the engine's inputs: first Chern classes,
    # the states the walk hands down, and Bott-Samelson classes
    ctx = FlagContext(n, *theory_law(theory, Fraction(2, 3)))
    rng = random.Random(59 + n)
    rho = c1_weight(ctx, rho_weight(n))
    inputs = [random_flag_elem(ctx, rng) for _ in range(3)]
    inputs += [rho, c1_weight(ctx, fundamental_weight(n - 1, n)),
               sigma_op(ctx, 1, divided_diff_dual(ctx, n - 1, rho)),
               bs_class(ctx, (1, 2)), bs_class(ctx, (n - 1,))]
    for a in inputs:
        for i in range(1, n):
            full = series_divided_diff_dual(ctx, i, a)
            assert divided_diff_dual(ctx, i, a) == full
            for top in range(ctx.d + 1):
                assert dual_step(ctx, i, a.terms, top) == \
                    through_degree(full, top).terms, (i, a, top)


def test_dual_constant_term_is_the_degree_one_read(ctx3, ctx4):
    # the constant term of the dual operator is a[x_{i+1}] - a[x_i], which
    # c1_times_bs reads in place of a string's last dual divided difference
    rng = random.Random(53)
    nonzero = 0
    for ctx in (ctx3, ctx4):
        inputs = [random_flag_elem(ctx, rng) for _ in range(6)]
        inputs += [c1_weight(ctx, fundamental_weight(k, ctx.n))
                   for k in range(1, ctx.n)]
        inputs += [c1_weight(ctx, Weight(tuple(
            rng.randint(-2, 2) for _ in range(ctx.n)))) for _ in range(2)]
        for a in inputs:
            for i in range(1, ctx.n):
                read = (a.coefficient(basis_weight(i + 1, ctx.n).coords)
                        - a.coefficient(basis_weight(i, ctx.n).coords))
                assert dual_read(ctx, i, a.terms) == read
                assert divided_diff_dual(ctx, i, a).constant_term() == read
                nonzero += bool(read)
    assert nonzero


@pytest.mark.parametrize("law", [(), (F(0),), (F(2, 3),), (F(-1, 2),)],
                         ids=THEORIES + ("ktheory-negative",))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dual_constant_terms_after_are_the_two_step_reads(n, law):
    # the reads of a position-1 node and of its children in c1_times_bs,
    # taken from the node's state through degree 2, against the node's own
    # read and the dual divided difference and the swap applied and then
    # read, for every pair (i, j):
    # i == j, |i - j| = 1, |i - j| >= 2 and j = 1 at ranks 4 and 5
    rng = random.Random(59 + n)
    ctx = FlagContext(n, *law)
    states = [random_flag_elem(ctx, rng) for _ in range(3)]
    states += [c1_weight(ctx, random_weight(rng, n)),
               c1_weight(ctx, fundamental_weight(n - 1, n))]
    states.append(states[-1] * states[-2])  # degree 2 in Chow too
    nonzero = [0, 0, 0]
    for a in states:
        for i in range(1, n):
            for j in range(1, n):
                expected = (
                    dual_read(ctx, i, a.terms),
                    dual_read(ctx, j, dual_step(ctx, i, a.terms, 1)),
                    dual_read(ctx, j, sigma_op(
                        ctx, i, through_degree(a, 1)).terms))
                assert dual_reads_after(ctx, i, j, a.terms) == expected
                assert dual_reads_after(
                    ctx, i, j, through_degree(a, 2).terms) == expected
                nonzero = [k + bool(read)
                           for k, read in zip(nonzero, expected)]
    # at rank 2 in Chow nothing has degree 2 (d = 1) and U^-1 = 1, so the
    # removed child reads 0
    assert nonzero[0] and nonzero[2] and (
        nonzero[1] or (n, law) == (2, (F(0),)))


def random_coeff(rng) -> CoeffPoly:
    """A small coefficient with a b-term and mixed denominators."""
    return coeff_from_fractions({
        (): F(rng.randint(-4, 4), rng.randint(1, 5)),
        ((rng.randint(1, 3), 1),): F(rng.randint(-3, 3), rng.randint(1, 6))})


@pytest.mark.parametrize("law", [(), (F(0),), (F(2, 3),)], ids=THEORIES)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_read_tables_match_the_two_step_reads_on_raw_states(n, law):
    # the per-context tables of dual_reads_after on the raw mappings a walk
    # and the operators meet: swap_step outputs, sums holding non-staircase
    # degree-2 monomials (x_1^2, x_1 x_2, x_2^2 and the pair (i, i + 1)'s),
    # and the moved packs, against the node's read and the dual step and
    # the swap applied and then read, for every pair (i, j)
    rng = random.Random(f"tables-{n}-{law}")
    ctx = FlagContext(n, *law)
    x = ctx.x_keys
    elems = [random_flag_elem(ctx, rng, max_terms=6) for _ in range(2)]
    elems.append(ctx.x_elem(1) * ctx.x_elem(n) * random_coeff(rng)
                 + ctx.x_elem(2) * random_coeff(rng))
    states = [swap_step(ctx, k, a.terms, ctx.d)
              for a in elems for k in range(1, n)]
    squares = ([(x[0], x[0]), (x[0], x[1]), (x[1], x[1])]
               + list(zip(x, x[1:]))) if ctx.d >= 2 else []
    for a in elems:
        raw = dict(a.terms)
        for u, v in squares:
            raw[u + v] = random_coeff(rng)
        states.append(raw)
    states += [_op_pack(ctx, k) for k in range(1, n)]
    assert any(not is_canonical(unpacked(ctx, t)) for t in states)
    nonzero = [0, 0, 0]
    for terms in states:
        for i in range(1, n):
            for j in range(1, n):
                expected = (
                    dual_read(ctx, i, terms),
                    dual_read(ctx, j, dual_step(ctx, i, terms, 1)),
                    dual_read(ctx, j, swap_step(ctx, i, terms, 1)))
                assert dual_reads_after(ctx, i, j, terms) == expected, (i, j)
                nonzero = [k + bool(read)
                           for k, read in zip(nonzero, expected)]
    assert nonzero[0] and nonzero[2] and (nonzero[1] or n == 2)


def test_read_tables_are_per_context_and_lazy():
    # a fresh context holds no read table; the 45 Chevalley queries of the
    # chev_r4 set (omega_1..omega_3 times the lexicographically smallest
    # reduced words of length at most 3 at rank 4) build at most one per
    # pair (i, j); a second context of the same (n, beta) builds its own
    n = 4
    pairs = {(i, j) for i in range(1, n) for j in range(1, n)}
    words = [word for word in map(reduced_word, all_permutations(n))
             if len(word) <= 3]
    contexts = [FlagContext(n), FlagContext(n)]
    for ctx in contexts:
        assert ctx._read_tables == {}
        for i in range(1, n):
            for word in words:
                c1_times_bs(ctx, fundamental_weight(i, n), word)
        assert 0 < len(ctx._read_tables) <= (n - 1) ** 2
        assert set(ctx._read_tables) <= pairs
    first, second = (ctx._read_tables for ctx in contexts)
    assert first.keys() == second.keys()
    assert all(first[key] is not second[key] for key in first)


def test_divided_diff_golden_rank3(ctx3):
    # applying the second operator to x_3 produces 1 + a_12 x_2 x_3 with
    # a_12 = b1^2 - b2
    x3 = ctx3.x_elem(3)
    got = divided_diff(ctx3, 2, x3)
    expected = reduce_canonical(ctx3, {
        (0, 0, 0): 1, (0, 1, 1): b1**2 - b2})
    assert got == expected


def test_divided_diff_symmetric_linearity(ctx3):
    rng = random.Random(7)
    one = ctx3.one()
    for i in (1, 2):
        a_one = divided_diff(ctx3, i, one)
        for _ in range(4):
            g = random_flag_elem(ctx3, rng)
            g_sym = g + sigma_op(ctx3, i, g)  # symmetric by construction
            assert divided_diff(ctx3, i, g_sym) == g_sym * a_one
            h = random_flag_elem(ctx3, rng)
            assert divided_diff(ctx3, i, g_sym * h) == g_sym * divided_diff(
                ctx3, i, h)


def test_divided_diff_image_is_symmetric(ctx3, ctx4):
    rng = random.Random(15)
    for ctx in (ctx3, ctx4):
        for _ in range(4):
            a = random_flag_elem(ctx, rng)
            for i in range(1, ctx.n):
                image = divided_diff(ctx, i, a)
                assert sigma_op(ctx, i, image) == image


def test_divided_diff_representative_independence(ctx3):
    rng = random.Random(19)
    for _ in range(4):
        p = random_flag_elem(ctx3, rng)
        q = random_flag_elem(ctx3, rng)
        k = rng.randint(1, 3)
        e_k = {}
        for combo in itertools.combinations(range(3), k):
            e_k[tuple(1 if t in combo else 0 for t in range(3))] = F(1)
        shifted = reduce_canonical(
            ctx3,
            (as_series(p) + TruncSeries(ctx3.vars, ctx3.work_cap, e_k)
             * as_series(q)).terms)
        for i in (1, 2):
            assert divided_diff(ctx3, i, shifted) == divided_diff(ctx3, i, p)


def test_divided_diff_chow_matches_classical(ctx3):
    rng = random.Random(25)
    chow = {i: F(0) for i in range(1, ctx3.work_cap + 1)}
    for _ in range(6):
        a = specialize(random_flag_elem(ctx3, rng), chow)
        for i in (1, 2):
            ours = specialize(divided_diff(ctx3, i, a), chow)
            terms = a.exponents()
            assert all(v.is_rational() for v in terms.values())
            plain = {k: v.constant() for k, v in terms.items()}
            oracle = classical_divided_difference(plain, i - 1)
            oracle_elem = reduce_canonical(
                ctx3, {k: CoeffPoly.rational(v) for k, v in oracle.items()})
            assert ours == oracle_elem


def test_dual_diff_constant_term_is_pairing(ctx3, ctx4):
    rng = random.Random(28)
    for ctx in (ctx3, ctx4):
        for _ in range(4):
            lam = random_weight(rng, ctx.n)
            for i in range(1, ctx.n):
                got = divided_diff_dual(ctx, i, c1_weight(ctx, lam))
                pairing = coroot_pairing(lam, simple_root(i, ctx.n))
                assert got.constant_term() == CoeffPoly.rational(pairing)


def test_dual_diff_kills_symmetric(ctx3):
    rng = random.Random(33)
    for i in (1, 2):
        for _ in range(4):
            g = random_flag_elem(ctx3, rng)
            g_sym = g + sigma_op(ctx3, i, g)
            assert divided_diff_dual(ctx3, i, g_sym).is_zero()


def test_dual_diff_symmetric_linearity(ctx3):
    rng = random.Random(37)
    for i in (1, 2):
        for _ in range(4):
            g = random_flag_elem(ctx3, rng)
            g_sym = g + sigma_op(ctx3, i, g)
            h = random_flag_elem(ctx3, rng)
            assert divided_diff_dual(ctx3, i, g_sym * h) == g_sym * \
                divided_diff_dual(ctx3, i, h)


def test_dual_equals_diff_in_chow(ctx3):
    rng = random.Random(39)
    chow = {i: F(0) for i in range(1, ctx3.work_cap + 1)}
    for _ in range(6):
        a = specialize(random_flag_elem(ctx3, rng), chow)
        for i in (1, 2):
            left = specialize(divided_diff(ctx3, i, a), chow)
            right = specialize(divided_diff_dual(ctx3, i, a), chow)
            assert left == right


def test_operator_commutation_identity(ctx3):
    # c1(L(lam)) A_i - A_i c1(L(s_i lam)) acts as multiplication by
    # A*_i(c1(L(lam)))
    rng = random.Random(44)
    for _ in range(4):
        lam = random_weight(rng, 3)
        a = random_flag_elem(ctx3, rng)
        for i in (1, 2):
            c_lam = c1_weight(ctx3, lam)
            c_slam = c1_weight(
                ctx3, weyl_act(Permutation.simple(i, 3), lam))
            left = c_lam * divided_diff(ctx3, i, a) - divided_diff(
                ctx3, i, c_slam * a)
            right = divided_diff_dual(ctx3, i, c_lam) * a
            assert left == right
