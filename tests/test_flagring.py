import itertools
import random
from fractions import Fraction

import pytest

from cobschub.ringcore import CoeffPoly, TruncSeries, UsageError
from cobschub.flagring import (
    FlagContext,
    Weight,
    c1_weight,
    fundamental_weight,
    point_class,
    reduce_canonical,
    rho_weight,
    simple_root,
    times_terms,
)
from cobschub.ringcore import compose

from oracles import (
    as_series,
    coeff_from_fractions,
    compose_c1,
    flag_poly_in_ideal,
    formal_sum,
    law_of,
    n_series,
    random_flag_elem,
    total_degrees,
    two_pass_product,
    var_series,
)

F = Fraction
b1 = CoeffPoly.b(1)


@pytest.fixture(scope="module")
def ctx3():
    return FlagContext(3)


@pytest.fixture(scope="module")
def ctx4():
    return FlagContext(4)


def test_context_validation():
    with pytest.raises(UsageError):
        FlagContext(1)
    ctx = FlagContext(2)
    assert ctx.d == 1
    assert FlagContext(4).d == 6


@pytest.mark.parametrize("rank", [3.5, 3.0, "3", None, 1, -2])
def test_a_rank_that_is_no_integer_from_2_up_is_a_usage_error(rank):
    # a float, a string or None is no rank, whatever its value; a rank
    # below 2 has its own message
    match = "at least 2" if isinstance(rank, int) else "must be an integer"
    with pytest.raises(UsageError, match=match):
        FlagContext(rank)


@pytest.mark.parametrize("beta", ["1/2", 0.5, True, False, 1j, (1, 2)])
def test_a_beta_that_is_no_rational_is_a_usage_error(beta):
    # a string, a float, a bool or a pair is no law, whatever its value;
    # the context refuses it before the law is built
    with pytest.raises(UsageError, match="beta must be None, an integer"):
        FlagContext(3, beta)
    for good in (None, 0, 2, F(2, 3)):
        assert FlagContext(2, good).beta == good


# ---------------------------------------------------------------------------
# Canonical reduction


def test_reduce_x1x2(ctx3):
    got = reduce_canonical(ctx3, {(1, 1, 0): 1})
    assert got.exponents() == {(0, 0, 2): CoeffPoly.one()}


def test_reduce_minus_x1sq_x2(ctx3):
    got = reduce_canonical(ctx3, {(2, 1, 0): -1})
    assert got.exponents() == {(0, 1, 2): CoeffPoly.one()}
    # independent membership check: the difference lies in the ideal
    assert flag_poly_in_ideal(ctx3, {
        (2, 1, 0): CoeffPoly.rational(-1),
        (0, 1, 2): CoeffPoly.rational(-1)})


def test_reduce_idempotent(ctx3):
    rng = random.Random(2)
    for _ in range(10):
        a = random_flag_elem(ctx3, rng)
        assert reduce_canonical(ctx3, a.exponents()) == a


def test_reduce_respects_staircase_and_degree(ctx4):
    rng = random.Random(4)
    for _ in range(10):
        raw = {}
        for _ in range(5):
            key = tuple(rng.randint(0, 4) for _ in range(4))
            raw[key] = F(rng.randint(-3, 3))
        elem = reduce_canonical(ctx4, raw)
        for key in elem.exponents():
            assert sum(key) <= ctx4.d
            assert all(key[j] <= j for j in range(4))


def test_reduce_is_ring_homomorphism(ctx3):
    rng = random.Random(9)
    vars, cap = ctx3.vars, ctx3.work_cap
    for _ in range(6):
        p = {tuple(rng.randint(0, 2) for _ in range(3)): F(rng.randint(-3, 3))
             for _ in range(3)}
        q = {tuple(rng.randint(0, 2) for _ in range(3)): F(rng.randint(-3, 3))
             for _ in range(3)}
        ps = TruncSeries(vars, cap, p)
        qs = TruncSeries(vars, cap, q)
        direct = reduce_canonical(ctx3, (ps * qs).terms)
        factored = (reduce_canonical(ctx3, ps.terms)
                    * reduce_canonical(ctx3, qs.terms))
        assert direct == factored


def test_flag_subtraction_is_addition_of_the_negative(ctx3, ctx4):
    rng = random.Random(23)
    for ctx in (ctx3, ctx4):
        for _ in range(6):
            a = random_flag_elem(ctx, rng)
            b = random_flag_elem(ctx, rng) + a * CoeffPoly.b(1)
            assert a - b == a + (-b)
            assert b - a == -(a - b)
            assert (a + b) - b == a
            assert (a - a).terms == {}


def test_elementary_symmetric_polynomials_die(ctx3, ctx4):
    rng = random.Random(14)
    for ctx in (ctx3, ctx4):
        n = ctx.n
        for k in range(1, n + 1):
            e_k = {}
            for combo in itertools.combinations(range(n), k):
                key = tuple(1 if i in combo else 0 for i in range(n))
                e_k[key] = F(1)
            assert reduce_canonical(ctx, e_k).is_zero()
            # e_k times anything also dies
            p = random_flag_elem(ctx, rng)
            es = TruncSeries(ctx.vars, ctx.work_cap, e_k)
            assert reduce_canonical(ctx, (es * as_series(p)).terms).is_zero()


def test_high_degree_integral_polynomials_die(ctx3, ctx4):
    rng = random.Random(17)
    for ctx in (ctx3, ctx4):
        for _ in range(8):
            deg = ctx.d + rng.randint(1, 2)
            key = [0] * ctx.n
            for _ in range(deg):
                key[rng.randint(0, ctx.n - 1)] += 1
            elem = reduce_canonical(ctx, {tuple(key): F(rng.randint(1, 5))})
            assert elem.is_zero()


# ---------------------------------------------------------------------------
# Products


def test_flag_mul_examples(ctx3):
    one = ctx3.one()
    rng = random.Random(1)
    a = random_flag_elem(ctx3, rng)
    assert one * a == a
    x3 = ctx3.x_elem(3)
    assert (x3 * x3).exponents() == {(0, 0, 2): CoeffPoly.one()}
    # x3^2 * x2 x3 = x2 x3^3 and x3^3 rewrites to zero
    x3sq = reduce_canonical(ctx3, {(0, 0, 2): 1})
    x2x3 = reduce_canonical(ctx3, {(0, 1, 1): 1})
    assert (x3sq * x2x3).is_zero()
    assert reduce_canonical(ctx3, {(0, 0, 3): 1}).is_zero()


def test_flag_mul_context_mismatch(ctx3, ctx4):
    with pytest.raises(UsageError):
        ctx3.one() * ctx4.one()


def test_flag_mul_same_rank_distinct_contexts(ctx3):
    other = FlagContext(3)
    assert ctx3.one() * other.one() == ctx3.one()


def test_contexts_over_different_laws_never_mix(ctx3):
    chow = FlagContext(3, F(0))
    ktheory = FlagContext(3, F(2, 3))
    with pytest.raises(UsageError):
        chow.x_elem(1) * ctx3.x_elem(1)
    with pytest.raises(UsageError):
        chow.own(ctx3.x_elem(1))
    # x_1 = -x_2 - x_3 over every law: equal terms, different rings
    assert chow.x_elem(1).terms == ctx3.x_elem(1).terms
    assert chow.x_elem(1) != ctx3.x_elem(1)
    assert chow.x_elem(1) != ktheory.x_elem(1)
    assert len({chow.one(), ktheory.one(), ctx3.one()}) == 3
    assert FlagContext(3, F(0)).x_elem(1) == chow.x_elem(1)


# ---------------------------------------------------------------------------
# Distinguished classes


def test_point_class_values():
    assert point_class(FlagContext(2)).exponents() == {
        (0, 1): CoeffPoly.one()}
    assert point_class(FlagContext(3)).exponents() == {
        (0, 1, 2): CoeffPoly.one()}


def test_text_rendering(ctx3):
    # elements and series share one renderer, the CLI's: by degree, every
    # coefficient in parentheses
    a = reduce_canonical(ctx3, {(0, 0, 0): 2, (0, 1, 0): 1,
                                (0, 1, 2): -3 * b1,
                                (0, 0, 1): CoeffPoly.b(2) - b1**2})
    text = "(2) + (-b1^2 + b2)*x3 + (1)*x2 + (-3*b1)*x2*x3^2"
    assert str(a) == str(as_series(a)) == text
    assert str(ctx3.zero()) == str(as_series(ctx3.zero())) == "0"


def test_constant_term(ctx3):
    a = reduce_canonical(ctx3, {(0, 0, 0): 1,
                                (0, 0, 2): b1**2 - CoeffPoly.b(2)})
    assert a.constant_term() == CoeffPoly.one()
    assert reduce_canonical(ctx3, {(0, 0, 2): 1}).constant_term().is_zero()
    assert (ctx3.one() * b1).constant_term() == b1


def test_constant_term_agrees_with_point_product(ctx3):
    # the invariant definition multiplies by the class of a point
    rng = random.Random(23)
    pt = point_class(ctx3)
    for _ in range(8):
        a = random_flag_elem(ctx3, rng)
        assert a * pt == a.constant_term() * pt


# ---------------------------------------------------------------------------
# Chern classes of weight line bundles


def test_c1_of_minus_e1(ctx3):
    lam = Weight((-1, 0, 0))
    got = c1_weight(ctx3, lam)
    assert got == ctx3.x_elem(1)
    assert got.exponents() == {(0, 1, 0): -CoeffPoly.one(),
                               (0, 0, 1): -CoeffPoly.one()}


def test_c1_of_simple_roots_matches_formal_sum(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        for i in range(1, ctx.n - 1 + 1):
            lam = simple_root(i, ctx.n)
            law = law_of(ctx)
            chi_xi = compose(law.chi, [var_series(ctx, i)])
            direct = compose(law.F, [chi_xi, var_series(ctx, i + 1)])
            assert c1_weight(ctx, lam) == reduce_canonical(ctx, direct.terms)


def test_c1_matches_n_series_fold(ctx3):
    # same class through the other construction: fold the group law over
    # the per-variable multiples [-c_i](x_i)
    rng = random.Random(41)
    for _ in range(4):
        lam = Weight(tuple(rng.randint(-2, 2) for _ in range(3)))
        pieces = [compose(n_series(law_of(ctx3), -c), [var_series(ctx3, i)])
                  for i, c in enumerate(lam.coords, start=1) if c]
        folded = formal_sum(law_of(ctx3), pieces, vars=ctx3.vars,
                            cap=ctx3.work_cap)
        assert c1_weight(ctx3, lam) == reduce_canonical(ctx3, folded.terms)


THEORY_BETAS = [None, F(0), F(2, 3), F(-1, 2)]
THEORY_IDS = ["cobordism", "chow", "ktheory-2/3", "ktheory--1/2"]


def mixed_elem(ctx, rng, size: int):
    """A canonical element of up to ``size`` staircase terms whose
    coefficients mix b-monomials and denominators."""
    return reduce_canonical(ctx, {
        tuple(rng.randint(0, j) for j in range(ctx.n)): coeff_from_fractions({
            (): F(rng.randint(-4, 4), rng.randint(1, 6)),
            ((rng.randint(1, 3), rng.randint(1, 2)),):
                F(rng.randint(-3, 3), rng.choice((1, 2, 5, 7)))})
        for _ in range(size)})


@pytest.mark.parametrize("beta", THEORY_BETAS, ids=THEORY_IDS)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_products_match_the_two_pass_route(n, beta):
    # the product sums the pairs on each raw monomial and spreads that sum
    # onto its normal form in one kernel pass; the route it replaced builds
    # every raw coefficient first and reduces them after, at every cap
    ctx = FlagContext(n, *(() if beta is None else (beta,)))
    rng = random.Random(f"product-{n}-{beta}")
    for size in (3, 8, 16):
        a, b = mixed_elem(ctx, rng, size), mixed_elem(ctx, rng, size)
        assert a * b == two_pass_product(a, b)
        for top in range(ctx.d):
            assert times_terms(ctx, a.terms, b.terms, top) == \
                two_pass_product(a, b, top).terms, top
    # raw monomials on x_n^n and above, whose forms are empty
    corner = reduce_canonical(ctx, {(0,) * (n - 1) + (n - 1,): b1 + F(1, 3)})
    a = mixed_elem(ctx, rng, 8)
    for factor in (ctx.x_elem(n), corner):
        assert a * factor == two_pass_product(a, factor)


@pytest.mark.parametrize("beta", THEORY_BETAS, ids=THEORY_IDS)
def test_c1_matches_the_compose_route(beta):
    # log and exp evaluated inside the flag ring against the series route:
    # exp composed with the n-variable log sum at the working cap
    rng = random.Random(53)
    for n in (2, 3, 4):
        ctx = FlagContext(n, beta)
        for _ in range(5):
            coords = [rng.randint(-3, 3) for _ in range(n)]
            zero, negative = rng.sample(range(n), 2)
            coords[zero], coords[negative] = 0, -rng.randint(1, 3)
            lam = Weight(tuple(coords))
            assert c1_weight(ctx, lam) == compose_c1(ctx, lam), (n, lam)


@pytest.mark.parametrize("beta", THEORY_BETAS, ids=THEORY_IDS)
def test_c1_matches_the_compose_route_at_rank_5(beta):
    ctx = FlagContext(5, beta)
    for lam in [fundamental_weight(k, 5) for k in range(1, 5)] + [
            rho_weight(5)]:
        assert c1_weight(ctx, lam) == compose_c1(ctx, lam), lam


@pytest.mark.parametrize("beta", THEORY_BETAS, ids=THEORY_IDS)
def test_c1_of_minus_e_i_is_x_i(beta):
    for n in (3, 4, 5):
        ctx = FlagContext(n, beta)
        for i in range(1, n + 1):
            lam = Weight(-int(k == i) for k in range(1, n + 1))
            got = c1_weight(ctx, lam)
            assert got == ctx.x_elem(i)
            assert got == compose_c1(ctx, lam), (n, i)


def test_c1_lift_independence(ctx3, ctx4):
    rng = random.Random(31)
    for ctx in (ctx3, ctx4):
        for _ in range(5):
            lam = Weight(tuple(rng.randint(-2, 2) for _ in range(ctx.n)))
            m = rng.randint(-2, 2)
            shifted = Weight(c + m for c in lam.coords)
            assert c1_weight(ctx, lam) == c1_weight(ctx, shifted)


def test_weight_helpers():
    assert fundamental_weight(1, 3).coords == (1, 0, 0)
    assert fundamental_weight(2, 3).coords == (1, 1, 0)
    assert rho_weight(3).coords == (2, 1, 0)
    assert simple_root(2, 3).coords == (0, 1, -1)
    with pytest.raises(UsageError):
        simple_root(3, 3)
    with pytest.raises(UsageError):
        Weight((1, "a"))  # type: ignore[arg-type]


def test_c1_weight_rank_mismatch(ctx3):
    with pytest.raises(UsageError):
        c1_weight(ctx3, Weight((1, 0)))


# ---------------------------------------------------------------------------
# Grading bookkeeping


def test_homogeneous_classes_have_single_total_degree(ctx3):
    # x_i is homogeneous of degree 1; c1(L(lambda)) mixes x-degrees but its
    # total degree is constantly 1
    for i in range(1, 4):
        assert total_degrees(ctx3.x_elem(i)) == {1}
    lam = fundamental_weight(1, 3)
    assert total_degrees(c1_weight(ctx3, lam)) == {1}
    pt = point_class(ctx3)
    assert total_degrees(pt) == {3}
