"""Built-in verification suite behind the ``selftest`` CLI command.

``CHECKS`` is one ordered table.  Each entry gives a check's name, the
theories and ranks it runs at, and a body that takes the rank's context,
which holds the law's beta, and raises when the check fails.
``selftest_results`` runs the entries that a rank and theory admit, in table
order, on one fresh context over the theory's own law, the context the CLI
computes in: the universal law for cobordism, the additive law for chow and
the multiplicative law at beta for ktheory.  The CLI's ``selftest`` command
renders its results as PASS/FAIL lines or as JSON.  The table is the
selftest's one rank policy: ``weyl-lemma`` runs at every rank in chow,
but is slow at rank 6 in cobordism and ktheory and stops at 5 there.
The tier-1 suite parametrizes the same table over ranks 2-6 and every
theory, so each check is written once and runs in both places; the commuting
square with specialized cobordism results is a tier-1 test of its own.

The schubert-oracle entry builds the Schubert polynomials of
Bernstein-Gelfand-Gelfand with a classical divided difference on plain
exponent dicts, so that comparison does not route through the engine's
operators.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from cobschub.ringcore import (
    CoeffPoly,
    TruncSeries,
    combine_terms,
    compose,
    divide_by_linear,
    series_invert_unit,
    truncated_product,
)
from cobschub.fgl import PAIR_VARS, build_universal_fgl
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
    beta_sequence,
    coroot_pairing,
    divided_diff,
    divided_diff_dual,
    reduced_word,
    sigma_op,
    weyl_act,
)
from cobschub.schubert import (
    bs_class,
    c1_times_bs,
    chevalley_coeff,
    expand_in_bs_basis,
    poly_times_bs,
    product_bs,
)

F = Fraction


def classical_divided_difference(terms: dict, i: int) -> dict:
    """(f - swap_i f) / (x_{i+2} - x_{i+1}) on exponent dicts over Fraction,
    0-based i; each monomial's quotient is a telescoping sum."""
    out: dict = {}
    for key, value in terms.items():
        a, b = key[i], key[i + 1]
        if a == b:
            continue
        lo, hi = min(a, b), max(a, b)
        sign = 1 if b > a else -1
        for t in range(lo, hi):
            k2 = list(key)
            k2[i] = a + b - 1 - t
            k2[i + 1] = t
            key2 = tuple(k2)
            new = out.get(key2, F(0)) + sign * value
            if new:
                out[key2] = new
            else:
                out.pop(key2, None)
    return out


def _delta_poly(ctx: FlagContext) -> dict:
    """The Vandermonde representative of the point class,
    (1/n!) * prod_{i > j} (x_i - x_j), as a raw polynomial."""
    x = [tuple(int(k == i) for k in range(ctx.n)) for i in range(ctx.n)]
    total = {(0,) * ctx.n: CoeffPoly.rational(F(1, math.factorial(ctx.n)))}
    for j, i in itertools.combinations(range(ctx.n), 2):
        total = truncated_product(
            total, {x[i]: CoeffPoly.one(), x[j]: CoeffPoly.rational(-1)},
            ctx.d)
    return total


def _elementary(ctx: FlagContext, k: int) -> dict:
    """e_k(x_1, .., x_n) as a raw polynomial."""
    return {tuple(int(t in combo) for t in range(ctx.n)): CoeffPoly.one()
            for combo in itertools.combinations(range(ctx.n), k)}


def _random_elem(ctx, rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(rng.randint(0, j) for j in range(ctx.n))
        value = CoeffPoly.rational(rng.randint(-3, 3))
        if rng.random() < 0.5:
            # factor before index: the selftest digests pin this draw order
            k = rng.randint(-2, 2)
            value += CoeffPoly.b(rng.randint(1, 2)) * k
        if value:
            terms[key] = value
    return reduce_canonical(ctx, terms)


# one build per degree cap and beta for the several checks that read the law
_law_at = functools.lru_cache(maxsize=4)(build_universal_fgl)


def _law(ctx):
    # F, chi and q, which the context never builds, through degree 3 or
    # more for the cubic coefficients of law-coefficients at rank 2
    return _law_at(max(ctx.work_cap, 3), ctx.beta)


# ---------------------------------------------------------------------------
# Check bodies: each takes the context and raises on failure


def _check_law_coefficients(ctx):
    if ctx.beta is None:
        b1, b2 = CoeffPoly.b(1), CoeffPoly.b(2)
    else:  # the law's image under b_i -> beta^i
        b1, b2 = CoeffPoly.rational(ctx.beta), CoeffPoly.rational(ctx.beta**2)
    fgl = _law(ctx)
    law, chi = fgl.F, fgl.chi
    assert law.coefficient((1, 1)) == -b1
    assert law.coefficient((2, 1)) == b1**2 - b2
    assert law.coefficient((1, 2)) == b1**2 - b2
    assert chi.coefficient((1,)) == CoeffPoly.rational(-1)
    assert chi.coefficient((2,)) == -b1
    assert chi.coefficient((3,)) == -(b1**2)


def _check_law_axioms(ctx):
    fgl = _law(ctx)
    D = fgl.degree_cap
    pair = ("u", "v")
    u, v = (TruncSeries.variable(pair, D, x) for x in pair)
    assert compose(fgl.F, [u, TruncSeries.zero(pair, D)]) == u
    assert fgl.F == fgl.F.swap_vars(0, 1)
    u1 = TruncSeries.variable(("u",), D, "u")
    assert compose(fgl.F, [u1, fgl.chi]).is_zero()
    assert u + v - fgl.F == u * v * fgl.q
    triple = ("u", "v", "w")
    a, b, c = (TruncSeries.variable(triple, D, x) for x in triple)
    left = compose(fgl.F, [compose(fgl.F, [a, b]), c])
    right = compose(fgl.F, [a, compose(fgl.F, [b, c])])
    assert left == right
    # the identity the operators' antisymmetrization rests on
    y1, y2 = (TruncSeries.variable(PAIR_VARS, D, y) for y in PAIR_VARS)
    x_loc = compose(fgl.F, [y1, compose(fgl.chi, [y2])])
    assert x_loc.swap_vars(0, 1) == compose(fgl.chi, [x_loc])
    # the context's log, exp and U^-1 are the law's: its pack, built from
    # log and exp alone, is U^-1 of the composed x_loc = (y1 - y2) * U,
    # exact through D - 1 >= 2n - 3
    for mine, law_series in ((ctx.log, fgl.log), (ctx.exp, fgl.exp)):
        assert mine == TruncSeries(("t",), ctx.work_cap, law_series.terms)
    unit_inv = series_invert_unit(divide_by_linear(x_loc, 0, 1))
    assert ctx.unit_inv == TruncSeries(PAIR_VARS, 2 * ctx.n - 3,
                                       unit_inv.terms)


def _check_point_class(ctx):
    assert reduce_canonical(ctx, _delta_poly(ctx)) == point_class(ctx)


def _check_curve_classes(ctx):
    pt = point_class(ctx)
    for k in range(1, ctx.n):
        assert ctx.x_elem(k + 1) * divided_diff(ctx, k, pt) == pt


def _check_determinant_weight(ctx):
    assert c1_weight(ctx, Weight((1,) * ctx.n)).is_zero()


def _check_reduction_properties(ctx):
    rng = random.Random(101)
    for _ in range(5):
        a = _random_elem(ctx, rng)
        assert reduce_canonical(ctx, a.exponents()) == a
        es = _elementary(ctx, rng.randint(1, ctx.n))
        assert reduce_canonical(
            ctx, truncated_product(es, a.exponents(), ctx.d)).is_zero()


def _check_weyl_lemma(ctx):
    rng = random.Random(102)
    for _ in range(3):
        lam = Weight(tuple(rng.randint(-2, 2) for _ in range(ctx.n)))
        for i in range(1, ctx.n):
            left = sigma_op(ctx, i, c1_weight(ctx, lam))
            right = c1_weight(ctx, weyl_act(Permutation.simple(i, ctx.n), lam))
            assert left == right


def _check_operator_properties(ctx):
    # A_i(1) is the class of P^1, -a_11: b1, beta or 0; this pins which
    # variable of the operator the pack's y1 is read as
    p1 = -_law(ctx).F.coefficient((1, 1))
    for i in range(1, ctx.n):
        assert divided_diff(ctx, i, ctx.one()).constant_term() == p1
    rng = random.Random(103)
    word = tuple(min(k, ctx.n - 1) for k in (1, 2, 1))
    for _ in range(3):
        a = _random_elem(ctx, rng)
        g = _random_elem(ctx, rng)
        # the twisted Leibniz rule, unfolded along a word, for any element
        assert poly_times_bs(ctx, a, word).evaluate(ctx) == a * bs_class(
            ctx, word)
        for i in range(1, ctx.n):
            image = divided_diff(ctx, i, a)
            assert sigma_op(ctx, i, image) == image
            g_sym = g + sigma_op(ctx, i, g)
            assert divided_diff(ctx, i, g_sym * a) == g_sym * divided_diff(
                ctx, i, a)
            assert divided_diff_dual(ctx, i, g_sym * a) == g_sym * \
                divided_diff_dual(ctx, i, a)
            assert divided_diff_dual(ctx, i, g_sym).is_zero()


def _check_representative_independence(ctx):
    rng = random.Random(104)
    for _ in range(3):
        p = _random_elem(ctx, rng)
        q = _random_elem(ctx, rng)
        es = _elementary(ctx, rng.randint(1, ctx.n))
        shifted = reduce_canonical(ctx, combine_terms(
            p.exponents(), truncated_product(es, q.exponents(), ctx.d), 1))
        for i in range(1, ctx.n):
            assert divided_diff(ctx, i, shifted) == divided_diff(ctx, i, p)


def _check_golden_classes(ctx):
    b1, b2 = CoeffPoly.b(1), CoeffPoly.b(2)
    a12 = b1**2 - b2
    table = {
        (): {(2, 1, 0): -1},
        (1,): {(1, 1, 0): 1},
        (2,): {(2, 0, 0): 1},
        (1, 2): {(1, 0, 0): -1, (2, 0, 0): -b1},
        (2, 1): {(1, 0, 0): -1, (0, 1, 0): -1},
        (1, 2, 1): {(0, 0, 0): 1, (1, 1, 0): a12},
        (2, 1, 2): {(0, 0, 0): 1, (2, 0, 0): a12},
    }
    for word, rep in table.items():
        assert bs_class(ctx, word) == reduce_canonical(ctx, rep), word


def _check_golden_products(ctx):
    one = CoeffPoly.one()
    b1 = CoeffPoly.b(1)
    cases = [
        ((1, 2), (2, 1), {(1,): one, (2,): one, (): -b1}),
        ((1, 2), (1, 2), {(2,): one}),
        ((2, 1), (2, 1), {(1,): one}),
        ((1, 2), (1,), {(): one}),
        ((2, 1), (2,), {(): one}),
        ((1, 2), (2,), {}),
        ((2, 1), (1,), {}),
    ]
    for left, right, expected in cases:
        got = product_bs(ctx, left, right)
        assert got.by_word() == expected, (left, right)
        assert got.evaluate(ctx) == bs_class(ctx, left) * bs_class(ctx, right)


def _check_golden_chevalley(ctx):
    one = CoeffPoly.one()
    b1 = CoeffPoly.b(1)
    exp = c1_times_bs(ctx, fundamental_weight(1, 3), (2, 1))
    assert exp.by_word() == {(1,): one, (2,): one, (): -b1}
    # the full-removal coefficient of (2, 1) has the closed form
    # a11 (lam, g1) [ (lam, s1 g2) - ((lam, g1) - 1) / 2 ] with a11 = -b1
    gamma1, gamma2 = simple_root(1, 3), simple_root(2, 3)
    s1 = Permutation.simple(1, 3)
    for lam in (fundamental_weight(1, 3), fundamental_weight(2, 3),
                rho_weight(3)):
        p1 = coroot_pairing(lam, gamma1)
        p2 = coroot_pairing(lam, weyl_act(s1, gamma2))
        expected = -b1 * F(p1) * (F(p2) - F(p1 - 1, 2))
        assert chevalley_coeff(ctx, (2, 1), (0, 1), lam) == expected
        assert chevalley_coeff(ctx, (2, 1), (), lam).is_zero()


def _check_basis_expansion(ctx):
    for w in all_permutations(ctx.n):
        cls = bs_class(ctx, reduced_word(w))
        assert expand_in_bs_basis(ctx, cls) == {w: CoeffPoly.one()}, w
    rng = random.Random(105)
    for _ in range(3):
        a = _random_elem(ctx, rng)
        expansion = expand_in_bs_basis(ctx, a)
        rebuilt = ctx.zero()
        for w, coeff in expansion.items():
            rebuilt = rebuilt + coeff * bs_class(ctx, reduced_word(w))
        assert rebuilt == a


def _check_chow_schubert_oracle(ctx):
    # the Bernstein-Gelfand-Gelfand Schubert polynomials: classical divided
    # differences along the word, applied to the staircase monomial
    for w in all_permutations(ctx.n):
        word = reduced_word(w)
        oracle = {tuple(range(ctx.n)): F(1)}
        for letter in word:
            oracle = classical_divided_difference(oracle, letter - 1)
        oracle_elem = reduce_canonical(
            ctx, {k: CoeffPoly.rational(v) for k, v in oracle.items()})
        assert bs_class(ctx, word) == oracle_elem, w


def _check_chow_operators(ctx):
    # over the additive law U = 1, so the two operators agree
    rng = random.Random(106)
    for _ in range(3):
        a = _random_elem(ctx, rng)
        for i in range(1, ctx.n):
            assert divided_diff(ctx, i, a) == divided_diff_dual(ctx, i, a)


def _check_chow_chevalley(ctx):
    rng = random.Random(107)
    words = [(i,) for i in range(1, ctx.n)]
    words += [(1, 2), (2, 1)] if ctx.n >= 3 else []
    for word in words:
        lam = Weight(tuple(rng.randint(-2, 2) for _ in range(ctx.n)))
        betas = beta_sequence(word, ctx.n)
        exp = c1_times_bs(ctx, lam, word)
        for kept, coeff in exp.terms.items():
            # only the removals of one position survive in the additive theory
            removed = [p for p in range(len(word)) if p not in kept]
            assert len(removed) == 1, (word, removed)
            assert coeff == coroot_pairing(lam, betas[removed[0]])


def _check_pushforward(ctx):
    # over the law of b_i -> beta^i, A_i(1) = beta and A_i(x_{i+1}) = 1;
    # the additive theory is the multiplicative one at beta = 0
    for i in range(1, ctx.n):
        assert divided_diff(ctx, i, ctx.one()) == ctx.one() * ctx.beta
        assert divided_diff(ctx, i, ctx.x_elem(i + 1)) == ctx.one()


def _check_multiplicative_law(ctx):
    # the law of b_i -> beta^i: F = u + v - beta u v, q = beta and
    # chi(u) = -u / (1 - beta u); at beta = 0 the additive law
    beta = ctx.beta
    fgl = _law(ctx)
    D = fgl.degree_cap
    pair = ("u", "v")
    u, v = (TruncSeries.variable(pair, D, x) for x in pair)
    assert fgl.F == u + v - beta * (u * v)
    assert fgl.q == TruncSeries.constant(pair, D, beta)
    chi = TruncSeries(("u",), D, {(k + 1,): -beta**k for k in range(D)})
    assert fgl.chi == chi


# ---------------------------------------------------------------------------
# The table


class Check(NamedTuple):
    """One entry of the table; ``ranks`` None admits every rank."""

    name: str
    theories: tuple[str, ...]
    ranks: range | None
    body: Callable[[FlagContext], None]

    def admits(self, n: int, theory: str) -> bool:
        return theory in self.theories and (
            self.ranks is None or n in self.ranks)


CHECKS = (
    Check("law-coefficients", THEORIES, None, _check_law_coefficients),
    Check("law-axioms", THEORIES, None, _check_law_axioms),
    Check("point-class-vandermonde", THEORIES, None, _check_point_class),
    Check("curve-classes-times-x", THEORIES, None, _check_curve_classes),
    Check("determinant-weight-vanishes", THEORIES, None,
          _check_determinant_weight),
    Check("reduction-properties", THEORIES, None, _check_reduction_properties),
    Check("weyl-lemma", ("chow",), None, _check_weyl_lemma),
    Check("weyl-lemma", ("cobordism", "ktheory"), range(2, 6),
          _check_weyl_lemma),
    Check("operator-properties", THEORIES, None, _check_operator_properties),
    Check("representative-independence", THEORIES, None,
          _check_representative_independence),
    Check("golden-class-table", ("cobordism",), range(3, 4),
          _check_golden_classes),
    Check("golden-product-table", ("cobordism",), range(3, 4),
          _check_golden_products),
    Check("golden-chevalley", ("cobordism",), range(3, 4),
          _check_golden_chevalley),
    Check("basis-expansion", ("cobordism",), range(2, 4),
          _check_basis_expansion),
    Check("additive-law", ("chow",), None, _check_multiplicative_law),
    Check("multiplicative-law", ("ktheory",), None, _check_multiplicative_law),
    Check("pushforward-degenerations", ("chow", "ktheory"), None,
          _check_pushforward),
    Check("chow-operators-coincide", ("chow",), None, _check_chow_operators),
    Check("chow-chevalley-pairings", ("chow",), None, _check_chow_chevalley),
    Check("schubert-oracle", ("chow",), range(2, 5),
          _check_chow_schubert_oracle),
)


def selftest_results(n: int, theory: str, beta: Fraction):
    """Run the checks the table admits at this rank and theory, in table
    order, on one fresh context over the theory's law.  Yields (name, None)
    for a pass and (name, exception) for a failure, and keeps going after a
    failure."""
    ctx = FlagContext(n, *theory_law(theory, beta))
    for check in CHECKS:
        if not check.admits(n, theory):
            continue
        try:
            check.body(ctx)
        except Exception as exc:  # report and keep going
            yield check.name, exc
        else:
            yield check.name, None

