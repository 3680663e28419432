"""Built-in verification suite behind the ``selftest`` CLI command.

Each check is independent and prints one PASS/FAIL line; the chow suite
carries its own little classical divided-difference implementation so the
comparison does not route through the engine's operators.
"""

from __future__ import annotations

import random
from fractions import Fraction

from cobschub.ringcore import (
    CoeffPoly,
    TruncSeries,
    chow_assignment,
    compose,
    ktheory_assignment,
)
from cobschub.fgl import pushforward_table
from cobschub.flagring import (
    FlagContext,
    Weight,
    c1_weight,
    delta_poly,
    fundamental_weight,
    point_class,
    reduce_canonical,
    rho_weight,
    simple_root,
)
from cobschub.weylops import (
    Permutation,
    all_permutations,
    coroot_pairing,
    divided_diff,
    divided_diff_dual,
    reduced_word,
    sigma_op,
    weyl_act,
)
from cobschub.schubert import (
    bs_basis_determinants,
    bs_class,
    c1_times_bs,
    chevalley_coeff,
    expand_in_bs_basis,
    product_bs,
)

F = Fraction


def _chow(coeff: CoeffPoly) -> Fraction:
    return coeff.specialize(chow_assignment(coeff))


def _chow_elem(elem):
    support = set()
    for coeff in elem.terms.values():
        support |= coeff.support_indices()
    return elem.specialize({i: F(0) for i in support})


def _classical_divided_difference(terms: dict, i: int) -> dict:
    # additive-law operator on plain exponent dicts, 0-based variable pair
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


def _random_elem(ctx, rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(rng.randint(0, j) for j in range(ctx.n))
        coeff = {(): F(rng.randint(-3, 3))}
        if rng.random() < 0.5:
            coeff[((rng.randint(1, 2), 1),)] = F(rng.randint(-2, 2))
        value = CoeffPoly(coeff)
        if value:
            terms[key] = value
    return reduce_canonical(ctx, terms)


# ---------------------------------------------------------------------------
# Check bodies


def _check_law_coefficients(ctx):
    b1, b2 = CoeffPoly.b(1), CoeffPoly.b(2)
    assert ctx.fgl.a(1, 1) == -b1
    assert ctx.fgl.a(2, 1) == b1**2 - b2
    assert ctx.fgl.a(1, 2) == b1**2 - b2
    chi = ctx.fgl.chi
    assert chi.coefficient((1,)) == CoeffPoly.rational(-1)
    if ctx.work_cap >= 3:
        assert chi.coefficient((2,)) == -b1
        assert chi.coefficient((3,)) == -(b1**2)


def _check_law_axioms(ctx):
    fgl = ctx.fgl
    D = fgl.degree_cap
    pair = ("u", "v")
    u = TruncSeries.variable(pair, D, "u")
    v = TruncSeries.variable(pair, D, "v")
    assert compose(fgl.F, [u, TruncSeries.zero(pair, D)]) == u
    assert fgl.F == fgl.F.swap_vars(0, 1)
    u1 = TruncSeries.variable(("u",), D, "u")
    assert compose(fgl.F, [u1, fgl.chi]).is_zero()
    assert u + v - fgl.F == u * v * fgl.q
    triple = ("u", "v", "w")
    a = TruncSeries.variable(triple, D, "u")
    b = TruncSeries.variable(triple, D, "v")
    c = TruncSeries.variable(triple, D, "w")
    left = compose(fgl.F, [compose(fgl.F, [a, b]), c])
    right = compose(fgl.F, [a, compose(fgl.F, [b, c])])
    assert left == right


def _check_point_class(ctx):
    assert reduce_canonical(ctx, delta_poly(ctx)) == point_class(ctx)


def _check_curve_classes(ctx):
    pt = point_class(ctx)
    for k in range(1, ctx.n):
        assert ctx.x_elem(k + 1) * divided_diff(ctx, k, pt) == pt


def _check_determinant_weight(ctx):
    assert c1_weight(ctx, Weight((1,) * ctx.n)).is_zero()


def _check_reduction_properties(ctx):
    import itertools

    rng = random.Random(101)
    for _ in range(5):
        a = _random_elem(ctx, rng)
        assert reduce_canonical(ctx, dict(a.terms)) == a
        k = rng.randint(1, ctx.n)
        e_k = {}
        for combo in itertools.combinations(range(ctx.n), k):
            e_k[tuple(1 if t in combo else 0 for t in range(ctx.n))] = F(1)
        es = TruncSeries(ctx.vars, ctx.work_cap, e_k)
        assert reduce_canonical(ctx, es * a.as_series()).is_zero()


def _check_weyl_lemma(ctx):
    rng = random.Random(102)
    for _ in range(3):
        lam = Weight(tuple(rng.randint(-2, 2) for _ in range(ctx.n)))
        for i in range(1, ctx.n):
            left = sigma_op(ctx, i, c1_weight(ctx, lam))
            right = c1_weight(ctx, weyl_act(Permutation.simple(i, ctx.n), lam))
            assert left == right


def _check_operator_properties(ctx):
    rng = random.Random(103)
    for _ in range(3):
        a = _random_elem(ctx, rng)
        g = _random_elem(ctx, rng)
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
    import itertools

    rng = random.Random(104)
    for _ in range(3):
        p = _random_elem(ctx, rng)
        q = _random_elem(ctx, rng)
        k = rng.randint(1, ctx.n)
        e_k = {}
        for combo in itertools.combinations(range(ctx.n), k):
            e_k[tuple(1 if t in combo else 0 for t in range(ctx.n))] = F(1)
        es = TruncSeries(ctx.vars, ctx.work_cap, e_k)
        shifted = reduce_canonical(ctx, p.as_series() + es * q.as_series())
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
    rng = random.Random(105)
    for det in bs_basis_determinants(ctx).values():
        assert det in (F(1), F(-1))
    for _ in range(3):
        a = _random_elem(ctx, rng)
        expansion = expand_in_bs_basis(ctx, a)
        rebuilt = ctx.zero()
        for w, coeff in expansion.items():
            rebuilt = rebuilt + coeff * bs_class(ctx, reduced_word(w))
        assert rebuilt == a


def _check_chow_schubert_oracle(ctx):
    for w in all_permutations(ctx.n):
        word = reduced_word(w)
        oracle = {tuple(range(ctx.n)): F(1)}
        for letter in word:
            oracle = _classical_divided_difference(oracle, letter - 1)
        oracle_elem = reduce_canonical(
            ctx, {k: CoeffPoly.rational(v) for k, v in oracle.items()})
        assert _chow_elem(bs_class(ctx, word)) == oracle_elem, w


def _check_chow_operators(ctx):
    rng = random.Random(106)
    chow_map = {i: F(0) for i in range(1, ctx.work_cap + 1)}
    for _ in range(3):
        a = _random_elem(ctx, rng).specialize(chow_map)
        for i in range(1, ctx.n):
            left = divided_diff(ctx, i, a).specialize(chow_map)
            right = divided_diff_dual(ctx, i, a).specialize(chow_map)
            assert left == right


def _check_chow_chevalley(ctx):
    from cobschub.weylops import beta_sequence

    rng = random.Random(107)
    words = [(i,) for i in range(1, ctx.n)]
    words += [(1, 2), (2, 1)] if ctx.n >= 3 else []
    for word in words:
        lam = Weight(tuple(rng.randint(-2, 2) for _ in range(ctx.n)))
        betas = beta_sequence(word, ctx.n)
        exp = c1_times_bs(ctx, lam, word)
        for kept, coeff in exp.terms.items():
            removed = [p for p in range(len(word)) if p not in kept]
            if len(removed) == 1:
                assert _chow(coeff) == coroot_pairing(lam, betas[removed[0]])
            else:
                assert _chow(coeff) == 0


def _check_pushforward_chow(ctx):
    table_one = pushforward_table(ctx.fgl, (1,))
    assert all(_chow(c) == 0 for c in table_one.values())
    table_xi = pushforward_table(ctx.fgl, (0, 1))
    for key, coeff in table_xi.items():
        assert _chow(coeff) == (1 if key == (0, 0) else 0)


def _check_pushforward_ktheory(ctx, beta):
    table_one = pushforward_table(ctx.fgl, (1,))
    for key, coeff in table_one.items():
        value = coeff.specialize(ktheory_assignment(coeff, beta))
        assert value == (beta if key == (0, 0) else 0)
    table_xi = pushforward_table(ctx.fgl, (0, 1))
    for key, coeff in table_xi.items():
        value = coeff.specialize(ktheory_assignment(coeff, beta))
        assert value == (1 if key == (0, 0) else 0)


def _check_multiplicative_law(ctx, beta):
    fgl = ctx.fgl
    D = fgl.degree_cap
    assign = {i: beta**i for i in range(1, D + 1)}
    pair = ("u", "v")
    u = TruncSeries.variable(pair, D, "u")
    v = TruncSeries.variable(pair, D, "v")
    assert fgl.F.specialize(assign) == u + v - beta * (u * v)
    assert fgl.q.specialize(assign) == TruncSeries.constant(pair, D, beta)


def _check_additive_law(ctx):
    fgl = ctx.fgl
    D = fgl.degree_cap
    assign = {i: F(0) for i in range(1, D + 1)}
    pair = ("u", "v")
    u = TruncSeries.variable(pair, D, "u")
    v = TruncSeries.variable(pair, D, "v")
    assert fgl.F.specialize(assign) == u + v
    assert fgl.q.specialize(assign).is_zero()
    assert fgl.chi.specialize(assign) == -TruncSeries.variable(("u",), D, "u")


def build_checks(n: int, theory: str = "cobordism",
                 beta: Fraction = F(1)) -> list:
    """Assemble the named checks for a rank and theory selection."""
    ctx = FlagContext(n)
    checks = [
        ("law-coefficients", lambda: _check_law_coefficients(ctx)),
        ("law-axioms", lambda: _check_law_axioms(ctx)),
        ("point-class-vandermonde", lambda: _check_point_class(ctx)),
        ("curve-classes-times-x", lambda: _check_curve_classes(ctx)),
        ("determinant-weight-vanishes", lambda: _check_determinant_weight(ctx)),
        ("reduction-properties", lambda: _check_reduction_properties(ctx)),
        ("weyl-lemma", lambda: _check_weyl_lemma(ctx)),
        ("operator-properties", lambda: _check_operator_properties(ctx)),
        ("representative-independence",
         lambda: _check_representative_independence(ctx)),
    ]
    if theory == "cobordism":
        if n == 3:
            checks += [
                ("golden-class-table", lambda: _check_golden_classes(ctx)),
                ("golden-product-table", lambda: _check_golden_products(ctx)),
                ("golden-chevalley", lambda: _check_golden_chevalley(ctx)),
            ]
        if n <= 3:
            checks.append(
                ("basis-expansion", lambda: _check_basis_expansion(ctx)))
    elif theory == "chow":
        checks += [
            ("additive-law", lambda: _check_additive_law(ctx)),
            ("pushforward-degenerations", lambda: _check_pushforward_chow(ctx)),
            ("chow-operators-coincide", lambda: _check_chow_operators(ctx)),
            ("chow-chevalley-pairings", lambda: _check_chow_chevalley(ctx)),
        ]
        if n <= 4:
            checks.append(
                ("schubert-oracle", lambda: _check_chow_schubert_oracle(ctx)))
    elif theory == "ktheory":
        checks += [
            ("multiplicative-law", lambda: _check_multiplicative_law(ctx, beta)),
            ("pushforward-degenerations",
             lambda: _check_pushforward_ktheory(ctx, beta)),
        ]
    else:
        raise ValueError(f"unknown theory {theory!r}")
    return checks


def run_selftest(n: int, theory: str = "cobordism", beta: Fraction = F(1),
                 writer=print) -> bool:
    """Run the suite, emit one PASS/FAIL line per check, return overall."""
    ok = True
    for name, fn in build_checks(n, theory, beta):
        try:
            fn()
        except Exception as exc:  # report and keep going
            ok = False
            writer(f"FAIL {name}: {exc}")
        else:
            writer(f"PASS {name}")
    return ok
