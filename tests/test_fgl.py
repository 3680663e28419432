from fractions import Fraction

import pytest

from cobschub import fgl as fgl_module
from cobschub.flagring import THEORIES, FlagContext, reduce_canonical
from cobschub.ringcore import (
    CoeffPoly,
    InternalError,
    TruncSeries,
    UsageError,
    compose,
)
from cobschub.fgl import (
    PAIR_VARS,
    build_universal_fgl,
    log_and_exp,
    unit_inverse,
)
from cobschub.weylops import divided_diff

from oracles import (
    composed_x_loc,
    formal_sum,
    full_cap_pair_pack,
    horner_divide,
    law_of,
    n_series,
    reference_op_pack,
    var_series,
)

b1 = CoeffPoly.b(1)


# ---------------------------------------------------------------------------
# Construction


def test_law_with_a_term_uv_does_not_divide_is_refused(monkeypatch):
    # every two-variable composition gains a u^2 term, so F does too
    def skewed(outer, args):
        out = compose(outer, args)
        if out.vars == ("u", "v"):
            out = out + TruncSeries(out.vars, out.cap, {(2, 0): 1})
        return out

    monkeypatch.setattr(fgl_module, "compose", skewed)
    with pytest.raises(InternalError, match="u\\*v does not divide"):
        build_universal_fgl(4)


def test_law_axioms(fgl_factory):
    fgl = fgl_factory(6)
    D = 6
    pair = ("u", "v")
    u = TruncSeries.variable(pair, D, "u")
    v = TruncSeries.variable(pair, D, "v")
    zero = TruncSeries.zero(pair, D)
    assert compose(fgl.F, [u, zero]) == u
    assert fgl.F == fgl.F.swap_vars(0, 1)
    u1 = TruncSeries.variable(("u",), D, "u")
    assert compose(fgl.F, [u1, fgl.chi]).is_zero()
    assert u + v - fgl.F == u * v * fgl.q


def test_log_exp_round_trip(fgl_factory):
    fgl = fgl_factory(6)
    t = TruncSeries.variable(("t",), 6, "t")
    assert compose(fgl.log, [fgl.exp]) == t
    assert compose(fgl.exp, [fgl.log]) == t


def test_build_rejects_degenerate_cap():
    with pytest.raises(UsageError):
        build_universal_fgl(0)


# ---------------------------------------------------------------------------
# n-series and formal sums


def test_n_series_basic(fgl_factory):
    fgl = fgl_factory(4)
    u = TruncSeries.variable(("u",), 4, "u")
    assert n_series(fgl, 1) == u
    assert n_series(fgl, -1) == fgl.chi
    assert n_series(fgl, 0).is_zero()


def test_n_series_doubling():
    fgl = build_universal_fgl(2)
    u = TruncSeries.variable(("u",), 2, "u")
    assert n_series(fgl, 2) == 2 * u - b1 * u * u
    assert n_series(fgl, 2) == compose(fgl.F, [u, u])


def test_n_series_addition_rule(fgl_factory):
    fgl = fgl_factory(5)
    for m in range(-3, 4):
        for n in range(-3, 4):
            left = n_series(fgl, m + n)
            right = compose(fgl.F, [n_series(fgl, m), n_series(fgl, n)])
            assert left == right, (m, n)


def test_formal_sum_examples(fgl_factory):
    fgl = fgl_factory(4)
    pair = ("x1", "x2")
    x1 = TruncSeries.variable(pair, 2, "x1")
    x2 = TruncSeries.variable(pair, 2, "x2")
    assert formal_sum(fgl_factory(2), [x1]) == x1
    fgl2 = fgl_factory(2)
    chi_x1 = compose(fgl2.chi, [x1])
    got = formal_sum(fgl2, [chi_x1, x2])
    expected = x2 - x1 - b1 * (x1 * x1) + b1 * (x1 * x2)
    assert got == expected
    u = TruncSeries.variable(("u",), 4, "u")
    chi_u = compose(fgl.chi, [u])
    assert formal_sum(fgl, [u, chi_u]).is_zero()
    assert formal_sum(fgl, [], vars=("u",), cap=4).is_zero()
    with pytest.raises(UsageError):
        formal_sum(fgl, [])


# ---------------------------------------------------------------------------
# The operator pack U^-1 of F(y1, chi(y2)) = (y1 - y2) * U

LAWS = [None, Fraction(0), Fraction(2, 3), Fraction(-1, 2)]
LAW_IDS = THEORIES + ("ktheory-negative",)


@pytest.mark.parametrize("beta", [None, Fraction(0), Fraction(2, 3)],
                         ids=THEORIES)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pair_pack_is_exact_through_its_cap(n, beta):
    # the pack through 2n - 3 that a rank-n context holds, from log and
    # exp at its working cap, is the pack from the least log and exp that
    # serve it (cap 2n - 2) and from ones with more headroom, and it is the
    # full-cap route's pack cut to 2n - 3
    top = 2 * n - 3
    pack = FlagContext(n, beta).unit_inv
    assert pack.cap == top
    for cap in (top + 1, top + 3):
        assert unit_inverse(*log_and_exp(cap, beta), top) == pack, cap
    law = build_universal_fgl(top + 2, beta)
    assert TruncSeries(PAIR_VARS, top, full_cap_pair_pack(law).terms) == pack


@pytest.mark.parametrize("beta", LAWS, ids=LAW_IDS)
def test_unit_inverse_is_the_full_cap_pack_cut_to_top(beta):
    # at every cap the full-cap route is exact one degree below it, and the
    # pack from log and exp alone agrees with it there
    for cap in range(2, 13):
        law = build_universal_fgl(cap, beta)
        pack = unit_inverse(law.log, law.exp, cap - 1)
        full = full_cap_pair_pack(law)
        assert pack == TruncSeries(PAIR_VARS, cap - 1, full.terms), cap


@pytest.mark.parametrize("beta", LAWS, ids=LAW_IDS)
def test_unit_inverse_divides_the_composed_x_loc(monkeypatch, beta):
    # the x_loc that the pack divides by y1 - y2, exp(log y1 - log y2), is
    # F(y1, chi(y2)) by composition
    seen = []
    divide = fgl_module.divide_by_linear

    def spy(num, p, q):
        seen.append(num)
        return divide(num, p, q)

    monkeypatch.setattr(fgl_module, "divide_by_linear", spy)
    for cap in range(2, 10):
        law = build_universal_fgl(cap, beta)
        seen.clear()
        unit_inverse(law.log, law.exp, cap - 1)
        assert seen == [composed_x_loc(law)], cap


def test_unit_inverse_refuses_a_top_its_series_cannot_serve():
    # a pack through top reads log and exp through top + 1
    log, exp = log_and_exp(5)
    for top in (5, 6):
        with pytest.raises(UsageError):
            unit_inverse(log, exp, top)
    short_log, short_exp = log_and_exp(3)
    for pair in ((short_log, exp), (log, short_exp)):
        with pytest.raises(UsageError):
            unit_inverse(*pair, 3)
        assert unit_inverse(*pair, 2) == unit_inverse(log, exp, 2)


# ---------------------------------------------------------------------------
# The flag-ring operator A_i = (1 + sigma_i)(1 / F(x_{i+1}, chi(x_i))),
# with the law's pair (y1, y2) read as (x_{i+1}, x_i)


def operator_cases():
    """(ctx, i, x_loc) for every operator at ranks 3-4 over the universal
    law, with x_loc = F(x_{i+1}, chi(x_i)) a series in the context's
    variables."""
    for n in (3, 4):
        ctx = FlagContext(n)
        for i in range(1, n):
            law = law_of(ctx)
            x_loc = compose(law.F, [
                var_series(ctx, i + 1),
                compose(law.chi, [var_series(ctx, i)])])
            yield ctx, i, x_loc


def test_divided_diff_of_one():
    for ctx, i, x_loc in operator_cases():
        a1 = divided_diff(ctx, i, ctx.one())
        assert a1.constant_term() == b1  # -a_11
        law = law_of(ctx)
        chi_x = compose(law.chi, [x_loc])
        q_x = compose(law.q, [x_loc, chi_x])
        assert a1 == reduce_canonical(ctx, q_x.terms), (ctx.n, i)


def test_divided_diff_of_y1():
    # A(x_{i+1}) = x_i A(1) + (F(x_loc, x_i) - x_i) / x_loc
    for ctx, i, x_loc in operator_cases():
        factor, unit_inv = reference_op_pack(ctx, i)
        x_i = var_series(ctx, i)
        frac = horner_divide(compose(law_of(ctx).F, [x_loc, x_i]) - x_i,
                             factor) * unit_inv
        expected = (ctx.x_elem(i) * divided_diff(ctx, i, ctx.one())
                    + reduce_canonical(ctx, frac.terms))
        assert divided_diff(ctx, i, ctx.x_elem(i + 1)) == expected, (ctx.n, i)
