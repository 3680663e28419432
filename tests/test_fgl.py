import random
from fractions import Fraction

import pytest

from cobschub import fgl as fgl_module
from cobschub.ringcore import (
    CoeffPoly,
    InternalError,
    TruncSeries,
    UsageError,
    compose,
    divide_by_linear,
    series_invert_unit,
)
from cobschub.fgl import (
    build_universal_fgl,
    pushforward_table,
    to_chern_basis,
    universal_divided_diff,
)

from oracles import formal_sum, n_series, specialize, support_indices

F = Fraction
b1 = CoeffPoly.b(1)
b2 = CoeffPoly.b(2)


def chow(c):
    # every b_i goes to 0
    return specialize(c, {i: F(0) for i in support_indices(c)})


def ktheory(c, beta):
    # b_i goes to beta^i
    return specialize(c, {i: F(beta)**i for i in support_indices(c)})


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
    assert n_series(fgl, 2) == 2 * u - b1 * u**2
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
    expected = x2 - x1 - b1 * x1**2 + b1 * (x1 * x2)
    assert got == expected
    u = TruncSeries.variable(("u",), 4, "u")
    chi_u = compose(fgl.chi, [u])
    assert formal_sum(fgl, [u, chi_u]).is_zero()
    assert formal_sum(fgl, [], vars=("u",), cap=4).is_zero()
    with pytest.raises(UsageError):
        formal_sum(fgl, [])


# ---------------------------------------------------------------------------
# The divided-difference operator on two-variable series


def test_divided_diff_of_one(fgl_factory):
    fgl = fgl_factory(6)
    pair = ("y1", "y2")
    one = TruncSeries.one(pair, 6)
    a1 = universal_divided_diff(fgl, one)
    assert a1.constant_term() == b1  # -a_11
    # matches q(x_loc, chi(x_loc)) through the trustworthy range
    y1 = TruncSeries.variable(pair, 6, "y1")
    y2 = TruncSeries.variable(pair, 6, "y2")
    x_loc = compose(fgl.F, [y1, compose(fgl.chi, [y2])])
    chi_x = compose(fgl.chi, [x_loc])
    assert a1.truncate(4) == compose(fgl.q, [x_loc, chi_x]).truncate(4)
    # symmetric under the swap
    assert a1 == a1.swap_vars(0, 1)


def test_divided_diff_of_y1(fgl_factory):
    fgl = fgl_factory(6)
    pair = ("y1", "y2")
    y1 = TruncSeries.variable(pair, 6, "y1")
    y2 = TruncSeries.variable(pair, 6, "y2")
    ay1 = universal_divided_diff(fgl, y1)
    assert ay1.constant_term() == CoeffPoly.one()
    assert ay1.coefficient((1, 1)) == b1**2 - b2  # a_12
    assert ay1.coefficient((1, 0)).is_zero()
    assert ay1.coefficient((0, 1)).is_zero()
    # identity A(y1) = y2 A(1) + (F(x_loc, y2) - y2) / x_loc
    one = TruncSeries.one(pair, 6)
    a1 = universal_divided_diff(fgl, one)
    x_loc = compose(fgl.F, [y1, compose(fgl.chi, [y2])])
    unit = divide_by_linear(x_loc, 0, 1)
    frac = divide_by_linear(compose(fgl.F, [x_loc, y2]) - y2, 0, 1)
    frac = frac * series_invert_unit(unit)
    assert ay1.truncate(4) == (y2 * a1 + frac).truncate(4)


def test_divided_diff_symmetric_linearity(fgl_factory):
    fgl = fgl_factory(6)
    pair = ("y1", "y2")
    rng = random.Random(5)
    y1 = TruncSeries.variable(pair, 6, "y1")
    y2 = TruncSeries.variable(pair, 6, "y2")
    e1, e2 = y1 + y2, y1 * y2
    for _ in range(5):
        g = (TruncSeries.constant(pair, 6, rng.randint(1, 3))
             + e1 * rng.randint(-2, 2) + e2 * rng.randint(-2, 2)
             + e1 * e1 * CoeffPoly.b(1) * rng.randint(-1, 1))
        h = (y1**rng.randint(0, 2)) * (y2**rng.randint(0, 2))
        left = universal_divided_diff(fgl, g * h)
        right = g * universal_divided_diff(fgl, h)
        assert left.truncate(4) == right.truncate(4)
        assert left == left.swap_vars(0, 1)


# ---------------------------------------------------------------------------
# Push-forward degenerations


def test_pushforward_chow_degenerations(fgl_factory):
    fgl = fgl_factory(6)
    table_one = pushforward_table(fgl, (1,))
    assert all(chow(c) == 0 for c in table_one.values())
    table_xi = pushforward_table(fgl, (0, 1))
    for key, coeff in table_xi.items():
        assert chow(coeff) == (1 if key == (0, 0) else 0)


def test_pushforward_ktheory_degenerations(fgl_factory):
    fgl = fgl_factory(6)
    beta = F(3, 5)
    table_one = pushforward_table(fgl, (1,))
    for key, coeff in table_one.items():
        assert ktheory(coeff, beta) == (beta if key == (0, 0) else 0)
    table_xi = pushforward_table(fgl, (0, 1))
    for key, coeff in table_xi.items():
        assert ktheory(coeff, beta) == (1 if key == (0, 0) else 0)


def test_to_chern_basis_round_trip(fgl_factory):
    rng = random.Random(13)
    pair = ("y1", "y2")
    y1 = TruncSeries.variable(pair, 5, "y1")
    y2 = TruncSeries.variable(pair, 5, "y2")
    e1, e2 = y1 + y2, y1 * y2
    s = TruncSeries.zero(pair, 5)
    for _ in range(6):
        s = s + (e1**rng.randint(0, 2)) * (e2**rng.randint(0, 1)) * F(
            rng.randint(-3, 3))
    table = to_chern_basis(s)
    rebuilt = TruncSeries.zero(pair, 5)
    for (a, b), coeff in table.items():
        rebuilt = rebuilt + coeff * (e1**a * e2**b)
    assert rebuilt == s
    with pytest.raises(InternalError):
        to_chern_basis(y2)  # not symmetric
