import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cobschub.fgl import build_universal_fgl
from cobschub.ringcore import (
    CoeffPoly,
    DivisibilityError,
    NotAUnitError,
    TruncSeries,
    UsageError,
    compose,
    divide_by_linear,
    series_invert_unit,
    series_reverse,
)

from oracles import (
    coeff_degrees,
    coeff_from_fractions,
    geometric_inverse,
    horner_divide,
    lagrange_reverse,
    specialize,
    total_degrees,
)

F = Fraction
b1 = CoeffPoly.b(1)
b2 = CoeffPoly.b(2)


def u_series(cap, vars=("u",)):
    return TruncSeries.variable(vars, cap, "u")


def random_coeff(rng, max_index=3, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = tuple(sorted(
            (rng.randint(1, max_index), rng.randint(1, 2))
            for _ in range(rng.randint(0, 2))))
        merged = {}
        for i, e in key:
            merged[i] = merged.get(i, 0) + e
        terms[tuple(sorted(merged.items()))] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return coeff_from_fractions(terms)


def random_series(rng, vars, cap, max_terms=6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            key = tuple(rng.randint(0, cap) for _ in vars)
            if sum(key) <= cap:
                break
        terms[key] = random_coeff(rng)
    return TruncSeries(vars, cap, terms)


# ---------------------------------------------------------------------------
# CoeffPoly


def test_coeffpoly_basic_arithmetic():
    p = b1 * b1 - b2
    assert p == coeff_from_fractions({((1, 2),): 1, ((2, 1),): -1})
    assert p + b2 == b1**2
    assert (b1 + 1) * (b1 - 1) == b1**2 - 1
    assert -(b1 - b2) == b2 - b1
    assert b1 * CoeffPoly.zero() == CoeffPoly.zero()
    assert not CoeffPoly.zero()
    assert CoeffPoly.rational(F(2, 4)) == F(1, 2)


def test_coeffpoly_grading():
    assert coeff_degrees(b1) == {-1}
    assert coeff_degrees(b1**2) == {-2}
    assert coeff_degrees(b1**2 - b2) == {-2}
    assert coeff_degrees(b1 + b2) == {-1, -2}
    assert coeff_degrees(CoeffPoly.rational(5)) == {0}


def test_coeffpoly_hash_and_eq():
    assert hash(b1 * b2) == hash(b2 * b1)
    assert b1 * b2 == b2 * b1
    assert b1 != b2
    assert {b1**2 - b2: "a"}[
        coeff_from_fractions({((1, 2),): 1, ((2, 1),): -1})] == "a"


def test_coeff_specialize_examples():
    chow = {1: F(0), 2: F(0)}
    assert specialize(b1**2 - b2, chow) == 0
    assert specialize(CoeffPoly.rational(5), {}) == 5
    # K-theory sends b_i to beta**i; with beta = 1 every generator maps to 1
    assert specialize(b1, {1: F(1)}) == 1
    assert specialize(b2, {2: F(4)}) == 4
    with pytest.raises(UsageError):
        specialize(b1 + b2, {1: F(0)})


def test_coeffpoly_denominator_recording():
    assert (b1 * F(1, 6) + b2 * F(1, 4)).den == 12
    assert (b1 - b2).den == 1


@pytest.mark.parametrize("args, message", [
    ((0,), "malformed"), ((1, 0), "malformed"),
    ((65,), "packed range"), ((1, 32), "packed range"),
])
def test_b_generator_refuses_what_the_packing_cannot_hold(args, message):
    # index 1..MAX_INDEX and exponent 1..MAX_EXPONENT, one rule in the packing
    with pytest.raises(UsageError, match=message):
        CoeffPoly.b(*args)


# ---------------------------------------------------------------------------
# TruncSeries arithmetic


def test_series_arith_examples():
    u = u_series(3)
    assert u * u == TruncSeries(("u",), 3, {(2,): 1})
    s = u + b1 * u * u
    assert s - u == TruncSeries(("u",), 3, {(2,): b1})
    uv = TruncSeries.variable(("u", "v"), 1, "u") + TruncSeries.variable(
        ("u", "v"), 1, "v")
    assert (uv * uv).is_zero()  # all quadratic terms dropped


def test_series_arith_mismatch():
    a = TruncSeries.variable(("u",), 3, "u")
    b = TruncSeries.variable(("v",), 3, "v")
    with pytest.raises(UsageError):
        a + b
    with pytest.raises(UsageError):
        a + TruncSeries.variable(("u",), 2, "u")


def test_compose_refusals():
    u = u_series(3)
    uv = TruncSeries.variable(("u", "v"), 3, "u")
    # one argument per outer variable, at least one variable
    with pytest.raises(UsageError, match="one argument per"):
        compose(u, [u, u])
    with pytest.raises(UsageError, match="at least one"):
        compose(TruncSeries((), 3), [])
    # the arguments are series of one kind: variables and cap
    for other in (u_series(2), TruncSeries.variable(("v",), 3, "v")):
        with pytest.raises(UsageError, match="mismatch"):
            compose(uv, [u, other])
    with pytest.raises(UsageError, match="zero constant term"):
        compose(u, [u + TruncSeries.one(("u",), 3)])


def test_series_subtraction_is_addition_of_the_negative():
    rng = random.Random(19)
    vars = ("u", "v")
    for _ in range(12):
        a = random_series(rng, vars, 4)
        b = random_series(rng, vars, 4)
        # share some monomials so that the merge meets both cases
        shared = TruncSeries(vars, 4, {key: random_coeff(rng)
                                       for key in list(a.terms)[:2]})
        b = b + shared
        assert a - b == a + (-b)
        assert b - a == -(a - b)
        assert (a + b) - b == a
        assert (a - a).terms == {}


def test_truncation_contract():
    u = u_series(2)
    assert (u * u * u).is_zero()
    assert u * (u * u) == TruncSeries.zero(("u",), 2)


def test_ring_axioms_on_random_samples():
    rng = random.Random(7)
    vars = ("u", "v")
    for _ in range(12):
        a = random_series(rng, vars, 4)
        b = random_series(rng, vars, 4)
        c = random_series(rng, vars, 4)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


def test_grading_preserved():
    # homogeneous of total degree 1: x-degree 2 with a degree -1 coefficient
    s = TruncSeries(("u", "v"), 4, {(1, 0): 1, (1, 1): b1})
    t = TruncSeries(("u", "v"), 4, {(0, 1): 1, (2, 0): b1})
    assert total_degrees(s) == {1}
    assert total_degrees(s * t) == {2}
    assert total_degrees(s + t) == {1}


# ---------------------------------------------------------------------------
# Unit inversion


def test_invert_unit_golden():
    s = TruncSeries(("u",), 2, {(0,): 1, (1,): b1})
    expected = TruncSeries(("u",), 2, {(0,): 1, (1,): -b1, (2,): b1**2})
    assert series_invert_unit(s) == expected
    assert series_invert_unit(s) == geometric_inverse(s)
    assert s * series_invert_unit(s) == TruncSeries.one(("u",), 2)


def test_invert_unit_trivial():
    one = TruncSeries.one(("u",), 3)
    assert series_invert_unit(one) == one
    two = TruncSeries.constant(("u",), 3, 2)
    assert series_invert_unit(two) == TruncSeries.constant(("u",), 3, F(1, 2))


def test_invert_unit_errors():
    u = u_series(3)
    with pytest.raises(NotAUnitError):
        series_invert_unit(u)  # zero constant term
    with pytest.raises(NotAUnitError):
        series_invert_unit(TruncSeries.constant(("u",), 3, b1) + u)


def test_invert_unit_random_property():
    rng = random.Random(21)
    for _ in range(10):
        s = random_series(rng, ("u", "v"), 4)
        s = s + TruncSeries.constant(("u", "v"), 4, rng.randint(1, 5))
        # force a rational nonzero constant term
        const = s.constant_term()
        if not const.is_rational() or const.is_zero():
            s = s - TruncSeries.constant(("u", "v"), 4, const) + TruncSeries.one(
                ("u", "v"), 4)
        t = series_invert_unit(s)
        assert s * t == TruncSeries.one(("u", "v"), 4)
        assert t == geometric_inverse(s)


# ---------------------------------------------------------------------------
# Compositional inverse


def test_reverse_identity():
    t = TruncSeries.variable(("t",), 4, "t")
    assert series_reverse(t) == t


def test_reverse_golden_degree2():
    t = TruncSeries.variable(("t",), 2, "t")
    s = t + (b1 * F(1, 2)) * t * t
    expected = t - (b1 * F(1, 2)) * t * t
    r = series_reverse(s)
    assert r == expected
    assert compose(s, [r]) == t


def test_reverse_golden_degree3():
    t = TruncSeries.variable(("t",), 3, "t")
    t2 = t * t
    s = t + (b1 * F(1, 2)) * t2 + (b2 * F(1, 3)) * t2 * t
    r = series_reverse(s)
    expected = (t - (b1 * F(1, 2)) * t2
                + (b1**2 * F(1, 2) - b2 * F(1, 3)) * t2 * t)
    assert r == expected
    assert compose(s, [r]) == t


def test_reverse_matches_lagrange_oracle_and_round_trips():
    rng = random.Random(3)
    vars = ("t",)
    for _ in range(8):
        cap = rng.randint(2, 6)
        terms = {(1,): CoeffPoly.one()}
        for k in range(2, cap + 1):
            terms[(k,)] = random_coeff(rng)
        s = TruncSeries(vars, cap, terms)
        r = series_reverse(s)
        assert r == lagrange_reverse(s)
        t = TruncSeries.variable(vars, cap, "t")
        assert compose(s, [r]) == t
        assert compose(r, [s]) == t
        assert series_reverse(r) == s


@pytest.mark.parametrize("beta", (None, F(0), F(2, 3)),
                         ids=("cobordism", "chow", "ktheory"))
def test_reverse_round_trips_the_law_logs(beta):
    # the logs of the universal, additive and multiplicative laws, each
    # degree solved from its own coefficient, against composition both ways
    for cap in (1, 2, 3, 8, 17):
        log = build_universal_fgl(cap, beta).log
        exp = series_reverse(log)
        t = TruncSeries.variable(("t",), cap, "t")
        assert compose(log, [exp]) == t, cap
        assert compose(exp, [log]) == t, cap


def test_reverse_preconditions():
    t = TruncSeries.variable(("t",), 3, "t")
    with pytest.raises(UsageError):
        series_reverse(TruncSeries.one(("t",), 3) + t)
    with pytest.raises(UsageError):
        series_reverse(t * 2)
    with pytest.raises(UsageError):
        series_reverse(TruncSeries.variable(("t", "s"), 3, "t"))


# ---------------------------------------------------------------------------
# Exact division


def _y_vars(cap):
    y1 = TruncSeries.variable(("y1", "y2"), cap, "y1")
    y2 = TruncSeries.variable(("y1", "y2"), cap, "y2")
    return y1, y2


def exact_divide(num, den):
    """num / den for den = (y1 - y2) * unit: two exact linear divisions and
    one unit inversion, the route the operator pack takes."""
    unit = divide_by_linear(den, 0, 1)
    return divide_by_linear(num, 0, 1) * series_invert_unit(unit)


def test_exact_divide_difference_of_squares():
    y1, y2 = _y_vars(4)
    q = exact_divide(y1 * y1 - y2 * y2, y1 - y2)
    assert q == y1 + y2


def test_exact_divide_zero_numerator():
    y1, y2 = _y_vars(4)
    zero = TruncSeries.zero(("y1", "y2"), 4)
    assert exact_divide(zero, y1 - y2).is_zero()


def test_exact_divide_unit_cofactor_round_trip():
    # den = linear factor times a unit; dividing den * g must return g
    y1, y2 = _y_vars(5)
    one = TruncSeries.one(("y1", "y2"), 5)
    den = (y1 - y2) * (one + y2 + b1 * y1 * y2)
    g = one + b1 * y1
    q = exact_divide(den * g, den)
    assert q == g
    assert q * den == den * g


def test_exact_divide_random_round_trip():
    rng = random.Random(11)
    for _ in range(8):
        y1, y2 = _y_vars(5)
        unit = TruncSeries.one(("y1", "y2"), 5) + random_series(
            rng, ("y1", "y2"), 5) * y2
        den = (y1 - y2) * unit
        g = random_series(rng, ("y1", "y2"), 5)
        num = g * den
        q = exact_divide(num, den)
        assert q * den == num


def test_divide_by_linear_detects_nonzero_remainder():
    y1, y2 = _y_vars(3)
    with pytest.raises(DivisibilityError):
        divide_by_linear(y1 * y1, 0, 1)
    with pytest.raises(UsageError):
        divide_by_linear(y1 * y1, 1, 1)


# ---------------------------------------------------------------------------
# Exactness of divide_by_linear on random series and x_p - x_q

DIV_VARS = ("y1", "y2", "y3")
nonzero_rationals = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))
small_coeffs = st.dictionaries(
    st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2).map(
        lambda d: tuple(sorted(d.items()))),
    nonzero_rationals, min_size=1, max_size=3).map(coeff_from_fractions)
exponents = st.tuples(*(st.integers(0, 3) for _ in DIV_VARS))
series_terms = st.dictionaries(exponents, small_coeffs, max_size=6)
# two distinct positions (p, q) of the form x_p - x_q
position_pairs = st.lists(st.integers(0, len(DIV_VARS) - 1), min_size=2,
                          max_size=2, unique=True)


def difference_form(p, q, cap):
    x = [TruncSeries.variable(DIV_VARS, cap, v) for v in DIV_VARS]
    return x[p] - x[q]


@settings(max_examples=150, deadline=None)
@given(series_terms, position_pairs, st.integers(1, 5))
@example({(1, 0, 2): b1, (0, 1, 0): CoeffPoly.one()}, [2, 0], 4)
def test_divide_by_linear_inverts_multiplication(terms, pq, cap):
    q = TruncSeries(DIV_VARS, cap, terms)
    quotient = divide_by_linear(q * difference_form(*pq, cap), *pq)
    # q * form keeps every term of q below the cap
    assert quotient.cap == cap
    assert quotient.terms == {k: v for k, v in q.terms.items()
                              if sum(k) < cap}


@settings(max_examples=150, deadline=None)
@given(series_terms, position_pairs, st.integers(1, 5), exponents,
       small_coeffs)
@example({(1, 1, 0): b2}, [1, 2], 3, (2, 0, 1), CoeffPoly.one())
def test_divide_by_linear_rejects_pivot_free_term(terms, pq, cap, key,
                                                  value):
    # no single monomial vanishes at x_p = x_q, so adding one to a multiple
    # of x_p - x_q leaves a remainder
    if sum(key) > cap:
        key = (0,) * len(DIV_VARS)
    num = TruncSeries(DIV_VARS, cap, terms) * difference_form(*pq, cap) + \
        TruncSeries(DIV_VARS, cap, {key: value})
    with pytest.raises(DivisibilityError):
        divide_by_linear(num, *pq)


@settings(max_examples=200, deadline=None)
@given(series_terms, st.dictionaries(exponents, small_coeffs, max_size=2),
       position_pairs, st.integers(1, 5))
@example({(2, 0, 0): b1}, {(1, 1, 0): CoeffPoly.one(),
                          (0, 2, 0): -CoeffPoly.one()}, [0, 1], 3)
def test_divide_by_linear_matches_horner_division(terms, extra, pq, cap):
    # a multiple of x_p - x_q plus a few terms, often but not always
    # divisible; the engine raises exactly when the reference does
    form = difference_form(*pq, cap)
    num = TruncSeries(DIV_VARS, cap, terms) * form + TruncSeries(
        DIV_VARS, cap, extra)
    try:
        expected = horner_divide(num, form)
    except DivisibilityError:
        with pytest.raises(DivisibilityError):
            divide_by_linear(num, *pq)
    else:
        assert divide_by_linear(num, *pq) == expected


# ---------------------------------------------------------------------------
# Round trips on random series with b-polynomial coefficients, the kind the
# universal law's log, exp and chi are


@st.composite
def law_series(draw, lowest):
    """A series in t at a cap of 2-8 whose terms, of degree ``lowest`` and
    up, carry random b-polynomials."""
    cap = draw(st.integers(2, 8))
    terms = draw(st.dictionaries(st.integers(lowest, cap), small_coeffs,
                                 max_size=4))
    return TruncSeries(("t",), cap, {(k,): c for k, c in terms.items()})


@settings(max_examples=60, deadline=None)
@given(law_series(1), nonzero_rationals)
def test_invert_unit_round_trips_law_series(tail, const):
    s = tail + TruncSeries.constant(("t",), tail.cap, const)
    assert s * series_invert_unit(s) == TruncSeries.one(("t",), s.cap)


@settings(max_examples=60, deadline=None)
@given(law_series(2))
def test_reverse_round_trips_law_series(tail):
    t = TruncSeries.variable(("t",), tail.cap, "t")
    s = t + tail
    r = series_reverse(s)
    assert compose(s, [r]) == t
    assert compose(r, [s]) == t
