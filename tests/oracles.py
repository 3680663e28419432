"""Independent oracles used by the test suite.

Each oracle recomputes a quantity along a different route than the library
code under test: products one pair of terms at a time for the shared
multiply-accumulate kernel, geometric series for unit inversion, the
Lagrange formula for compositional inverses, folds of the group law for
formal sums, composition of exp with an n-variable log sum for first Chern
classes, the operator factorization built directly in n variables, one full
operator string per removal set for the Chevalley coefficients, one
Chevalley expansion per variable factor for the product of an element with
a class, the walk over canonical elements with reduced swaps for the walk
over plain mappings, the rewrite sweep on CoeffPoly coefficients for
canonical reduction, a table of all n! basis classes by leading monomial
for the basis expansion, the Bernstein-Gelfand-Gelfand criterion (every
classical divided difference of top length vanishes) for ideal membership,
Fraction Gauss-Jordan for matrix inverses, one Fraction per term for
b-polynomial arithmetic and for a coefficient's JSON and text, Horner division by a general linear form for the
exact divisions of the operators, the full h_j cascade for the integer
normal forms, the full-cap composition of F(y1, chi(y2)) for the law's
operator pack, the two-pass product (the raw truncated product, then one
reduction) for the flag product that reduces inside the kernel, and U^-1
read at each pair and reduced for the packs moved from the last pair.  The
classical divided difference of the additive theory, which the membership
criterion also applies, is
``cobschub.selftest.classical_divided_difference``.

The module also keeps the helpers that only the tests call: the whole law
of a context (``law_of``, whose F, chi and q the engine never builds), the
specialization of coefficients, series and elements at values of the b_i,
flag elements and variables read as series over the context's n variables,
the product and reducedness of a word, total degrees, the graded degrees
and generator support of a coefficient, an element's part through a given
x-degree, the additive-theory image of an element and the lcm of its
denominators.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from fractions import Fraction

from cobschub.fgl import PAIR_VARS, FGLData, build_universal_fgl
from cobschub.flagring import (
    FlagElem,
    Weight,
    basis_weight,
    c1_weight,
    reduce_canonical,
)
from cobschub.ringcore import (
    FIELD_BITS,
    MAX_EXPONENT,
    MAX_INDEX,
    CoeffPoly,
    DivisibilityError,
    TruncSeries,
    UsageError,
    add_term,
    compose,
    divide_by_linear,
    series_invert_unit,
    truncated_product,
)
from cobschub.schubert import bs_class, c1_times_bs
from cobschub.selftest import classical_divided_difference
from cobschub.weylops import (
    Permutation,
    all_permutations,
    divided_diff_dual,
    dual_read,
    dual_reads_after,
    reduced_word,
    sigma_op,
    validate_word,
)


class FractionPoly:
    """A b-polynomial stored as one Fraction per b-monomial.

    This is the per-term arithmetic that ``CoeffPoly`` replaced by integer
    numerators over a shared denominator; powers are repeated products, not
    squarings.  ``terms`` has the shape of ``fraction_terms``.
    """

    def __init__(self, terms):
        self.terms = {key: Fraction(value)
                      for key, value in terms.items() if value}

    def __add__(self, other: "FractionPoly") -> "FractionPoly":
        out = dict(self.terms)
        for key, value in other.terms.items():
            out[key] = out.get(key, 0) + value
        return FractionPoly(out)

    def __neg__(self) -> "FractionPoly":
        return FractionPoly({key: -value for key, value in self.terms.items()})

    def __sub__(self, other: "FractionPoly") -> "FractionPoly":
        return self + (-other)

    def __mul__(self, other) -> "FractionPoly":
        if isinstance(other, (int, Fraction)):
            return FractionPoly({key: value * other
                                 for key, value in self.terms.items()})
        out: dict = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                merged = dict(k1)
                for i, e in k2:
                    merged[i] = merged.get(i, 0) + e
                key = tuple(sorted(merged.items()))
                out[key] = out.get(key, 0) + v1 * v2
        return FractionPoly(out)

    def __pow__(self, exponent: int) -> "FractionPoly":
        result = FractionPoly({(): 1})
        for _ in range(exponent):
            result = result * self
        return result

    def specialize(self, assignment) -> Fraction:
        total = Fraction(0)
        for key, value in self.terms.items():
            for i, e in key:
                value *= Fraction(assignment[i]) ** e
            total += value
        return total


def coeff_from_fractions(terms) -> CoeffPoly:
    """The CoeffPoly of a map from b-monomials, (index, exponent) pairs
    with one pair per index, to ints or Fractions; two spellings of one
    monomial add up.  Packed here, with none of the engine's arithmetic, so
    the kernel's tests take inputs that do not rest on it."""
    sums: dict = {}
    for key, value in terms.items():
        assert len({i for i, _ in key}) == len(key), key
        assert all(1 <= i <= MAX_INDEX and 1 <= e <= MAX_EXPONENT
                   for i, e in key), key
        packed = sum(e << (FIELD_BITS * (i - 1)) for i, e in key)
        sums[packed] = sums.get(packed, 0) + Fraction(value)
    sums = {key: value for key, value in sums.items() if value}
    den = math.lcm(*(value.denominator for value in sums.values()))
    return CoeffPoly._raw({key: int(value * den)
                           for key, value in sums.items()}, den)


def fraction_terms(c) -> dict:
    """The Fraction view of a CoeffPoly: each b-monomial, as the sorted
    (index, exponent) pairs of ``ratios``, to its coefficient.  Unpacked
    here from ``c.num`` over ``c.den``, so it checks ``ratios``."""
    mask = (1 << FIELD_BITS) - 1
    return {tuple((i, e) for i in range(1, MAX_INDEX + 1)
                  for e in (packed >> (FIELD_BITS * (i - 1)) & mask,) if e):
            Fraction(value, c.den) for packed, value in c.num.items()}


def fraction_coeff_to_json(c) -> list:
    """``cli.coeff_to_json`` through one Fraction per b-term: the sorted
    ``fraction_terms``, each Fraction's numerator and denominator."""
    return [{"b": [[i, e] for i, e in key], "num": str(value.numerator),
             "den": str(value.denominator)}
            for key, value in sorted(fraction_terms(c).items())]


def fraction_coeff_str(c) -> str:
    """``str`` of a CoeffPoly through one Fraction per b-term."""
    out = ""
    for key, value in sorted(fraction_terms(c).items()):
        mono = "*".join(f"b{i}" if e == 1 else f"b{i}^{e}" for i, e in key)
        text = (str(value) if not mono else mono if value == 1
                else f"-{mono}" if value == -1 else f"{value}*{mono}")
        if out:
            text = f" - {text[1:]}" if text[0] == "-" else f" + {text}"
        out += text
    return out or "0"


def heap_reduce(ctx, raw) -> FlagElem:
    """Canonical form of a raw mapping from exponent vectors to coefficients
    by one descending rewrite sweep with CoeffPoly coefficients.

    Monomials are popped from the lexicographically largest down (x_1
    heaviest); every rewrite of x_j^j by h_j(x_j, .., x_n) produces strictly
    smaller monomials of the same degree, so a popped coefficient is
    complete.  Monomials of degree above d are dropped.  This is the
    reduction that the context's table of integer normal forms replaced.
    """
    pending: dict[tuple[int, ...], CoeffPoly] = {}
    heap: list[tuple[int, ...]] = []
    for key, value in raw.items():
        key = tuple(key)
        coeff = CoeffPoly.coerce(value)
        if not coeff or sum(key) > ctx.d:
            continue
        if key in pending:
            pending[key] = pending[key] + coeff
        else:
            pending[key] = coeff
            heapq.heappush(heap, tuple(-e for e in key))
    done: dict[tuple[int, ...], CoeffPoly] = {}
    while heap:
        key = tuple(-e for e in heapq.heappop(heap))
        coeff = pending.pop(key)
        if not coeff:
            continue
        j = next((j for j in range(1, ctx.n + 1) if key[j - 1] >= j), None)
        if j is None:
            done[key] = coeff
            continue
        base = list(key)
        base[j - 1] -= j
        for repl in rewrite_rule(ctx.n, j):
            new_key = tuple(b + r for b, r in zip(base, repl))
            old = pending.get(new_key)
            if old is None:
                pending[new_key] = -coeff
                heapq.heappush(heap, tuple(-e for e in new_key))
            else:
                pending[new_key] = old - coeff
    return FlagElem._raw(ctx, packed(ctx, done))


@functools.lru_cache(maxsize=None)
def rewrite_rule(n: int, j: int) -> tuple:
    """The exponent vectors of the monomials of h_j(x_j, .., x_n) other
    than the eliminated x_j^j, at rank n."""
    out = []
    for combo in itertools.combinations_with_replacement(range(j - 1, n), j):
        key = [0] * n
        for pos in combo:
            key[pos] += 1
        if key[j - 1] != j:
            out.append(tuple(key))
    return tuple(out)


def cascade_normal_form(ctx, key, forms: dict):
    """The integer normal form of x^key by the full h_j cascade, filling
    ``forms`` (one dict per context, kept by the caller) as it goes.

    Every non-staircase monomial, with first j whose x_j-exponent is at
    least j, has x_j^j rewritten by h_j(x_j, .., x_n); the form is minus the
    sum of the forms of the smaller monomials that gives.  This is the route
    that the context's one-variable peel replaced.
    """
    start = tuple(key)
    if sum(start) > ctx.d:
        return ()
    stack = [start]
    while stack:
        mono = stack[-1]
        if mono in forms:
            stack.pop()
            continue
        j = next((j for j in range(1, ctx.n + 1) if mono[j - 1] >= j), None)
        if j is None:
            forms[mono] = ((mono, 1),)
            stack.pop()
            continue
        base = list(mono)
        base[j - 1] -= j
        smaller = [tuple(b + r for b, r in zip(base, repl))
                   for repl in rewrite_rule(ctx.n, j)]
        missing = [m for m in smaller if m not in forms]
        if missing:
            stack.extend(missing)
            continue
        total: dict = {}
        for m in smaller:
            for skey, value in forms[m]:
                total[skey] = total.get(skey, 0) - value
        forms[mono] = tuple((skey, value)
                            for skey, value in total.items() if value)
        stack.pop()
    return forms[start]


@functools.lru_cache(maxsize=None)
def law_at(cap: int, beta) -> FGLData:
    """The whole law, F, chi and q included, at ``cap``; one per
    (cap, beta)."""
    return build_universal_fgl(cap, beta)


def law_of(ctx) -> FGLData:
    """The whole law of a context at its working cap, F, chi and q
    included, which the context itself never builds: the reference routes
    read the law through F and chi, apart from the engine's log and exp."""
    return law_at(ctx.work_cap, ctx.beta)


def composed_x_loc(law) -> TruncSeries:
    """x_loc = F(y1, chi(y2)) at the law's cap by two compositions, against
    the engine's exp(log y1 - log y2) in ``fgl.unit_inverse``."""
    cap = law.degree_cap
    y1 = TruncSeries.variable(PAIR_VARS, cap, "y1")
    y2 = TruncSeries.variable(PAIR_VARS, cap, "y2")
    return compose(law.F, [y1, compose(law.chi, [y2])])


def full_cap_pair_pack(law) -> TruncSeries:
    """U^-1 of F(y1, chi(y2)) = (y1 - y2) * U composed, divided and inverted
    at the law's own cap, whose top degree is not exact: the route through
    F and chi, against the engine's through log and exp alone
    (``fgl.unit_inverse``)."""
    unit = divide_by_linear(composed_x_loc(law), 0, 1)
    assert unit.constant_term() == CoeffPoly.one()
    return series_invert_unit(unit)


def direct_op_pack(ctx, i: int) -> FlagElem:
    """U^-1 of F(x_{i+1}, chi(x_i)) through degree 2n - 3 read at the pair
    itself: the context's ``unit_inv`` with each term y1^a y2^b read as
    x_i^b x_{i+1}^a and reduced, the route of every pack before all but
    the last were moved from the last."""
    head, tail = (0,) * (i - 1), (0,) * (ctx.n - i - 1)
    return reduce_canonical(ctx, {
        head + (b, a) + tail: coeff
        for (a, b), coeff in ctx.unit_inv.terms.items()})


def full_degree_op_pack(ctx, i: int) -> FlagElem:
    """U^-1 of F(x_{i+1}, chi(x_i)) through degree d, the route that
    ``weylops._op_pack`` replaced: the full-cap pack of a law at cap d + 1
    cut to degree d, each term y1^a y2^b read as x_i^b x_{i+1}^a and
    reduced.  The engine's pack stops at 2n - 3, and the degrees it leaves
    out reduce to zero."""
    head, tail = (0,) * (i - 1), (0,) * (ctx.n - i - 1)
    return reduce_canonical(ctx, {
        head + (b, a) + tail: coeff
        for (a, b), coeff in full_degree_pair_pack(ctx.d, ctx.beta).items()})


@functools.lru_cache(maxsize=None)
def full_degree_pair_pack(d: int, beta):
    """The terms through degree d of the full-cap pack of a law at cap
    d + 1, exact there; one per (d, beta)."""
    return {key: value for key, value
            in full_cap_pair_pack(law_at(d + 1, beta)).terms.items()
            if sum(key) <= d}


def geometric_inverse(s: TruncSeries) -> TruncSeries:
    """1/s via the geometric series sum((1 - s/c0)^k) / c0."""
    assert s.constant_term().is_rational()
    c0 = s.constant_term().constant()
    scaled = s * CoeffPoly.rational(Fraction(1) / c0)
    r = TruncSeries.one(s.vars, s.cap) - scaled
    total = TruncSeries.zero(s.vars, s.cap)
    power = TruncSeries.one(s.vars, s.cap)
    for _ in range(s.cap + 1):
        total = total + power
        power = power * r
    return total * CoeffPoly.rational(Fraction(1) / c0)


def lagrange_reverse(s: TruncSeries) -> TruncSeries:
    """Compositional inverse by Lagrange inversion.

    For s = t + O(t^2) the inverse has coefficients
    r_k = (1/k) * [t^(k-1)] (t / s(t))^k.
    """
    assert len(s.vars) == 1
    cap = s.cap
    # s = t * g with g a unit; t/s = 1/g
    g_terms = {(k[0] - 1,): v for k, v in s.terms.items()}
    g = TruncSeries(s.vars, cap, g_terms)
    ginv = geometric_inverse(g)
    out = {}
    power = TruncSeries.one(s.vars, cap)
    for k in range(1, cap + 1):
        power = power * ginv
        coeff = power.coefficient((k - 1,)) * Fraction(1, k)
        if coeff:
            out[(k,)] = coeff
    return TruncSeries(s.vars, cap, out)


# ---------------------------------------------------------------------------
# Products one pair at a time


def pairwise_sum_of_products(terms) -> dict:
    """{key: the b-terms of the sum of p * q} over (key, p, q) triples, with
    one Fraction per b-term (``FractionPoly``), every pair multiplied and
    added on its own; the route the kernel's integer merge over per-key
    denominators replaced.  q is a CoeffPoly or an int; keys whose sum
    vanishes are left out."""
    out: dict = {}
    for key, p, q in terms:
        right = q if isinstance(q, int) else FractionPoly(fraction_terms(q))
        product = FractionPoly(fraction_terms(p)) * right
        out[key] = out[key] + product if key in out else product
    return {key: value.terms for key, value in out.items() if value.terms}


def pairwise_series_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """a * b with one CoeffPoly product per pair of terms, each added to its
    output coefficient as it comes; the route the shared multiply-accumulate
    kernel replaced."""
    assert a.vars == b.vars and a.cap == b.cap
    out: dict = {}
    for k1, v1 in a.terms.items():
        for k2, v2 in b.terms.items():
            if sum(k1) + sum(k2) <= a.cap:
                add_term(out, tuple(x + y for x, y in zip(k1, k2)), v1 * v2)
    return TruncSeries(a.vars, a.cap, out)


def pairwise_flag_mul(a: FlagElem, b: FlagElem) -> FlagElem:
    """a * b in the flag ring: one CoeffPoly product per pair of terms up to
    degree d, summed as they come, then one canonical reduction."""
    raw: dict = {}
    for k1, v1 in a.exponents().items():
        for k2, v2 in b.exponents().items():
            if sum(k1) + sum(k2) <= a.ctx.d:
                add_term(raw, tuple(x + y for x, y in zip(k1, k2)), v1 * v2)
    return reduce_canonical(a.ctx, raw)


def two_pass_product(a: FlagElem, b: FlagElem, top=None) -> FlagElem:
    """a * b through x-degree ``top`` (default d) in two passes, the route
    the flag product replaced: the raw product of the terms, one CoeffPoly
    per raw monomial, then one canonical reduction of it."""
    ctx = a.ctx
    return reduce_canonical(ctx, truncated_product(
        a.exponents(), b.exponents(), ctx.d if top is None else top))


def termwise_compose(outer: TruncSeries, args) -> TruncSeries:
    """outer(args) as a sum of series, one outer term at a time: each term's
    coefficient times the product of its argument powers."""
    vars, cap = args[0].vars, args[0].cap
    total = TruncSeries.zero(vars, cap)
    for key, coeff in outer.terms.items():
        term = TruncSeries.constant(vars, cap, coeff)
        for arg, e in zip(args, key):
            for _ in range(e):
                term = pairwise_series_mul(term, arg)
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Exact division by a general linear form


def _linear_form_parts(factor: TruncSeries):
    """Decompose a rational degree-1 form as c_p * (x_p - L).

    Returns (pivot position, pivot coefficient, L) where L is a list of
    (position, rational coefficient) pairs, none at the pivot.
    """
    if not factor.terms:
        raise UsageError("linear factor must be nonzero")
    coeffs: dict[int, Fraction] = {}
    for key, value in factor.terms.items():
        if sum(key) != 1:
            raise UsageError("linear factor must be homogeneous of degree 1")
        if not value.is_rational():
            raise UsageError("linear factor must have rational coefficients")
        coeffs[key.index(1)] = value.constant()
    pivot = min(coeffs)
    c_p = coeffs[pivot]
    rest = [(pos, -value / c_p) for pos, value in sorted(coeffs.items())
            if pos != pivot]
    return pivot, c_p, rest


def horner_divide(num: TruncSeries, factor: TruncSeries) -> TruncSeries:
    """Exact division of ``num`` by a rational degree-1 form c_p * (x_p - L).

    One pass of synthetic (Horner) division in the pivot variable: with
    num = sum_a x_p^a C_a and every C_a free of x_p, the quotient digits are
    Q_{a-1} = C_a + L * Q_a from the top down, and the remainder
    C_0 + L * Q_0 (num with x_p replaced by L) must vanish, or
    DivisibilityError is raised.  This is the general division that the
    engine's telescoping division by x_p - x_q replaced.
    """
    assert num.vars == factor.vars and num.cap == factor.cap
    pivot, c_p, rest = _linear_form_parts(factor)
    digits: dict = {}
    for key, coeff in num.terms.items():
        a = key[pivot]
        if a:
            key = key[:pivot] + (0,) + key[pivot + 1:]
        digits.setdefault(a, {})[key] = coeff
    inv_c = 1 / c_p
    quotient: dict = {}
    carry: dict = {}  # L * Q_a, zero above the top
    for a in range(max(digits, default=0), 0, -1):
        digit = carry  # becomes Q_{a-1} = C_a + L * Q_a
        for key, coeff in digits.get(a, {}).items():
            add_term(digit, key, coeff)
        carry = {}
        for key, coeff in digit.items():
            for pos, value in rest:
                add_term(carry, key[:pos] + (key[pos] + 1,) + key[pos + 1:],
                         coeff * value)
            key = key[:pivot] + (a - 1,) + key[pivot + 1:]
            quotient[key] = coeff * inv_c
    remainder = carry
    for key, coeff in digits.get(0, {}).items():
        add_term(remainder, key, coeff)
    if remainder:
        raise DivisibilityError(f"division by {factor} leaves a remainder")
    return TruncSeries._raw(num.vars, num.cap, quotient)


# ---------------------------------------------------------------------------
# Specialization and the series view of the flag ring


def specialize(x, assignment):
    """``x`` at b_i = assignment[i], exactly; the assignment must cover every
    generator that occurs.  A CoeffPoly gives a Fraction, and a TruncSeries
    or a FlagElem the same kind of object with rational coefficients.  The
    Chow specialization sends every b_i to 0, the K-theory one b_i to
    beta**i."""
    if isinstance(x, CoeffPoly):
        total = Fraction(0)
        for key, value in fraction_terms(x).items():
            for i, e in key:
                if i not in assignment:
                    raise UsageError(f"no assignment for generator b{i}")
                value *= Fraction(assignment[i]) ** e
            total += value
        return total
    terms = {}
    for key, coeff in x.terms.items():
        value = specialize(coeff, assignment)
        if value:
            terms[key] = CoeffPoly.rational(value)
    if isinstance(x, FlagElem):
        return FlagElem._raw(x.ctx, terms)
    return TruncSeries._raw(x.vars, x.cap, terms)


def var_series(ctx, i: int) -> TruncSeries:
    """x_i as a series over the context's variables at its working cap."""
    return TruncSeries.variable(ctx.vars, ctx.work_cap, f"x{i}")


def as_series(a) -> TruncSeries:
    """The canonical representative of a flag element as a series over its
    context's variables at the working cap."""
    return TruncSeries._raw(a.ctx.vars, a.ctx.work_cap, a.exponents())


# ---------------------------------------------------------------------------
# Folds of the formal group law


def n_series(fgl, n: int) -> TruncSeries:
    """The n-fold formal sum [n](u): [0] = 0, [n+1] = F([n], u), [-n] = chi([n])."""
    u = TruncSeries.variable(("u",), fgl.degree_cap, "u")
    acc = TruncSeries.zero(("u",), fgl.degree_cap)
    for _ in range(abs(n)):
        acc = compose(fgl.F, [acc, u])
    return compose(fgl.chi, [acc]) if n < 0 else acc


def formal_sum(fgl, terms, *, vars=None, cap=None) -> TruncSeries:
    """Left fold of F over ``terms``; the formal sum of first Chern classes.

    The empty sum is zero, in which case the variable space must be supplied.
    """
    if not terms:
        if vars is None or cap is None:
            raise UsageError("empty formal sum needs explicit variables and cap")
        return TruncSeries.zero(vars, cap)
    acc = terms[0]
    for term in terms[1:]:
        acc = compose(fgl.F, [acc, term])
    return acc


def compose_c1(ctx, lam) -> FlagElem:
    """c1(L(lam)) = exp(sum -c_i log(x_i)) along the series route: the law's
    log composed with each variable, summed as a series in the context's n
    variables at the working cap, composed into exp and reduced once.  This
    is the route that evaluating log and exp inside the flag ring replaced;
    it is uncached."""
    law = law_of(ctx)
    log_sum = TruncSeries.zero(ctx.vars, ctx.work_cap)
    for i, c in enumerate(lam.coords, start=1):
        if c:
            log_sum = log_sum + compose(law.log, [var_series(ctx, i)]) * (-c)
    return reduce_canonical(ctx, compose(law.exp, [log_sum]).terms)


@functools.lru_cache(maxsize=None)
def reference_op_pack(ctx, i: int):
    """The factor x_{i+1} - x_i and the inverse unit U^-1 of
    F(x_{i+1}, chi(x_i)) = (x_{i+1} - x_i) * U, built directly in the
    context's n variables by Horner division, with both checks made there;
    one per (ctx, i)."""
    x_i = var_series(ctx, i)
    x_next = var_series(ctx, i + 1)
    law = law_of(ctx)
    x_loc = compose(law.F, [x_next, compose(law.chi, [x_i])])
    factor = x_next - x_i
    unit = horner_divide(x_loc, factor)
    assert unit.constant_term() == CoeffPoly.one()
    assert x_loc.swap_vars(i - 1, i) == compose(law.chi, [x_loc])
    return factor, series_invert_unit(unit)


def series_divided_diff(ctx, i: int, a):
    """(1 + sigma_i)(1 / F(x_{i+1}, chi(x_i))) along the series route:
    h = a * U^-1 as a full-cap series, (h - sigma_i h) / (x_{i+1} - x_i) by
    Horner division, and one reduction at the end."""
    factor, unit_inv = reference_op_pack(ctx, i)
    h = as_series(a) * unit_inv
    return reduce_canonical(
        ctx, horner_divide(h - h.swap_vars(i - 1, i), factor).terms)


def series_divided_diff_dual(ctx, i: int, a):
    """(1 / F(x_{i+1}, chi(x_i)))(1 - sigma_i) along the series route: the
    unreduced Horner quotient (a - sigma_i a) / (x_{i+1} - x_i) times the
    full-cap series U^-1, reduced once."""
    factor, unit_inv = reference_op_pack(ctx, i)
    s = as_series(a)
    return reduce_canonical(
        ctx, (horner_divide(s - s.swap_vars(i - 1, i), factor)
              * unit_inv).terms)


def walk_chevalley_coeff(ctx, word, positions, lam):
    """Coefficient of Z_(word minus positions) in c1(L(lam)) * Z_word along
    one operator string per removal set: from the last letter down to the
    lowest removed position, the dual divided difference at removed
    positions and the swap at kept ones, every operator applied in full,
    then the constant term.  The empty removal set gives zero."""
    positions = set(positions)
    if not positions:
        return CoeffPoly.zero()
    current = c1_weight(ctx, lam)
    for pos in range(len(word) - 1, min(positions) - 1, -1):
        op = divided_diff_dual if pos in positions else sigma_op
        current = op(ctx, word[pos], current)
    return current.constant_term()


def full_tree_c1_times_bs(ctx, lam, word) -> dict:
    """The terms of c1_times_bs(ctx, lam, word) by kept positions, from a
    depth-first walk over every removed/kept choice that applies each
    operator down to position 0: the node at position p swaps or takes the
    dual divided difference of its state through degree p + 1 and reads
    the coefficient of the set whose lowest removed position is p from its
    state's degree-1 part.  A word of length l takes 2^(l-1) - 1 dual
    divided differences and as many swaps; this is the walk that the
    library replaced by reading both children of each position-1 node."""
    word = validate_word(word, ctx.n)
    terms = {}

    def walk(pos, state, kept_above):
        letter = word[pos]
        coeff = dual_read(ctx, letter, state.terms)
        if coeff:
            terms[tuple(range(pos)) + kept_above] = coeff
        if pos:
            walk(pos - 1, through_degree(
                divided_diff_dual(ctx, letter, state), pos), kept_above)
            walk(pos - 1, sigma_op(ctx, letter, through_degree(state, pos)),
                 (pos,) + kept_above)

    if word:
        walk(len(word) - 1, through_degree(c1_weight(ctx, lam), len(word)),
             ())
    return terms


def canonical_poly_times_bs(ctx, f, word) -> dict:
    """The terms of poly_times_bs(ctx, f, word) by kept positions along the
    walk that the library replaced by one on plain mappings: the same tree
    of operator strings with the same reads, but every state a canonical
    element built by the public operators, each swap reduced
    (``sigma_op``) and each dual image a whole element cut at its node's
    degree."""
    word = validate_word(word, ctx.n)
    terms = {}

    def record(kept, coeff):
        if coeff:
            terms[kept] = coeff

    def walk(pos, state, kept_above):
        letter = word[pos]
        if pos == 1:
            reads = dual_reads_after(ctx, letter, word[0], state.terms)
            for kept, coeff in zip(((0,), (), (1,)), reads):
                record(kept + kept_above, coeff)
            return
        record(tuple(range(pos)) + kept_above,
               dual_read(ctx, letter, state.terms))
        if pos:
            walk(pos - 1, through_degree(
                divided_diff_dual(ctx, letter, state), pos), kept_above)
            walk(pos - 1, sigma_op(ctx, letter, through_degree(state, pos)),
                 (pos,) + kept_above)

    record(tuple(range(len(word))), ctx.own(f).constant_term())
    if word:
        walk(len(word) - 1, through_degree(f, len(word)), ())
    return terms


def iterated_poly_times_bs(ctx, f, word) -> dict:
    """The terms of poly_times_bs(ctx, f, word) by kept positions, one
    variable at a time: every canonical monomial of f is a product of the
    classes x_i = c1(L(-e_i)), whose factors multiply into the running
    expansion in ascending variable order, each through c1_times_bs on a
    running term's subword with its positions mapped back into ``word``,
    and the constant part of f scales Z_word directly.  Every monomial is
    multiplied in, whatever its degree; this is the route the library
    replaced by one walk started at f."""
    word = validate_word(word, ctx.n)
    acc = {}
    terms = f.exponents()
    for exponents in sorted(terms):
        running = {tuple(range(len(word))): terms[exponents]}
        for i, e in enumerate(exponents, start=1):
            lam = Weight(-c for c in basis_weight(i, ctx.n).coords)
            for _ in range(e):
                stepped = {}
                for kept, value in running.items():
                    sub = c1_times_bs(ctx, lam, tuple(word[p] for p in kept))
                    for sub_kept, sub_coeff in sub.terms.items():
                        add_term(stepped, tuple(kept[p] for p in sub_kept),
                                 value * sub_coeff)
                running = stepped
        for kept, value in running.items():
            add_term(acc, kept, value)
    return acc


def table_expand_in_bs_basis(ctx, a) -> dict:
    """Write ``a`` over the basis classes of the lexicographically smallest
    reduced words by unitriangular peeling against a table of all n! classes.

    The table maps each class's leading monomial (the lexicographically
    largest of its lowest x-degree part) to the permutation and the class,
    after checking that the class has coefficient 1 there and that no two
    classes share it.  This is the route that reading the permutation off
    the monomial replaced; it builds every class before the first peel.
    """
    def leading(terms):
        return max(terms, key=lambda key: (-sum(key), key))

    table = {}
    for w in all_permutations(ctx.n):
        cls = bs_class(ctx, reduced_word(w))
        lead = leading(cls.exponents())
        assert cls.exponents()[lead] == 1, w
        assert lead not in table, (table[lead][0], w)
        table[lead] = (w, cls)
    out = {}
    residual = a
    while not residual.is_zero():
        terms = residual.exponents()
        lead = leading(terms)
        w, cls = table[lead]
        coeff = out[w] = terms[lead]
        residual = residual - coeff * cls
        assert lead not in residual.exponents(), w
    return out


# ---------------------------------------------------------------------------
# Words and gradings


def perm_product(w: Permutation, v: Permutation) -> Permutation:
    """The composition w v, read off the images: (w v)(k) = w(v(k))."""
    assert w.n == v.n
    return Permutation(w(v(k)) for k in range(1, w.n + 1))


def word_permutation(word, n: int) -> Permutation:
    """The product s_{a_1} s_{a_2} ... s_{a_l} of the word's reflections."""
    perm = Permutation(range(1, n + 1))
    for i in validate_word(word, n):
        perm = perm_product(perm, Permutation.simple(i, n))
    return perm


def words_up_to(n: int, length: int):
    """Every word over the rank's simple reflections up to ``length``,
    shortest first."""
    for size in range(length + 1):
        yield from itertools.product(range(1, n), repeat=size)


def is_reduced(word, n: int) -> bool:
    """A word is reduced when its length equals the inversion count of the
    product permutation."""
    return len(word) == word_permutation(word, n).inversions()


def all_reduced_words(w: Permutation) -> list:
    """Every reduced word of w: a left descent i of w, then a reduced word
    of s_i w."""
    if not w.inversions():
        return [()]
    words = []
    for i in range(1, w.n):
        rest = perm_product(Permutation.simple(i, w.n), w)
        if rest.inversions() < w.inversions():
            words.extend((i,) + word for word in all_reduced_words(rest))
    return words


def commutation_class(word) -> frozenset:
    """The words reached from ``word`` by swapping adjacent letters that
    differ by at least 2."""
    seen = {tuple(word)}
    stack = [tuple(word)]
    while stack:
        current = stack.pop()
        for j in range(len(current) - 1):
            if abs(current[j] - current[j + 1]) >= 2:
                moved = (current[:j] + (current[j + 1], current[j])
                         + current[j + 2:])
                if moved not in seen:
                    seen.add(moved)
                    stack.append(moved)
    return frozenset(seen)


def bmonomial_degree(key) -> int:
    """Graded degree of a b-monomial: prod b_i^{e_i} sits in degree -sum(i*e_i)."""
    return -sum(i * e for i, e in key)


def coeff_degrees(coeff) -> set[int]:
    """Set of graded degrees of the b-monomials of a CoeffPoly (all <= 0)."""
    return {bmonomial_degree(key) for key, _, _ in coeff.ratios()}


def support_indices(coeff) -> set[int]:
    """The indices i of the generators b_i that occur in a CoeffPoly."""
    return {i for key, _, _ in coeff.ratios() for i, _ in key}


def total_degrees(elem) -> set[int]:
    """x-degree plus coefficient degree over the stored terms of a series or
    a flag element."""
    return {sum(key) + b for key, coeff in elem.exponents().items()
            for b in coeff_degrees(coeff)}


def is_canonical(terms) -> bool:
    """Whether every exponent vector of a mapping is staircase: x_j to at
    most the power j - 1."""
    return all(e <= j for key in terms for j, e in enumerate(key))


def unpack(ctx, m: int) -> tuple[int, ...]:
    """The exponent tuple of a context's packed monomial, read field by
    field from the layout's width alone."""
    fields = bin(m)[2:].zfill(ctx.field_bits * (ctx.n + 1))[::-1]
    return tuple(int(fields[k:k + ctx.field_bits][::-1], 2)
                 for k in range(0, ctx.field_bits * ctx.n, ctx.field_bits))


def unpacked(ctx, terms) -> dict:
    """A packed mapping of a context, raw or not, keyed by exponent
    tuples."""
    return {unpack(ctx, m): value for m, value in terms.items()}


def packed(ctx, terms) -> dict:
    """A mapping keyed by exponent tuples of degree at most d, keyed by
    the context's packed monomials laid out from the width alone: each
    exponent in its field, the degree above the n fields."""
    width = ctx.field_bits
    return {sum(e << width * k for k, e in enumerate(key))
            + (sum(key) << width * ctx.n): value
            for key, value in terms.items()}


def through_degree(elem, top: int):
    """The terms of a flag element of x-degree at most ``top``."""
    ctx = elem.ctx
    return FlagElem._raw(ctx, {m: coeff for m, coeff in elem.terms.items()
                               if sum(unpack(ctx, m)) <= top})


def chow_elem(elem):
    """The additive-theory image of a flag element: every b_i goes to 0."""
    support = set()
    for coeff in elem.terms.values():
        support |= support_indices(coeff)
    return specialize(elem, {i: Fraction(0) for i in support})


def denominator_lcm(elem) -> int:
    """The lcm of the denominators of a flag element's coefficients."""
    return math.lcm(*(coeff.den for coeff in elem.terms.values()))


# ---------------------------------------------------------------------------
# Exact linear algebra over Fraction


class LazardLattice:
    """Membership oracle for the integral span of monomials in the group
    law's coefficients, degree by degree, via Hermite normal forms.

    The generators b_i of the rational presentation only span a finite-index
    subring of the integral coefficient ring, so b-denominators are not a
    faithful integrality test; this is.
    """

    def __init__(self, fgl):
        self.fgl = fgl
        self.gens_by_deg: dict[int, list] = {}
        for (i, j), c in fgl.F.terms.items():
            if i >= 1 and j >= 1:
                self.gens_by_deg.setdefault(i + j - 1, set()).add(c)
        self.gens_by_deg = {
            k: sorted(v, key=lambda c: sorted(fraction_terms(c).items()))
            for k, v in self.gens_by_deg.items()}
        self._monomials: dict = {}

    def monomial_generators(self, k):
        from cobschub.ringcore import CoeffPoly

        if k in self._monomials:
            return self._monomials[k]
        out = []

        def rec(min_deg, remaining, acc):
            if remaining == 0:
                out.append(acc)
                return
            for d in range(min_deg, remaining + 1):
                for g in self.gens_by_deg.get(d, ()):
                    rec(d, remaining - d, acc * g)

        rec(1, k, CoeffPoly.one())
        self._monomials[k] = out
        return out

    @staticmethod
    def _bkeys_of_degree(k):
        keys = set()

        def rec(min_part, remaining, acc):
            if remaining == 0:
                merged: dict = {}
                for p in acc:
                    merged[p] = merged.get(p, 0) + 1
                keys.add(tuple(sorted(merged.items())))
                return
            for p in range(min_part, remaining + 1):
                rec(p, remaining - p, acc + [p])

        rec(1, k, [])
        return sorted(keys)

    def contains(self, coeff) -> bool:
        from sympy import Matrix
        from sympy.matrices.normalforms import hermite_normal_form

        by_deg: dict = {}
        for key, val in fraction_terms(coeff).items():
            by_deg.setdefault(-bmonomial_degree(key), {})[key] = val
        for k, piece in by_deg.items():
            if k == 0:
                if piece[()].denominator != 1:
                    return False
                continue
            basis = self._bkeys_of_degree(k)
            idx = {b: i for i, b in enumerate(basis)}
            cols = []
            for g in self.monomial_generators(k):
                col = [Fraction(0)] * len(basis)
                for bk, v in fraction_terms(g).items():
                    col[idx[bk]] = v
                cols.append(col)
            target = [Fraction(0)] * len(basis)
            for bk, v in piece.items():
                target[idx[bk]] = v
            den = 1
            for col in cols + [target]:
                for v in col:
                    den = den * v.denominator // math.gcd(den, v.denominator)
            plain = Matrix([[int(c[r] * den) for c in cols]
                            for r in range(len(basis))])
            augmented = Matrix([[int(c[r] * den) for c in cols + [target]]
                                for r in range(len(basis))])
            if hermite_normal_form(plain) != hermite_normal_form(augmented):
                return False
        return True


def random_flag_elem(ctx, rng, max_terms=4, max_index=3):
    """A random canonical element with small staircase exponents and small
    coefficient polynomials; used by the property suites."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = tuple(rng.randint(0, j) for j in range(ctx.n))
        coeff_terms = {}
        for _ in range(rng.randint(0, 2)):
            idx = rng.randint(1, max_index)
            coeff_terms[((idx, rng.randint(1, 2)),)] = Fraction(
                rng.randint(-3, 3))
        coeff_terms[()] = Fraction(rng.randint(-3, 3))
        coeff = coeff_from_fractions(coeff_terms)
        if coeff:
            terms[key] = coeff
    return reduce_canonical(ctx, terms)


def flag_poly_in_ideal(ctx, terms: dict) -> bool:
    """Ideal-membership oracle for a polynomial with CoeffPoly coefficients:
    split by x-degree and by coefficient monomial, then run the rational
    membership solver on each homogeneous piece."""
    pieces: dict = {}
    for key, coeff in terms.items():
        deg = sum(key)
        for bkey, value in fraction_terms(coeff).items():
            pieces.setdefault((deg, bkey), {})[key] = value
    return all(in_symmetric_ideal(piece) for piece in pieces.values())


def in_symmetric_ideal(terms: dict) -> bool:
    """Membership of a homogeneous rational polynomial in the ideal generated
    by the elementary symmetric polynomials e_1..e_n of x_1..x_n, n the
    length of its exponent vectors.

    The Bernstein-Gelfand-Gelfand criterion: a polynomial p of degree k is
    in the ideal exactly when the classical divided difference d_w p
    vanishes for every permutation w of length k.  Modulo the ideal p is a
    combination of the Schubert polynomials of length k, d_w takes the one
    of w to 1 and the others to 0, and it takes the ideal's degree-k part
    into its constants, which are 0.  So the constants d_w p are p's
    coordinates there (``_schubert_coordinates``), linear in p.
    """
    if not terms:
        return True
    degrees = {sum(k) for k in terms}
    assert len(degrees) == 1, "oracle needs homogeneous input"
    total: dict = {}
    for key, value in terms.items():
        for w, coord in _schubert_coordinates(tuple(key)).items():
            total[w] = total.get(w, 0) + value * coord
    return not any(total.values())


@functools.lru_cache(maxsize=None)
def _schubert_coordinates(mono: tuple[int, ...]) -> dict:
    """d_w x^mono for every permutation w (one-line images) of length
    deg(mono), the zero ones left out.

    For a reduced word w = s_a1 .. s_ak, d_w = d_a1 .. d_ak, so for any i
    with l(w s_i) < l(w) (w(i) > w(i+1)), d_w = d_(w s_i) d_i.  Each w is
    taken at its first such i, from the coordinates of the monomials of
    d_i x^mono, one degree lower."""
    n = len(mono)
    if not any(mono):
        return {tuple(range(1, n + 1)): 1}
    out: dict = {}
    for i in range(n - 1):
        for key, value in classical_divided_difference({mono: 1}, i).items():
            for lower, coord in _schubert_coordinates(key).items():
                if lower[i] > lower[i + 1]:
                    continue
                w = lower[:i] + (lower[i + 1], lower[i]) + lower[i + 2:]
                if all(w[j] < w[j + 1] for j in range(i)):
                    out[w] = out.get(w, 0) + value * coord
    return {w: coord for w, coord in out.items() if coord}
