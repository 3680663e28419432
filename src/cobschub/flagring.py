"""The cobordism ring of the complete flag variety of rank n.

The ring is presented as coefficient-ring polynomials in x_1..x_n modulo the
ideal of positive-degree symmetric polynomials.  The canonical normal form
keeps exponent vectors with x_j-exponent at most j-1: the presentation's
ideal is generated by the complete homogeneous relations h_j(x_j, .., x_n),
each oriented to eliminate x_j^j, and every monomial of degree above
d = n(n-1)/2 reduces to zero.  So every x_i is nilpotent, and the ring has
one element type, ``FlagElem``: the first Chern class of a weight is the
law's exp at a sum of its one-variable logs, reduced once as a raw mapping,
and no series in the n variables is ever built.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from cobschub.ringcore import (
    CoeffPoly,
    TermMap,
    UsageError,
    add_term,
    sum_of_products,
)
from cobschub.fgl import log_and_exp, unit_inverse


# the canonical form of one packed monomial: (staircase pack, int) pairs
NormalForm = tuple[tuple[int, int], ...]


class Weight:
    """An integral weight sum(c_i e_i) of the rank-n torus; immutable."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        if any(not isinstance(c, int) for c in coords):
            raise UsageError("weight coordinates must be integers")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Weight(coords={self.coords!r})"

    @property
    def n(self) -> int:
        return len(self.coords)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(map(operator.sub, self.coords,
                          validate_weight(other, self.n).coords))

    def __str__(self):
        return "(" + ",".join(map(str, self.coords)) + ")"


def validate_weight(lam: Weight, n: int) -> Weight:
    """``lam`` if it is a weight of rank n; UsageError otherwise."""
    if not isinstance(lam, Weight) or lam.n != n:
        raise UsageError(f"weight must have length {n}, got {lam}")
    return lam


def validate_word(word, n: int) -> tuple[int, ...]:
    """``word`` as a tuple of simple-root letters 1..n-1, or UsageError."""
    word = tuple(word)
    for letter in word:
        if not isinstance(letter, int) or not 1 <= letter <= n - 1:
            raise UsageError(
                f"word letter {letter!r} out of range 1..{n - 1}")
    return word


def basis_weight(i: int, n: int) -> Weight:
    """e_i."""
    return Weight(tuple(1 if k == i else 0 for k in range(1, n + 1)))


def simple_root(i: int, n: int) -> Weight:
    """gamma_i = e_i - e_{i+1}."""
    validate_word((i,), n)
    return basis_weight(i, n) - basis_weight(i + 1, n)


def fundamental_weight(i: int, n: int) -> Weight:
    """omega_i = e_1 + ... + e_i, the standard lift with (omega_i, gamma_j) = delta_ij."""
    validate_word((i,), n)
    return Weight(tuple(1 if k <= i else 0 for k in range(1, n + 1)))


def rho_weight(n: int) -> Weight:
    """The lift (n-1, n-2, ..., 0) of the half-sum of positive roots."""
    return Weight(tuple(range(n - 1, -1, -1)))


class NormalFormTable(dict):
    """The canonical forms of packed monomials of degree at most d as
    (staircase int, int) pairs, keyed by the monomial and filled on the
    first lookup of each: ``table[m]`` is one subscript on a hit.

    The rewrite rules have integer coefficients and no b-terms, so the
    form does not depend on the law.  A staircase monomial is its own
    form.  Any other monomial has a first j with x_j-exponent at least
    j, which one add and one mask find (``FlagContext._climb``).  Two more
    add-and-mask tests give the empty form at once to monomials that lie
    in the ideal:

    - some exponent is at least n: Prod_j (x_k - x_j) = 0 gives
      x_k^n = Sum_{i>=1} (-1)^(i+1) e_i x_k^(n-i), which lies in the ideal;
    - every exponent is at least 1: the monomial is divisible by
      e_n = x_1 ... x_n.

    Otherwise one of two rules gives the form:

    - if mono / x_j is staircase, x_j^j is rewritten by the rule of
      h_j(x_j, .., x_n), which gives monomials of the same degree, each
      lexicographically below mono (x_1 heaviest); the form is minus the
      sum of theirs;
    - otherwise one x_j is peeled: the form is the sum of c times the
      form of x_j * s over the terms (s, c) of the form of mono / x_j.
      That is exact because taking forms is linear modulo the ideal.

    Forms only hold monomials lexicographically at most their own, and
    mono / x_j is not staircase, so each s lies strictly below mono / x_j
    and each x_j * s strictly below mono.  Every form so rests on forms
    of lower degree or of smaller monomials of its degree, and the
    recursion through them ends.  Each form is built once, after the forms
    it rests on, and an empty form is stored too.  The chains stay short:
    a cold class of w0 at rank 6 goes 7 misses deep, and the deepest cold
    monomial there, x_1^5 x_2^5 x_3^5, 16.
    """

    __slots__ = ("ctx",)

    def __init__(self, ctx: "FlagContext"):
        super().__init__()
        self.ctx = ctx

    def __missing__(self, m: int) -> NormalForm:
        ctx = self.ctx
        j = ctx._climb(m)
        guard = ctx._guard
        if not j:
            form = ((m, 1),)
        elif m + ctx._power_bias & guard or \
                m + ctx._unit_bias & guard == guard:
            form = ()
        else:
            total: dict[int, int] = {}
            x_j = ctx.x_keys[j - 1]
            if not ctx._climb(m - x_j):
                base = m - j * x_j
                for repl in ctx._rewrite[j]:
                    for s, value in self[base + repl]:
                        total[s] = total.get(s, 0) - value
            else:
                for s, c in self[m - x_j]:
                    for f, value in self[s + x_j]:
                        total[f] = total.get(f, 0) + c * value
            form = tuple((s, value) for s, value in total.items() if value)
        self[m] = form
        return form


class FlagContext:
    """Everything attached to a fixed rank n and a formal group law: the
    parts of the law that the engine reads, the rewrite system, the packed
    layout of x-monomials, and operator caches.

    ``beta`` None takes the universal law, whose coefficients are
    polynomials in the b_i (cobordism).  A rational ``beta`` (an int or a
    Fraction) takes its image under b_i -> beta^i (see
    ``fgl.log_and_exp``): beta = 0 computes in the Chow ring and beta != 0
    in K-theory, with rational coefficients throughout.  Every engine step
    is linear over the coefficient ring, so this gives the specialization
    of the cobordism result at the cost of the smaller theory.  Elements of
    contexts with different (n, beta) never mix: every sum, difference,
    product, operator and engine entry takes its element and the letters it
    reads through ``own``, which returns the element or raises.

    Canonical elements never exceed degree d = n(n-1)/2.  ``c1_weight``
    reads the law's one-variable ``log`` and evaluates its ``exp`` at a flag
    element, so it reads both through degree d.  Each operator is a classical
    divided difference through the integer normal forms and one flag-ring
    product with the inverse unit U^-1 of F(x_{i+1}, chi(x_i))
    = (x_{i+1} - x_i) * U, a series in x_i and x_{i+1} alone that the
    operators read through degree 2n - 3 (``weylops._op_pack`` says why).
    ``unit_inv`` is that series over the pair (y1, y2), built once from
    log and exp by ``fgl.unit_inverse``; it reads them through 2n - 2.  So
    log and exp are built at ``work_cap`` = max(d, 2n - 2), the least cap
    that serves both readers, and F, chi and q are never built.

    An x-monomial of degree at most d is one int, the key of element terms:
    the exponent of x_k in the field of ``field_bits`` = d.bit_length() + 1
    bits at bit field_bits * (k - 1), and the degree above the n fields,
    at bit ``degree_shift``.  No exponent reaches a field's top bit, so
    while degrees add up to at most d a product is the sum of the ints,
    with no carry.  ``x_keys`` holds x_1..x_n.  ``pack`` packs and checks
    a raw exponent tuple, and ``unpack`` serves ``FlagElem.exponents``.

    Caches, filled on first use and kept for the context's life, keyed by
    packed ints where they hold monomials: the normal forms that reductions
    meet and those they rest on (``_normal_forms``, a ``NormalFormTable``
    that builds each form on its first lookup; reductions and the operators
    hand the table itself to the kernel as its spread, so a hit is one
    subscript and no Python call), the operators' packed U^-1
    (``_op_packs``, by i, see ``weylops._op_pack``), the read tables of the
    walk's position-1 nodes (``_read_tables``, by (i, j), see
    ``weylops._read_table``), first Chern classes of weights
    (``_c1_cache``) and Bott-Samelson classes (``_bs_cache``).  Chevalley
    expansions are mutable and are built afresh on every call.
    """

    def __init__(self, n: int, beta: Fraction | None = None):
        if not isinstance(n, int):
            raise UsageError(f"rank must be an integer, got {n!r}")
        if n < 2:
            raise UsageError("rank must be at least 2")
        if beta is not None and type(beta) not in (int, Fraction):
            raise UsageError(
                f"beta must be None, an integer or a Fraction, got {beta!r}")
        self.n = n
        self.beta = beta
        self.d = n * (n - 1) // 2
        self.work_cap = max(self.d, 2 * n - 2)
        self.vars = tuple(f"x{i}" for i in range(1, n + 1))
        self.field_bits = width = self.d.bit_length() + 1
        self.degree_shift = width * n
        self.x_keys = tuple(1 << width * k | 1 << width * n for k in range(n))
        # the biases set field k's top bit iff x_{k+1}'s exponent is > k
        # (_bias), >= n (_power_bias) and >= 1 (_unit_bias)
        top = 1 << width - 1
        self._guard = sum(top << width * k for k in range(n))
        self._bias = sum(top - k - 1 << width * k for k in range(n))
        self._power_bias = sum(top - n << width * k for k in range(n))
        self._unit_bias = self._guard - sum(1 << width * k for k in range(n))
        self.log, self.exp = log_and_exp(self.work_cap, beta)
        self.unit_inv = unit_inverse(self.log, self.exp, 2 * n - 3)
        self._rewrite = {j: self._rewrite_rule(j) for j in range(1, n + 1)}
        self._normal_forms = NormalFormTable(self)
        self._op_packs: dict[int, dict] = {}
        self._read_tables: dict[tuple[int, int], list] = {}
        self._c1_cache: dict[tuple[int, ...], "FlagElem"] = {}
        self._bs_cache: dict[tuple[int, ...], "FlagElem"] = {}

    def _rewrite_rule(self, j: int) -> list[int]:
        # monomials of h_j(x_j, .., x_n) other than the eliminated x_j^j
        return [sum(self.x_keys[pos] for pos in combo)
                for combo in itertools.combinations_with_replacement(
                    range(j - 1, self.n), j) if combo != (j - 1,) * j]

    def pack(self, key) -> int | None:
        """x^key packed, None above degree d (where it lies in the ideal);
        UsageError unless ``key`` is n nonnegative integers."""
        if len(key) != self.n or not all(
                isinstance(e, int) and e >= 0 for e in key):
            raise UsageError(f"malformed exponent vector {key!r}")
        if sum(key) > self.d:
            return None
        return sum(map(operator.mul, key, self.x_keys))

    def unpack(self, m: int) -> tuple[int, ...]:
        """The exponent tuple of the packed monomial m."""
        width = self.field_bits
        return tuple(m >> width * k & (1 << width) - 1 for k in range(self.n))

    def _climb(self, m: int) -> int:
        # the first j with x_j-exponent at least j in m, 0 if m is staircase
        hit = m + self._bias & self._guard
        return (hit & -hit).bit_length() // self.field_bits

    def one(self) -> "FlagElem":
        return FlagElem._raw(self, {0: CoeffPoly.one()})

    def zero(self) -> "FlagElem":
        return FlagElem._raw(self, {})

    def x_elem(self, i: int) -> "FlagElem":
        """The class x_i = c_1(L_i) in canonical form."""
        if not 1 <= i <= self.n:
            raise UsageError(f"variable index {i} out of range")
        return FlagElem._raw(self, reduce_terms(
            self, {self.x_keys[i - 1]: CoeffPoly.one()}))

    def own(self, a, *letters) -> "FlagElem":
        """``a`` itself if it is an element of a context with this (n, beta)
        and every letter names a simple root 1..n-1; UsageError otherwise."""
        validate_word(letters, self.n)
        if not (isinstance(a, FlagElem) and (a.ctx is self or (
                a.ctx.n, a.ctx.beta) == (self.n, self.beta))):
            raise UsageError(f"expected an element of {self!r}")
        return a

    def __repr__(self):
        return f"FlagContext(n={self.n}, beta={self.beta})"


THEORIES = ("cobordism", "chow", "ktheory")
_FIXED_LAWS = {"cobordism": (), "chow": (Fraction(0),)}  # free of beta


def theory_law(theory: str, beta: Fraction) -> tuple:
    """The law arguments after n of ``FlagContext(n, *law)`` for a theory:
    none for cobordism, whose context is ``FlagContext(n)`` over the
    universal law, beta 0 for chow and ``beta`` for ktheory."""
    law = (beta,) if theory == "ktheory" else _FIXED_LAWS.get(theory)
    if law is None:
        raise UsageError(f"unknown theory {theory!r}")
    return law


class FlagElem(TermMap):
    """An element of the flag ring in canonical normal form.

    Immutable; ``terms`` is keyed by the context's packed monomials, which
    all satisfy the staircase bound and stay within total degree d, and no
    zero coefficients are stored; ``exponents()`` unpacks them.  Elements
    mix only within contexts of the same (n, beta): sums, differences and
    products, ``times_terms`` through d, check the other with ``own``.
    ``reduce_canonical`` builds elements from raw polynomials.  The constant
    term agrees with the invariant definition through the product with the
    point class: a * [pt] = a.constant_term() * [pt].
    """

    __slots__ = ("ctx", "terms", "_hash")

    @classmethod
    def _raw(cls, ctx: FlagContext, terms: dict) -> "FlagElem":
        self = object.__new__(cls)
        self.ctx = ctx
        self.terms = terms
        self._hash = None
        return self

    def _like(self, terms: dict) -> "FlagElem":
        return FlagElem._raw(self.ctx, terms)

    def _kind(self) -> tuple:
        return self.ctx.n, self.ctx.beta

    def _check(self, other) -> None:
        self.ctx.own(other)

    @property
    def vars(self) -> tuple[str, ...]:
        return self.ctx.vars

    def exponents(self) -> dict:
        unpack = self.ctx.unpack
        return {unpack(m): value for m, value in self.terms.items()}

    def constant_term(self) -> CoeffPoly:
        return self.terms.get(0, CoeffPoly.zero())

    def __mul__(self, other) -> "FlagElem":
        if not isinstance(other, FlagElem):
            return self._scale(other)
        self._check(other)
        # monomials above degree d lie in the ideal
        return self._like(times_terms(self.ctx, self.terms, other.terms,
                                      self.ctx.d))

    __rmul__ = __mul__


def times_terms(ctx: FlagContext, left, right, top: int) -> dict:
    """The canonical terms through x-degree ``top`` of the product of two
    packed mappings, raw or not, in one kernel merge: the pair products on
    each raw monomial m1 + m2 are summed and spread onto its normal form,
    and as reduction keeps x-degree, none above ``top`` is formed."""
    shift = ctx.degree_shift
    rows = [(m, m >> shift, value) for m, value in right.items()]
    return sum_of_products(
        ((m1 + m2, v1, v2) for m1, v1 in left.items()
         for room in (top - (m1 >> shift),)
         for m2, d2, v2 in rows if d2 <= room), ctx._normal_forms)


def reduce_terms(ctx: FlagContext, terms) -> dict:
    """The canonical terms of a packed mapping to CoeffPoly: each raw
    monomial's coefficient goes, times each integer of its normal form,
    onto the form's staircase monomials in one kernel merge."""
    table = ctx._normal_forms
    return sum_of_products((s, coeff, c) for m, coeff in terms.items()
                           for s, c in table[m])


def reduce_canonical(ctx: FlagContext, p) -> FlagElem:
    """Rewrite a raw polynomial to the canonical staircase form.

    Takes only a raw mapping from exponent tuples to coefficients, such as
    an element's ``exponents()``: an element is already canonical, and
    ``FlagContext.own`` checks one.  Each key is packed, and checked, by
    ``FlagContext.pack``; monomials of degree above d are dropped, as they
    lie in the ideal.
    """
    return FlagElem._raw(ctx, reduce_terms(ctx, {
        m: coeff for key, value in p.items()
        for coeff in (CoeffPoly.coerce(value),)
        for m in (ctx.pack(key),) if m is not None}))


def point_class(ctx: FlagContext) -> FlagElem:
    """The class of a point, the monomial x_n^(n-1) x_(n-1)^(n-2) ... x_2."""
    return FlagElem._raw(ctx, {ctx.pack(range(ctx.n)): CoeffPoly.one()})


def _exp_at(ctx: FlagContext, y) -> dict:
    """The law's exp at the packed canonical terms y of an element without
    constant term, by Horner's rule on packed term maps through degree d:
    y^k vanishes for k > d, so the rest of the series never counts."""
    acc: dict = {}
    for k in range(ctx.d, 0, -1):
        coeff = ctx.exp.coefficient((k,))
        if coeff:
            add_term(acc, 0, coeff)
        # k - 1 more factors y follow, each raising the degree, so the
        # product counts only through degree d - k + 1
        acc = times_terms(ctx, acc, y, ctx.d - k + 1)
    return acc


def c1_weight(ctx: FlagContext, lam: Weight) -> FlagElem:
    """First Chern class of the line bundle attached to a weight.

    L(lambda) for lambda = sum c_i e_i is the tensor product of the
    tautological quotient lines L_i = L(-e_i) with exponents -c_i, so its
    first Chern class is the formal sum over i of [-c_i](x_i), which is
    exp(sum -c_i log(x_i)).  Each log(x_i) is a series in x_i alone whose
    powers are single monomials, so the sum of logs is one reduction of
    the packed raw mapping {x_i^k: -c_i l_k} over the log's coefficients
    l_k through degree d; every x_i is nilpotent in the flag ring, so the
    exp is evaluated there by Horner's rule on packed term maps
    (``_exp_at``), whose result is the element's terms, and the law is read
    only through degree d.  For -e_i, whose line is L_i itself, that is
    x_i, which is returned without evaluation: the exp at log(x_i) would
    take 0.1-0.8 s at rank 6 for i <= 4.
    """
    validate_weight(lam, ctx.n)
    cached = ctx._c1_cache.get(lam.coords)
    if cached is not None:
        return cached
    if sorted(lam.coords) == [-1] + [0] * (ctx.n - 1):
        result = ctx.x_elem(lam.coords.index(-1) + 1)
    else:
        log_sum = reduce_terms(ctx, {
            k * x: ell * -c for x, c in zip(ctx.x_keys, lam.coords) if c
            for k in range(1, ctx.d + 1)
            for ell in (ctx.log.coefficient((k,)),) if ell})
        result = FlagElem._raw(ctx, _exp_at(ctx, log_sum))
    ctx._c1_cache[lam.coords] = result
    return result
