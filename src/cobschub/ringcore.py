"""Exact coefficient arithmetic and truncated multivariate power series.

Coefficients live in the rationalized Lazard ring, presented as polynomials
in generators b1, b2, ... where b_i is the class of i-dimensional projective
space (graded degree -i), and stored as integer numerators over one shared
denominator.  Each b-monomial is packed into one int with a fixed-width field
per generator, so multiplying two monomials is one int addition; a guard bit
at the top of every field catches an exponent that outgrows its field, which
raises UsageError instead of carrying into the next generator.  Power series
carry these coefficients and are truncated at a fixed total degree in the
series variables, whose exponent vectors stay tuples; every operation is
exact below the cap and silently discards terms above it.  Flag elements
key their terms by ints of the flag layer's own layout
(``flagring.FlagContext``), which the kernel takes as they are.

This module is the one arithmetic core.  Products of coefficients (by a
scalar too), of series and of flag elements, composition, inversion,
canonical reduction, the classical divided difference and exact division by
x_p - x_q share one multiply-accumulate
kernel, ``sum_of_products``, which takes only its (key, p, q) terms: each
output coefficient is one integer merge over the lcm of the denominators of
the pairs on its key, and the field guard is checked before sums that cancel
are dropped.  Its spread stage adds each raw sum onto the keys of an
integer normal form once the guard has seen it, so flag products reduce in
the same pass.  Series and flag elements share one implementation of their
module operations (``TermMap``), maps to coefficients share one add-or-drop
merge (``add_term``).  A coefficient has one representation, the packed
fraction-free one: it is built from ``CoeffPoly.zero``, ``one``,
``rational`` and ``b`` by arithmetic, and read through ``ratios``,
``constant`` and its operators.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import chain
from typing import Mapping, Sequence


class CobschubError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(CobschubError):
    """A caller violated a documented precondition."""


class NotAUnitError(CobschubError):
    """Inversion was requested for a series whose constant term is not a
    nonzero rational."""


class DivisibilityError(CobschubError):
    """An exact linear division left a remainder.  This signals a sign or
    convention bug inside the engine, not bad input."""


class InternalError(CobschubError):
    """An internal consistency check failed."""


# A monomial in the generators b_i, as ``ratios`` shows it: a sorted tuple
# of (index, exponent) pairs with index >= 1 and exponent >= 1; () is the
# constant monomial.
BMonomial = tuple[tuple[int, int], ...]

# Inside CoeffPoly the exponent of b_i is the field of FIELD_BITS bits that
# starts at bit FIELD_BITS * (i - 1); 0 is the constant monomial.  A field
# holds exponents up to MAX_EXPONENT, and its top bit is a guard: the sum of
# two fields in range stays below 2 * (MAX_EXPONENT + 1), so it never
# carries into the next field, and it sets the guard exactly when the
# exponent leaves the range.
FIELD_BITS = 6
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
MAX_INDEX = 64
_FIELD_MASK = (1 << FIELD_BITS) - 1
_GUARD = sum(1 << (FIELD_BITS * i + FIELD_BITS - 1) for i in range(MAX_INDEX))
_OVERFLOW = f"a b-exponent exceeds {MAX_EXPONENT}, the packed field limit"


def _unpack(packed: int) -> BMonomial:
    out = []
    i = 1
    while packed:
        e = packed & _FIELD_MASK
        if e:
            out.append((i, e))
        packed >>= FIELD_BITS
        i += 1
    return tuple(out)


class CoeffPoly:
    """A polynomial in b1, b2, ... with exact rational coefficients.

    Immutable and fraction-free: ``num`` maps packed b-monomials to nonzero
    integer numerators over one denominator ``den`` > 0, with
    gcd(den, *num) == 1.  A packed monomial is an int whose field of
    FIELD_BITS bits at bit FIELD_BITS * (i - 1) holds the exponent of b_i,
    for i up to MAX_INDEX; exponents go up to MAX_EXPONENT, and a product
    that leaves that range raises UsageError, never a different monomial.
    The form is canonical, so equality and hashing are structural and
    ``den`` is the lcm of the denominators.  It is built from ``zero``,
    ``one``, ``rational`` and ``b`` by arithmetic and read by ``ratios``
    (keyed by ``BMonomial``), ``constant`` and its operators; there is no
    Fraction view.
    """

    __slots__ = ("num", "den", "_hash")

    @classmethod
    def _raw(cls, num: dict[int, int], den: int) -> "CoeffPoly":
        # internal fast path: num holds no zero and den > 0; divide out their
        # common factor
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {key: value // g for key, value in num.items()}
                den //= g
        self = object.__new__(cls)
        self.num = num
        self.den = den
        self._hash = None
        return self

    @classmethod
    def zero(cls) -> "CoeffPoly":
        return cls._raw({}, 1)

    @classmethod
    def one(cls) -> "CoeffPoly":
        return cls._raw({0: 1}, 1)

    @classmethod
    def rational(cls, value) -> "CoeffPoly":
        # an int has a numerator and a denominator of 1 too
        if not isinstance(value, (int, Fraction)):
            raise UsageError(f"expected an integer or Fraction, got {value!r}")
        return cls._raw({0: value.numerator} if value else {},
                        value.denominator)

    @classmethod
    def b(cls, index: int, exponent: int = 1) -> "CoeffPoly":
        """The generator b_index (optionally raised to a power)."""
        if index < 1 or exponent < 1:
            raise UsageError(f"malformed b-monomial {((index, exponent),)!r}")
        if index > MAX_INDEX or exponent > MAX_EXPONENT:
            raise UsageError(
                f"b-monomial {((index, exponent),)!r} is outside the packed "
                f"range: index at most {MAX_INDEX}, exponent at most "
                f"{MAX_EXPONENT}")
        return cls._raw({exponent << (FIELD_BITS * (index - 1)): 1}, 1)

    @classmethod
    def coerce(cls, value) -> "CoeffPoly":
        if isinstance(value, CoeffPoly):
            return value
        return cls.rational(value)

    def ratios(self) -> list[tuple[BMonomial, int, int]]:
        """The terms as sorted (b-monomial, num, den) in lowest terms."""
        return sorted((_unpack(key), value // g, self.den // g)
                      for key, value in self.num.items()
                      for g in (math.gcd(value, self.den),))

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return not self.num or (len(self.num) == 1 and 0 in self.num)

    def constant(self) -> Fraction:
        """The b-free part."""
        return Fraction(self.num.get(0, 0), self.den)

    def _combine(self, other, sign: int) -> "CoeffPoly":
        # self + sign * other in one merge over the lcm of the denominators:
        # the left side is copied, scaled if its denominator grows, and the
        # right side is scaled term by term inside the loop
        other = CoeffPoly.coerce(other)
        if not other.num:
            return self
        if not self.num:
            return other if sign > 0 else -other
        den = math.lcm(self.den, other.den)
        s1 = den // self.den
        out = ({key: value * s1 for key, value in self.num.items()}
               if s1 != 1 else dict(self.num))
        scale = sign * (den // other.den)
        for key, value in other.num.items():
            new = out.get(key, 0) + value * scale
            if new:
                out[key] = new
            else:
                del out[key]
        return CoeffPoly._raw(out, den)

    def __add__(self, other) -> "CoeffPoly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "CoeffPoly":
        return CoeffPoly._raw({k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, other) -> "CoeffPoly":
        return self._combine(other, -1)

    def __mul__(self, other) -> "CoeffPoly":
        if not isinstance(other, (CoeffPoly, int, Fraction)):
            return NotImplemented
        product = sum_of_products(((0, self, CoeffPoly.coerce(other)),))
        return product.get(0) or CoeffPoly.zero()

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "CoeffPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise UsageError("powers must be non-negative integers")
        result, base = CoeffPoly.one(), self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:  # square only when needed, so none leaves the range
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, CoeffPoly):
            return self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.constant() == other
        return NotImplemented

    def __hash__(self) -> int:
        # a rational constant equals its Fraction, so it hashes as one
        if self._hash is None:
            self._hash = hash(self.constant() if self.is_rational()
                              else (self.den, frozenset(self.num.items())))
        return self._hash

    def __str__(self) -> str:
        out = ""
        for key, num, den in self.ratios():
            value = f"{num}/{den}" if den > 1 else str(num)
            mono = "*".join(f"b{i}" if e == 1 else f"b{i}^{e}" for i, e in key)
            text = (value if not mono else mono if value == "1"
                    else f"-{mono}" if value == "-1" else f"{value}*{mono}")
            if out:
                text = f" - {text[1:]}" if text[0] == "-" else f" + {text}"
            out += text
        return out or "0"

    def __repr__(self) -> str:
        return f"CoeffPoly({self})"


def _multiply_into(acc: dict, num: dict, q, scale: int) -> None:
    # acc += scale * num * q on packed monomials; q is a CoeffPoly or an int
    get = acc.get
    if type(q) is int:
        scale *= q
        for m, v in num.items():
            acc[m] = get(m, 0) + v * scale
        return
    right = q.num.items()
    for m1, v1 in num.items():
        v1 *= scale
        for m2, v2 in right:
            m = m1 + m2
            acc[m] = get(m, 0) + v1 * v2


def _grow(acc: dict, dens: dict, key, den: int) -> int:
    # raise key's denominator to its lcm with den, rescaling its dict once
    factor = math.lcm(dens[key], den) // dens[key]
    for m in acc:
        acc[m] *= factor
    dens[key] *= factor
    return dens[key]


def sum_of_products(terms, spread=None) -> dict:
    """{key: the sum of p * q over the (key, p, q) in ``terms``}, zeros left
    out; p is a CoeffPoly and q a CoeffPoly or an int.

    The one multiply-accumulate kernel of the package: series, flag and
    composition products and canonical reduction pass it only their terms,
    in one pass of any iterable.  Each sum is one integer dict over the lcm
    of p.den * q.den over the pairs on its key (q.den is 1 for an int q):
    every pair adds its monomial products straight into it, with no
    CoeffPoly per pair, a pair whose denominator does not divide the key's
    so far rescales it once, and ``_raw`` divides out the common factor at
    the end.  The packed-field guard is checked over every monomial a merge
    touched before zero sums are dropped, so a product that leaves its
    field raises UsageError even when it cancels.

    ``spread``, if given, is a mapping from each key to (skey, int c)
    pairs: each key's sum, once all its pairs are in, is added c times into
    each skey's, and the result is keyed by the skeys.  The flag ring hands
    it its table of normal forms, and so reduces each raw monomial once.
    The guard runs once per call, on the OR of every monomial of every
    key's sum before any spread: a spread only multiplies by integers and
    adds no monomial, and the guard sees a key whose spread is empty too.
    """
    sums: dict = {}
    dens: dict = {}
    for key, p, q in terms:
        pq_den = p.den if type(q) is int else p.den * q.den
        acc = sums.get(key)
        if acc is None:
            acc = sums[key] = {}
            den = dens[key] = pq_den
        else:
            den = dens[key]
            if den % pq_den:
                den = _grow(acc, dens, key, pq_den)
        _multiply_into(acc, p.num, q, den // pq_den)
    # in-range fields add without a carry, so a monomial that left the range
    # is a distinct int with its guard bit set, and a bit is set in the OR
    # of every monomial iff it is set in one of them
    if functools.reduce(operator.or_, chain.from_iterable(sums.values()),
                        0) & _GUARD:
        raise UsageError(_OVERFLOW)
    if spread is not None:
        raw, raw_dens, sums, dens = sums, dens, {}, {}
        for key, acc in raw.items():
            den, free = raw_dens[key], True
            for skey, c in spread[key]:
                target = sums.get(skey)
                if target is None:
                    if c == 1 and free:
                        # moved once, not copied: the later entries of this
                        # form read it before any other key adds into it
                        sums[skey], dens[skey], free = acc, den, False
                        continue
                    target = sums[skey] = {}
                    dens[skey] = den
                elif dens[skey] % den:
                    _grow(target, dens, skey, den)
                _multiply_into(target, acc, c, dens[skey] // den)
    out = {}
    for key, acc in sums.items():
        # drop each sum as it is read, so no two copies of it are alive
        sums[key] = None
        if not all(acc.values()):
            acc = {m: v for m, v in acc.items() if v}
        if acc:
            out[key] = CoeffPoly._raw(acc, dens[key])
    return out


# ---------------------------------------------------------------------------
# Maps from monomials to coefficients


XMonomial = tuple[int, ...]


def add_term(out: dict, key, value: CoeffPoly, sign: int = 1) -> None:
    """out[key] += sign * value in place, dropping a sum that cancels: the
    one add-or-drop merge of maps from keys to CoeffPoly."""
    old = out.get(key)
    if old is None:
        new = value if sign > 0 else -value
    else:
        new = old + value if sign > 0 else old - value
    if new:
        out[key] = new
    else:
        out.pop(key, None)


def combine_terms(left: Mapping, right: Mapping, sign: int) -> dict:
    """left + sign * right for maps from monomials to CoeffPoly, in one
    merge over the right side; sums that cancel are dropped."""
    out = dict(left)
    for key, value in right.items():
        add_term(out, key, value, sign)
    return out


def truncated_product(left: Mapping, right: Mapping, cap: int) -> dict:
    """The product of two maps from exponent tuples to CoeffPoly through
    total degree ``cap``, with one kernel merge per output monomial."""
    rows = [(key, sum(key), value) for key, value in right.items()]
    return sum_of_products(
        ((tuple(map(operator.add, k1, k2)), v1, v2)
         for k1, v1 in left.items() for room in (cap - sum(k1),)
         for k2, d2, v2 in rows if d2 <= room))


class TermMap:
    """The module operations that series and flag elements share.

    ``terms`` maps monomials to nonzero CoeffPoly coefficients, exponent
    tuples for a series and packed ints for a flag element; ``exponents()``
    is the one view keyed by tuples, and ``vars`` names the variables.  A
    subclass supplies ``_like(terms)``, a new element of its own kind (same
    variables and cap, or same context) over the given terms, and
    ``_kind()``, what two elements must share to mix: equality and hashing
    include it, and ``_check``, the hook of every sum, difference and
    product of two elements, raises UsageError when the kinds differ unless
    a subclass overrides it with a rule of its own.
    """

    __slots__ = ()

    def exponents(self) -> dict:
        return self.terms

    def coefficient(self, key) -> CoeffPoly:
        return self.exponents().get(tuple(key), CoeffPoly.zero())

    def constant_term(self) -> CoeffPoly:
        """The coefficient of the monomial 1."""
        return self.terms.get((0,) * len(self.vars), CoeffPoly.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "TermMap") -> None:
        if self._kind() != other._kind():
            raise UsageError(f"{type(self).__name__} mismatch: "
                             f"{self._kind()} vs {other._kind()}")

    def _combine(self, other, sign: int):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._like(combine_terms(self.terms, other.terms, sign))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._like({key: -value for key, value in self.terms.items()})

    def _scale(self, other):
        """The product with a coefficient, or NotImplemented for any other
        factor; the scalar half of each subclass's ``__mul__``."""
        if not isinstance(other, (CoeffPoly, int, Fraction)):
            return NotImplemented
        out = {}
        for key, value in self.terms.items():
            new = value * other
            if new:
                out[key] = new
        return self._like(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._kind() == other._kind() and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._kind(), frozenset(self.terms.items())))
        return self._hash

    def __str__(self) -> str:
        """Terms by degree, as (coeff)*monomial; the CLI's text output."""
        parts = []
        terms = self.exponents()
        for key in sorted(terms, key=lambda k: (sum(k), k)):
            mono = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(self.vars, key) if e)
            coeff = terms[key]
            parts.append(f"({coeff})*{mono}" if mono else f"({coeff})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._kind()}({self})"


class TruncSeries(TermMap):
    """A multivariate power series truncated at a fixed total degree.

    ``terms`` maps exponent tuples (one entry per variable) to CoeffPoly
    coefficients.  Terms of total degree above ``cap`` are discarded on
    construction and in every arithmetic operation, so two series agree as
    objects exactly when they agree through degree ``cap``; series mix only
    with series of the same variables and cap.
    """

    __slots__ = ("vars", "cap", "terms", "_hash")

    def __init__(self, vars: Sequence[str], cap: int,
                 terms: Mapping[XMonomial, object] | None = None):
        if cap < 0:
            raise UsageError("degree cap must be non-negative")
        self.vars = tuple(vars)
        self.cap = cap
        clean: dict[XMonomial, CoeffPoly] = {}
        if terms:
            nvars = len(self.vars)
            for key, value in terms.items():
                key = tuple(key)
                if len(key) != nvars or any(e < 0 for e in key):
                    raise UsageError(f"malformed exponent vector {key!r}")
                if sum(key) > cap:
                    continue
                coeff = CoeffPoly.coerce(value)
                if coeff:
                    clean[key] = coeff
        self.terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, vars: tuple[str, ...], cap: int,
             terms: dict[XMonomial, CoeffPoly]) -> "TruncSeries":
        self = object.__new__(cls)
        self.vars = vars
        self.cap = cap
        self.terms = terms
        self._hash = None
        return self

    def _like(self, terms: dict) -> "TruncSeries":
        return TruncSeries._raw(self.vars, self.cap, terms)

    def _kind(self) -> tuple:
        return self.vars, self.cap

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str], cap: int) -> "TruncSeries":
        return cls._raw(tuple(vars), cap, {})

    @classmethod
    def constant(cls, vars: Sequence[str], cap: int, value) -> "TruncSeries":
        coeff, vars = CoeffPoly.coerce(value), tuple(vars)
        return cls._raw(vars, cap, {(0,) * len(vars): coeff} if coeff else {})

    @classmethod
    def one(cls, vars: Sequence[str], cap: int) -> "TruncSeries":
        return cls.constant(vars, cap, 1)

    @classmethod
    def variable(cls, vars: Sequence[str], cap: int, name: str) -> "TruncSeries":
        vars = tuple(vars)
        if name not in vars:
            raise UsageError(f"unknown variable {name!r}")
        if cap < 1:
            return cls.zero(vars, cap)
        key = tuple(1 if v == name else 0 for v in vars)
        return cls._raw(vars, cap, {key: CoeffPoly.one()})

    # -- arithmetic beyond the shared module operations ----------------------

    def __mul__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return self._scale(other)
        self._check(other)
        return self._like(truncated_product(self.terms, other.terms, self.cap))

    __rmul__ = __mul__

    def swap_vars(self, i: int, j: int) -> "TruncSeries":
        """Exchange the variables at positions i and j.

        The swap is a ring map that keeps total degree, so it commutes with
        truncation, exact division and inversion.
        """
        out: dict[XMonomial, CoeffPoly] = {}
        for key, value in self.terms.items():
            new = list(key)
            new[i], new[j] = key[j], key[i]
            out[tuple(new)] = value
        return self._like(out)


# ---------------------------------------------------------------------------
# Series-level operations


def series_invert_unit(s: TruncSeries) -> TruncSeries:
    """Multiplicative inverse of a series whose constant term is a nonzero
    rational; s * invert(s) = 1 through the degree cap.

    Solved degree by degree from the convolution identity, so the result is
    independent of how the geometric-series expansion would be organized.
    """
    c0 = s.constant_term()
    if not c0.is_rational() or c0.is_zero():
        raise NotAUnitError(f"constant term {c0} is not a nonzero rational")
    # r_m = -(1/c0) * sum_{j >= 1} s_j r_{m-j}: scale s once, then one kernel
    # merge per degree m
    scale = -1 / c0.constant()
    higher: dict[int, list] = {}
    for key, value in s.terms.items():
        d = sum(key)
        if d:
            higher.setdefault(d, []).append((key, value * scale))
    result = {0: {(0,) * len(s.vars): CoeffPoly.rational(-scale)}}
    for m in range(1, s.cap + 1):
        result[m] = sum_of_products(
            (tuple(map(operator.add, k1, k2)), v1, v2)
            for j, part in higher.items() if j <= m
            for k1, v1 in part for k2, v2 in result[m - j].items())
    return s._like({key: value for part in result.values()
                    for key, value in part.items()})


def series_reverse(s: TruncSeries) -> TruncSeries:
    """Compositional inverse of a single-variable series t + O(t^2).

    Returns r with s(r(t)) = t through the degree cap.  Each degree m is
    solved from the coefficient of t^m alone: with s_1 = 1 that coefficient
    is r_m + sum_{j >= 2} s_j [t^m] r^j, and [t^m] r^j for j >= 2 involves
    only r_1 .. r_(m-1).  The coefficients of the powers are kept in a
    table, [t^m] r^j = sum_k r_k [t^(m-k)] r^(j-1), and r^j starts at degree
    j, so each degree takes one kernel merge for its column of the table
    and one for r_m.
    """
    if len(s.vars) != 1:
        raise UsageError("series_reverse needs a single-variable series")
    if s.constant_term():
        raise UsageError("series_reverse needs a zero constant term")
    if s.coefficient((1,)) != CoeffPoly.one():
        raise UsageError("series_reverse needs linear coefficient 1")
    coeffs = {key[0]: value for key, value in s.terms.items()}
    rev = {1: CoeffPoly.one()}
    # powers[j][m] = [t^m] r^j, nonzero entries only; r^1 is r itself
    powers = {1: rev}
    for m in range(2, s.cap + 1):
        column = sum_of_products(
            (j, rev[k], lower[m - k])
            for j in range(2, m + 1) for lower in (powers.get(j - 1, {}),)
            for k in range(1, m - j + 2) if k in rev and m - k in lower)
        for j, value in column.items():
            powers.setdefault(j, {})[m] = value
        value = sum_of_products(
            (m, coeffs[j], power) for j, power in column.items()
            if j in coeffs).get(m)
        if value:
            rev[m] = -value
    return s._like({(m,): value for m, value in rev.items()})


def compose(outer: TruncSeries, args: Sequence[TruncSeries]) -> TruncSeries:
    """Substitute args[i] for the i-th variable of ``outer``.

    Every argument must share a variable list and cap and have zero constant
    term (otherwise the truncation of ``outer`` would not determine the
    result).
    """
    if len(args) != len(outer.vars):
        raise UsageError("compose needs one argument per outer variable")
    if not args:
        raise UsageError("compose needs at least one variable")
    vars = args[0].vars
    cap = args[0].cap
    for arg in args:
        args[0]._check(arg)
        if arg.constant_term():
            raise UsageError("compose arguments must have zero constant term")
    powers: list[dict[int, TruncSeries]] = [
        {0: TruncSeries.one(vars, cap), 1: arg} for arg in args]

    def power(i: int, e: int) -> TruncSeries:
        cache = powers[i]
        if e not in cache:
            cache[e] = power(i, e - 1) * cache[1]
        return cache[e]

    # x^key becomes the product of argument powers; then every outer term
    # goes into one kernel merge per output monomial
    factors = {}
    for key in outer.terms:
        parts = [power(i, e) for i, e in enumerate(key) if e]
        factors[key] = (functools.reduce(operator.mul, parts) if parts
                        else powers[0][0])
    return TruncSeries._raw(vars, cap, sum_of_products(
        (xkey, coeff, value) for key, coeff in outer.terms.items()
        for xkey, value in factors[key].terms.items()))


def _telescope(key: XMonomial, p: int, q: int, steps: int):
    # x^key / x_p times (x_q / x_p)^t for t in range(steps): the quotient of
    # x_p^steps by x_p - x_q spread over x^key, one monomial per step
    k = list(key)
    k[p] -= 1
    for _ in range(steps):
        yield tuple(k)
        k[p] -= 1
        k[q] += 1


def divide_by_linear(num: TruncSeries, p: int, q: int) -> TruncSeries:
    """Exact division of ``num`` by x_p - x_q, variables at positions p != q.

    x_p^a = (x_p - x_q) * sum_t x_p^(a-1-t) x_q^t + x_q^a, so each term
    gives a telescoping quotient and the remainder is ``num`` at x_p = x_q,
    which must vanish, or DivisibilityError is raised.  Each quotient term
    is one degree below a numerator term, so nothing is truncated and the
    quotient is exact in every degree the numerator determines (one degree
    fewer than the cap).
    """
    if p == q:
        raise UsageError("x_p - x_q needs two distinct positions")
    terms = num.terms

    def at_diagonal(key):
        k = list(key)
        k[p], k[q] = 0, key[p] + key[q]
        return tuple(k)

    remainder = sum_of_products(
        (at_diagonal(key), coeff, 1) for key, coeff in terms.items())
    if remainder:
        raise DivisibilityError(
            f"division by {num.vars[p]} - {num.vars[q]} leaves remainder "
            f"{num._like(remainder)}")
    return num._like(sum_of_products(
        (k, coeff, 1) for key, coeff in terms.items()
        for k in _telescope(key, p, q, key[p])))
