"""Type-A Weyl group combinatorics and the flag-ring operators.

Permutations act on weights by permuting coordinates; words are tuples of
simple-root indices with no reducedness restriction.  The divided-difference
operators rest on the factorization F(x_{i+1}, chi(x_i)) = (x_{i+1} - x_i) * U
with U a unit.  Both operators are linear over symmetric elements, so they
map the ideal of the presentation into itself and work on canonical
elements: the only law-dependent part is U^-1, the context's two-variable
pack ``unit_inv`` (built by ``fgl.unit_inverse``, which checks that U has
constant term 1) with y1 read as x_{i+1} and y2 as x_i, kept in canonical
form through degree 2n - 3, above which it would reduce to zero
(``_op_pack`` proves it).  The rest is the classical divided difference
(a - sigma_i a) / (x_{i+1} - x_i), whose telescoping integer terms go
through the context's normal forms in one kernel merge, and a flag-ring
product with U^-1 that never leaves degree d; the dual operator stops at a
lower degree when its caller names one.  Its constant term, after one more
operator or none, is linear in degrees 1 and 2 of its input and is read
from them with no product at all.  Every public operator takes its element
and letters through ``FlagContext.own`` once, so it raises UsageError for a
letter outside 1..n-1 and for anything but an element of a context with
its (n, beta); a weight of another length fails ``validate_weight``.
"""

from __future__ import annotations

import itertools

from cobschub.ringcore import (
    CoeffPoly,
    UsageError,
    divided_difference_terms,
    sum_of_products,
)
from cobschub.flagring import (
    FlagContext,
    FlagElem,
    Weight,
    reduce_canonical,
    simple_root,
    validate_weight,
    validate_word,
)

Word = tuple[int, ...]


class Permutation:
    """A permutation of {1..n} in one-line notation (images of 1..n)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise UsageError(f"{images!r} is not a permutation of 1..n")
        self.images = images

    @classmethod
    def simple(cls, i: int, n: int) -> "Permutation":
        """The adjacent transposition (i, i+1)."""
        validate_word((i,), n)
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (w * v)(k) = w(v(k))."""
        if self.n != other.n:
            raise UsageError("permutation ranks differ")
        return Permutation(tuple(self.images[other.images[k] - 1]
                                 for k in range(self.n)))

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for k, image in enumerate(self.images, start=1):
            out[image - 1] = k
        return Permutation(out)

    def inversions(self) -> int:
        count = 0
        for a in range(self.n):
            for b in range(a + 1, self.n):
                if self.images[a] > self.images[b]:
                    count += 1
        return count

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def all_permutations(n: int):
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def weyl_act(w: Permutation, lam: Weight) -> Weight:
    """Permute weight coordinates: w sends e_i to e_{w(i)}."""
    validate_weight(lam, w.n)
    out = [0] * lam.n
    for i in range(1, lam.n + 1):
        out[w(i) - 1] = lam.coords[i - 1]
    return Weight(tuple(out))


def coroot_pairing(lam: Weight, alpha: Weight) -> int:
    """The integer (lam, alpha) with s_alpha lam = lam - (lam, alpha) alpha.

    Only roots e_i - e_j are accepted.
    """
    pos = [k for k, c in enumerate(alpha.coords) if c == 1]
    neg = [k for k, c in enumerate(alpha.coords) if c == -1]
    rest = [c for c in alpha.coords if c not in (0, 1, -1)]
    if len(pos) != 1 or len(neg) != 1 or rest:
        raise UsageError(f"{alpha} is not a root of the form e_i - e_j")
    validate_weight(lam, alpha.n)
    return lam.coords[pos[0]] - lam.coords[neg[0]]


def reduced_word(w: Permutation) -> Word:
    """The lexicographically smallest reduced word for w.

    Greedy: the set of possible first letters is the left descent set, the
    i with w^-1(i) > w^-1(i+1), and taking the smallest descent first is
    lexicographically optimal.  Left multiplication by s_i exchanges entries
    i and i+1 of the inverse images, which leaves the pairs before i - 1 as
    they were, so the scan for the next descent resumes at i - 1.
    """
    inv = list(w.inverse().images)
    word = []
    i = 1
    while i < len(inv):
        if inv[i - 1] > inv[i]:
            inv[i - 1], inv[i] = inv[i], inv[i - 1]
            word.append(i)
            i = max(i - 1, 1)
        else:
            i += 1
    return tuple(word)


def beta_sequence(word: Word, n: int) -> list[Weight]:
    """The roots beta_j = s_{a_l} ... s_{a_{j+1}} (alpha_{a_j}), one per
    position of the word (the suffix reflections act innermost first)."""
    word = validate_word(word, n)
    out = []
    for j in range(len(word)):
        beta = simple_root(word[j], n)
        for p in range(j + 1, len(word)):
            beta = weyl_act(Permutation.simple(word[p], n), beta)
        out.append(beta)
    return out


# ---------------------------------------------------------------------------
# Operators on the flag ring


def _op_pack(ctx: FlagContext, i: int) -> FlagElem:
    """The canonical form of the inverse unit U^-1 of F(x_{i+1}, chi(x_i)),
    kept in ``ctx._op_packs``: the context's pack ``unit_inv`` over
    (y1, y2) through degree 2n - 3 with each term y1^a y2^b read as
    x_i^b x_{i+1}^a and reduced.

    The pack stops at 2n - 3 because nothing above it survives: the ideal
    is symmetric, and a permutation taking (x_i, x_{i+1}) to
    (x_{n-1}, x_n) leaves a pair whose rewrite rules h_{n-1}(x_{n-1}, x_n)
    and h_n(x_n) use no other variable.  Its staircase monomials
    x_{n-1}^(<= n-2) x_n^(<= n-1) stop at degree 2n - 3 and reduction keeps
    degree, so each pair monomial above 2n - 3 has normal form 0.  The
    bound is tight: x_{n-1}^(n-2) x_n^(n-1) is its own form.  2n - 3 <= d
    for every n >= 2.

    So only the last pack, i = n - 1, reduces ``unit_inv`` itself, and its
    canonical form N stays in the pair (x_{n-1}, x_n).  Every other pack is
    N moved to (x_i, x_{i+1}) and reduced.  That is exact: a permutation s
    of the variables with s(x_{n-1}) = x_i and s(x_n) = x_{i+1} maps the
    ideal onto itself, so it maps the congruence of N with the read pack P
    at (x_{n-1}, x_n) to one of s(N) with s(P), the pack read at
    (x_i, x_{i+1}); congruent polynomials share one normal form.  s(N)
    holds only x_i^(<= n-2) x_{i+1}^(<= n-1), a subset of the monomials of
    s(P), so the move reduces fewer monomials than reading ``unit_inv``
    again.  It is still reduced, as s(N) is in general not staircase.
    The operators that call this have checked ``i``."""
    unit_inv = ctx._op_packs.get(i)
    if unit_inv is None:
        head, tail = (0,) * (i - 1), (0,) * (ctx.n - i - 1)
        if i == ctx.n - 1:
            pair = {(b, a): coeff
                    for (a, b), coeff in ctx.unit_inv.terms.items()}
        else:
            pair = {key[-2:]: coeff for key, coeff
                    in _op_pack(ctx, ctx.n - 1).terms.items()}
        unit_inv = ctx._op_packs[i] = reduce_canonical(ctx, {
            head + key + tail: coeff for key, coeff in pair.items()})
    return unit_inv


def sigma_op(ctx: FlagContext, i: int, a: FlagElem) -> FlagElem:
    """Exchange x_i and x_{i+1} on any representative, then renormalize:
    well defined on the quotient, as the swap keeps the symmetric ideal."""
    return reduce_canonical(ctx, {
        key[:i - 1] + (key[i], key[i - 1]) + key[i + 1:]: coeff
        for key, coeff in ctx.own(a, i).terms.items()})


def _antisymmetrize(ctx: FlagContext, i: int, a: FlagElem) -> FlagElem:
    """(a - sigma_i a) / (x_{i+1} - x_i) in canonical form: the classical
    divided difference of the canonical representative in one kernel
    merge, which sums the telescoped terms on each raw monomial and spreads
    that sum onto the monomial's integer normal form."""
    return FlagElem._raw(ctx, sum_of_products(
        divided_difference_terms(a.terms, i, i - 1), ctx.normal_form))


def divided_diff(ctx: FlagContext, i: int, a: FlagElem) -> FlagElem:
    """The degree-lowering operator (1 + sigma_i) (1 / F(x_{i+1}, chi(x_i))).

    Computed as the antisymmetrized quotient (h - sigma_i h) / (x_{i+1} - x_i)
    with h = a * U^-1 where F(x_{i+1}, chi(x_i)) = (x_{i+1} - x_i) * U.  The
    product h is taken in the flag ring, so it is reduced before the
    quotient; that is exact because the antisymmetrized quotient is linear
    over symmetric elements and so maps the ideal into itself.
    """
    return _antisymmetrize(ctx, i, ctx.own(a, i) * _op_pack(ctx, i))


def divided_diff_dual(ctx: FlagContext, i: int, a: FlagElem,
                      top: int | None = None) -> FlagElem:
    """The companion operator (1 / F(x_{i+1}, chi(x_i))) (1 - sigma_i),
    through x-degree ``top`` (default d, the whole image).

    The antisymmetrized quotient (a - sigma_i a) / (x_{i+1} - x_i) is reduced
    first and then multiplied by U^-1 in the flag ring, keeping only the
    products of degree at most ``top``.  Reduction keeps x-degree and U^-1
    has no negative degrees, so this is exactly the image's part of degree
    at most ``top``, and it reads ``a`` only through degree top + 1.  In the
    additive specialization the operator coincides with divided_diff; in
    general it differs and carries the Chevalley coefficients.
    """
    return _antisymmetrize(ctx, i, ctx.own(a, i)).times(
        _op_pack(ctx, i), ctx.d if top is None else top)


def _x_key(n: int, k: int) -> tuple[int, ...]:
    """The exponent vector of x_k at rank n."""
    return (0,) * (k - 1) + (1,) + (0,) * (n - k)


def _linear_read(terms, n: int, k: int, l: int) -> CoeffPoly:
    """terms[x_l] - terms[x_k], from a mapping of exponent vectors,
    canonical or not."""
    zero = CoeffPoly.zero()
    return terms.get(_x_key(n, l), zero) - terms.get(_x_key(n, k), zero)


def dual_constant_term(ctx: FlagContext, i: int, a: FlagElem) -> CoeffPoly:
    """The constant term of divided_diff_dual(ctx, i, a), read as
    a[x_{i+1}] - a[x_i] from the degree-1 part of a.

    Reduction keeps x-degree and U^-1 has constant term 1, so this is the
    constant term of (a - sigma_i a) / (x_{i+1} - x_i); the numerator's
    degree-1 part is (a[x_{i+1}] - a[x_i]) (x_{i+1} - x_i), and no other
    part of it reaches degree 0.
    """
    return _linear_read(ctx.own(a, i).terms, ctx.n, i, i + 1)


def dual_constant_terms_after(ctx: FlagContext, i: int, j: int,
                              a: FlagElem) -> tuple[CoeffPoly, ...]:
    """The constant terms of divided_diff_dual(ctx, i, a), and of
    divided_diff_dual(ctx, j, c) for c = divided_diff_dual(ctx, i, a) and
    for c = sigma_op(ctx, i, a), in that order, with no product by U^-1,
    no swap and no reduction.  They depend only on the part of ``a``
    through degree 2, and a caller may pass just that.

    All three are degree-1 reads L_j(c) = c[x_{j+1}] - c[x_j]
    (``dual_constant_term``), the first L_i(a).  L_j kills x_1 + ... + x_n,
    the one relation of degree 1, so it may read a linear form before
    reduction.  The swap keeps degree and relabels: L_j(sigma_i a) =
    a[x_{s(j+1)}] - a[x_{s(j)}] with s the transposition of i and i + 1.
    The dual operator is q * U^-1 with q the antisymmetrized quotient of a,
    which lowers degree by exactly 1, and U^-1 has constant term 1, so the
    degree-1 part of the product is q_1 + q_0 (U^-1)_1: q_0 = L_i(a), and
    q_1 is the classical divided difference of the degree-2 part of a, read
    unreduced.
    """
    a, n = ctx.own(a, i, j), ctx.n
    own_read = _linear_read(a.terms, n, i, i + 1)
    signs = {_x_key(n, j + 1): 1, _x_key(n, j): -1}
    removed = sum_of_products(itertools.chain(
        ((0, coeff, sign * signs[key]) for key, coeff, sign
         in divided_difference_terms(a.terms, i, i - 1) if key in signs),
        [(0, own_read, _linear_read(_op_pack(ctx, i).terms, n, j, j + 1))]))
    swap = {i: i + 1, i + 1: i}
    kept = _linear_read(a.terms, n, swap.get(j, j), swap.get(j + 1, j + 1))
    return own_read, removed.get(0, CoeffPoly.zero()), kept
