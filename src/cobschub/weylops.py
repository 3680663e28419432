"""Type-A Weyl group combinatorics and the flag-ring operators.

Permutations act on weights by permuting coordinates; words are tuples of
simple-root indices with no reducedness restriction.  The divided-difference
operators rest on the factorization F(x_{i+1}, chi(x_i)) = (x_{i+1} - x_i) * U
with U a unit.  Both are linear over symmetric elements, so they map the
ideal into itself and may act on any representative.  Each is a classical
divided difference, whose telescoping integer terms go through the normal
forms in one kernel merge, and a flag-ring product with U^-1, the
context's pack ``unit_inv`` (``fgl.unit_inverse`` checks that U has
constant term 1) read at the pair through degree 2n - 3 (``_op_pack``).
The element entries are ``divided_diff``, ``divided_diff_dual`` and
``sigma_op``; each takes its element through one ``FlagContext.own``, so
it raises UsageError for a letter outside 1..n-1 and for anything but an
element of a context with its (n, beta), and passes its packed terms (see
``FlagContext``) to the steps as they are.  The steps (``dual_step``,
``swap_step``) and reads (``dual_read``, ``dual_reads_after``) are
unchecked functions of packed mappings that also serve the walk: the swap
and the telescoping move whole fields, only merges that spread onto
normal forms make canonical terms, and a swap leaves them raw; the reads
at a position-1 node merge over a per-context table (``_read_table``).
"""

from __future__ import annotations

import itertools

from cobschub.ringcore import CoeffPoly, UsageError, sum_of_products
from cobschub.flagring import (
    FlagContext,
    FlagElem,
    Weight,
    reduce_terms,
    simple_root,
    times_terms,
    validate_weight,
    validate_word,
)

Word = tuple[int, ...]

# the value of a read that finds nothing, one for every call: a CoeffPoly is
# immutable, so callers may keep it
_ZERO = CoeffPoly.zero()


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


def _op_pack(ctx: FlagContext, i: int) -> dict:
    """U^-1 of F(x_{i+1}, chi(x_i)) as a packed mapping, kept in
    ``ctx._op_packs``: the context's pack ``unit_inv`` over (y1, y2)
    through degree 2n - 3, each term y1^a y2^b read as x_i^b x_{i+1}^a.

    The pack stops at 2n - 3 because nothing above it survives: the ideal
    is symmetric, and a permutation taking (x_i, x_{i+1}) to
    (x_{n-1}, x_n) leaves a pair whose rewrite rules h_{n-1}(x_{n-1}, x_n)
    and h_n(x_n) use no other variable.  Its staircase monomials
    x_{n-1}^(<= n-2) x_n^(<= n-1) stop at degree 2n - 3 and reduction keeps
    degree, so each pair monomial above 2n - 3 has normal form 0.  The
    bound is tight: x_{n-1}^(n-2) x_n^(n-1) is its own form.  2n - 3 <= d
    for every n >= 2.

    So only the last pack, i = n - 1, reduces ``unit_inv``; its canonical
    form N stays in (x_{n-1}, x_n), and every other pack is N moved to
    (x_i, x_{i+1}) by one shift of the two top fields, not reduced.  A
    permutation s of the variables with s(x_{n-1}) = x_i and s(x_n) =
    x_{i+1} keeps the ideal and takes the pack read at (x_{n-1}, x_n) to
    the one read at (x_i, x_{i+1}), so s(N) is congruent to the latter.
    It need not be staircase: a pack enters only products that spread
    each raw monomial onto its normal form (``times_terms``) and the read
    of ``dual_reads_after``, which kills x_1 + ... + x_n.  Callers check
    i."""
    pack = ctx._op_packs.get(i)
    if pack is None:
        if i == ctx.n - 1:
            x, y = ctx.x_keys[-2:]
            pack = reduce_terms(ctx, {b * x + a * y: coeff for (a, b), coeff
                                      in ctx.unit_inv.terms.items()})
        else:
            fields = (1 << ctx.degree_shift) - 1
            shift = ctx.field_bits * (ctx.n - 1 - i)
            pack = {(m & fields) >> shift | m & ~fields: coeff
                    for m, coeff in _op_pack(ctx, ctx.n - 1).items()}
        ctx._op_packs[i] = pack
    return pack


def _pair_fields(ctx: FlagContext, i: int) -> tuple[int, int, int, int]:
    # the shifts of x_i's and x_{i+1}'s fields, the field mask, and the move
    # of one x_i to x_{i+1}
    low, high = ctx.field_bits * (i - 1), ctx.field_bits * i
    return low, high, (1 << ctx.field_bits) - 1, (1 << high) - (1 << low)


def divided_difference_terms(ctx: FlagContext, i: int, terms):
    """The classical divided difference (a - sigma_i a) / (x_{i+1} - x_i)
    of a packed mapping a, as (key, coeff, sign) triples for
    ``sum_of_products``: a monomial with e x_i's and f x_{i+1}'s gives a
    telescoping sum of |e - f| monomials, sign +1 when f > e and -1 when
    f < e, the first the monomial with the larger exponent on x_{i+1}
    over x_{i+1}, each next one with an x_{i+1} moved back to x_i."""
    low, high, mask, move = _pair_fields(ctx, i)
    up = ctx.x_keys[i]
    for m, coeff in terms.items():
        gap = (m >> low & mask) - (m >> high & mask)
        k, sign = (m + gap * move - up, -1) if gap > 0 else (m - up, 1)
        for _ in range(abs(gap)):
            yield k, coeff, sign
            k -= move


def _antisymmetrize(ctx: FlagContext, i: int, terms) -> dict:
    """The canonical terms of the classical divided difference
    (a - sigma_i a) / (x_{i+1} - x_i) of a packed mapping a, raw or not, in
    one kernel merge that spreads each raw monomial onto its normal
    form."""
    return sum_of_products(divided_difference_terms(ctx, i, terms),
                           ctx._normal_forms)


def divided_diff(ctx: FlagContext, i: int, a: FlagElem) -> FlagElem:
    """The degree-lowering operator (1 + sigma_i) (1 / F(x_{i+1}, chi(x_i))).

    Computed as the antisymmetrized quotient (h - sigma_i h) / (x_{i+1} - x_i)
    with h = a * U^-1 where F(x_{i+1}, chi(x_i)) = (x_{i+1} - x_i) * U, h
    taken and reduced in the flag ring.
    """
    return FlagElem._raw(ctx, _antisymmetrize(ctx, i, times_terms(
        ctx, ctx.own(a, i).terms, _op_pack(ctx, i), ctx.d)))


def dual_step(ctx: FlagContext, i: int, terms, top: int) -> dict:
    """The canonical packed terms through x-degree ``top`` of the companion
    operator (1 / F(x_{i+1}, chi(x_i))) (1 - sigma_i) of a packed mapping
    a, raw or not: the antisymmetrized quotient times U^-1 in the flag
    ring.  Reduction keeps x-degree and U^-1 has no negative degrees, so
    this reads a only through degree top + 1.  In the additive
    specialization the operator is divided_diff; in general it carries the
    Chevalley coefficients."""
    return times_terms(ctx, _antisymmetrize(ctx, i, terms), _op_pack(ctx, i),
                       top)


def divided_diff_dual(ctx: FlagContext, i: int, a: FlagElem) -> FlagElem:
    """``dual_step`` of an element through degree d, its whole image."""
    return FlagElem._raw(ctx, dual_step(ctx, i, ctx.own(a, i).terms, ctx.d))


def swap_step(ctx: FlagContext, i: int, terms, top: int) -> dict:
    """The part of x-degree at most ``top`` of a packed mapping with x_i
    and x_{i+1} exchanged, not reduced: the swap keeps degree and the
    ideal, and it moves the difference of the two fields across."""
    low, high, mask, move = _pair_fields(ctx, i)
    limit = top + 1 << ctx.degree_shift
    return {m + ((m >> low & mask) - (m >> high & mask)) * move: coeff
            for m, coeff in terms.items() if m < limit}


def sigma_op(ctx: FlagContext, i: int, a: FlagElem) -> FlagElem:
    """``swap_step`` of an element, renormalized."""
    return FlagElem._raw(ctx, reduce_terms(ctx, swap_step(
        ctx, i, ctx.own(a, i).terms, ctx.d)))


def dual_read(ctx: FlagContext, i: int, terms) -> CoeffPoly:
    """The constant term of ``dual_step`` of a packed mapping a, raw or
    not, read as L_i(a) = a[x_{i+1}] - a[x_i], which kills x_1 + ... + x_n.
    Reduction keeps x-degree and U^-1 has constant term 1, so this is the
    constant term of (a - sigma_i a) / (x_{i+1} - x_i), whose numerator
    reaches degree 0 only from its degree-1 part L_i(a) (x_{i+1} - x_i).
    A read of nothing is the module's one shared zero, not a new one."""
    x = ctx.x_keys
    return terms.get(x[i], _ZERO) - terms.get(x[i - 1], _ZERO)


def _read_table(ctx: FlagContext, i: int, j: int) -> list:
    """The (read, packed monomial, weight) triples of ``dual_reads_after``
    at (i, j), kept in ``ctx._read_tables``: read 0 weighs x_i, x_{i+1} by
    L_i, read 2 by L_j after the swap, and read 1 by -+L_j(U^-1) and each
    degree-2 monomial, raw or not, by L_j of its divided difference."""
    table = ctx._read_tables.get((i, j))
    if table is None:
        x, swap = ctx.x_keys, {i: i + 1, i + 1: i}
        tilt = dual_read(ctx, j, _op_pack(ctx, i))
        weights = {(0, x[i]): 1, (0, x[i - 1]): -1, (1, x[i]): tilt,
                   (1, x[i - 1]): -tilt, (2, x[swap.get(j + 1, j + 1) - 1]): 1,
                   (2, x[swap.get(j, j) - 1]): -1}
        signs = {x[j]: 1, x[j - 1]: -1}
        squares = itertools.combinations_with_replacement(x, 2)
        for key, m, sign in divided_difference_terms(
                ctx, i, {a + b: a + b for a, b in squares}):
            if key in signs:
                weights[1, m] = weights.get((1, m), 0) + sign * signs[key]
        table = ctx._read_tables[i, j] = [
            (read, m, w) for (read, m), w in weights.items() if w]
    return table


def dual_reads_after(ctx: FlagContext, i: int, j: int,
                     terms) -> tuple[CoeffPoly, ...]:
    """The constant terms of ``dual_step`` at i of a packed mapping a, raw
    or not, and of ``dual_step`` at j of c for c that image and for c a's
    ``swap_step`` at i, in that order, with no product by U^-1, no swap and
    no reduction: one merge over ``_read_table`` that reads a to degree 2.

    All three are degree-1 reads L_j(c) = c[x_{j+1}] - c[x_j]
    (``dual_read``), the first L_i(a); L_j may read a raw linear form.
    The swap relabels: L_j(sigma_i a) = a[x_{s(j+1)}] - a[x_{s(j)}] with s
    the transposition of i and i + 1.  The dual image is q * U^-1, q the
    antisymmetrized quotient of a, of degree one less, and U^-1 has
    constant term 1, so its degree-1 part is q_1 + q_0 (U^-1)_1: q_0 =
    L_i(a), and q_1 the divided difference of a's degree-2 part, unreduced.
    A read that finds nothing is the module's one shared zero.
    """
    get = terms.get
    reads = sum_of_products((read, coeff, weight) for read, m, weight
                            in _read_table(ctx, i, j)
                            for coeff in (get(m),) if coeff is not None)
    return reads.get(0, _ZERO), reads.get(1, _ZERO), reads.get(2, _ZERO)
