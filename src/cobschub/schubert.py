"""Bott-Samelson classes, products with them, and the basis expansion.

A word of simple-root indices names the class obtained by folding the
divided-difference operators over the point class, first letter innermost.
The operators obey a twisted Leibniz rule, g A_i(h) = A_i(sigma_i(g) h) +
D_i(g) h for every element g, with D_i the dual divided difference
(Bressler-Evens 1990), and g times the point class is g's constant term
times it.  So any element times Z_word expands over the subwords of the
word along one walk of operator strings applied to that element
(``poly_times_bs``): the Chevalley expansion is the walk started at a
first Chern class, and the product of two classes the walk started at the
left class.

The classes of the lexicographically smallest reduced words, one per
permutation, form a basis.  Each one's lowest x-degree part is a Schubert
polynomial, whose lexicographically largest monomial has coefficient 1 and
names its permutation, so an element expands over the basis by peeling off
one class per leading monomial, with no matrix to invert, and builds only
the classes it peels.
"""

from __future__ import annotations

from cobschub.ringcore import CoeffPoly, InternalError, UsageError, add_term
from cobschub.flagring import (
    FlagContext,
    FlagElem,
    Weight,
    c1_weight,
    point_class,
    validate_weight,
    validate_word,
)
from cobschub.weylops import (
    Permutation,
    Word,
    beta_sequence,
    coroot_pairing,
    divided_diff,
    dual_read,
    dual_reads_after,
    dual_step,
    reduced_word,
    swap_step,
)


class BSExpansion:
    """A finite combination sum c_K * Z_(subword K) over subwords of a word.

    Keys are tuples of kept positions (0-based, ascending) into ``word``;
    distinct position sets may carry the same letter sequence, in which case
    they name the same class and ``by_word`` merges them.  Mutable, and
    so unhashable.
    """

    __slots__ = ("word", "terms")

    def __init__(self, word: Word,
                 terms: dict[tuple[int, ...], CoeffPoly] | None = None):
        self.word = word
        self.terms = {} if terms is None else terms

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.word, self.terms) == (other.word, other.terms)

    def __repr__(self):
        return f"BSExpansion(word={self.word!r}, terms={self.terms!r})"

    def subword(self, kept: tuple[int, ...]) -> Word:
        return tuple(self.word[p] for p in kept)

    def by_word(self) -> dict[Word, CoeffPoly]:
        out: dict[Word, CoeffPoly] = {}
        for kept, coeff in self.terms.items():
            add_term(out, self.subword(kept), coeff)
        return out

    def evaluate(self, ctx: FlagContext) -> FlagElem:
        total = ctx.zero()
        for kept, coeff in self.terms.items():
            total = total + coeff * bs_class(ctx, self.subword(kept))
        return total


def bs_class(ctx: FlagContext, word) -> FlagElem:
    """The Bott-Samelson class of a word: operators folded over the point
    class with the first letter acting first; the empty word is the point."""
    word = validate_word(word, ctx.n)
    cached = ctx._bs_cache.get(word)
    if cached is not None:
        return cached
    if not word:
        result = point_class(ctx)
    else:
        result = divided_diff(ctx, word[-1], bs_class(ctx, word[:-1]))
    ctx._bs_cache[word] = result
    return result


def chevalley_coeff(ctx: FlagContext, word, positions, lam: Weight) -> CoeffPoly:
    """Coefficient of Z_(word minus positions) in c1(L(lam)) * Z_word.

    Read from a new walk of ``c1_times_bs``, so every call costs the whole
    walk; the word is checked here once, and the walk starts at
    ``c1_weight``, which checks the weight.  The empty removal set
    contributes zero.
    """
    word = validate_word(word, ctx.n)
    positions = tuple(sorted(set(positions)))
    if any(p < 0 or p >= len(word) for p in positions):
        raise UsageError(f"positions {positions!r} out of range for {word!r}")
    if not positions:
        return CoeffPoly.zero()
    kept = tuple(p for p in range(len(word)) if p not in positions)
    return _subword_walk(ctx, c1_weight(ctx, lam), word).terms.get(
        kept, CoeffPoly.zero())


def poly_times_bs(ctx: FlagContext, f: FlagElem, word) -> BSExpansion:
    """Expand f * Z_word over the subwords of ``word``, for any element f.

    Unfolding the twisted Leibniz rule (see the module docstring) one
    letter at a time from the last, the coefficient of a kept set is the
    constant term of an operator string applied to f, from the last letter
    down to the lowest removed position: the dual divided difference at
    removed positions and the swap at kept ones.  The whole word keeps f's
    constant term, which every swap preserves.

    The strings are walked depth first as one binary tree, so strings that
    agree on their higher positions share one state.  A node at position p
    reads the coefficient of the set whose lowest removed position is p
    from its state's degree-1 part (``dual_read``), so the last dual step
    of a string is never applied; a node at position 1 reads its own and
    both children's from its state (``dual_reads_after``).  So a word of
    length l >= 2 takes 2^(l-2) - 1 dual steps and as many swaps.  Each
    read is a degree-1 part, the swap keeps degree, and the dual step reads
    its input one degree above its output, so a node at position p needs
    its state through degree p + 1: the root keeps f through len(word), the
    dimension of Z_word, above which f multiplies Z_word to 0, and a node
    asks for its dual child through degree p and swaps only that part.

    The word and f are checked once (``c1_times_bs``, ``chevalley_coeff``
    and ``product_bs`` check their own arguments and walk from an element
    of the context, so they go to ``_subword_walk`` directly), the root
    state is f's packed terms through len(word), and each state is a packed
    mapping made canonical only by the dual step's merges: a swapped state
    stays raw.  That is exact.  The ideal is S_n-stable and homogeneous;
    the antisymmetrized quotient, the swap, products and cuts by degree map
    it into itself; and every read vanishes on it, the constant term as
    much as the degree-1 read L_j, killing x_1 + ... + x_n.
    """
    word = validate_word(word, ctx.n)
    return _subword_walk(ctx, ctx.own(f), word)


def _subword_walk(ctx: FlagContext, f: FlagElem, word: Word) -> BSExpansion:
    # the walk of poly_times_bs on a checked word and an element of ctx; a
    # read is stored only when nonzero, and the kept prefix (0, .., p - 1) of
    # a read at position p, or of the whole word, comes from one list
    terms: dict[tuple[int, ...], CoeffPoly] = {}
    prefixes = [tuple(range(p)) for p in range(len(word) + 1)]

    def walk(pos: int, state: dict, kept_above: tuple[int, ...]):
        letter = word[pos]
        if pos == 1:
            keep0, keep_none, keep1 = dual_reads_after(ctx, letter, word[0],
                                                       state)
            if keep0:
                terms[(0,) + kept_above] = keep0
            if keep_none:
                terms[kept_above] = keep_none
            if keep1:
                terms[(1,) + kept_above] = keep1
            return
        coeff = dual_read(ctx, letter, state)
        if coeff:
            terms[prefixes[pos] + kept_above] = coeff
        if pos:
            walk(pos - 1, dual_step(ctx, letter, state, pos), kept_above)
            walk(pos - 1, swap_step(ctx, letter, state, pos),
                 (pos,) + kept_above)

    constant = f.constant_term()
    if constant:
        terms[prefixes[-1]] = constant
    if word:
        limit = len(word) + 1 << ctx.degree_shift
        walk(len(word) - 1, {m: coeff for m, coeff in f.terms.items()
                             if m < limit}, ())
    return BSExpansion(word, terms)


def c1_times_bs(ctx: FlagContext, lam: Weight, word) -> BSExpansion:
    """Expand c1(L(lam)) * Z_word over the subwords of ``word``: the walk of
    ``poly_times_bs`` started at c1(L(lam)), as a new expansion on every
    call.  The first Chern class has no constant term, so the empty word
    gives the empty expansion, and no class is built for it."""
    word = validate_word(word, ctx.n)
    validate_weight(lam, ctx.n)  # the empty word never reaches c1_weight
    if not word:
        return BSExpansion(word)
    return _subword_walk(ctx, c1_weight(ctx, lam), word)


def product_bs(ctx: FlagContext, left, right) -> BSExpansion:
    """Decompose Z_left * Z_right over the subword classes of ``right``:
    the walk of ``poly_times_bs`` started at the left class.  Swapping the
    arguments yields a different but equally valid expansion of the same
    element.

    Z_word has degree d - len(word), so the coefficient of a subword K of
    ``right`` has degree len(K) + d - len(left) - len(right).  Cobordism
    coefficients have degree at most 0 (b_i has degree -i), and the Chow
    and K-theory coefficients are their images, so when len(left) +
    len(right) < d every coefficient vanishes and the expansion is empty
    before any class is built.
    """
    left = validate_word(left, ctx.n)
    right = validate_word(right, ctx.n)
    if len(left) + len(right) < ctx.d:
        return BSExpansion(right)
    return _subword_walk(ctx, bs_class(ctx, left), right)


# ---------------------------------------------------------------------------
# Basis expansion


def _leading_monomial(terms) -> tuple[int, ...]:
    """The lexicographically largest monomial (x_1 heaviest) of the lowest
    x-degree part of nonzero terms keyed by exponent tuples."""
    return max(terms, key=lambda key: (-sum(key), key))


def _basis_permutation(lead: tuple[int, ...]) -> Permutation:
    """The w whose basis class leads with the staircase monomial ``lead``.

    Read backwards, the monomial is the Lehmer code of w * w0, the leading
    exponent of the Schubert polynomial of w (Lascoux-Schutzenberger 1982).
    Decoding takes the code's entries as positions among the values not yet
    used, and multiplying by w0 on the right reverses the one-line images.
    """
    unused = list(range(1, len(lead) + 1))
    images = [unused.pop(c) for c in reversed(lead)]
    return Permutation(reversed(images))


def expand_in_bs_basis(ctx: FlagContext, a: FlagElem) -> dict[Permutation, CoeffPoly]:
    """Write ``a`` over the basis classes of the lexicographically smallest
    reduced words.

    Unitriangular peeling: the leading monomial of the residual (the
    lexicographically largest of its lowest x-degree part) names the one
    basis class it leads (``_basis_permutation``), with coefficient 1, so
    the residual's coefficient there is that class's, and the class is
    subtracted with it.  The class's other monomials of that degree are
    smaller and the rest of it lies in higher degrees, so the leading
    monomial strictly falls, no class is used twice, and only the peeled
    classes are built.
    """
    out: dict[Permutation, CoeffPoly] = {}
    residual = ctx.own(a)
    terms = residual.exponents()
    while terms:
        lead = _leading_monomial(terms)
        w = _basis_permutation(lead)
        cls = bs_class(ctx, reduced_word(w))
        if cls.coefficient(lead) != 1:
            raise InternalError(f"basis class of {w} has coefficient "
                                f"{cls.coefficient(lead)} at {lead}, not 1")
        coeff = out[w] = terms[lead]
        residual = residual - coeff * cls
        terms = residual.exponents()
        if lead in terms:
            raise InternalError(
                f"subtracting the class of {w} left its leading monomial")
    return out


def pieri_exponents(n: int, word, lam: Weight):
    """Exponent table of the pullback of L(lam) at rank n: one row per
    position with the word minus that position and the pairing (lam, beta_j)."""
    word = validate_word(word, n)
    validate_weight(lam, n)
    betas = beta_sequence(word, n)
    out = []
    for j, beta in enumerate(betas):
        dropped = word[:j] + word[j + 1:]
        out.append((dropped, coroot_pairing(lam, beta)))
    return out
