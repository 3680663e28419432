"""Bott-Samelson classes, Chevalley coefficients, and product expansion.

A word of simple-root indices names the class obtained by folding the
divided-difference operators over the point class, first letter innermost.
The product of a first Chern class with such a class expands over subwords
with coefficients read off an operator string of dual divided differences
and swaps.  All strings of one word are walked as a single depth-first tree
that shares their common prefixes, and each string's last dual divided
difference is replaced by a read of its input's degree-1 part, which holds
the whole constant term because reduction keeps x-degree and U^-1 has
constant term 1.  Multiplying one Chern-class factor at a time decomposes
any product of two classes into the subword classes of the right factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from cobschub.ringcore import CoeffPoly, InternalError, UsageError
from cobschub.flagring import (
    FlagContext,
    FlagElem,
    Weight,
    basis_weight,
    c1_weight,
    point_class,
)
from cobschub.weylops import (
    Permutation,
    Word,
    all_permutations,
    beta_sequence,
    coroot_pairing,
    divided_diff,
    divided_diff_dual,
    reduced_word,
    sigma_op,
    validate_word,
)


@dataclass
class BSExpansion:
    """A finite combination sum c_K * Z_(subword K) over subwords of a word.

    Keys are tuples of kept positions (0-based, ascending) into ``word``;
    distinct position sets may carry the same letter sequence, in which case
    they name the same class and ``by_word`` merges them.
    """

    word: Word
    terms: dict[tuple[int, ...], CoeffPoly] = field(default_factory=dict)

    def subword(self, kept: tuple[int, ...]) -> Word:
        return tuple(self.word[p] for p in kept)

    def is_zero(self) -> bool:
        return not self.terms

    def by_word(self) -> dict[Word, CoeffPoly]:
        out: dict[Word, CoeffPoly] = {}
        for kept, coeff in self.terms.items():
            key = self.subword(kept)
            total = out.get(key)
            total = coeff if total is None else total + coeff
            if total:
                out[key] = total
            else:
                out.pop(key, None)
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


def _dual_constant_term(i: int, a: FlagElem) -> CoeffPoly:
    """The constant term of divided_diff_dual(ctx, i, a), read as
    a[x_{i+1}] - a[x_i] from the degree-1 part of a.

    Reduction keeps x-degree and U^-1 has constant term 1, so this is the
    constant term of (a - sigma_i a) / (x_{i+1} - x_i); the numerator's
    degree-1 part is (a[x_{i+1}] - a[x_i]) (x_{i+1} - x_i), and no other
    part of it reaches degree 0.
    """
    n = a.ctx.n  # the exponent vector of x_j is the coordinates of e_j
    return (a.coefficient(basis_weight(i + 1, n).coords)
            - a.coefficient(basis_weight(i, n).coords))


def chevalley_coeff(ctx: FlagContext, word, positions, lam: Weight) -> CoeffPoly:
    """Coefficient of Z_(word minus positions) in c1(L(lam)) * Z_word.

    A lookup into the expansion of ``c1_times_bs``, so the first call for a
    weight and word costs the whole expansion.  The empty removal set
    contributes zero.
    """
    word = validate_word(word, ctx.n)
    positions = tuple(sorted(set(positions)))
    if any(p < 0 or p >= len(word) for p in positions):
        raise UsageError(f"positions {positions!r} out of range for {word!r}")
    if not positions:
        return CoeffPoly.zero()
    kept = tuple(p for p in range(len(word)) if p not in positions)
    return c1_times_bs(ctx, lam, word).terms.get(kept, CoeffPoly.zero())


def c1_times_bs(ctx: FlagContext, lam: Weight, word) -> BSExpansion:
    """Expand c1(L(lam)) * Z_word over the subwords of ``word``.

    The coefficient of a removal set is the constant term of an operator
    string applied to c1(L(lam)), from the last letter down to the lowest
    removed position: the dual divided difference at removed positions and
    the swap at kept ones.  The strings are walked depth first as one binary
    tree, so strings that agree on their higher positions share one state.
    A node at position p reads the coefficient of the set whose lowest
    removed position is p from its state's degree-1 part
    (``_dual_constant_term``), so the last dual divided difference of a
    string is never applied; a word of length l takes 2^(l-1) - 1 dual
    divided differences and as many swaps.
    """
    word = validate_word(word, ctx.n)
    key = (lam.coords, word)
    cached = ctx._c1bs_cache.get(key)
    if cached is not None:
        return cached
    terms: dict[tuple[int, ...], CoeffPoly] = {}

    def walk(pos: int, state: FlagElem, kept_above: tuple[int, ...]):
        letter = word[pos]
        coeff = _dual_constant_term(letter, state)
        if coeff:
            terms[tuple(range(pos)) + kept_above] = coeff
        if pos:
            walk(pos - 1, divided_diff_dual(ctx, letter, state), kept_above)
            walk(pos - 1, sigma_op(ctx, letter, state), (pos,) + kept_above)

    if word:
        walk(len(word) - 1, c1_weight(ctx, lam), ())
    result = BSExpansion(word, terms)
    ctx._c1bs_cache[key] = result
    return result


def poly_times_bs(ctx: FlagContext, f: FlagElem, word) -> BSExpansion:
    """Expand f * Z_word for any ring element f.

    Every canonical monomial of f is a product of the classes x_i, each of
    which is the first Chern class of a weight line; the factors multiply
    into the running expansion one at a time (ascending variable order), and
    the constant part of f scales Z_word directly.
    """
    word = validate_word(word, ctx.n)
    if not ctx.compatible(f.ctx):
        raise UsageError("element context does not match")
    full = tuple(range(len(word)))
    acc: dict[tuple[int, ...], CoeffPoly] = {}
    for exponents in sorted(f.terms):
        coeff = f.terms[exponents]
        running: dict[tuple[int, ...], CoeffPoly] = {full: coeff}
        for i, e in enumerate(exponents, start=1):
            lam = -basis_weight(i, ctx.n)  # x_i = c1(L(-e_i))
            for _ in range(e):
                stepped: dict[tuple[int, ...], CoeffPoly] = {}
                for kept, value in running.items():
                    sub = c1_times_bs(ctx, lam, tuple(word[p] for p in kept))
                    for sub_kept, sub_coeff in sub.terms.items():
                        abs_kept = tuple(kept[p] for p in sub_kept)
                        total = stepped.get(abs_kept)
                        piece = value * sub_coeff
                        total = piece if total is None else total + piece
                        if total:
                            stepped[abs_kept] = total
                        else:
                            stepped.pop(abs_kept, None)
                running = stepped
        for kept, value in running.items():
            total = acc.get(kept)
            total = value if total is None else total + value
            if total:
                acc[kept] = total
            else:
                acc.pop(kept, None)
    return BSExpansion(word, acc)


def product_bs(ctx: FlagContext, left, right) -> BSExpansion:
    """Decompose Z_left * Z_right over the subword classes of ``right``.

    The left factor is replaced by its polynomial and distributed across the
    right word; swapping the arguments yields a different but equally valid
    expansion of the same element.
    """
    left = validate_word(left, ctx.n)
    right = validate_word(right, ctx.n)
    return poly_times_bs(ctx, bs_class(ctx, left), right)


# ---------------------------------------------------------------------------
# Basis expansion


def _invert_exact(matrix: list[list[Fraction]]):
    """Inverse plus determinant over the rationals, by fraction-free
    Gauss-Jordan elimination (Bareiss 1968) on [M | I] in integers.

    M is first scaled to an integer matrix.  Each step replaces every other
    row r by (p * r - f * pivot row) / p_prev, where p is the pivot, f the
    row's entry in the pivot column and p_prev the previous pivot; the
    division is exact, since every entry stays a minor of the augmented
    matrix.  Swapping two rows or negating the pivot row keeps that true and
    only flips the sign of the determinant; the pivot row is negated when
    p = -p_prev, so that the step reduces to r - (f / p_prev) * pivot row on
    the pivot row's nonzero entries.  After the last column the left block
    is D * I and the right block D * M^-1, with D the determinant up to
    sign.  The leading blocks of the basis are unimodular, so D is 1 there
    and the inverse is integer.
    """
    size = len(matrix)
    scale = math.lcm(*(v.denominator for row in matrix for v in row))
    work = [[v.numerator * (scale // v.denominator) for v in row]
            + [int(i == j) for j in range(size)]
            for i, row in enumerate(matrix)]
    prev, sign = 1, 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if work[r][col]), None)
        if pivot is None:
            raise InternalError("leading transition matrix is singular")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        top = work[col]
        p = top[col]
        if p == -prev:
            top = work[col] = [-v for v in top]
            p, sign = prev, -sign
        support = [(j, b) for j, b in enumerate(top) if b]
        for r, row in enumerate(work):
            f = row[col]
            if r == col or (not f and p == prev):
                continue
            if p == prev:
                for j, b in support:
                    row[j] -= f * b // prev
            else:
                work[r] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
    if scale == 1 and prev == 1:
        inverse = [row[size:] for row in work]
    else:
        inverse = [[Fraction(v * scale, prev) for v in row[size:]]
                   for row in work]
    return inverse, Fraction(sign * prev, scale**size)


def _chow_leading(ctx: FlagContext, elem: FlagElem, xdeg: int) -> dict:
    out = {}
    for key, coeff in elem.terms.items():
        if sum(key) != xdeg:
            continue
        value = coeff.constant()  # degree-0 part of the coefficient
        if value:
            out[key] = value
    return out


def _basis_data(ctx: FlagContext):
    """Per-degree blocks for the basis of lexicographically smallest reduced
    words: member permutations, canonical monomials, and the inverse of the
    integer matrix of leading parts."""
    if ctx._basis_cache is not None:
        return ctx._basis_cache
    perms = sorted(all_permutations(ctx.n), key=lambda w: w.images)
    strata: dict[int, list[Permutation]] = {}
    for w in perms:
        xdeg = ctx.d - w.inversions()
        strata.setdefault(xdeg, []).append(w)

    def monomials(total):
        keys = []

        def rec(pos, remaining, prefix):
            if pos == ctx.n:
                if remaining == 0:
                    keys.append(tuple(prefix))
                return
            for e in range(min(pos, remaining) + 1):
                rec(pos + 1, remaining - e, prefix + [e])
        rec(0, total, [])
        return sorted(keys)

    blocks = {}
    for xdeg, members in sorted(strata.items()):
        monos = monomials(xdeg)
        if len(monos) != len(members):
            raise InternalError(
                f"stratum size mismatch at degree {xdeg}: "
                f"{len(monos)} monomials vs {len(members)} classes")
        index = {m: i for i, m in enumerate(monos)}
        matrix = [[Fraction(0)] * len(members) for _ in monos]
        for col, w in enumerate(members):
            cls = bs_class(ctx, reduced_word(w))
            leading = _chow_leading(ctx, cls, xdeg)
            for key, value in leading.items():
                matrix[index[key]][col] = value
        inverse, det = _invert_exact(matrix)
        blocks[xdeg] = (members, monos, inverse, det)
    ctx._basis_cache = blocks
    return blocks


def bs_basis_determinants(ctx: FlagContext) -> dict[int, Fraction]:
    """Determinants of the per-degree leading transition blocks; the basis
    property demands each to be a unit of the integers."""
    return {xdeg: det for xdeg, (_, _, _, det) in _basis_data(ctx).items()}


def expand_in_bs_basis(ctx: FlagContext, a: FlagElem) -> dict[Permutation, CoeffPoly]:
    """Write ``a`` over the basis classes of the chosen reduced words.

    Graded peeling: the lowest x-degree component of the residual is matched
    against the integer leading parts of the degree's basis classes, the
    full classes are subtracted, and the residual's minimum degree strictly
    climbs until nothing is left.
    """
    if not ctx.compatible(a.ctx):
        raise UsageError("element context does not match")
    blocks = _basis_data(ctx)
    out: dict[Permutation, CoeffPoly] = {}
    residual = a
    while not residual.is_zero():
        k = residual.min_xdegree()
        if k not in blocks:
            raise InternalError(f"residual stuck at degree {k}")
        members, monos, inverse, _ = blocks[k]
        vector = [residual.terms.get(m, CoeffPoly.zero()) for m in monos]
        subtract = ctx.zero()
        for col, w in enumerate(members):
            coeff = CoeffPoly.zero()
            for row, value in enumerate(vector):
                if value and inverse[col][row]:
                    coeff = coeff + value * inverse[col][row]
            if coeff:
                out[w] = out.get(w, CoeffPoly.zero()) + coeff
                subtract = subtract + coeff * bs_class(ctx, reduced_word(w))
        new_residual = residual - subtract
        new_min = new_residual.min_xdegree()
        if new_min is not None and new_min <= k:
            raise InternalError("graded peeling did not lower the residual")
        residual = new_residual
    return {w: c for w, c in out.items() if c}


def pieri_exponents(n: int, word, lam: Weight):
    """Exponent table of the pullback of L(lam) at rank n: one row per
    position with the word minus that position and the pairing (lam, beta_j)."""
    word = validate_word(word, n)
    betas = beta_sequence(word, n)
    out = []
    for j, beta in enumerate(betas):
        dropped = word[:j] + word[j + 1:]
        out.append((dropped, coroot_pairing(lam, beta)))
    return out
