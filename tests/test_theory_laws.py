"""Each theory computed over its own law equals the specialization of the
cobordism result.

The Chow ring is the image of cobordism under b_i -> 0, and K-theory at beta
its image under b_i -> beta^i.  Both are ring maps, and every engine step is
linear over the coefficient ring, so a context built over the specialized
law must give exactly the specialized numbers of the universal context: in
the law's series, Bott-Samelson classes, Chevalley expansions, products and
basis expansions.  beta = 0 is the Chow case.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from cobschub.fgl import build_universal_fgl
from cobschub.flagring import FlagContext, fundamental_weight, rho_weight
from cobschub.ringcore import CoeffPoly
from cobschub.schubert import (
    bs_class,
    c1_times_bs,
    expand_in_bs_basis,
    product_bs,
)

from oracles import is_reduced, specialize, words_up_to

BETAS = (Fraction(0), Fraction(2, 3), Fraction(-1, 2))
RANKS = (3, 4)
CHEVALLEY_LENGTH = {3: 3, 4: 2}


@lru_cache(maxsize=None)
def context(n, beta=None):
    return FlagContext(n, beta)


def specialized(terms, beta):
    """The image of a map to coefficients under b_i -> beta^i; the images
    that vanish are dropped, as a context never stores a zero."""
    assignment = {i: beta**i for i in range(1, 20)}
    out = {}
    for key, coeff in terms.items():
        value = specialize(coeff, assignment)
        if value:
            out[key] = CoeffPoly.rational(value)
    return out


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("cap", range(3, 9))
def test_law_series(fgl_factory, cap, beta):
    universal = fgl_factory(cap)
    law = build_universal_fgl(cap, beta)
    for name in ("log", "exp", "F", "chi", "q"):
        series = getattr(law, name)
        assert series.terms == specialized(
            getattr(universal, name).terms, beta), name


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n", RANKS)
def test_bs_class_of_every_reduced_word(n, beta):
    words = [w for w in words_up_to(n, n * (n - 1) // 2) if is_reduced(w, n)]
    for word in words:
        got = bs_class(context(n, beta), word)
        assert got.terms == specialized(bs_class(context(n), word).terms,
                                        beta), word


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n", RANKS)
def test_chevalley_expansions(n, beta):
    weights = [fundamental_weight(k, n) for k in range(1, n)] + [
        rho_weight(n)]
    for lam in weights:
        for word in words_up_to(n, CHEVALLEY_LENGTH[n]):
            got = c1_times_bs(context(n, beta), lam, word)
            expected = c1_times_bs(context(n), lam, word)
            assert got.terms == specialized(expected.terms, beta), (lam, word)


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n, left, right", [
    (3, (1, 2), (2, 1)),
    (3, (2, 1), (1, 2, 1)),
    (4, (1, 2, 1), (1, 2, 1, 3)),
])
def test_products(n, left, right, beta):
    got = product_bs(context(n, beta), left, right)
    expected = product_bs(context(n), left, right)
    assert got.terms == specialized(expected.terms, beta)


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n, word", [
    (3, (2, 1, 2)),
    (4, (2, 3, 1, 2)),
    (4, (3, 2, 1, 3, 2, 3)),
])
def test_basis_expansions(n, word, beta):
    got = expand_in_bs_basis(context(n, beta), bs_class(context(n, beta),
                                                        word))
    expected = expand_in_bs_basis(context(n), bs_class(context(n), word))
    assert got == specialized(expected, beta)
