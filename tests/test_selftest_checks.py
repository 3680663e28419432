"""Every selftest check at every rank 2-4 and theory that its table entry
admits, with beta = 2/3 for K-theory.  The ids carry the theory, because
``pushforward-degenerations`` names one check per theory."""

from fractions import Fraction
from functools import lru_cache

import pytest

from cobschub.flagring import FlagContext
from cobschub.selftest import CHECKS, THEORIES

BETA = {"ktheory": Fraction(2, 3)}


@lru_cache(maxsize=None)
def context(n):
    return FlagContext(n)


@pytest.mark.parametrize("check, n, theory", [
    pytest.param(check, n, theory, id=f"{check.name}-{theory}-n{n}")
    for check in CHECKS for theory in THEORIES for n in (2, 3, 4)
    if check.admits(n, theory)])
def test_selftest_check(check, n, theory):
    check.body(context(n), BETA.get(theory, Fraction(1)))
