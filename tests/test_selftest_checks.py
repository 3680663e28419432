"""Every selftest check at every rank 2-6 and theory that its table entry
admits, with beta = 2/3 for K-theory, on the context of the theory's own law
that ``selftest_results`` builds.  The ids carry the theory, because one
entry may run in several theories (``pushforward-degenerations`` runs in
chow and ktheory)."""

from fractions import Fraction
from functools import lru_cache

import pytest

from cobschub import selftest
from cobschub.flagring import THEORIES, FlagContext, theory_law
from cobschub.selftest import CHECKS, selftest_results

BETA = {"ktheory": Fraction(2, 3)}


def beta_of(theory):
    return BETA.get(theory, Fraction(1))


@lru_cache(maxsize=None)
def context(n, theory):
    return FlagContext(n, *theory_law(theory, beta_of(theory)))


@pytest.mark.parametrize("check, n, theory", [
    pytest.param(check, n, theory, id=f"{check.name}-{theory}-n{n}")
    for check in CHECKS for theory in THEORIES for n in range(2, 7)
    if check.admits(n, theory)])
def test_selftest_check(check, n, theory):
    check.body(context(n, theory))


@pytest.mark.parametrize("theory", THEORIES)
def test_selftest_runs_each_theory_over_its_own_law(monkeypatch, theory):
    built = []

    def record(*args):
        built.append(args)
        return context(args[0], theory)

    monkeypatch.setattr(selftest, "FlagContext", record)
    assert all(error is None
               for _, error in selftest_results(2, theory, beta_of(theory)))
    assert built == [(2, *theory_law(theory, beta_of(theory)))]


@pytest.mark.parametrize("theory", THEORIES)
def test_selftest_builds_the_law_once_per_run(theory):
    # law-coefficients, law-axioms, operator-properties and the additive
    # and multiplicative law checks all read the whole law
    selftest._law_at.cache_clear()
    assert all(error is None
               for _, error in selftest_results(3, theory, beta_of(theory)))
    info = selftest._law_at.cache_info()
    assert info.misses == 1 and info.hits >= 2, info
