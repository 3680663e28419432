"""The universal formal group law and its Chow and K-theory images.

The law is built through the logarithm log(t) = t + sum b_i t^(i+1) / (i+1)
over the rationalized coefficient ring, which pins the standard coefficients
a_11 = -b1 and a_12 = a_21 = b1^2 - b2.  Its Chow and K-theory images, the
additive law u + v and the multiplicative law u + v - beta u v, are the same
construction with b_i replaced by beta^i (beta = 0 for Chow), so they are
built with rational coefficients directly.  Over the rationals log is an
isomorphism onto the additive law, so F(u, v) = exp(log u + log v) and
chi(u) = exp(-log u); q with F = u + v - u*v*q is read off F's coefficients.

The flag ring reads only log and exp (``log_and_exp``): ``c1_weight`` sums
log's terms in one reduction and evaluates exp at the sum.  The operators
in ``weylops`` read the inverse unit U^-1 of F(y1, chi(y2)) =
exp(log y1 - log y2) = (y1 - y2) * U (``unit_inverse``) through degree
2n - 3 at rank n, as ``weylops._op_pack`` proves.  ``build_universal_fgl``
adds F, chi and q, for the ``fgl`` command and the checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from cobschub.ringcore import (
    CoeffPoly,
    InternalError,
    TruncSeries,
    UsageError,
    compose,
    divide_by_linear,
    series_invert_unit,
    series_reverse,
)


PAIR_VARS = ("y1", "y2")


class FGLData(NamedTuple):
    """The formal group law truncated at total degree ``degree_cap``.

    ``F`` lives in variables (u, v), ``chi`` in u, ``log`` and ``exp`` in t.
    ``q`` is determined by F(u, v) = u + v - u*v*q(u, v), so its stored
    terms are exact through degree_cap - 2.
    """

    degree_cap: int
    log: TruncSeries
    exp: TruncSeries
    F: TruncSeries
    chi: TruncSeries
    q: TruncSeries


def log_and_exp(D: int, beta: Fraction | None = None):
    """The law's logarithm and its compositional inverse exp, truncated at
    degree D.

    log(t) = t + sum_{i>=1} (c_i / (i+1)) t^(i+1).  With ``beta`` None,
    c_i = b_i and the law is universal.  A rational ``beta`` gives
    c_i = beta^i, the image of the universal law under b_i -> beta^i: the
    multiplicative law F = u + v - beta u v of K-theory, and at beta = 0
    the additive law F = u + v of the Chow ring.
    """
    if D < 1:
        raise UsageError("the degree cap must be at least 1")
    log_terms = {(1,): CoeffPoly.one()}
    for i in range(1, D):
        c = CoeffPoly.b(i) if beta is None else CoeffPoly.rational(beta**i)
        log_terms[(i + 1,)] = c * Fraction(1, i + 1)
    log = TruncSeries(("t",), D, log_terms)
    return log, series_reverse(log)


def _exp_of_logs(log, exp, vars, cap, sign):
    """exp(log a + sign * log b), the sum written term by term, over the two
    variables (a, b) named by ``vars``, at ``cap``: F(a, b) for sign 1 and
    F(a, chi(b)) for sign -1."""
    logs = {}
    for (k,), l_k in log.terms.items():
        logs[k, 0] = l_k
        logs[0, k] = l_k if sign > 0 else -l_k
    exp = TruncSeries(exp.vars, cap, exp.terms)
    return compose(exp, [TruncSeries(vars, cap, logs)])


def unit_inverse(log, exp, top: int) -> TruncSeries:
    """The inverse unit U^-1 over (y1, y2) at cap ``top``, exact through
    that degree, where x_loc = F(y1, chi(y2)) = (y1 - y2) * U.

    U is one degree below x_loc, so x_loc = exp(log y1 - log y2) is built
    at cap top + 1 (UsageError if log or exp stops below it), divided by
    y1 - y2 with its remainder check, and U, checked to have constant
    term 1, is cut to cap top before it is inverted.  The
    antisymmetrization also rests on swap(x_loc) = chi(x_loc), which the
    selftest's ``law-axioms`` check tests, not every context.  Renaming
    y1, y2 to any two flag variables keeps both identities, so they hold
    for the operators of every rank, which read top = 2n - 3
    (``weylops._op_pack``).
    """
    cap = top + 1
    if min(log.cap, exp.cap) < cap:
        raise UsageError(
            f"a pack through degree {top} needs log and exp through degree "
            f"{cap}, not {log.cap} and {exp.cap}")
    unit = divide_by_linear(_exp_of_logs(log, exp, PAIR_VARS, cap, -1), 0, 1)
    if unit.constant_term() != CoeffPoly.one():
        raise InternalError("x_loc / (y1 - y2) is not a unit with constant 1")
    return series_invert_unit(TruncSeries(PAIR_VARS, top, unit.terms))


def build_universal_fgl(D: int, beta: Fraction | None = None) -> FGLData:
    """Construct the formal group law truncated at total degree D, with
    log and exp from ``log_and_exp``, F(u, v) = exp(log u + log v) and
    chi(u) = exp(-log u)."""
    log, exp = log_and_exp(D, beta)
    pair = ("u", "v")
    F = _exp_of_logs(log, exp, pair, D, 1)
    chi = compose(exp, [TruncSeries(("u",), D, (-log).terms)])

    # u + v - F = u*v*q, so q_{i-1,j-1} = -a_ij
    u, v = (TruncSeries.variable(pair, D, name) for name in pair)
    q_terms = {}
    for (i, j), coeff in (u + v - F).terms.items():
        if not (i and j):
            raise InternalError(f"u*v does not divide the term u^{i} v^{j}")
        q_terms[(i - 1, j - 1)] = coeff
    q = TruncSeries._raw(pair, D, q_terms)
    return FGLData(D, log, exp, F, chi, q)
