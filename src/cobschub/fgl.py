"""The universal formal group law and its Chow and K-theory images.

The law is built through the logarithm log(t) = t + sum b_i t^(i+1) / (i+1)
over the rationalized coefficient ring, which pins the standard coefficients
a_11 = -b1 and a_12 = a_21 = b1^2 - b2.  Its Chow and K-theory images, the
additive law u + v and the multiplicative law u + v - beta u v, are the same
construction with b_i replaced by beta^i (beta = 0 for Chow), so they are
built with rational coefficients directly.  The inverse chi is an exact
compositional inverse, and the series q with F(u, v) = u + v - u*v*q(u, v)
is read off the coefficients of F, never from formal fraction manipulation.

The divided-difference operators live in ``weylops``; the law gives them
their one law-dependent part, the inverse unit U^-1 of
F(y1, chi(y2)) = (y1 - y2) * U (``FGLData.pair_pack``), built only through
the degree its reader names.  The operators of a rank-n flag ring read it
through 2n - 3 (``weylops._op_pack`` proves that nothing above survives),
which takes the law through 2n - 2.
"""

from __future__ import annotations

from fractions import Fraction

from cobschub.ringcore import (
    CoeffPoly,
    InternalError,
    TruncSeries,
    UsageError,
    compose,
    divide_by_linear,
    series_invert_unit,
    series_reverse,
    sum_of_products,
)


PAIR_VARS = ("y1", "y2")


class FGLData:
    """Container for the universal formal group law at a fixed degree cap.

    ``F`` lives in variables (u, v), ``chi`` in u, ``log`` and ``exp`` in t.
    ``q`` is determined by F(u, v) = u + v - u*v*q(u, v), so its stored
    terms are exact through degree_cap - 2.  The law never changes after
    construction; its one cache, the operator packs, holds one pack per
    degree asked of ``pair_pack`` and lives as long as the law.
    """

    __slots__ = ("degree_cap", "log", "exp", "F", "chi", "q", "_pair_packs")

    def __init__(self, degree_cap, log, exp, F, chi, q):
        self.degree_cap = degree_cap
        self.log = log
        self.exp = exp
        self.F = F
        self.chi = chi
        self.q = q
        self._pair_packs: dict[int, TruncSeries] = {}

    def pair_pack(self, top: int) -> TruncSeries:
        """The inverse unit U^-1 over (y1, y2) at cap ``top``, exact through
        that degree, where x_loc = F(y1, chi(y2)) = (y1 - y2) * U; built on
        first use and kept, one pack per ``top``.

        U is one degree below x_loc, so x_loc is built at cap top + 1
        (UsageError if the law stops below it), divided by y1 - y2 with its
        remainder check, and U is cut to cap top before it is inverted.
        x_loc takes one kernel merge: its coefficient of y1^a y2^c is the
        sum of a_ab [t^c] chi(t)^b over the terms a_ab u^a v^b of F, read
        off the one-variable powers of chi, so no series in two variables
        is multiplied.  U must have constant term 1, which is checked here.
        The antisymmetrization route also rests on the law identity
        swap(x_loc) = chi(x_loc); the ``law-axioms`` check of the selftest
        registry tests it, so it runs in tier-1 and in ``selftest``, not on
        every law.  Renaming y1, y2 to any two flag variables keeps both
        identities, so they hold for the operators of every rank.  The
        operators of rank n ask for top = 2n - 3 (``weylops._op_pack``).
        """
        if top + 1 > self.degree_cap:
            raise UsageError(
                f"a pack through degree {top} needs a law of cap at least "
                f"{top + 1}, not {self.degree_cap}")
        pack = self._pair_packs.get(top)
        if pack is None:
            cap = top + 1
            chi = TruncSeries(self.chi.vars, cap, self.chi.terms)
            chi_powers = [TruncSeries.one(chi.vars, cap)]
            for _ in range(cap):
                chi_powers.append(chi_powers[-1] * chi)
            x_loc = TruncSeries._raw(PAIR_VARS, cap, sum_of_products(
                ((a, c), coeff, value)
                for (a, b), coeff in self.F.terms.items() if a + b <= cap
                for (c,), value in chi_powers[b].terms.items()
                if a + c <= cap))
            unit = divide_by_linear(x_loc, 0, 1)
            if unit.constant_term() != CoeffPoly.one():
                raise InternalError(
                    "x_loc / (y1 - y2) is not a unit with constant 1")
            pack = self._pair_packs[top] = series_invert_unit(
                TruncSeries(PAIR_VARS, top, unit.terms))
        return pack

    def __repr__(self):
        return f"FGLData(degree_cap={self.degree_cap})"


def build_universal_fgl(D: int, beta: Fraction | None = None) -> FGLData:
    """Construct the formal group law truncated at total degree D.

    log(t) = t + sum_{i>=1} (c_i / (i+1)) t^(i+1), exp is its compositional
    inverse, F(u, v) = exp(log u + log v) and chi(u) = exp(-log u).  With
    ``beta`` None, c_i = b_i and the law is universal.  A rational ``beta``
    gives c_i = beta^i, the image of the universal law under b_i -> beta^i:
    the multiplicative law F = u + v - beta u v of K-theory, and at beta = 0
    the additive law F = u + v of the Chow ring.
    """
    if D < 1:
        raise UsageError("the degree cap must be at least 1")
    log_terms = {(1,): CoeffPoly.one()}
    for i in range(1, D):
        c = CoeffPoly.b(i) if beta is None else CoeffPoly.rational(beta**i)
        log_terms[(i + 1,)] = c * Fraction(1, i + 1)
    log = TruncSeries(("t",), D, log_terms)
    exp = series_reverse(log)

    pair = ("u", "v")
    u = TruncSeries.variable(pair, D, "u")
    v = TruncSeries.variable(pair, D, "v")
    log_u = compose(log, [u])
    log_v = compose(log, [v])
    F = compose(exp, [log_u + log_v])

    u1 = TruncSeries.variable(("u",), D, "u")
    chi = compose(exp, [-compose(log, [u1])])

    # u + v - F = u*v*q, so q_{i-1,j-1} = -a_ij
    q_terms = {}
    for (i, j), coeff in (u + v - F).terms.items():
        if not (i and j):
            raise InternalError(f"u*v does not divide the term u^{i} v^{j}")
        q_terms[(i - 1, j - 1)] = coeff
    q = TruncSeries._raw(pair, D, q_terms)
    return FGLData(D, log, exp, F, chi, q)
