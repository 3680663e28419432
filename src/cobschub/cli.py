"""Command-line interface.

Subcommands: bsclass, product, chevalley, fgl, expand, pieri, selftest.
Exit codes: 0 success, 1 selftest failure or stdout closed early, 2 usage
error, 3 resource cap.  Every subcommand honours ``--format``; selftest
prints one PASS/FAIL line per check as text, and one object listing the
checks as JSON.  Ranks above ``MAX_RANK``, and selftest ranks above
``MAX_SELFTEST_RANK``, exit 3 before any context is built.
JSON output is deterministic: terms are sorted, rationals are emitted as
decimal num/den strings so arbitrary precision survives serialization.

Each theory is computed over its own formal group law
(``flagring.theory_law``): cobordism over the universal law, chow over the
additive law (beta = 0) and ktheory over the multiplicative law at
``--beta``.  The contexts are cached by ``_context``, whose one-argument
form ``_context(n)`` is the cobordism context.

A value that starts with a minus sign may follow its option as a separate
argument (``--beta -1/2``, ``--weight -1,0,0``): ``main`` joins the two into
``--option=value`` before parsing, since argparse would read the value as an
option of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache

from cobschub.ringcore import CobschubError, CoeffPoly, UsageError
from cobschub.fgl import build_universal_fgl
from cobschub.flagring import THEORIES, FlagContext, Weight, theory_law
from cobschub.weylops import reduced_word, validate_word
from cobschub.schubert import (
    bs_class,
    c1_times_bs,
    expand_in_bs_basis,
    pieri_exponents,
    product_bs,
)

MAX_RANK = 6
MAX_FGL_DEGREE = 16
# selftest takes at most 0.10 s per theory at rank 4; at rank 5 it takes
# 1.9-2.2 s in cobordism and 0.67-0.70 s in ktheory, mostly in c1_weight of
# the weyl-lemma weights, and 0.04 s in chow (in-process, two runs, Python
# 3.11 pinned to one core of a shared 2-core Xeon host)
MAX_SELFTEST_RANK = 4


# the options that take a value; one that starts with "-" and a digit or a
# point is joined to its option by main
_VALUE_OPTIONS = frozenset({"--n", "--beta", "--word", "--left", "--right",
                            "--weight", "--max-degree"})
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


class ResourceCapError(CobschubError):
    """The request is beyond the configured size limits."""


@lru_cache(maxsize=4)
def _context(n: int, *law) -> FlagContext:
    return FlagContext(n, *law)


def _check_rank(n: int, cap: int = MAX_RANK) -> int:
    if n < 2:
        raise UsageError("rank must be at least 2")
    if n > cap:
        raise ResourceCapError(f"rank {n} exceeds the configured cap {cap}")
    return n


def _parse_rational(text: str) -> Fraction:
    # used as an argparse type: ValueError turns into a usage error (exit 2)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"bad rational {text!r}: zero denominator") from None


def _parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad word {text!r}; expected comma-separated "
                         "integers") from None


def _parse_weight(text: str, n: int) -> Weight:
    try:
        coords = tuple(int(part) for part in text.strip().split(","))
    except ValueError:
        raise UsageError(f"bad weight {text!r}; expected comma-separated "
                         "integers") from None
    if len(coords) != n:
        raise UsageError(f"weight must have length {n}, got {len(coords)}")
    return Weight(coords)


# ---------------------------------------------------------------------------
# Serialization


def coeff_to_json(c: CoeffPoly) -> list:
    out = []
    for key, value in sorted(c.terms.items()):
        out.append({
            "b": [[i, e] for i, e in key],
            "num": str(value.numerator),
            "den": str(value.denominator),
        })
    return out


def elem_terms_to_json(elem) -> list:
    """Terms of a flag element or a series, sorted by exponent vector."""
    return [{"x": list(key), "coeff": coeff_to_json(elem.terms[key])}
            for key in sorted(elem.terms)]


def _word_label(word) -> str:
    return ",".join(map(str, word)) if word else "e"


def expansion_to_rows(expansion) -> list:
    by_word = expansion.by_word()
    return [(word, by_word[word])
            for word in sorted(by_word, key=lambda w: (len(w), w))]


def series_to_json(series) -> dict:
    return {"vars": list(series.vars), "degree_cap": series.cap,
            "terms": elem_terms_to_json(series)}


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _rows_to_json(rows) -> list:
    return [{"subword": list(w), "coeff": coeff_to_json(c)} for w, c in rows]


def _print_rows(rows) -> None:
    if not rows:
        print("0")
    for word, coeff in rows:
        print(f"Z_[{_word_label(word)}]: {coeff}")


# ---------------------------------------------------------------------------
# Commands


def cmd_bsclass(ns) -> int:
    n = _check_rank(ns.n)
    ctx = _context(n, *theory_law(ns.theory, ns.beta))
    word = validate_word(_parse_word(ns.word), n)
    cls = bs_class(ctx, word)
    if ns.format == "json":
        _emit_json({
            "command": "bsclass", "n": n, "word": list(word),
            "theory": ns.theory, "terms": elem_terms_to_json(cls)})
    else:
        print(f"Z_[{_word_label(word)}] = {cls}")
    return 0


def cmd_product(ns) -> int:
    n = _check_rank(ns.n)
    ctx = _context(n, *theory_law(ns.theory, ns.beta))
    left = validate_word(_parse_word(ns.left), n)
    right = validate_word(_parse_word(ns.right), n)
    expansion = product_bs(ctx, left, right)
    verified = None
    if ns.verify:
        verified = expansion.evaluate(ctx) == bs_class(ctx, left) * bs_class(
            ctx, right)
    rows = expansion_to_rows(expansion)
    if ns.format == "json":
        payload = {
            "command": "product", "n": n, "left": list(left),
            "right": list(right), "theory": ns.theory,
            "terms": _rows_to_json(rows)}
        if verified is not None:
            payload["verified"] = verified
        _emit_json(payload)
    else:
        _print_rows(rows)
        if verified is not None:
            print(f"verify: {'ok' if verified else 'MISMATCH'}")
    if verified is False:
        return 1
    return 0


def cmd_chevalley(ns) -> int:
    n = _check_rank(ns.n)
    ctx = _context(n, *theory_law(ns.theory, ns.beta))
    word = validate_word(_parse_word(ns.word), n)
    lam = _parse_weight(ns.weight, n)
    expansion = c1_times_bs(ctx, lam, word)
    rows = expansion_to_rows(expansion)
    if ns.format == "json":
        _emit_json({
            "command": "chevalley", "n": n, "word": list(word),
            "weight": list(lam.coords), "theory": ns.theory,
            "terms": _rows_to_json(rows)})
    else:
        _print_rows(rows)
    return 0


def cmd_fgl(ns) -> int:
    degree = ns.max_degree
    if degree < 1:
        raise UsageError("degree must be at least 1")
    if degree > MAX_FGL_DEGREE:
        raise ResourceCapError(
            f"degree {degree} exceeds the configured cap {MAX_FGL_DEGREE}")
    fgl = build_universal_fgl(degree, *theory_law(ns.theory, ns.beta))
    if ns.format == "json":
        _emit_json({
            "command": "fgl", "degree_cap": degree, "theory": ns.theory,
            "F": series_to_json(fgl.F), "chi": series_to_json(fgl.chi),
            "q": series_to_json(fgl.q)})
    else:
        for label, series in (("F(u,v)", fgl.F), ("chi(u)", fgl.chi),
                              ("q(u,v)", fgl.q)):
            print(f"{label} = {series}")
    return 0


def cmd_expand(ns) -> int:
    n = _check_rank(ns.n)
    ctx = _context(n, *theory_law(ns.theory, ns.beta))
    word = validate_word(_parse_word(ns.word), n)
    expansion = expand_in_bs_basis(ctx, bs_class(ctx, word))
    rows = [(w, expansion[w]) for w in
            sorted(expansion, key=lambda p: (p.inversions(), p.images))]
    if ns.format == "json":
        _emit_json({
            "command": "expand", "n": n, "word": list(word),
            "theory": ns.theory,
            "classes": [{"perm": list(w.images),
                         "word": list(reduced_word(w)),
                         "coeff": coeff_to_json(c)} for w, c in rows]})
    else:
        if not rows:
            print("0")
        for w, coeff in rows:
            label = _word_label(reduced_word(w))
            print(f"Z_[{label}] (perm {list(w.images)}): {coeff}")
    return 0


def cmd_pieri(ns) -> int:
    n = _check_rank(ns.n)
    word = validate_word(_parse_word(ns.word), n)
    lam = _parse_weight(ns.weight, n)
    rows = pieri_exponents(n, word, lam)
    if ns.format == "json":
        _emit_json({
            "command": "pieri", "n": n, "word": list(word),
            "weight": list(lam.coords),
            "rows": [{"position": j + 1, "subword": list(sub),
                      "exponent": exponent}
                     for j, (sub, exponent) in enumerate(rows)]})
    else:
        for j, (sub, exponent) in enumerate(rows):
            print(f"j={j + 1}: Z_[{_word_label(sub)}] exponent {exponent}")
    return 0


def cmd_selftest(ns) -> int:
    # imported here, so that no computing command pays for the suite
    import traceback
    from cobschub.selftest import run_selftest, selftest_results

    n = _check_rank(ns.n, MAX_SELFTEST_RANK)
    if ns.format == "text":
        return 0 if run_selftest(n, ns.theory, ns.beta) else 1
    checks = []
    for name, error in selftest_results(n, ns.theory, ns.beta):
        checks.append({"name": name, "ok": error is None})
        if error is not None:
            checks[-1]["error"] = "".join(
                traceback.format_exception_only(error)).strip()
    _emit_json({"command": "selftest", "n": n, "theory": ns.theory,
                "checks": checks})
    return 0 if all(check["ok"] for check in checks) else 1


# ---------------------------------------------------------------------------
# Argument plumbing


def _add_common(parser, *, rank=True):
    if rank:
        parser.add_argument("--n", type=int, required=True,
                            help="rank of the flag variety (>= 2)")
    parser.add_argument("--theory", choices=THEORIES, default="cobordism")
    parser.add_argument("--beta", type=_parse_rational, default=Fraction(1),
                        help="rational parameter for the ktheory theory")
    parser.add_argument("--format", choices=("json", "text"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobschub",
        description="Schubert calculus in the algebraic cobordism of "
                    "complete flag varieties")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bsclass", help="canonical form of a Bott-Samelson class")
    _add_common(p)
    p.add_argument("--word", required=True,
                   help="comma-separated simple-root indices; empty for the point")
    p.set_defaults(func=cmd_bsclass)

    p = sub.add_parser("product", help="decompose a product of two classes")
    _add_common(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--verify", action="store_true",
                   help="also check the expansion against the ring product")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("chevalley",
                       help="expand c1(L(weight)) times a class")
    _add_common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--weight", required=True,
                   help="comma-separated integer weight of length n")
    p.set_defaults(func=cmd_chevalley)

    p = sub.add_parser("fgl", help="dump the truncated formal group law")
    _add_common(p, rank=False)
    p.add_argument("--max-degree", type=int, default=5,
                   help="truncation degree for the law dump")
    p.set_defaults(func=cmd_fgl)

    p = sub.add_parser("expand",
                       help="expand a class over the reduced-word basis")
    _add_common(p)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("pieri", help="exponent table of a pulled-back line bundle")
    _add_common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_pieri)

    p = sub.add_parser("selftest", help="run the built-in verification suite")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def _join_negative_values(argv) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in _VALUE_OPTIONS
                and _NEGATIVE_VALUE.match(arg)):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    ns = parser.parse_args(_join_negative_values(argv))
    try:
        code = ns.func(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): drop the rest quietly,
        # and keep the interpreter's final flush from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
