"""Command-line interface.

Subcommands: bsclass, product, chevalley, fgl, expand, pieri, selftest.
Exit codes: 0 success, 1 selftest failure or stdout closed early, 2 usage
error, 3 resource cap.  Every request takes one path: argparse parses a
word or weight into a tuple of ints (a malformed one exits 2 before any
context is built), ``_request_context`` checks the rank (above ``MAX_RANK``
it exits 3) and returns the cached context of the theory, the engine checks
letter ranges and weight lengths, and ``_respond`` prints the result in the
``--format`` asked for, building only that one.  JSON output is
deterministic: terms are sorted, rationals are emitted as decimal num/den
strings in lowest terms, read from the packed numerators with no Fraction,
so arbitrary precision survives serialization.  One encoder writes every
object: a payload is a fresh tree that its command builds, so it holds no
cycle and the encoder runs no cycle check, and the engine's tuples (words,
weights, exponent vectors, b-monomials) go in as they are, since the
encoder writes a tuple as the array a list would give.  selftest runs the
checks its table admits at the rank and then prints one PASS/FAIL line per
check, or one object listing the checks.

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
from cobschub.weylops import reduced_word
from cobschub.schubert import (
    bs_class,
    c1_times_bs,
    expand_in_bs_basis,
    pieri_exponents,
    product_bs,
)

MAX_RANK = 6
MAX_FGL_DEGREE = 16
# one encoder for every request, where json.dumps builds one per call; each
# payload is a new tree with no cycle, so there is none to check for, and a
# tuple in it is written as an array
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            check_circular=False)


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


def _check_rank(n: int) -> int:
    if n < 2:
        raise UsageError("rank must be at least 2")
    if n > MAX_RANK:
        raise ResourceCapError(
            f"rank {n} exceeds the configured cap {MAX_RANK}")
    return n


def _request_context(ns) -> FlagContext:
    """The cached context of the request's theory at its checked rank."""
    return _context(_check_rank(ns.n), *theory_law(ns.theory, ns.beta))


def _parse_rational(text: str) -> Fraction:
    """The argparse type of ``--beta``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational number, got {text!r}") from None


def _parse_ints(text: str) -> tuple[int, ...]:
    """The argparse type of a word or a weight: comma-separated integers,
    and the empty string for the empty word."""
    text = text.strip()
    try:
        return tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# Serialization


def coeff_to_json(c: CoeffPoly) -> list:
    """Sorted terms, num/den in lowest terms from ``CoeffPoly.ratios``."""
    return [{"b": key, "num": str(num), "den": str(den)}
            for key, num, den in c.ratios()]


def elem_terms_to_json(elem) -> list:
    """Terms of a flag element or a series, sorted by exponent vector."""
    return [{"x": key, "coeff": coeff_to_json(value)}
            for key, value in sorted(elem.exponents().items())]


def _word_label(word) -> str:
    return ",".join(map(str, word)) if word else "e"


def expansion_to_rows(expansion) -> list:
    by_word = expansion.by_word()
    return [(word, by_word[word])
            for word in sorted(by_word, key=lambda w: (len(w), w))]


def series_to_json(series) -> dict:
    return {"vars": series.vars, "degree_cap": series.cap,
            "terms": elem_terms_to_json(series)}


def _emit_json(payload) -> None:
    print(_ENCODER.encode(payload))


def _respond(ns, payload, lines) -> None:
    """Print a command's result in its ``--format``, building only that
    one: ``payload()`` gives the fields of the JSON object besides
    "command", and ``lines()`` the text lines."""
    if ns.format == "json":
        _emit_json({"command": ns.command, **payload()})
    else:
        for line in lines():
            print(line)


def _rows_to_json(rows) -> list:
    return [{"subword": w, "coeff": coeff_to_json(c)} for w, c in rows]


def _row_lines(rows) -> list[str]:
    return [f"Z_[{_word_label(word)}]: {coeff}"
            for word, coeff in rows] or ["0"]


# ---------------------------------------------------------------------------
# Commands


def cmd_bsclass(ns) -> int:
    ctx = _request_context(ns)
    cls = bs_class(ctx, ns.word)
    _respond(ns, lambda: {"n": ctx.n, "word": ns.word, "theory": ns.theory,
                          "terms": elem_terms_to_json(cls)},
             lambda: [f"Z_[{_word_label(ns.word)}] = {cls}"])
    return 0


def cmd_product(ns) -> int:
    ctx = _request_context(ns)
    expansion = product_bs(ctx, ns.left, ns.right)
    checked = {}
    if ns.verify:
        checked["verified"] = expansion.evaluate(ctx) == bs_class(
            ctx, ns.left) * bs_class(ctx, ns.right)
    rows = expansion_to_rows(expansion)
    _respond(ns, lambda: {"n": ctx.n, "left": ns.left,
                          "right": ns.right, "theory": ns.theory,
                          "terms": _rows_to_json(rows), **checked},
             lambda: _row_lines(rows) + [
                 f"verify: {'ok' if ok else 'MISMATCH'}"
                 for ok in checked.values()])
    return 1 if checked.get("verified") is False else 0


def cmd_chevalley(ns) -> int:
    ctx = _request_context(ns)
    rows = expansion_to_rows(c1_times_bs(ctx, Weight(ns.weight), ns.word))
    _respond(ns, lambda: {"n": ctx.n, "word": ns.word,
                          "weight": ns.weight, "theory": ns.theory,
                          "terms": _rows_to_json(rows)},
             lambda: _row_lines(rows))
    return 0


def cmd_fgl(ns) -> int:
    degree = ns.max_degree
    if degree > MAX_FGL_DEGREE:
        raise ResourceCapError(
            f"degree {degree} exceeds the configured cap {MAX_FGL_DEGREE}")
    fgl = build_universal_fgl(degree, *theory_law(ns.theory, ns.beta))
    series = (("F", "F(u,v)", fgl.F), ("chi", "chi(u)", fgl.chi),
              ("q", "q(u,v)", fgl.q))
    _respond(ns, lambda: {"degree_cap": degree, "theory": ns.theory,
                          **{key: series_to_json(s) for key, _, s in series}},
             lambda: [f"{label} = {s}" for _, label, s in series])
    return 0


def cmd_expand(ns) -> int:
    ctx = _request_context(ns)
    expansion = expand_in_bs_basis(ctx, bs_class(ctx, ns.word))
    rows = [(w, reduced_word(w), expansion[w]) for w in
            sorted(expansion, key=lambda p: (p.inversions(), p.images))]
    _respond(ns, lambda: {"n": ctx.n, "word": ns.word, "theory": ns.theory,
                          "classes": [{"perm": w.images, "word": word,
                                       "coeff": coeff_to_json(c)}
                                      for w, word, c in rows]},
             lambda: [f"Z_[{_word_label(word)}] (perm {list(w.images)}): {c}"
                      for w, word, c in rows] or ["0"])
    return 0


def cmd_pieri(ns) -> int:
    n = _check_rank(ns.n)
    rows = pieri_exponents(n, ns.word, Weight(ns.weight))
    _respond(ns, lambda: {"n": n, "word": ns.word, "weight": ns.weight,
                          "rows": [{"position": j, "subword": sub,
                                    "exponent": exponent}
                                   for j, (sub, exponent)
                                   in enumerate(rows, start=1)]},
             lambda: [f"j={j}: Z_[{_word_label(sub)}] exponent {exponent}"
                      for j, (sub, exponent) in enumerate(rows, start=1)]
             or ["0"])
    return 0


def cmd_selftest(ns) -> int:
    # imported here, so that no computing command pays for the suite
    import traceback
    from cobschub.selftest import selftest_results

    n = _check_rank(ns.n)
    # run in full before any output, so no write error counts as a FAIL
    results = list(selftest_results(n, ns.theory, ns.beta))

    def check_json(name, error):
        if error is None:
            return {"name": name, "ok": True}
        return {"name": name, "ok": False, "error": "".join(
            traceback.format_exception_only(error)).strip()}

    _respond(ns, lambda: {"n": n, "theory": ns.theory,
                          "checks": [check_json(*r) for r in results]},
             lambda: [f"PASS {name}" if error is None else
                      f"FAIL {name}: {error}" for name, error in results])
    return 0 if all(error is None for _, error in results) else 1


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


def _add_ints(parser, option, help):
    parser.add_argument(option, type=_parse_ints, required=True, help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobschub",
        description="Schubert calculus in the algebraic cobordism of "
                    "complete flag varieties")
    sub = parser.add_subparsers(dest="command", required=True)
    word_help = "comma-separated simple-root indices; empty for the point"
    weight_help = "comma-separated integer weight of length n"

    p = sub.add_parser("bsclass", help="canonical form of a Bott-Samelson class")
    _add_common(p)
    _add_ints(p, "--word", word_help)
    p.set_defaults(func=cmd_bsclass)

    p = sub.add_parser("product", help="decompose a product of two classes")
    _add_common(p)
    _add_ints(p, "--left", word_help)
    _add_ints(p, "--right", word_help)
    p.add_argument("--verify", action="store_true",
                   help="also check the expansion against the ring product")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("chevalley",
                       help="expand c1(L(weight)) times a class")
    _add_common(p)
    _add_ints(p, "--word", word_help)
    _add_ints(p, "--weight", weight_help)
    p.set_defaults(func=cmd_chevalley)

    p = sub.add_parser("fgl", help="dump the truncated formal group law")
    _add_common(p, rank=False)
    p.add_argument("--max-degree", type=int, default=5,
                   help="truncation degree for the law dump")
    p.set_defaults(func=cmd_fgl)

    p = sub.add_parser("expand",
                       help="expand a class over the reduced-word basis")
    _add_common(p)
    _add_ints(p, "--word", word_help)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("pieri", help="exponent table of a pulled-back line bundle")
    _add_common(p)
    _add_ints(p, "--word", word_help)
    _add_ints(p, "--weight", weight_help)
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
