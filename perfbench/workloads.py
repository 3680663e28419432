"""The benchmark's workloads: seeded inputs, one query, and its checks.

A query is a command line of the CLI (``cobschub <command> ... --format
json``).  It is parsed before timing; the timed part is the command function
the CLI dispatches to, so the output is the line the CLI prints.  Its
SHA-256 is compared with ``reference_digests.json``, and each workload adds a
check through a route that does not go through the engine's operators.
Checks run outside the timed region.

The workloads use the CLI's cached context ``cli._context(n)``, a new one
for every pass.  Command functions are looked up through ``cli`` at
call time, so the tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from cobschub import cli, flagring, schubert, weylops

DIGESTS_PATH = Path(__file__).with_name("reference_digests.json")
PARSER = cli.build_parser()


class CheckFailed(Exception):
    """An output differs from its reference or fails its own check."""


def _chow_value(coeff_json) -> Fraction:
    """The b-free part of a serialized coefficient: its Chow specialization."""
    return sum((Fraction(int(e["num"]), int(e["den"]))
                for e in coeff_json if not e["b"]), Fraction(0))


def _lex_words(n: int) -> list:
    """Lexicographically smallest reduced words of all permutations of rank n,
    shortest first."""
    return sorted((weylops.reduced_word(w)
                   for w in weylops.all_permutations(n)),
                  key=lambda w: (len(w), w))


def _word_text(word) -> str:
    return ",".join(map(str, word))


def _fresh_context(n: int):
    """A new context, which the CLI commands then use; the last one is
    dropped first."""
    cli._context.cache_clear()
    return cli._context(n)


class Workload:
    """One kind of query; subclasses give ``argv``, ``setup`` and ``check``."""

    def universe(self) -> list:
        """Every query any seed can draw."""
        raise NotImplementedError

    def queries(self, rng: random.Random) -> list:
        """The queries of one pass, in seeded order."""
        order = self.universe()
        rng.shuffle(order)
        return order

    def key(self, query) -> str:
        return " ".join(self.argv(query))

    def prepare(self, query):
        """The parsed command line; parsing is not timed."""
        return PARSER.parse_args([*self.argv(query), "--format", "json"])

    def run(self, ns) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = getattr(cli, ns.func.__name__)(ns)
        if code != 0:
            raise CheckFailed(f"{ns.command} returned {code}")
        return buf.getvalue()


class BsLongestWord(Workload):
    """A cold ``bsclass`` of the longest word's lex-smallest reduced word."""

    def __init__(self, n: int):
        self.n = n
        self.word = _lex_words(n)[-1]

    def describe(self) -> dict:
        return {"n": self.n, "word": list(self.word)}

    def universe(self) -> list:
        return [self.word]

    def argv(self, word) -> list:
        return ["bsclass", "--n", str(self.n), "--word", _word_text(word)]

    def setup(self):
        return _fresh_context(self.n)

    def check(self, word, text) -> None:
        # the Chow specialization of the class of w0 is the fundamental class
        chow = {}
        for term in json.loads(text)["terms"]:
            value = _chow_value(term["coeff"])
            if value:
                chow[tuple(term["x"])] = value
        if chow != {(0,) * self.n: 1}:
            raise CheckFailed(f"Chow specialization of Z_w0 is {chow}")


class ChevalleyWalks(Workload):
    """``chevalley`` for each fundamental weight and each lex-smallest reduced
    word of length at most ``max_len``, in seeded order, on one context per
    pass."""

    def __init__(self, n: int, max_len: int):
        self.n = n
        words = [w for w in _lex_words(n) if len(w) <= max_len]
        self.all = [(i, w) for i in range(1, n) for w in words]

    def describe(self) -> dict:
        return {"n": self.n, "weights": [f"omega_{i}" for i in
                                         range(1, self.n)],
                "words": sorted({_word_text(w) for _, w in self.all})}

    def universe(self) -> list:
        return list(self.all)

    def argv(self, query) -> list:
        i, word = query
        lam = flagring.fundamental_weight(i, self.n)
        return ["chevalley", "--n", str(self.n), "--word", _word_text(word),
                "--weight", _word_text(lam.coords)]

    def setup(self):
        """A context with the operator packs and the weights' Chern classes
        built, so that a query's cost does not depend on its place in the
        order."""
        ctx = _fresh_context(self.n)
        for i in range(1, self.n):
            schubert.bs_class(ctx, (i,))
            flagring.c1_weight(ctx, flagring.fundamental_weight(i, self.n))
        return ctx

    def check(self, query, text) -> None:
        # in Chow only single removals survive, with the beta pairings
        i, word = query
        lam = flagring.fundamental_weight(i, self.n)
        expected = {}
        for j, beta in enumerate(weylops.beta_sequence(word, self.n)):
            kept = word[:j] + word[j + 1:]
            expected[kept] = (expected.get(kept, 0)
                              + weylops.coroot_pairing(lam, beta))
        expected = {w: v for w, v in expected.items() if v}
        got = {}
        for row in json.loads(text)["terms"]:
            value = _chow_value(row["coeff"])
            if value:
                got[tuple(row["subword"])] = value
        if got != expected:
            raise CheckFailed(f"Chow rows {got} != beta pairings {expected}")


# name -> (full-size workload, small workload for the benchmark's tests);
# BENCHMARK.json says why each workload was chosen
WORKLOADS = {
    "bs_w0_r4": (lambda: BsLongestWord(4), lambda: BsLongestWord(3)),
    "chev_r4": (lambda: ChevalleyWalks(4, 3), lambda: ChevalleyWalks(3, 2)),
}


def make(name: str, size: str) -> Workload:
    full, small = WORKLOADS[name]
    return (full if size == "full" else small)()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())
