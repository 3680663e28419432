"""The CLI's output bytes, pinned by one SHA-256.

A fixed list of command lines runs in both output formats; the digest
covers each command line, its exit code and its standard output.  A change
that only restructures the engine must leave the digest as it is; a change
that means to alter the output updates ``GOLDEN_SHA256`` and says why.

Each JSON line is also checked against its canonical form, keys sorted
and no spaces, with every coefficient's num and den decimal strings in
lowest terms: a digest only shows that the bytes changed.

``SELFTEST_SHA256`` pins ``selftest`` at ranks 2-4 in every theory, so a
check that is renamed, dropped or reordered shows even though the CLI tests
derive the expected names from the table itself.  It was recorded while the
``pushforward-degenerations`` check still decomposed the output of a
separate rank-two series operator, before it ran on the flag-ring
operators.
"""

import contextlib
import hashlib
import io
import json
import math
import re

from cobschub import cli
from cobschub.cli import main

from oracles import fraction_coeff_to_json

THEORIES = (("--theory", "cobordism"), ("--theory", "chow"),
            ("--theory", "ktheory", "--beta", "2/3"))

RANK3 = (
    ("bsclass", "--n", "3", "--word", "2,1,2"),
    ("bsclass", "--n", "3", "--word", "1,2"),
    ("bsclass", "--n", "3", "--word", ""),
    ("product", "--n", "3", "--left", "1,2", "--right", "2,1", "--verify"),
    ("product", "--n", "3", "--left", "2,1", "--right", "2,1"),
    ("chevalley", "--n", "3", "--word", "2,1", "--weight", "1,0,0"),
    ("chevalley", "--n", "3", "--word", "1,2,1", "--weight", "2,-1,0"),
    ("fgl",),
    ("expand", "--n", "3", "--word", "2,1,2"),
    ("pieri", "--n", "3", "--word", "1,2,1", "--weight", "1,0,0"),
    ("selftest", "--n", "3"),
)

EXTRA = (
    ("fgl", "--max-degree", "8"),
    ("product", "--n", "4", "--left", "1,2,1", "--right", "1,2,1,3",
     "--verify"),
    ("bsclass", "--n", "4", "--word", "1,2,1,3,2,1"),
)

COMMANDS = tuple(cmd + theory for cmd in RANK3 for theory in THEORIES) + EXTRA

SELFTEST_COMMANDS = tuple(
    ("selftest", "--n", str(n)) + theory
    for n in (2, 3, 4) for theory in THEORIES)

GOLDEN_SHA256 = (
    "34e7e5809e63fa00c0564d68352eeaf2aea59d6e995ab85775be9ba8c7082f6e")

SELFTEST_SHA256 = (
    "6e30a5b39617265e146f8f9f29b8bebdd941d6dae7c14a1e2441c5eda4164759")


def cli_digest(commands=COMMANDS, formats=("json", "text")) -> str:
    digest = hashlib.sha256()
    for fmt in formats:
        for cmd in commands:
            argv = list(cmd) + ["--format", fmt]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            digest.update(f"$ {' '.join(argv)}\n[exit {code}]\n".encode())
            digest.update(out.getvalue().encode())
    return digest.hexdigest()


def test_cli_output_bytes_unchanged():
    assert cli_digest() == GOLDEN_SHA256


def test_selftest_output_bytes_unchanged():
    assert cli_digest(SELFTEST_COMMANDS) == SELFTEST_SHA256


def test_json_coefficients_match_the_fraction_route(monkeypatch):
    # the golden JSON outputs, their coefficients read once from the packed
    # numerators and once through one Fraction per term, byte for byte
    packed = cli_digest(formats=("json",))
    calls = []

    def fraction_route(c):
        calls.append(c)
        return fraction_coeff_to_json(c)

    monkeypatch.setattr(cli, "coeff_to_json", fraction_route)
    assert cli_digest(formats=("json",)) == packed
    assert any(len(c.num) > 1 and c.den > 1 for c in calls)


def coefficient_terms(value) -> list:
    """Every object with a num and a den in a parsed payload."""
    if isinstance(value, list):
        return [term for item in value for term in coefficient_terms(item)]
    if isinstance(value, dict):
        own = [value] if {"num", "den"} <= value.keys() else []
        return own + [term for item in value.values()
                      for term in coefficient_terms(item)]
    return []


def test_json_output_is_canonical():
    # every JSON command line of the digest prints one line in its own
    # canonical form, and every num and den in it is a decimal string, the
    # pair in lowest terms with a positive den
    terms = []
    for cmd in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(list(cmd) + ["--format", "json"])
        text = out.getvalue()
        parsed = json.loads(text)
        assert text == json.dumps(parsed, sort_keys=True,
                                  separators=(",", ":")) + "\n", cmd
        for term in coefficient_terms(parsed):
            num, den = term["num"], term["den"]
            assert isinstance(num, str) and re.fullmatch(
                r"-?[1-9][0-9]*", num), (cmd, term)
            assert isinstance(den, str) and re.fullmatch(
                r"[1-9][0-9]*", den), (cmd, term)
            assert math.gcd(int(num), int(den)) == 1, (cmd, term)
            terms.append(term)
    # the check sees negative numerators and denominators above 1
    assert any(t["num"].startswith("-") for t in terms)
    assert any(t["den"] != "1" for t in terms)
