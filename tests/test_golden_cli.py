"""The CLI's output bytes, pinned by one SHA-256.

A fixed list of command lines runs in both output formats; the digest
covers each command line, its exit code and its standard output.  A change
that only restructures the engine must leave the digest as it is; a change
that means to alter the output updates ``GOLDEN_SHA256`` and says why.

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
