"""Rank-5 and cap-12 CLI output, pinned by one SHA-256 in the manner of
``test_golden_cli``.

The digest there stops at rank 4 and cap 8, where coefficients stay small.
Here the class of the longest word at rank 5 (cobordism, and K-theory at
beta = 2/3) and the law through degree 12 carry b-polynomials with many
terms and mixed denominators, so a change to the coefficient arithmetic that
keeps the small outputs but alters a large one shows.  The digest was
recorded before the shared multiply-accumulate kernel replaced the products
one pair at a time.
"""

from test_golden_cli import cli_digest

W0 = "1,2,1,3,2,1,4,3,2,1"

COMMANDS = (
    ("bsclass", "--n", "5", "--word", W0, "--theory", "cobordism"),
    ("bsclass", "--n", "5", "--word", W0, "--theory", "ktheory",
     "--beta", "2/3"),
    ("fgl", "--max-degree", "12"),
)

RANK5_SHA256 = (
    "947cc5dbe80046f7df6de30e77a9af30a234802ed93ec12b04b4efc0ada5e4ec")


def test_rank5_output_bytes_unchanged():
    assert cli_digest(COMMANDS, ("json",)) == RANK5_SHA256
