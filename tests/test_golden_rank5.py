"""Rank-5 and cap-12 CLI output, pinned by one SHA-256 in the manner of
``test_golden_cli``.

The digest there stops at rank 4 and cap 8, where coefficients stay small.
Here the class of the longest word at rank 5 (cobordism, and K-theory at
beta = 2/3) and the law through degree 12 carry b-polynomials with many
terms and mixed denominators, so a change to the coefficient arithmetic that
keeps the small outputs but alters a large one shows.  The digest was
recorded before the shared multiply-accumulate kernel replaced the products
one pair at a time.

``EXPAND_SHA256`` pins the rank-5 basis expansions of two classes in every
theory.  It was recorded while the expansion still built the whole table of
basis classes, before it read each class off the residual's leading
monomial.

``CHEVALLEY_SHA256`` pins a rank-5 Chevalley expansion of rho over a word
of length 8 in every theory and a rank-5 product of two classes, whose
walks run on words shorter than d = 10.  It was recorded while the walk
still carried every state through degree d, before each state was cut to
the degrees its reads reach.

``PRODUCT_SHA256`` pins a rank-5 product of two classes in every theory
with ``--verify``.  The product pinned with the Chevalley expansions has
len(left) + len(right) < d and is zero by lengths; this one has lengths
8 + 5 >= d = 10 and gives 20 terms in cobordism and K-theory and 6 in
Chow.  It was recorded while the operators still read the law's pack
through degree d, before the pack was cut to 2n - 3.

``READS_SHA256`` pins rank-5 Chevalley expansions in every theory under a
generic weight with negative coordinates, over a non-reduced word with a
repeated letter, a word of length 2 and a word of length 3.  It was
recorded while every node of the walk at position 1 still applied both of
its operators, before it read its children's coefficients from its own
state.

``NONREDUCED_SHA256`` pins rank-5 products of two classes in every theory
with ``--verify`` whose right words are not reduced: two of length 6 with
a repeated letter under a left word of length 8, and one of length 9 under
a left word of length 3.  Every other pinned product has a reduced right
word.  It was recorded while a product still multiplied the left class
into the right word one variable at a time, before it walked the
operator tree once from the left class.
"""

from test_golden_cli import THEORIES, cli_digest

W0 = "1,2,1,3,2,1,4,3,2,1"

COMMANDS = (
    ("bsclass", "--n", "5", "--word", W0, "--theory", "cobordism"),
    ("bsclass", "--n", "5", "--word", W0, "--theory", "ktheory",
     "--beta", "2/3"),
    ("fgl", "--max-degree", "12"),
)

EXPAND_COMMANDS = tuple(
    ("expand", "--n", "5", "--word", word) + theory
    for word in ("3,2,3,1,2,1", "4,3,2,1,4,3,2,4,3,4") for theory in THEORIES)

CHEVALLEY_COMMANDS = tuple(
    ("chevalley", "--n", "5", "--word", "1,2,1,3,2,1,4,3",
     "--weight", "4,3,2,1,0") + theory for theory in THEORIES) + (
    ("product", "--n", "5", "--left", "1,2,1,3", "--right", "2,1,4,3,2"),)

PRODUCT_COMMANDS = tuple(
    ("product", "--n", "5", "--left", "1,2,1,3,2,1,4,3", "--right",
     "2,1,4,3,2", "--verify") + theory for theory in THEORIES)

READS_COMMANDS = tuple(
    ("chevalley", "--n", "5", "--word", word, "--weight=3,-1,0,2,-2")
    + theory for word in ("2,2,3,1,2,4,3", "3,1", "4,3,4")
    for theory in THEORIES)

NONREDUCED_COMMANDS = tuple(
    ("product", "--n", "5", "--left", left, "--right", right, "--verify")
    + theory for left, right in (("1,2,1,3,2,1,4,3", "2,2,3,1,2,4"),
                                 ("1,2,1,3,2,1,4,3", "2,1,1,4,3,2"),
                                 ("3,1,2", "1,2,1,3,2,1,4,4,3"))
    for theory in THEORIES)

RANK5_SHA256 = (
    "947cc5dbe80046f7df6de30e77a9af30a234802ed93ec12b04b4efc0ada5e4ec")

EXPAND_SHA256 = (
    "eeba1193a14ba912726f3105cbc0aaef61f53322ee4fd0f4ed2c116dd473687d")

CHEVALLEY_SHA256 = (
    "337114ae10bf59c2451fb1e1d5a49a9786c6c4ec4550886254c515fed91f7413")

PRODUCT_SHA256 = (
    "da62d3e5830ce185b5a574acbee45c5a9cb4b2082b8cc56cc34cb63fa173159e")

READS_SHA256 = (
    "8d754e9aca0382db09f4132ba62381f26b3c024a5d1076d184ce98c58e2bd9f0")

NONREDUCED_SHA256 = (
    "da11a37508cc1249d2f41124205f74045046dcd437e45b13f91601b4a844e9bf")


def test_rank5_output_bytes_unchanged():
    assert cli_digest(COMMANDS, ("json",)) == RANK5_SHA256


def test_rank5_expand_bytes_unchanged():
    assert cli_digest(EXPAND_COMMANDS, ("json",)) == EXPAND_SHA256


def test_rank5_chevalley_bytes_unchanged():
    assert cli_digest(CHEVALLEY_COMMANDS, ("json",)) == CHEVALLEY_SHA256


def test_rank5_product_bytes_unchanged():
    assert cli_digest(PRODUCT_COMMANDS, ("json",)) == PRODUCT_SHA256


def test_rank5_chevalley_reads_bytes_unchanged():
    assert cli_digest(READS_COMMANDS, ("json",)) == READS_SHA256


def test_rank5_nonreduced_product_bytes_unchanged():
    assert cli_digest(NONREDUCED_COMMANDS, ("json",)) == NONREDUCED_SHA256
