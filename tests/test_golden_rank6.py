"""Rank-6 CLI output, pinned by SHA-256 in the manner of ``test_golden_cli``.

``CLASS_SHA256`` pins the cobordism class of the longest word at rank 6,
whose coefficients are the largest the CLI prints: d = 15 and every b_i up
to b_15 can appear.  ``PRODUCT_SHA256`` pins the nonzero rank-6 product of
the class of a length-14 word with that of a length-6 word, lengths
14 + 6 >= d.  Both were recorded while the operators still reduced every
operator pack and every swapped state of the walk, before packs were moved
from the last pair unreduced and swapped states left raw.
"""

from test_golden_cli import cli_digest

CLASS_COMMANDS = (
    ("bsclass", "--n", "6", "--word", "1,2,1,3,2,1,4,3,2,1,5,4,3,2,1"),)

PRODUCT_COMMANDS = (
    ("product", "--n", "6", "--left", "1,2,1,3,2,1,4,3,2,1,5,4,3,2",
     "--right", "2,1,4,3,2,5"),)

CLASS_SHA256 = (
    "e3aea0d9d2f2c3a157ff300a0c38b22731f097f9b7f2cb64140444daaa371195")

PRODUCT_SHA256 = (
    "470a410a7cc6d696dfd62cf809c57b10422e09e0017dc1bc882ef1839572b50b")


def test_rank6_class_of_w0_bytes_unchanged():
    assert cli_digest(CLASS_COMMANDS, ("json",)) == CLASS_SHA256


def test_rank6_product_bytes_unchanged():
    assert cli_digest(PRODUCT_COMMANDS, ("json",)) == PRODUCT_SHA256
