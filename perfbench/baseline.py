"""Regenerate the Baseline table of ROADMAP.md (not gated).

    PYTHONPATH=src python3 perfbench/baseline.py

Times ``FlagContext(n)`` and ``bs_class`` of the longest word at ranks 4 and
5, ``product_bs((1,2,1), (1,2,1,3))`` and ``expand_in_bs_basis`` of the
longest word's class at rank 4, each on a fresh context, and prints the
median of three repeats as a Markdown table.  Rank 6 is left out: its
``bs_class(w0)`` takes about eleven minutes.
"""

from __future__ import annotations

import statistics
import time

from cobschub.flagring import FlagContext
from cobschub.schubert import bs_class, expand_in_bs_basis, product_bs

REPEATS = 3
LONGEST = {4: (1, 2, 1, 3, 2, 1), 5: (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)}


def timed(func, *args):
    start = time.perf_counter()
    result = func(*args)
    return time.perf_counter() - start, result


def measure(n: int) -> dict:
    row = {}
    row["FlagContext"], ctx = timed(FlagContext, n)
    row["bs_class(w0)"], cls = timed(bs_class, ctx, LONGEST[n])
    if n == 4:
        row["product_bs"], _ = timed(product_bs, FlagContext(n), (1, 2, 1),
                                     (1, 2, 1, 3))
        fresh = FlagContext(n)
        row["expand"], _ = timed(expand_in_bs_basis, fresh,
                                 bs_class(fresh, LONGEST[n]))
    return row


def main() -> None:
    print("| rank | `FlagContext` | `bs_class(w0)` | notes |")
    print("|------|---------------|----------------|-------|")
    for n in (4, 5):
        runs = [measure(n) for _ in range(REPEATS)]
        med = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
        notes = ""
        if n == 4:
            notes = (f"`product_bs((1,2,1),(1,2,1,3))` takes "
                     f"{med['product_bs']:.2f} s; `expand` of Z_w0 takes "
                     f"{med['expand']:.2f} s")
        print(f"| {n} | {med['FlagContext']:.2f} s | "
              f"{med['bs_class(w0)']:.2f} s | {notes} |")
    print(f"\nmedian of {REPEATS} repeat(s), each on a fresh context")


if __name__ == "__main__":
    main()
