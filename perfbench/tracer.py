"""Spans and counters around the calls into each layer of ``cobschub``.

The tracer replaces functions with timing wrappers from outside the program:
every module binding of a wrapped function is patched (``compose`` is
imported by name into ``fgl``, ``flagring`` and ``weylops``), and everything
is restored on exit.  Spans are kept in memory as (name, parent, start, end)
and written out once the run ends; a span's self time is its duration minus
the durations of its child spans.  ``CoeffPoly`` arithmetic runs tens of
thousands of times in one rank-4 pass, so it gets counters only.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

from cobschub import cli, fgl, flagring, ringcore, schubert, weylops

# (owner, attribute, span name); the layer is the name's first component
SPANS = [
    (cli, "cmd_bsclass", "cli.cmd_bsclass"),
    (cli, "cmd_chevalley", "cli.cmd_chevalley"),
    (cli, "coeff_to_json", "cli.coeff_to_json"),
    (cli, "elem_terms_to_json", "cli.elem_terms_to_json"),
    (cli, "expansion_to_rows", "cli.expansion_to_rows"),
    (cli, "_emit_json", "cli.emit_json"),
    (schubert, "bs_class", "schubert.bs_class"),
    (schubert, "chevalley_coeff", "schubert.chevalley_coeff"),
    (schubert, "c1_times_bs", "schubert.c1_times_bs"),
    (weylops, "_op_pack", "weylops.op_pack"),
    (weylops, "divided_diff", "weylops.divided_diff"),
    (weylops, "divided_diff_dual", "weylops.divided_diff_dual"),
    (weylops, "sigma_op", "weylops.sigma_op"),
    (flagring.FlagContext, "__init__", "flagring.FlagContext"),
    (flagring, "reduce_canonical", "flagring.reduce_canonical"),
    (flagring, "c1_weight", "flagring.c1_weight"),
    (fgl, "build_universal_fgl", "fgl.build_universal_fgl"),
    (ringcore.TruncSeries, "__mul__", "ringcore.series_mul"),
    (ringcore, "compose", "ringcore.compose"),
    (ringcore, "divide_by_linear", "ringcore.divide_by_linear"),
    (ringcore, "series_invert_unit", "ringcore.series_invert_unit"),
    (ringcore, "series_reverse", "ringcore.series_reverse"),
]

COUNTED = [
    (ringcore.CoeffPoly, "__mul__", "ringcore.coeff_mul"),
    (ringcore.CoeffPoly, "__add__", "ringcore.coeff_add"),
]

SERIALIZERS = ("cli.coeff_to_json", "cli.elem_terms_to_json",
               "cli.expansion_to_rows", "cli.emit_json")


def _term_count(p) -> int:
    # reduce_canonical takes a TruncSeries, a FlagElem or a raw mapping
    return len(p.terms) if hasattr(p, "terms") else len(p)


class Tracer:
    """Install with ``with Tracer() as tracer:``; read ``summary()`` after."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = self._hooks(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, parent, start, end)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counter_wrapper(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self, name: str):
        counters = self.counters
        if name == "flagring.reduce_canonical":
            def before(args):
                counters["flagring.reduce_canonical.terms_in"] += (
                    _term_count(args[1]))

            def after(result):
                counters["flagring.reduce_canonical.terms_out"] += len(
                    result.terms)
            return before, after
        if name == "weylops.op_pack":
            def before(args):
                ctx, i = args
                if i not in ctx._op_packs:
                    counters["weylops.op_pack.builds"] += 1
            return before, None
        return None, None

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapped) -> None:
        """Bind ``wrapped`` wherever ``owner.attr`` is bound in the program:
        every ``cobschub`` module attribute and every class attribute (such
        as ``__rmul__ = __mul__``) that holds the same object."""
        original = owner.__dict__[attr]
        holders = [mod for name, mod in sorted(sys.modules.items())
                   if name == "cobschub" or name.startswith("cobschub.")]
        if isinstance(owner, type):
            holders = [owner]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapped)

    def __enter__(self) -> "Tracer":
        for owner, attr, name in SPANS:
            self._patch(owner, attr,
                        self._span_wrapper(name, owner.__dict__[attr]))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr,
                        self._counter_wrapper(name, owner.__dict__[attr]))
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self time and total time in seconds; the
        total counts only the outermost span of a recursion."""
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for name in self.names}
        for index, (name_id, parent, start, end) in enumerate(self.spans):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[index]
            if parent < 0 or self.spans[parent][0] != name_id:
                entry["total_s"] += end - start
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, parent index, start, end."""
        with open(path, "w") as fh:
            for name_id, parent, start, end in self.spans:
                fh.write(json.dumps([self.names[name_id], parent,
                                     start, end]) + "\n")
