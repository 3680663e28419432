"""One workload in a fresh Python process; started by ``run.py``.

``probe`` times the set-up a user pays before the first query: importing
``cobschub.cli`` and building ``FlagContext(n)``.  It imports nothing from
the program before the clock starts; ``run.py`` scales its time by kernel
timings made around it.

``run`` times whole passes over the queries until ``--seconds`` have
elapsed, at least one, and times each query with its JSON serialization.
Each pass has a fresh session, set up untimed, and starts after a full
garbage collection.  With ``--trace 1`` it alternates three untraced and
three traced passes, each with its session set-up, and reports per-layer
figures.
Outputs are checked after the timing ends.  The report is the last line of
standard output.

The speed of a shared host drifts: identical passes run up to 1.8 times
slower in spells that last from a fraction of a second to minutes, and a
plain integer loop slows down with them.  So every gated time is scaled by a
fixed reference kernel timed next to it, on the same CPU (``run.py`` pins
the benchmark to one): a query's time is multiplied by ``REF_NOMINAL_S``
over the mean of the kernel timings just before and just after its block of
queries.  The scaled figure is the time the query would take at the host
speed where the kernel takes ``REF_NOMINAL_S``, close to a quiet 2.0 GHz Xeon
core running Python 3.11.  Raw times are kept in the report.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback

# untraced and traced passes of a traced run, alternating
PAIRS = 3
LAYERS = ("cli", "schubert", "weylops", "flagring", "fgl", "ringcore")
# cached schubert functions and the FlagContext cache each one fills
CACHES = (("bs_class", "_bs_cache"), ("chevalley_coeff", "_chev_cache"),
          ("c1_times_bs", "_c1bs_cache"))
# the reference kernel's time on the host speed all gated times are scaled to
REF_NOMINAL_S = 0.05
# queries are timed in blocks of at least this long between kernel timings
REF_EVERY_S = 0.25
# the kernel's operand: a dense two-variable polynomial with small rational
# coefficients (numerator, denominator), like the program's b-coefficients
_REF_RNG = random.Random(7)
REF_POLY = [((i, j), (_REF_RNG.randint(-9, 9), _REF_RNG.randint(1, 9)))
            for i in range(10) for j in range(10)]


def reference_s() -> float:
    """Time the reference kernel: the square of ``REF_POLY``, summed into a
    dict keyed by exponent tuples, which is the arithmetic the program's
    coefficients do.  The garbage collector is off while it runs, so the
    size of the program's heap does not change its cost."""
    from fractions import Fraction  # after a probe's clock has stopped
    poly = [(mono, Fraction(*coeff)) for mono, coeff in REF_POLY]
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        out = {}
        for (i, j), c in poly:
            for (k, l), d in poly:
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + c * d
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def probe(rank: int) -> dict:
    start = time.perf_counter()
    import cobschub.cli  # noqa: F401  (the import a user pays)
    from cobschub.flagring import FlagContext
    FlagContext(rank)
    return {"raw_setup_s": time.perf_counter() - start}


def timed_pass(workload, prepared):
    """Run every parsed query once, timing the reference kernel before the
    first query and after each ``REF_EVERY_S`` block of queries.  Per query
    (text, error, scaled seconds), and the raw time of all queries."""
    results, block = [], []
    clock = time.perf_counter
    before = reference_s()

    def close_block():
        nonlocal before
        after = reference_s()
        scale = 2 * REF_NOMINAL_S / (before + after)
        results.extend((text, error, t * scale) for text, error, t in block)
        block.clear()
        before = after

    raw = 0.0
    for ns in prepared:
        t0 = clock()
        try:
            text, error = workload.run(ns), None
        except Exception:  # a failed query is counted, the run goes on
            text, error = None, traceback.format_exc(limit=3)
        elapsed = clock() - t0
        block.append((text, error, elapsed))
        raw += elapsed
        if sum(t for _, _, t in block) >= REF_EVERY_S:
            close_block()
    if block:
        close_block()
    return results, raw


def check_pass(workload, queries, results, digests, independent):
    """Failure messages, one per failed query."""
    from workloads import CheckFailed, digest
    failures = []
    for query, (text, error, _) in zip(queries, results):
        key = workload.key(query)
        try:
            if error is not None:
                raise CheckFailed(f"raised:\n{error}")
            if digests.get(key) != digest(text):
                raise CheckFailed("output digest differs from the reference")
            if independent:
                workload.check(query, text)
        except CheckFailed as exc:
            failures.append(f"{key}: {exc}")
        except Exception:  # a check the program crashed counts as failed
            failures.append(f"{key}: check raised:\n"
                            f"{traceback.format_exc(limit=3)}")
    return failures


def tail(samples: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; the maximum when there are ten samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def output_size(texts) -> tuple[int, int]:
    """The b-term count and the denominator lcm of serialized outputs."""
    count, lcm = 0, 1

    def walk(node):
        nonlocal count, lcm
        if isinstance(node, dict):
            if node.keys() == {"b", "num", "den"}:
                count += 1
                lcm = math.lcm(lcm, int(node["den"]))
                return
            node = list(node.values())
        if isinstance(node, list):
            for item in node:
                walk(item)

    for text in texts:
        walk(json.loads(text))
    return count, lcm


def run_untraced(workload, queries, seconds, digests) -> dict:
    """Timed passes until ``seconds`` have elapsed, each on a new session
    set up untimed.  ``wall_s`` is the median scaled pass, the throughput
    the queries over the summed scaled pass times, and query latencies are
    medians over passes.  The first pass gets the independent checks, after
    the timing ends; every other pass is checked against the digests."""
    prepared = [workload.prepare(q) for q in queries]
    walls, raws, p50s, tails, attempted, failures = [], [], [], [], 0, []
    workload.setup()
    start = time.perf_counter()
    while True:
        gc.collect()  # no pass pays for the garbage of the one before
        results, raw = timed_pass(workload, prepared)
        times = [r[2] for r in results]
        walls.append(sum(times))
        raws.append(raw)
        p50s.append(statistics.median(times))
        percentile, tail_s = tail(times)
        tails.append(tail_s)
        attempted += len(results)
        if len(walls) == 1:
            first = results
        else:
            failures += check_pass(workload, queries, results, digests,
                                   independent=False)
        if time.perf_counter() - start >= seconds:
            break
        # the last session is dropped before the next one is built, so peak
        # memory does not depend on the number of passes
        workload.setup()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures += check_pass(workload, queries, first, digests,
                           independent=True)
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": {
            "wall_s": statistics.median(walls),
            "queries_per_s": attempted / sum(walls),
            "peak_rss_mb": rss_mb,
        },
        "latency": {
            "query_p50_ms": statistics.median(p50s) * 1e3,
            "query_tail_ms": statistics.median(tails) * 1e3,
        },
        "passes": len(walls),
        "pass_walls_s": walls,
        "raw_pass_walls_s": raws,
        "queries_per_pass": len(queries),
        "tail_percentile": percentile,
    }


def run_traced(workload, queries, digests, spans_path) -> dict:
    """``PAIRS`` pairs of an untraced and a traced pass, each with its
    session set-up.  The per-layer figures come from the last traced pass;
    the overhead compares the median traced pass with the median untraced
    one, and alternating them keeps a drift in host speed out of it.  These
    times are raw, like the per-layer ones, and leave out the reference
    kernel's timings."""
    from tracer import SERIALIZERS, Tracer
    prepared = [workload.prepare(q) for q in queries]
    clock = time.perf_counter

    def region():
        gc.collect()
        t0 = clock()
        state = workload.setup()
        setup_s = clock() - t0
        results, raw = timed_pass(workload, prepared)
        return state, results, setup_s + raw

    plains, traceds = [], []
    for _ in range(PAIRS):
        plains.append(region()[2])
        with Tracer() as tracer:
            state, results, traced = region()
        traceds.append(traced)
    # a session starts with empty caches, so each entry is a miss
    misses = {cache: len(getattr(state, cache, ())) for _, cache in CACHES}
    failures = check_pass(workload, queries, results, digests,
                          independent=True)
    if spans_path:
        tracer.write_spans(spans_path)
    spans = tracer.summary()
    counters = tracer.counters

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def hit_ratio(name, cache):
        made = calls(name)
        return (made - misses[cache]) / made if made else 0.0

    m = {}
    for name in ("series_mul", "compose", "divide_by_linear",
                 "series_invert_unit"):
        m[f"ringcore.{name}.calls"] = calls(f"ringcore.{name}")
        m[f"ringcore.{name}.self_s"] = self_s(f"ringcore.{name}")
    m["ringcore.series_reverse.self_s"] = self_s("ringcore.series_reverse")
    m["ringcore.coeff_mul.calls"] = counters["ringcore.coeff_mul"]
    m["ringcore.coeff_add.calls"] = counters["ringcore.coeff_add"]
    texts = [r[0] for r in results if r[0] is not None]
    m["ringcore.out_bterms"], m["ringcore.out_den_lcm"] = output_size(texts)
    m["fgl.build_universal_fgl.self_s"] = self_s("fgl.build_universal_fgl")
    name = "flagring.reduce_canonical"
    terms_in = counters[f"{name}.terms_in"]
    terms_out = counters[f"{name}.terms_out"]
    m[f"{name}.calls"] = calls(name)
    m[f"{name}.self_s"] = self_s(name)
    m[f"{name}.terms_in"] = terms_in
    m[f"{name}.terms_out"] = terms_out
    m[f"{name}.keep_ratio"] = terms_out / terms_in if terms_in else 0.0
    m["flagring.c1_weight.self_s"] = self_s("flagring.c1_weight")
    m["weylops.op_pack.builds"] = counters["weylops.op_pack.builds"]
    m["weylops.op_pack.self_s"] = self_s("weylops.op_pack")
    m["weylops.op_pack.total_s"] = spans["weylops.op_pack"]["total_s"]
    for name in ("divided_diff", "divided_diff_dual", "sigma_op"):
        m[f"weylops.{name}.calls"] = calls(f"weylops.{name}")
        m[f"weylops.{name}.self_s"] = self_s(f"weylops.{name}")
    for name, cache in CACHES:
        m[f"schubert.{name}.calls"] = calls(f"schubert.{name}")
        m[f"schubert.{name}.hit_ratio"] = hit_ratio(f"schubert.{name}",
                                                    cache)
    m["cli.serialize_s"] = sum(self_s(name) for name in SERIALIZERS)
    m["cli.output_bytes"] = sum(len(text.encode()) for text in texts)
    attributed = 0.0
    for layer in LAYERS:
        layer_s = sum(entry["self_s"] for name, entry in spans.items()
                      if name.split(".")[0] == layer)
        m[f"layer.{layer}.self_s"] = layer_s
        attributed += layer_s
    m["trace.wall_s"] = traced
    m["trace.unattributed_s"] = traced - attributed
    plain = statistics.median(plains)
    m["trace.overhead_pct"] = (100.0 * (statistics.median(traceds) - plain)
                               / plain)
    return {"attempted": len(results), "failures": failures, "metrics": m,
            "untraced_s": plains, "traced_s": traceds,
            "queries_per_pass": len(queries)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rank", type=int,
                        help="probe: the rank of the context to build")
    parser.add_argument("--spans", default="",
                        help="run --trace 1: file to write the spans to")
    ns = parser.parse_args(argv)
    if ns.mode == "probe":
        print(json.dumps(probe(ns.rank)))
        return 0
    import workloads
    workload = workloads.make(ns.workload, ns.size)
    queries = workload.queries(random.Random(ns.seed))
    digests = workloads.load_digests()
    if ns.trace:
        report = run_traced(workload, queries, digests, ns.spans)
    else:
        report = run_untraced(workload, queries, ns.seconds, digests)
    report["inputs"] = {"workload": workload.describe(),
                        "queries": [workload.key(q) for q in queries]}
    report["python"] = sys.version.split()[0]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
