"""The cobschub benchmark: one workload per call, each in a fresh process.

    python3 perfbench/run.py --workload chev_r4 --seed 1 --seconds 10 --trace 0

Run from the repository root.  With ``--trace 0`` it prints the end-to-end
metrics named in ``BENCHMARK.json``, with ``--trace 1`` the per-layer ones;
``--workload all`` runs every workload in turn.  Each metric is printed by
name with its unit, then the last line is the JSON result.  The exit code is
0 only when every output passed its checks; when the program cannot be run
the benchmark prints no result and exits with 2.

``setup_s`` is the median over fresh processes that each import
``cobschub.cli`` and build the workload's ``FlagContext``: at least five
of them, started for at least ten seconds (one for ``--size small``).
Every gated time is scaled to a reference host speed by a fixed kernel
timed next to it; ``child.py`` says how.  For ``setup_s`` the kernel is
timed here, before and after each probe.
The run's report, with its provenance, is written to ``perfbench/out/``;
a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import REF_NOMINAL_S, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
# set-up probes go on for at least this long and this many times, so setup_s
# is a median of many
PROBE_WINDOW_S = 10.0
MIN_PROBES = 5


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def child(args: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} ran past {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU.  The CPUs of
    a shared host change speed independently, so a kernel timing made on one
    says little about a probe that ran on the other."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpus = (sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None)
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpus": cpus, "seed": seed}


def run_workload(spec: dict, metric_units: dict, ns) -> dict:
    """Run one workload; print its metrics; return the result object."""
    name = spec["name"]
    base = ["--workload", name, "--size", ns.size, "--seed", str(ns.seed)]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-{ns.size}-seed{ns.seed}-trace{ns.trace}"
    extra = ["--spans", f"{stem}-spans.jsonl"] if ns.trace else []
    report = child(["run", *base, "--seconds", str(ns.seconds),
                    "--trace", str(ns.trace), *extra], CHILD_TIMEOUT_S)
    metrics = report["metrics"]
    if not ns.trace:
        rank = str(report["inputs"]["workload"]["n"])
        full = ns.size == "full"
        window, least = (PROBE_WINDOW_S, MIN_PROBES) if full else (0, 1)
        probes, start = [], time.perf_counter()
        before = reference_s()
        while len(probes) < least or time.perf_counter() - start < window:
            raw = child(["probe", *base, "--rank", rank],
                        PROBE_TIMEOUT_S)["raw_setup_s"]
            after = reference_s()
            probes.append({"raw_setup_s": raw, "reference_s": [before, after],
                           "setup_s": raw * 2 * REF_NOMINAL_S
                           / (before + after)})
            before = after
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        report["setup_probes"] = probes
    missing = set(metric_units) - set(metrics)
    if missing:
        raise BenchError(f"{name}: metrics not measured: {sorted(missing)}")
    failed = len(report["failures"])
    attempted = report["attempted"]
    report["provenance"] = {**provenance(ns.seed), "python": report["python"],
                            "why": spec["why"], "run_seconds": ns.seconds}
    report["error_rate"] = failed / attempted
    (stem.with_suffix(".json")).write_text(json.dumps(report, indent=1))

    print(f"{name} ({ns.size}) seed {ns.seed} trace {ns.trace}: "
          f"{spec['why']}")
    for metric, unit in metric_units.items():
        print(f"  {metric:44s} {metrics[metric]:>16.6g} {unit}")
    if not ns.trace:
        # single-query statistics swing with short bursts of host load, so
        # they are printed but not part of the result
        for metric in ("query_p50_ms", "query_tail_ms"):
            print(f"  {metric:44s} {report['latency'][metric]:>16.6g} ms")
        print(f"  wall_s is the median of {report['passes']} pass(es); "
              f"query_p50_ms and query_tail_ms (p{report['tail_percentile']:.1f}"
              f" of {report['queries_per_pass']} queries) are medians over "
              f"them; setup_s is the median of {len(probes)} probes")
    print(f"  inputs: {json.dumps(report['inputs']['workload'])}")
    print(f"  error_rate {report['error_rate']:.4g} "
          f"({failed} of {attempted} queries failed)")
    for failure in report["failures"][:5]:
        print(f"  FAILED {failure}")
    prov = report["provenance"]
    print(f"  provenance: commit {prov['commit']}, src {prov['src_sha256'][:12]},"
          f" python {prov['python']}, nproc {prov['nproc']}, report {stem}.json")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": metrics[m], "unit": u}
                        for m, u in metric_units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small runs rank-3 versions")
    ns = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = bench["per_layer" if ns.trace else "end_to_end"]
    metric_units = {m["name"]: m["unit"] for m in group}
    specs = {w["name"]: w for w in bench["workloads"]}
    if ns.workload != "all" and ns.workload not in specs:
        parser.error(f"unknown workload {ns.workload!r}")
    chosen = list(specs) if ns.workload == "all" else [ns.workload]
    pin_to_one_cpu()
    try:
        if not (ROOT / "src" / "cobschub").is_dir():
            raise BenchError(f"no program sources under {ROOT / 'src'}")
        results = [run_workload(specs[name], metric_units, ns)
                   for name in chosen]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
