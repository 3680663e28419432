"""Fast tests of the benchmark itself, on its rank-3 workloads.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cobschub import fgl, flagring, ringcore, weylops  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# the metrics the benchmark was asked to report
END_TO_END = ["setup_s", "wall_s", "queries_per_s", "peak_rss_mb"]
PER_LAYER = [
    *(f"ringcore.{f}.{k}" for f in ("series_mul", "compose",
                                    "divide_by_linear", "series_invert_unit")
      for k in ("calls", "self_s")),
    "ringcore.series_reverse.self_s", "ringcore.coeff_mul.calls",
    "ringcore.coeff_add.calls", "ringcore.out_bterms", "ringcore.out_den_lcm",
    "fgl.build_universal_fgl.self_s",
    *(f"flagring.reduce_canonical.{k}" for k in
      ("calls", "self_s", "terms_in", "terms_out", "keep_ratio")),
    "flagring.c1_weight.self_s", "weylops.op_pack.builds",
    "weylops.op_pack.self_s", "weylops.op_pack.total_s",
    *(f"weylops.{f}.{k}" for f in ("divided_diff", "divided_diff_dual",
                                   "sigma_op") for k in ("calls", "self_s")),
    *(f"schubert.{f}.{k}" for f in ("bs_class", "chevalley_coeff",
                                    "c1_times_bs")
      for k in ("calls", "hit_ratio")),
    "cli.serialize_s", "cli.output_bytes",
    "trace.overhead_pct", "trace.unattributed_s",
]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_small_workloads_emit_every_metric_with_its_unit(trace):
    proc = bench("--workload", "all", "--size", "small", "--seed", "3",
                 "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    results = [json.loads(line) for line in lines[-len(BENCH["workloads"]):]]
    group = BENCH["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    assert set(END_TO_END if not trace else PER_LAYER) <= set(units)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {m: v["unit"] for m, v in result["metrics"].items()} == units
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))
    for name in units:  # printed by name with the unit
        assert any(line.split()[:1] == [name] and line.endswith(units[name])
                   for line in lines)
    assert "error_rate 0 (0 of" in proc.stdout
    if not trace:  # printed, not gated
        for name in ("query_p50_ms", "query_tail_ms"):
            assert any(line.split()[:1] == [name] and line.endswith("ms")
                       for line in lines)


def test_benchmark_json_follows_its_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert set(w["name"] for w in BENCH["workloads"]) == set(
        workloads.WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_corrupted_output_counts_in_error_rate(monkeypatch):
    work = workloads.make("bs_w0_r4", "small")
    real_run = type(work).run

    def corrupted(self, ns):
        return real_run(self, ns).replace('"num":"1"', '"num":"2"', 1)

    monkeypatch.setattr(type(work), "run", corrupted)
    report = child.run_untraced(work, work.queries(random.Random(1)), 0,
                                workloads.load_digests())
    assert report["attempted"] == 1
    assert len(report["failures"]) == 1
    assert "digest" in report["failures"][0]


def test_query_times_are_scaled_to_the_reference_speed(monkeypatch):
    # a host at half the reference speed: the kernel takes twice as long
    monkeypatch.setattr(child, "reference_s", lambda: 2 * child.REF_NOMINAL_S)
    work = workloads.make("bs_w0_r4", "small")
    work.setup()
    results, raw = child.timed_pass(work, [work.prepare(work.word)])
    assert results[0][1] is None
    assert results[0][2] == pytest.approx(raw / 2)


def test_independent_check_catches_a_wrong_class():
    work = workloads.make("bs_w0_r4", "small")
    work.setup()
    text = work.run(work.prepare(work.word))
    work.check(work.word, text)
    wrong = json.loads(text)
    wrong["terms"] = wrong["terms"][1:]
    with pytest.raises(workloads.CheckFailed):
        work.check(work.word, json.dumps(wrong))


def test_failed_check_makes_the_command_exit_nonzero(monkeypatch):
    real_child = run.child

    def failing(args, timeout):
        report = real_child(args, timeout)
        if args[0] == "run":
            report["failures"].append("injected failure")
        return report

    monkeypatch.setattr(run, "child", failing)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run.main(["--workload", "bs_w0_r4", "--size", "small",
                         "--seconds", "0"])
    assert code == 1
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "bs_w0_r4", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tracer_patches_every_binding_and_restores_them():
    original = ringcore.compose
    with tracer.Tracer():
        assert ringcore.compose is not original
        for module in (fgl, flagring, weylops):
            assert module.compose is ringcore.compose
        assert (ringcore.TruncSeries.__rmul__
                is ringcore.TruncSeries.__mul__)
    for module in (ringcore, fgl, flagring, weylops):
        assert module.compose is original


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    t.names = ["outer", "inner"]
    t.spans = [(0, -1, 0.0, 10.0), (1, 0, 2.0, 5.0), (1, 0, 6.0, 7.0)]
    summary = t.summary()
    assert summary["outer"] == {"calls": 1, "self_s": 6.0, "total_s": 10.0}
    assert summary["inner"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
