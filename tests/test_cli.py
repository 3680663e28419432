import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cobschub import cli, ringcore, selftest
from cobschub.cli import main
from cobschub.flagring import THEORIES, theory_law
from cobschub.ringcore import UsageError
from cobschub.selftest import CHECKS

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_bsclass_rank3_longest_word(capsys):
    payload = run_json(capsys, "bsclass", "--n", "3", "--word", "2,1,2")
    assert payload["word"] == [2, 1, 2]
    terms = {tuple(t["x"]): t["coeff"] for t in payload["terms"]}
    assert terms[(0, 0, 0)] == [{"b": [], "num": "1", "den": "1"}]
    assert terms[(0, 1, 1)] == [
        {"b": [[1, 2]], "num": "1", "den": "1"},
        {"b": [[2, 1]], "num": "-1", "den": "1"},
    ]


def test_bsclass_empty_word_is_point(capsys):
    payload = run_json(capsys, "bsclass", "--n", "3", "--word", "")
    assert payload["terms"] == [
        {"x": [0, 1, 2], "coeff": [{"b": [], "num": "1", "den": "1"}]}]


def test_bsclass_rank2_chow_curve(capsys):
    payload = run_json(capsys, "bsclass", "--n", "2", "--word", "1",
                       "--theory", "chow")
    assert payload["terms"] == [
        {"x": [0, 0], "coeff": [{"b": [], "num": "1", "den": "1"}]}]


@pytest.mark.parametrize("theory", [("chow",), ("ktheory", "--beta", "2/3")])
def test_rank6_longest_word_is_the_unit_class(capsys, theory):
    # computed over the theory's own law, not specialized from the ~90 s
    # cobordism class
    w0 = "1,2,1,3,2,1,4,3,2,1,5,4,3,2,1"
    payload = run_json(capsys, "bsclass", "--n", "6", "--word", w0,
                       "--theory", *theory)
    assert payload["terms"] == [
        {"x": [0] * 6, "coeff": [{"b": [], "num": "1", "den": "1"}]}]


def test_cobordism_commands_use_the_one_argument_context(capsys):
    # the benchmark builds cli._context(n) in set-up and times the commands
    # on it, so a cobordism request must find that cache entry
    cli._context.cache_clear()
    cli._context(3)
    misses = cli._context.cache_info().misses
    parser = cli.build_parser()
    ns = parser.parse_args(["bsclass", "--n", "3", "--word", "1,2,1"])
    assert cli.cmd_bsclass(ns) == 0
    ns = parser.parse_args(["chevalley", "--n", "3", "--word", "2,1",
                            "--weight", "1,0,0"])
    assert cli.cmd_chevalley(ns) == 0
    capsys.readouterr()
    assert cli._context.cache_info().misses == misses


def test_product_golden(capsys):
    payload = run_json(capsys, "product", "--n", "3",
                       "--left", "1,2", "--right", "2,1")
    rows = {tuple(t["subword"]): t["coeff"] for t in payload["terms"]}
    assert rows[()] == [{"b": [[1, 1]], "num": "-1", "den": "1"}]
    assert rows[(1,)] == [{"b": [], "num": "1", "den": "1"}]
    assert rows[(2,)] == [{"b": [], "num": "1", "den": "1"}]


def test_product_zero(capsys):
    payload = run_json(capsys, "product", "--n", "3",
                       "--left", "1,2", "--right", "2")
    assert payload["terms"] == []


def test_product_chow_value_matches(capsys):
    payload = run_json(capsys, "product", "--n", "3",
                       "--left", "2,1", "--right", "2,1",
                       "--theory", "chow")
    rows = {tuple(t["subword"]): t["coeff"] for t in payload["terms"]}
    assert rows == {(1,): [{"b": [], "num": "1", "den": "1"}]}


def test_product_verify_flag(capsys):
    code, out, err = run(capsys, "product", "--n", "3",
                         "--left", "1,2", "--right", "2,1", "--verify")
    assert code == 0
    assert "verify: ok" in out


def test_chevalley_golden(capsys):
    payload = run_json(capsys, "chevalley", "--n", "3",
                       "--word", "2,1", "--weight", "1,0,0")
    rows = {tuple(t["subword"]): t["coeff"] for t in payload["terms"]}
    assert rows[()] == [{"b": [[1, 1]], "num": "-1", "den": "1"}]
    assert rows[(1,)] == [{"b": [], "num": "1", "den": "1"}]
    assert rows[(2,)] == [{"b": [], "num": "1", "den": "1"}]


def test_chevalley_zero_pairing(capsys):
    # weight orthogonal to gamma_2: only the empty row could appear, and it
    # carries zero, so the table is empty
    payload = run_json(capsys, "chevalley", "--n", "3",
                       "--word", "2", "--weight", "1,0,0")
    assert payload["terms"] == []


def test_chevalley_chow_rows_are_beta_pairings(capsys):
    # in the additive theory only single removals survive and the values
    # are the beta pairings
    from cobschub.flagring import Weight
    from cobschub.weylops import beta_sequence, coroot_pairing

    payload = run_json(capsys, "chevalley", "--n", "3",
                       "--word", "2,1", "--weight", "0,1,0",
                       "--theory", "chow")
    got = {}
    for row in payload["terms"]:
        coeff = row["coeff"]
        assert len(coeff) == 1 and coeff[0]["b"] == []
        got[tuple(row["subword"])] = int(coeff[0]["num"])
    lam = Weight((0, 1, 0))
    betas = beta_sequence((2, 1), 3)
    expected = {}
    for j in range(2):
        value = coroot_pairing(lam, betas[j])
        if value:
            kept_word = tuple((2, 1)[p] for p in range(2) if p != j)
            expected[kept_word] = value
    assert got == expected


def test_fgl_dump(capsys):
    payload = run_json(capsys, "fgl", "--max-degree", "3")
    F_terms = {tuple(t["x"]): t["coeff"] for t in payload["F"]["terms"]}
    assert F_terms[(1, 1)] == [{"b": [[1, 1]], "num": "-1", "den": "1"}]
    assert F_terms[(2, 1)] == [
        {"b": [[1, 2]], "num": "1", "den": "1"},
        {"b": [[2, 1]], "num": "-1", "den": "1"}]
    chi_terms = {tuple(t["x"]): t["coeff"] for t in payload["chi"]["terms"]}
    assert chi_terms[(3,)] == [{"b": [[1, 2]], "num": "-1", "den": "1"}]


def test_expand_command(capsys):
    payload = run_json(capsys, "expand", "--n", "3", "--word", "2,1,2")
    classes = {tuple(c["perm"]): c for c in payload["classes"]}
    assert classes[(3, 2, 1)]["coeff"] == [{"b": [], "num": "1", "den": "1"}]
    assert classes[(3, 2, 1)]["word"] == [1, 2, 1]


def test_pieri_command(capsys):
    payload = run_json(capsys, "pieri", "--n", "3", "--word", "1,2,1",
                       "--weight", "1,0,0")
    assert payload["rows"] == [
        {"position": 1, "subword": [2, 1], "exponent": 0},
        {"position": 2, "subword": [1, 1], "exponent": 1},
        {"position": 3, "subword": [1, 2], "exponent": 1},
    ]


def test_empty_tables_print_zero_in_text(capsys):
    # the empty word has no positions, so pieri has no rows; like an empty
    # chevalley table, text mode prints 0 rather than nothing
    for argv in (("pieri", "--n", "3", "--word", "", "--weight", "1,0,0"),
                 ("chevalley", "--n", "3", "--word", "2",
                  "--weight", "1,0,0")):
        assert run(capsys, *argv) == (0, "0\n", ""), argv
    payload = run_json(capsys, "pieri", "--n", "3", "--word", "",
                       "--weight", "1,0,0")
    assert payload["rows"] == []


def test_selftest_rank2(capsys):
    code, out, err = run(capsys, "selftest", "--n", "2")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS law-axioms" in out


@pytest.mark.parametrize("theory", ["cobordism", "chow", "ktheory"])
def test_selftest_rank3(capsys, theory):
    # JSON mode prints one object that lists the table's checks in order
    payload = run_json(capsys, "selftest", "--n", "3", "--theory", theory)
    names = [check.name for check in CHECKS if check.admits(3, theory)]
    assert payload == {"command": "selftest", "n": 3, "theory": theory,
                       "checks": [{"name": name, "ok": True}
                                  for name in names]}


def test_selftest_reports_a_failing_check_and_keeps_going(capsys,
                                                          monkeypatch):
    def broken(ctx):
        raise AssertionError("broken on purpose")

    monkeypatch.setattr(selftest, "CHECKS", tuple(
        check._replace(body=broken) if check.name == "law-axioms" else check
        for check in CHECKS))
    names = [check.name for check in CHECKS if check.admits(2, "cobordism")]
    code, out, err = run(capsys, "selftest", "--n", "2")
    assert code == 1
    assert out.splitlines() == [
        "FAIL law-axioms: broken on purpose" if name == "law-axioms"
        else f"PASS {name}" for name in names]
    code, out, err = run(capsys, "selftest", "--n", "2", "--format", "json")
    assert code == 1
    assert json.loads(out)["checks"] == [
        {"name": name, "ok": False,
         "error": "AssertionError: broken on purpose"}
        if name == "law-axioms" else {"name": name, "ok": True}
        for name in names]


@pytest.mark.parametrize("theory", THEORIES)
def test_selftest_rank5(capsys, theory):
    # the rank cap of every command admits rank 5, and the table alone
    # decides which checks run there
    code, out, err = run(capsys, "selftest", "--n", "5", "--theory", theory)
    names = [check.name for check in CHECKS if check.admits(5, theory)]
    assert code == 0 and not err
    assert out.splitlines() == [f"PASS {name}" for name in names]


def test_selftest_refuses_ranks_above_its_cap(capsys, monkeypatch):
    # refused before any context is built, at the cap of every command
    monkeypatch.setattr(selftest, "FlagContext", None)
    code, out, err = run(capsys, "selftest", "--n", "7")
    assert code == 3 and not out and err.startswith("error:")


def test_selftest_write_error_is_not_a_check_failure(monkeypatch, tmp_path):
    # stdout fails its first write, as a closed pipe does: the suite has run
    # in full by then, and the command ends quietly with no FAIL line
    ran, written = [], []
    results = selftest.selftest_results

    def recording(*args):
        for name, error in results(*args):
            ran.append((name, error))
            yield name, error

    class ClosedPipe:
        def write(self, text):
            written.append(text)
            raise BrokenPipeError

        def flush(self):
            pass

        def fileno(self):  # main points it at os.devnull
            return sink.fileno()

    monkeypatch.setattr(selftest, "selftest_results", recording)
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["selftest", "--n", "2"]) == 1
    names = [check.name for check in CHECKS if check.admits(2, "cobordism")]
    assert ran == [(name, None) for name in names]
    assert written == [f"PASS {names[0]}"]


@pytest.mark.parametrize("argv, option, value", [
    (["bsclass", "--n", "3"], "--word", "1,x"),
    (["product", "--n", "3", "--right", "2"], "--left", "1;2"),
    (["product", "--n", "3", "--left", "1"], "--right", "2,,1"),
    (["chevalley", "--n", "3", "--word", "1"], "--weight", "1,0,a"),
    (["expand", "--n", "3"], "--word", "1.5"),
    (["pieri", "--n", "3", "--weight", "1,0,0"], "--word", "two"),
    (["pieri", "--n", "3", "--word", "1"], "--weight", "1,-0.5,0"),
])
def test_malformed_word_or_weight_exits_2_before_any_context(
        capsys, monkeypatch, argv, option, value):
    def built(*args):
        raise AssertionError(f"a context was built for {args}")

    monkeypatch.setattr(cli, "_context", built)
    monkeypatch.setattr(cli, "FlagContext", built)
    code, out, err = run(capsys, *argv, option, value)
    assert code == 2 and not out
    assert f"argument {option}: expected comma-separated integers" in err
    # the guard sees the build that a well-formed value reaches
    if argv[0] != "pieri":
        with pytest.raises(AssertionError, match="context was built"):
            run(capsys, *argv, option, "1")


def test_closed_stdout_ends_quietly():
    # the read end is closed before the child starts, so its first write
    # to stdout fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cobschub.cli", "selftest", "--n", "2"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)})
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_exit_codes(capsys):
    code, out, err = run(capsys, "bsclass", "--n", "3", "--word", "7")
    assert code == 2 and not out and "out of range" in err
    code, out, err = run(capsys, "bsclass", "--n", "40", "--word", "1")
    assert code == 3 and not out
    code, out, err = run(capsys, "fgl", "--max-degree", "99")
    assert code == 3
    code, out, err = run(capsys, "fgl", "--max-degree", "0")
    assert code == 2 and not out and "at least 1" in err
    code, out, err = run(capsys, "chevalley", "--n", "3", "--word", "1",
                         "--weight", "1,2")
    assert code == 2
    code, out, err = run(capsys, "bsclass", "--n", "1", "--word", "")
    assert code == 2
    code, out, err = run(capsys, "bsclass", "--n", "-3", "--word", "1")
    assert code == 2 and not out and "rank must be at least 2" in err


@pytest.mark.parametrize("command", ["chevalley", "pieri"])
@pytest.mark.parametrize("word", ["", "1"])
def test_the_engine_checks_the_weight_length(capsys, command, word):
    # the empty word applies no operator, and is checked all the same
    code, out, err = run(capsys, command, "--n", "3", "--word", word,
                         "--weight", "1,2")
    assert code == 2 and not out and "weight must have length 3" in err
    assert "got (1,2)" in err and "Weight(" not in err


def test_json_mode_builds_no_text(capsys, monkeypatch):
    def no_text(self):
        raise AssertionError("text built in JSON mode")

    monkeypatch.setattr(ringcore.TermMap, "__str__", no_text)
    monkeypatch.setattr(ringcore.CoeffPoly, "__str__", no_text)
    for argv in (("bsclass", "--n", "3", "--word", "1,2"),
                 ("product", "--n", "3", "--left", "1,2", "--right", "2,1",
                  "--verify"),
                 ("chevalley", "--n", "3", "--word", "2,1",
                  "--weight", "1,0,0"),
                 ("fgl",),
                 ("expand", "--n", "3", "--word", "2,1,2"),
                 ("pieri", "--n", "3", "--word", "1,2", "--weight", "1,0,0"),
                 ("selftest", "--n", "2")):
        run_json(capsys, *argv)
    # the guard sees the text that text mode builds
    with pytest.raises(AssertionError, match="text built"):
        run(capsys, "bsclass", "--n", "3", "--word", "1,2")


def test_json_output_is_deterministic(capsys):
    first = run(capsys, "product", "--n", "3", "--left", "1,2",
                "--right", "2,1", "--format", "json")
    second = run(capsys, "product", "--n", "3", "--left", "1,2",
                 "--right", "2,1", "--format", "json")
    assert first == second
    assert first[0] == 0


def test_each_theory_computes_in_its_own_cached_context(capsys):
    # cobordism keeps the key of _context(n), which the benchmark fills
    # before its timed region; chow is beta 0 and ktheory --beta
    expected = {"cobordism": (), "chow": (Fraction(0),),
                "ktheory": (Fraction(2, 3),)}
    assert set(expected) == set(THEORIES)
    cli._context.cache_clear()
    for theory, law in expected.items():
        assert theory_law(theory, Fraction(2, 3)) == law
        code, _, err = run(capsys, "bsclass", "--n", "2", "--word", "1",
                           "--theory", theory, "--beta", "2/3")
        assert code == 0, err
        hits = cli._context.cache_info().hits
        assert cli._context(2, *law).beta == (law[0] if law else None)
        assert cli._context.cache_info().hits == hits + 1
    with pytest.raises(UsageError, match="unknown theory"):
        theory_law("tropical", Fraction(1))


def test_ktheory_beta_parsing(capsys):
    payload = run_json(capsys, "fgl", "--max-degree", "3",
                       "--theory", "ktheory", "--beta", "2/3")
    F_terms = {tuple(t["x"]): t["coeff"] for t in payload["F"]["terms"]}
    assert F_terms[(1, 1)] == [{"b": [], "num": "-2", "den": "3"}]
    assert (2, 1) not in F_terms
    for value in ("x", "1/0"):
        code, out, err = run(capsys, "fgl", "--beta", value)
        assert code == 2
        assert "argument --beta: expected a rational number" in err


@pytest.mark.parametrize("argv, option, value", [
    (["bsclass", "--n", "3", "--word", "1", "--theory", "ktheory"],
     "--beta", "-1/2"),
    (["chevalley", "--n", "3", "--word", "1"], "--weight", "-1,0,0"),
    (["fgl", "--max-degree", "3", "--theory", "ktheory"], "--beta", "-.5"),
])
def test_negative_value_as_a_separate_argument(capsys, argv, option, value):
    joined = run(capsys, *argv, f"{option}={value}", "--format", "json")
    separate = run(capsys, *argv, option, value, "--format", "json")
    assert joined[0] == 0, joined[2]
    assert separate == joined
