"""Command-line behavior: exit codes, reproducibility, file outputs."""

import dataclasses
import hashlib
import importlib
import json
import sys
import time
from fractions import Fraction as F
from random import Random

import pytest

import gsvkit.cli
import gsvkit.fastmultibit
import gsvkit.oracle
from gsvkit import (
    BitExpState,
    MultiBitState,
    Strategy,
    ThresholdState,
    Witness,
    bit_exp_step,
    multibit_step_naive,
    threshold_bound_m,
    threshold_step,
)
from gsvkit.classify import classify
from gsvkit.cli import EXTRACTORS, _auto_witness, _transcript, main
from gsvkit.model import rat_str, sample_sequence
from gsvkit.oracle import ExtractorTable, exact_extremes
from gsvkit.presets import e2

from specgen import random_hierarchical_spec, random_spec, random_zero_mean_spec


def run(*argv) -> int:
    return main(list(argv))


def test_classify_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    assert run("classify", "--source", "fair-coin", "--out", str(out)) == 0
    assert run("classify", "--source", "e2", "--out", str(out)) == 1
    assert run("classify", "--source", "e1", "--out", str(out)) == 2
    assert run("classify", "--source", "sv:1/4", "--out", str(out)) == 2
    assert run("classify", "--source", "hidden-sv", "--out", str(out)) == 2


def test_classify_report_contents(tmp_path):
    out = tmp_path / "report.json"
    run("classify", "--source", "e1", "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["category"] == "NON_EXTRACTABLE"
    assert doc["nk"]["holds"] is True
    assert doc["hnk"]["failing_subset"] == {"dice": [1, 2], "faces": [2, 3]}


def test_classify_bad_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"faces": ["a", "b"], "dice": [["1/2", "1/3"]]}')
    assert run("classify", "--source", str(bad)) == 64
    assert "SUM_NOT_ONE" in capsys.readouterr().err
    assert run("classify", "--source", str(tmp_path / "missing.json")) == 64


@pytest.mark.parametrize("doc, named", [
    ('{"faces": ["a", "b"], "dice": [[true, false], [false, true]]}', "boolean True"),
    ('{"faces": "ab", "dice": [["1/2", "1/2"]]}', '"faces" must be an array of labels, got "ab"'),
    ('{"faces": ["a", "b"], "dice": "xx"}', '"dice" must be an array of arrays, got "xx"'),
    ('{"faces": ["a", "b"], "dice": ["xx"]}', 'die 0 must be an array, got "xx"'),
])
def test_classify_rejects_malformed_source_documents(tmp_path, capsys, doc, named):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    assert run("classify", "--source", str(bad)) == 64
    assert named in capsys.readouterr().err


def test_extract_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ("extract", "--source", "fair-coin", "--extractor", "bit-exp",
            "--n", "10", "--seed", "77")
    assert run(*args, "--out", str(out1)) == 0
    assert run(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["bits"] in ("0", "1")


def test_extract_transcript_rows(tmp_path):
    out = tmp_path / "res.json"
    tr = tmp_path / "trace.csv"
    assert run(
        "extract", "--source", "e2", "--extractor", "threshold", "--n", "25",
        "--epsilon", "1/25", "--seed", "3", "--out", str(out), "--transcript", str(tr)
    ) == 0
    lines = tr.read_text().splitlines()
    assert lines[0] == "step,face,psi_value,z_summary"
    assert len(lines) == 26


def test_extract_multibit_fast_matches_naive(tmp_path):
    bits = {}
    for ex in ("multibit-naive", "multibit-fast"):
        out = tmp_path / f"{ex}.json"
        assert run("extract", "--source", "fair-coin", "--extractor", ex,
                   "--n", "40", "--m", "3", "--seed", "11", "--out", str(out)) == 0
        bits[ex] = json.loads(out.read_text())["bits"]
    assert bits["multibit-naive"] == bits["multibit-fast"]
    assert len(bits["multibit-fast"]) == 3


def test_extract_worst_case_strategy(tmp_path):
    out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
    args = ("extract", "--source", "e2", "--extractor", "bit-exp", "--n", "5",
            "--seed", "5", "--strategy", "worst-case")
    assert run(*args, "--out", str(out1)) == 0
    assert run(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_extract_worst_case_runs_deep_games_on_few_states(tmp_path):
    # e2's threshold walk at epsilon 1/2 keeps a bounded set of states, so
    # the guard, which counts them, lets a 4^200 game through
    out = tmp_path / "w.json"
    assert run("extract", "--source", "e2", "--extractor", "threshold", "--epsilon", "1/2",
               "--n", "200", "--seed", "3", "--strategy", "worst-case", "--out", str(out)) == 0
    spec, eps = e2(), F(1, 2)
    psi = _auto_witness(spec, classify(spec), eps)
    strategy = exact_extremes(spec, ExtractorTable.for_threshold(psi, eps, 200)).max_strategy
    faces = sample_sequence(spec, strategy, 200, 3)
    assert json.loads(out.read_text())["bits"] == EXTRACTORS["threshold"].fold(psi, eps, faces, 1)


def test_extract_long_bit_exp_walk_exits_0(tmp_path):
    # the bit-exp state of this walk has more digits than Python's default
    # int-to-str limit; without --transcript it is never formatted
    out = tmp_path / "res.json"
    assert run("extract", "--source", "e2", "--extractor", "bit-exp", "--n", "4000",
               "--seed", "7", "--out", str(out)) == 0
    assert json.loads(out.read_text())["bits"] in ("0", "1")


def test_extract_transcript_over_the_digit_limit_exits_65(tmp_path, capsys):
    # the exact z of this walk outgrows Python's int-to-str limit: a typed
    # guard refuses the transcript and no file is written
    out, tr = tmp_path / "res.json", tmp_path / "steps.csv"
    assert run("extract", "--source", "e2", "--extractor", "bit-exp", "--n", "4000",
               "--seed", "7", "--out", str(out), "--transcript", str(tr)) == 65
    err = capsys.readouterr().err
    assert "transcript z at step " in err
    assert "over the int-to-str limit of 4300 digits" in err
    assert "Exceeds the limit" not in err
    assert not out.exists() and not tr.exists()


def test_transcript_digit_guard_follows_the_interpreter_limit(tmp_path, capsys):
    out, tr = tmp_path / "res.json", tmp_path / "steps.csv"
    args = ("extract", "--source", "e2", "--extractor", "bit-exp", "--n", "1000",
            "--seed", "7", "--out", str(out), "--transcript", str(tr))
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert run(*args) == 65
        assert "over the int-to-str limit of 640 digits" in capsys.readouterr().err
        assert not tr.exists()
        sys.set_int_max_str_digits(0)  # no limit: every row is written
        assert run(*args) == 0
        assert len(tr.read_text().splitlines()) == 1001
    finally:
        sys.set_int_max_str_digits(saved)


def test_extract_bits_do_not_depend_on_the_transcript(tmp_path):
    cases = [("threshold", "200", "1"), ("bit-exp", "200", "1"),
             ("multibit-naive", "60", "3"), ("multibit-fast", "60", "3")]
    seen = set()
    for extractor, n, m in cases:
        for source, seed in (("e2", "0"), ("e2", "4"), ("fair-coin", "0"), ("fair-coin", "1")):
            args = ("extract", "--source", source, "--extractor", extractor, "--n", n,
                    "--m", m, "--seed", seed)
            plain, with_rows = tmp_path / "plain.json", tmp_path / "rows.json"
            tr = tmp_path / "steps.csv"
            assert run(*args, "--out", str(plain)) == 0
            assert run(*args, "--out", str(with_rows), "--transcript", str(tr)) == 0
            assert plain.read_bytes() == with_rows.read_bytes()
            assert len(tr.read_text().splitlines()) == int(n) + 1
            seen.add((extractor, json.loads(plain.read_text())["bits"]))
    assert {("threshold", "0"), ("threshold", "1"), ("bit-exp", "0"), ("bit-exp", "1")} <= seen


def test_extract_worst_case_refuses_multibit_extractors(capsys):
    for extractor in ("multibit-naive", "multibit-fast"):
        assert run("extract", "--source", "fair-coin", "--extractor", extractor,
                   "--m", "2", "--n", "3", "--strategy", "worst-case") == 64
        err = capsys.readouterr().err
        assert err == "worst-case strategy needs a single-bit extractor (threshold, bit-exp)\n"


def test_bias_refuses_multibit_extractors(capsys):
    for extractor in ("multibit-naive", "multibit-fast"):
        assert run("bias", "--source", "fair-coin", "--extractor", extractor,
                   "--n", "1..3") == 64
        assert capsys.readouterr().err == "bias sweeps need a single-bit extractor\n"


def test_extract_naive_width_guard_exits_65(capsys):
    assert run("extract", "--source", "fair-coin", "--extractor", "multibit-naive",
               "--n", "8", "--m", "21") == 65
    err = capsys.readouterr().err
    assert "m=21" in err and "(20)" in err


def test_extract_fast_group_guard_exits_65(monkeypatch, capsys):
    monkeypatch.setattr(gsvkit.fastmultibit, "FAST_GROUP_GUARD", 3)
    assert run("extract", "--source", "fair-coin", "--extractor", "multibit-fast",
               "--n", "50", "--m", "8") == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("step ")
    assert captured.err.endswith(" groups, over the guard 3\n")


def test_extract_negative_seed_exits_64(capsys):
    assert run("extract", "--source", "e2", "--extractor", "threshold", "--n", "300",
               "--seed", "-5") == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "seed must be nonnegative, got -5\n")


def test_extract_non_extractable_exits_2():
    assert run("extract", "--source", "e1", "--n", "4") == 2


def test_extract_strategy_file(tmp_path):
    tree = {"die": 1, "children": {
        "a": {"die": 2, "children": {}},
        "b": {"die": 2, "children": {}},
        "c": {"die": 0, "children": {}},
        "d": {"die": 0, "children": {}},
    }}
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(tree))
    out = tmp_path / "res.json"
    assert run("extract", "--source", "e2", "--extractor", "bit-exp", "--n", "2",
               "--seed", "1", "--strategy", str(path), "--out", str(out)) == 0


@pytest.mark.parametrize("source, n, tree, message", [
    ("e2", "1", {"die": True, "children": {}},
     "strategy tree die True at history () is not an integer"),
    ("fair-coin", "3", {"die": 0, "children": {"H": 5, "T": 5}},
     "strategy tree walk to history (0,) meets a node that is not an object"),
], ids=["boolean-die", "int-node"])
def test_extract_rejects_malformed_strategy_files(tmp_path, capsys, source, n, tree, message):
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(tree))
    assert run("extract", "--source", source, "--n", n, "--strategy", str(path)) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")


def test_extract_subset_guard_exits_65(tmp_path, capsys):
    # 16 point-mass dice: no nonzero kernel, so not NK+, and HNK would test
    # 2^16 - 1 support unions; classify and extract refuse as the closure
    # grows, before any rank test
    source = tmp_path / "wide.json"
    dice = [[int(f == d) for f in range(16)] for d in range(16)]
    source.write_text(json.dumps({"faces": [f"f{i}" for i in range(16)], "dice": dice}))
    for command in ("classify", "extract"):
        assert run(command, "--source", str(source)) == 65
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "65535 support unions, over the guard 32768\n")


def test_classify_an_nk_plus_source_past_the_subset_guard(tmp_path, capsys):
    # NK+ implies HNK, so 25 fair coins classify without enumerating
    # subsets, with the bytes the HNK walk would give
    source = tmp_path / "coins.json"
    source.write_text(json.dumps({"faces": ["a", "b"], "dice": [["1/2", "1/2"]] * 25}))
    assert run("classify", "--source", str(source)) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert (doc["category"], doc["nk_plus"]["holds"], doc["hnk"]) == (
        "EXP_ERROR", True, {"holds": True})
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ("classify", "--source", "e2"),
    ("extract", "--source", "fair-coin", "--n", "4"),
    ("bias", "--source", "fair-coin", "--n", "1..2"),
], ids=["classify", "extract", "bias"])
def test_out_into_a_missing_directory_exits_64(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.txt"
    assert run(*argv, "--out", str(out)) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"[Errno 2] No such file or directory: {str(out)!r}\n"


def test_transcript_into_a_missing_directory_exits_64(tmp_path, capsys):
    out, tr = tmp_path / "res.json", tmp_path / "missing" / "steps.csv"
    assert run("extract", "--source", "fair-coin", "--n", "4", "--out", str(out),
               "--transcript", str(tr)) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"[Errno 2] No such file or directory: {str(tr)!r}\n"


def test_bias_fair_coin_column_is_zero(tmp_path):
    # the lone fair die admits no adversary; the exact bias column is
    # identically zero (see the oracle tests for the symmetry argument)
    out = tmp_path / "bias.csv"
    assert run("bias", "--source", "fair-coin", "--extractor", "bit-exp",
               "--n", "1..6", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,bias"
    assert len(lines) == 7
    assert all(line.endswith(",0") for line in lines[1:])


def test_bias_with_extractor_table_file(tmp_path):
    table = tmp_path / "const.json"
    table.write_text(json.dumps({"n": 2, "outputs": [1, 1, 1, 1]}))
    out = tmp_path / "bias.csv"
    assert run("bias", "--source", "sv:1/4", "--extractor", str(table),
               "--out", str(out)) == 0
    assert out.read_text().splitlines()[1] == "2,1"


_FAST = ("extract", "--source", "fair-coin", "--extractor", "multibit-fast")
_WALK = ("extract", "--source", "e2", "--extractor", "threshold")


@pytest.mark.parametrize("argv, code", [
    # numbers
    (("extract", "--source", "e2", "--n", "-1"), 64),
    ((*_FAST, "--m", "0"), 64),
    ((*_FAST, "--m", "-3"), 64),
    (("extract", "--source", "fair-coin", "--seed", "-1"), 64),
    (("extract", "--source", "fair-coin", "--seed", "1.5"), 64),
    ((*_WALK, "--epsilon", "0"), 64),
    ((*_WALK, "--epsilon", "2"), 64),
    ((*_WALK, "--epsilon", "abc"), 64),
    ((*_WALK, "--epsilon", "1/0"), 64),
    (("bias", "--source", "e2", "--extractor", "threshold", "--epsilon", "-1/2"), 64),
    (("extract", "--source", "e2", "--n", "abc"), 64),
    # strategies
    (("extract", "--source", "fair-coin", "--strategy", "constant:x"), 64),
    (("extract", "--source", "fair-coin", "--strategy", "constant:-1"), 64),
    (("extract", "--source", "fair-coin", "--strategy", "constant:99999999999999999999"), 64),
    # sources
    (("classify", "--source", "sv:2"), 64),
    (("classify", "--source", "sv:abc"), 64),
    (("classify", "--source", "{non_utf8}"), 64),
    # ranges
    (("bias", "--source", "e2", "--n", "5..3"), 64),
    (("bias", "--source", "e2", "--n", "a..b"), 64),
    (("bias", "--source", "e2", "--n", ""), 64),
    (("bias", "--source", "e2", "--n", "1,,2"), 64),
    # other
    (("classify", "--source", "e2", "--out", "{missing}"), 64),
    (("classify",), 64),
    (("classify", "--source", "e2", "--bogus"), 64),
    (("frobnicate", "--source", "e2"), 64),
    (("bias", "--source", "e2", "--n", "2", "--m", "3"), 64),
    ((*_FAST, "--m", "63"), 65),
])
def test_bad_input_exits_with_its_documented_code(tmp_path, capsys, argv, code):
    # usage errors exit 64 like any parse failure, not argparse's 2, which
    # classify uses for NON_EXTRACTABLE; nothing reaches stdout and no
    # traceback reaches stderr
    non_utf8 = tmp_path / "source.json"
    non_utf8.write_bytes(b'{"faces": ["\xff\xfe"], "dice": [["1"]]}')
    paths = {"non_utf8": non_utf8, "missing": tmp_path / "missing" / "x"}
    assert run(*[arg.format(**paths) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err and "Traceback" not in captured.err


def test_usage_errors_keep_argparse_text_and_help_exits_0(capsys):
    assert run("classify") == 64
    assert capsys.readouterr() == ("", "usage: gsvkit classify [-h] --source SOURCE [--out OUT]\n"
                                       "gsvkit classify: error: the following arguments are "
                                       "required: --source\n")
    with pytest.raises(SystemExit) as done:
        run("--help")
    assert done.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: gsvkit") and captured.err == ""


def test_bias_table_file_of_the_wrong_size_exits_64_without_forming_the_power(tmp_path, capsys):
    # 3^10000000 has millions of digits: the size check must not form it
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"n": 10_000_000, "outputs": [1]}))
    t0 = time.perf_counter()
    code = run("bias", "--source", "hidden-sv", "--extractor", str(table))
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 64
    assert (captured.out, captured.err) == ("", "need |F|^n = 3^10000000 outputs, got 1\n")
    assert elapsed < 1.0


def test_bias_guard_exit(monkeypatch, capsys):
    monkeypatch.setattr(gsvkit.oracle, "TREE_GUARD", 2)
    assert run("bias", "--source", "fair-coin", "--extractor", "bit-exp",
               "--n", "4..6") == 65
    assert capsys.readouterr() == ("", "3 game-tree states interned, over the guard 2\n")


def test_bias_digit_guard_names_the_first_row_in_list_order(capsys):
    # the exact bias outgrows Python's int-to-str limit as n grows: a typed
    # guard names the first row too wide to format, and nothing is written
    args = ("bias", "--source", "e2", "--extractor", "threshold", "--epsilon", "1/2")
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert run(*args, "--n", "1..800") == 65
        assert capsys.readouterr() == (
            "", "bias at n = 718 has 641 digits, over the int-to-str limit of 640 digits\n")
        assert run(*args, "--n", "3,800,717,718") == 65
        assert capsys.readouterr() == (
            "", "bias at n = 800 has 710 digits, over the int-to-str limit of 640 digits\n")
        assert run(*args, "--n", "717") == 0  # 633 digits
        assert capsys.readouterr().out.startswith("n,bias\n717,")
        sys.set_int_max_str_digits(0)  # no limit: every row is written
        assert run(*args, "--n", "800") == 0
        assert capsys.readouterr().out.startswith("n,bias\n800,")
    finally:
        sys.set_int_max_str_digits(saved)


def test_bias_rejects_negative_n(capsys):
    for n in ("--n=-1", "--n=-2..1"):
        assert run("bias", "--source", "fair-coin", "--extractor", "bit-exp", n) == 64
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "n must be nonnegative\n")


def test_bias_rejects_empty_range(capsys):
    assert run("bias", "--source", "fair-coin", "--extractor", "bit-exp", "--n", "5..3") == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "empty range 5..3: lo must not exceed hi\n")


def test_bias_deep_one_face_game(tmp_path):
    # a one-face table has one state, so the guard lets any depth through:
    # n = 2000 is past Python's recursion limit
    source, table = tmp_path / "one.json", tmp_path / "table.json"
    source.write_text(json.dumps({"faces": ["a"], "dice": [["1"]]}))
    table.write_text(json.dumps({"n": 2000, "outputs": [1]}))
    out = tmp_path / "bias.csv"
    assert run("bias", "--source", str(source), "--extractor", str(table),
               "--out", str(out)) == 0
    assert out.read_text().splitlines() == ["n,bias", "2000,1"]


def test_bias_deep_one_face_table_steps_linearly(tmp_path, monkeypatch):
    # a one-face table has one state, prefix index 0, which the sweep
    # interns across depths: it steps once in all, whatever n is
    load, calls = gsvkit.cli._load_table, 0

    def counted_load(path, num_faces):
        table = load(path, num_faces)

        def step(state, face):
            nonlocal calls
            calls += 1
            return table.step(state, face)

        return dataclasses.replace(table, step=step)

    monkeypatch.setattr(gsvkit.cli, "_load_table", counted_load)
    source, table = tmp_path / "one.json", tmp_path / "table.json"
    source.write_text(json.dumps({"faces": ["a"], "dice": [["1"]]}))
    table.write_text(json.dumps({"n": 20_000, "outputs": [1]}))
    out = tmp_path / "bias.csv"
    assert run("bias", "--source", str(source), "--extractor", str(table),
               "--out", str(out)) == 0
    assert out.read_text().splitlines() == ["n,bias", "20000,1"]
    assert calls == 1


@pytest.mark.parametrize("ns, code, err", [
    ("3,-1", 64, "n must be nonnegative\n"),
    ("-1,3", 64, "n must be nonnegative\n"),
    ("2,5,-1", 64, "n must be nonnegative\n"),
    ("1,-2,9", 64, "n must be nonnegative\n"),
    ("2,5", 65, "7 game-tree states interned, over the guard 4\n"),
])
def test_bias_checks_each_n_in_list_order(monkeypatch, capsys, ns, code, err):
    # a negative n anywhere in the list is refused before any work; only
    # then does the guard count the states the sweep interns
    monkeypatch.setattr(gsvkit.oracle, "TREE_GUARD", 4)
    assert run("bias", "--source", "fair-coin", "--extractor", "bit-exp", f"--n={ns}") == code
    assert capsys.readouterr() == ("", err)


def test_bias_deep_sweep_on_few_states(capsys):
    # 4^15 sequences, but the walk freezes once |2z| >= 4: few states
    assert run("bias", "--source", "e2", "--extractor", "threshold", "--epsilon", "1/2",
               "--n", "12..15") == 0
    assert capsys.readouterr() == ("".join(row + "\n" for row in [
        "n,bias",
        "12,1017001529/1719926784",
        "13,63593837273/123834728448",
        "14,147737615417/247669456896",
        "15,3120477988961/5944066965504",
    ]), "")


@pytest.mark.parametrize("n, count", [
    ("99999999999999999999", 143 * 10**20 - 1217),
    ("1..1000000000000", 143 * 10**12 - 1074),
], ids=["one-n", "range"])
def test_bias_refuses_a_huge_n_before_looping_over_it(capsys, n, count):
    # 143 states, reached within a few steps: the guard counts the sweep's
    # (state, steps left) pairs and refuses before any loop or list grows
    # with n
    assert run("bias", "--source", "e2", "--extractor", "threshold", "--epsilon", "1/2",
               "--n", n) == 65
    assert capsys.readouterr() == (
        "", f"{count} (state, steps left) pairs to sweep, over the guard 10000000\n")


def test_worst_case_refuses_a_huge_n_before_any_pass(capsys):
    # a game sweeps at least one state per step, so n past the guard is
    # refused before the forward pass
    t0 = time.perf_counter()
    assert run("extract", "--source", "e2", "--extractor", "threshold", "--epsilon", "1/2",
               "--strategy", "worst-case", "--n", "1000000000000") == 65
    assert time.perf_counter() - t0 < 5
    assert capsys.readouterr() == (
        "", "1000000000000 game steps to sweep, over the guard 10000000\n")


@pytest.mark.parametrize("argv, what", [
    (("classify", "--source", "{}"), "source"),
    (("bias", "--source", "fair-coin", "--extractor", "{}"), "extractor table"),
    (("extract", "--source", "fair-coin", "--n", "2", "--strategy", "{}"), "strategy"),
], ids=["source", "table", "strategy"])
def test_deeply_nested_json_exits_64(tmp_path, capsys, argv, what):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run(*[arg.format(path) for arg in argv]) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"bad {what} JSON: nested too deep to parse\n")


def test_bias_comma_lists_keep_order_and_repeats(capsys):
    assert run("bias", "--source", "e2", "--extractor", "threshold", "--n", "3,1,3,0") == 0
    assert capsys.readouterr().out.splitlines() == [
        "n,bias", "3,287/864", "1,1/6", "3,287/864", "0,1"
    ]


def _assert_corpus_digest(tmp_path, runs, pinned: str) -> None:
    """``runs`` yields (argv, bytes) per run; the sha256 of all the bytes
    in order must be ``pinned``.  On a mismatch the message lists a short
    digest of each run next to its argv, to diff against another commit."""
    digest, lines = hashlib.sha256(), []
    for argv, blob in runs:
        digest.update(blob)
        shown = " ".join(argv).replace(f"{tmp_path}/", "")
        lines.append(f"{hashlib.sha256(blob).hexdigest()[:12]}  {shown}")
    assert digest.hexdigest() == pinned, "per-run sha256:\n" + "\n".join(lines)


def _bias_corpus(tmp_path):
    """(source, extractor, n list, epsilon) of seeded bias runs: presets,
    specgen sources, ranges, comma lists with repeats, a deep sweep on
    few states, a non-extractable source and two table files."""
    def source_file(name, spec):
        path = tmp_path / f"{name}.json"
        dice = [[rat_str(p) for p in die.probs] for die in spec.dice]
        path.write_text(json.dumps({"faces": list(spec.face_labels), "dice": dice}))
        return str(path)

    rng = Random(2317)
    runs = [
        ("fair-coin", "bit-exp", "1..10", "1/16"),
        ("fair-coin", "threshold", "0..6", "1/4"),
        ("e2", "threshold", "1..6", "1/16"),
        ("e2", "threshold", "1..13", "1/2"),
        ("e2", "threshold", "12..15", "1/2"),
        ("e2", "bit-exp", "0..6", "1/16"),
        ("e2", "threshold", "3,1,3,0", "1/3"),
        ("e2", "bit-exp", "5,2,5", "1/16"),
        ("e1", "bit-exp", "1..3", "1/16"),
    ]
    for k in range(4):
        spec, _psi = random_zero_mean_spec(rng, rng.randint(2, 3), rng.randint(1, 3))
        runs.append((source_file(f"zm{k}", spec), "bit-exp", f"0..{rng.randint(4, 6)}", "1/16"))
    for k in range(3):
        spec = source_file(f"hier{k}", random_hierarchical_spec(rng))
        runs.append((spec, "threshold", f"1..{rng.randint(3, 4)}", "1/8"))
        runs.append((spec, "bit-exp", "4,0,2,2", "1/8"))
    runs.append((source_file("rand", random_spec(rng, 3, 2)), "threshold", "1..3", "1/16"))
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"n": 4, "outputs": [rng.choice((1, -1)) for _ in range(81)]}))
    runs.append(("hidden-sv", str(table), "1..8", "1/16"))
    table = tmp_path / "table2.json"
    table.write_text(json.dumps({"n": 3, "outputs": [rng.choice((1, -1)) for _ in range(64)]}))
    runs.append(("e1", str(table), "1..8", "1/16"))
    return runs


def test_bias_corpus_bytes_are_pinned(tmp_path, capsys):
    # exit codes, CSV bytes and stderr of seeded bias runs, hashed: the
    # digest was taken when each n was its own exact_extremes call, with
    # the 12..15 sweep's |F|^n guard raised
    out = tmp_path / "bias.csv"

    def runs():
        for source, extractor, ns, eps in _bias_corpus(tmp_path):
            out.unlink(missing_ok=True)
            argv = ["bias", "--source", source, "--extractor", extractor, "--n", ns,
                    "--epsilon", eps, "--out", str(out)]
            code = run(*argv)
            text = out.read_bytes() if out.exists() else b""
            yield argv, b"%d\n" % code + text + capsys.readouterr().err.encode()

    _assert_corpus_digest(
        tmp_path, runs(), "de132c63f4eca468a530a41aa53172e6614c3603d15b827b38c636a5ffc4ce11"
    )


def _extract_corpus(tmp_path):
    """argv lists of seeded extract runs: every extractor, the presets
    (non-extractable ones included) and specgen sources, constant,
    worst-case and tree strategies, n from 0 to 5000, seeds 0 and
    2^31 - 1."""
    def source_file(name, spec):
        path = tmp_path / f"{name}.json"
        dice = [[rat_str(p) for p in die.probs] for die in spec.dice]
        path.write_text(json.dumps({"faces": list(spec.face_labels), "dice": dice}))
        return str(path)

    def tree_file(name, spec, n):
        # a strategy that switches dice at every step
        ndice = spec.num_dice
        strategy = Strategy(lambda h: (len(h) + sum(h)) % ndice)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(strategy.to_tree(spec, n)))
        return str(path)

    top = str(2**31 - 1)
    e2_tree = tree_file("e2tree", e2(), 6)
    runs = [
        ("e2", "threshold", 5000, "0", "constant:0"),
        ("e2", "threshold", 5000, top, "constant:1"),
        ("e2", "bit-exp", 5000, "0", "constant:2"),
        ("e2", "bit-exp", 1, top, "constant:1"),
        ("e2", "multibit-naive", 5000, "0", "constant:1", "2"),
        ("e2", "multibit-fast", 5000, top, "constant:2", "3"),
        ("e2", "threshold", 0, "0", "constant:0"),
        ("e2", "threshold", 5, "0", "worst-case"),
        ("e2", "bit-exp", 8, top, "worst-case"),
        ("e2", "threshold", 6, "0", e2_tree),
        ("e2", "multibit-naive", 6, top, e2_tree, "3"),
        ("fair-coin", "threshold", 5000, "0", "constant:0"),
        ("fair-coin", "bit-exp", 5000, top, "constant:0"),
        ("fair-coin", "multibit-fast", 1, "0", "constant:0", "1"),
        ("fair-coin", "multibit-naive", 0, top, "constant:0", "2"),
        ("fair-coin", "bit-exp", 8, "0", "worst-case"),
        ("fair-coin", "threshold", 1, top, "worst-case"),
        ("fair-coin", "threshold", 3, "0", "constant:1"),
        ("sv:1/3", "threshold", 5000, "0", "constant:0"),
        ("sv:1/3", "bit-exp", 1, top, "constant:1"),
        ("hidden-sv", "bit-exp", 5000, "0", "constant:0"),
        ("hidden-sv", "threshold", 0, top, "constant:1"),
    ]
    rng = Random(2417)
    for k in range(4):
        spec, _psi = random_zero_mean_spec(rng, rng.randint(2, 4), rng.randint(2, 3))
        source = source_file(f"zm{k}", spec)
        seed = ("0", top)[k % 2]
        runs.append((source, ("threshold", "bit-exp")[k % 2], 5000, seed,
                     f"constant:{spec.num_dice - 1}"))
        runs.append((source, "threshold", 7, seed, tree_file(f"zm{k}tree", spec, 7)))
    return [["extract", "--source", source, "--extractor", extractor, "--n", str(n),
             "--seed", seed, "--strategy", strategy, *(["--m", m[0]] if m else [])]
            for source, extractor, n, seed, strategy, *m in runs]


def test_extract_corpus_bytes_are_pinned(tmp_path, capsys):
    # exit codes, stdout and stderr of seeded extract runs, hashed: the
    # digest was taken when each draw scanned its die's thresholds in turn
    def runs():
        for argv in _extract_corpus(tmp_path):
            code = run(*argv)
            captured = capsys.readouterr()
            yield argv, b"%d\n" % code + captured.out.encode() + captured.err.encode()

    _assert_corpus_digest(
        tmp_path, runs(), "60a0b4d570c1677a7b3f6138f7bb7a447a1eb9974b3105775d38d7e54161ec88"
    )


def _reference_rows(extractor, psi, epsilon, faces, m):
    """The transcript rows, with z from the Fraction steppers."""
    if extractor == "threshold":
        state, step = ThresholdState.initial(threshold_bound_m(epsilon)), threshold_step
    elif extractor == "bit-exp":
        state, step = BitExpState(), bit_exp_step
    else:
        state, step = MultiBitState.initial(m), multibit_step_naive
    rows = ["step,face,psi_value,z_summary"]
    for i, face in enumerate(faces, start=1):
        state = step(state, psi.values[face])
        z = state.z[state.order[-1]] if isinstance(state, MultiBitState) else state.z
        rows.append(f"{i},{face},{rat_str(psi.values[face])},{rat_str(z)}")
    return "".join(row + "\n" for row in rows)


def test_transcripts_match_the_fraction_steppers():
    # a zero value, mixed denominators and a threshold walk that freezes
    rng = Random(13)
    witnesses = [Witness([1, F(-1, 2), F(1, 3), 0], "NK"), Witness([1, -1], "NK"),
                 Witness([F(1, 4), F(-2, 3), 0], "NK")]
    for psi in witnesses:
        for n in (0, 1, 9, 40):
            faces = [rng.randrange(len(psi.values)) for _ in range(n)]
            for name in EXTRACTORS:
                m = rng.randint(1, 4)
                got = _transcript(EXTRACTORS[name], psi, F(1, 4), faces, m)
                assert got == _reference_rows(name, psi, F(1, 4), faces, m), (name, psi, faces)


def test_unparsable_epsilon_exits_64(capsys):
    assert run("extract", "--source", "fair-coin", "--epsilon", "0.5.5") == 64
    assert capsys.readouterr().err == "cannot parse rational from '0.5.5'\n"
    assert run("bias", "--source", "fair-coin", "--epsilon", "x") == 64
    assert capsys.readouterr().err == "cannot parse rational from 'x'\n"


def test_bias_rejects_malformed_extractor_tables(tmp_path, capsys):
    table = tmp_path / "table.json"
    for doc in ([1], {"n": 1, "outputs": 5}, {"outputs": [1, -1]}, {"n": 1, "outputs": [1.5, -1]},
                {"n": 1.0, "outputs": [1, -1]}, {"n": 1, "outputs": [True, -1]}):
        table.write_text(json.dumps(doc))
        assert run("bias", "--source", "fair-coin", "--extractor", str(table)) == 64
        assert "an extractor table is a JSON object" in capsys.readouterr().err
    table.write_text(json.dumps({"n": 1, "outputs": [5, 0]}))
    assert run("bias", "--source", "fair-coin", "--extractor", str(table)) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "output 0 is 5, not +1 or -1\n")


def test_bias_runs_check_hnk_once(monkeypatch):
    # classify decides HNK; the ratio witness trusts its report
    classify_module = importlib.import_module("gsvkit.classify")
    check_hnk = classify_module.check_hnk
    calls = []

    def counted(spec):
        calls.append(spec)
        return check_hnk(spec)

    monkeypatch.setattr(classify_module, "check_hnk", counted)
    assert run("bias", "--source", "e2", "--extractor", "threshold", "--n", "1..3") == 0
    assert len(calls) == 1
