"""Adversary oracle: extremes, distributions, TV error, greedy adversary."""

import dataclasses
import json
import re
import time
from fractions import Fraction as F
from functools import partial, reduce
from itertools import product
from random import Random

import pytest

import gsvkit.oracle
from gsvkit import (
    EnumLimitError,
    NoQualifyingDieError,
    SourceSpec,
    Strategy,
    StrategyError,
    TreeLimitError,
    Witness,
    check_mvd,
    dual_certificate,
    mvr_witness,
)
from gsvkit.extractors import (
    BitExpState,
    ThresholdState,
    bit_exp_step,
    multibit_extract_naive,
    threshold_bound_m,
    threshold_step,
)
from gsvkit.oracle import (
    BiasReport,
    ExtractorTable,
    exact_biases,
    exact_extremes,
    exact_multibit_error,
    expectation,
    greedy_plus_strategy,
    output_distribution,
)
from gsvkit.model import rat_str, sample_sequence
from gsvkit.presets import e1, e2, fair_coin, sv_pair

import layered
from specgen import PSI_POOL, random_hierarchical_spec, random_spec, random_zero_mean_spec

SV = sv_pair("1/4")
PM = Witness([1, -1], "NK_PLUS")
FIRST_BIT = ExtractorTable.from_outputs(1, 2, [1, -1])
# the symmetric die and a lopsided zero-mean die, with an NK+ witness
TWO_DIE = SourceSpec(("a", "b", "c", "d"), [("1/2", "1/2", "0", "0"), ("0", "0", "1/3", "2/3")])
TWO_DIE_WIT = Witness([1, -1, 1, F(-1, 2)], "NK_PLUS")


def _all_tables(num_faces: int, n: int):
    size = num_faces**n
    for outputs in product((1, -1), repeat=size):
        yield ExtractorTable.from_outputs(n, num_faces, outputs)


# -- exact extremes ---------------------------------------------------------


def test_constant_extractor():
    report = exact_extremes(SV, ExtractorTable.constant(2, 1))
    assert (report.max_expectation, report.min_expectation, report.bias) == (1, 1, 1)


def test_sv_pair_single_sample():
    report = exact_extremes(SV, FIRST_BIT)
    assert report.max_expectation == F(1, 2)
    assert report.min_expectation == F(-1, 2)
    assert report.bias == F(1, 2)
    assert report.max_strategy.to_tree(SV, 1) == {"die": 0, "children": {"H": {}, "T": {}}}
    assert report.min_strategy.to_tree(SV, 1)["die"] == 1
    doc = json.loads(report.to_json())
    assert doc["bias"] == "1/2"
    assert doc["max_expectation"] == "1/2"
    assert doc["max_strategy"]["die"] == 0
    assert set(doc["max_strategy"]["children"]) == {"H", "T"}


def test_fair_coin_has_no_adversary():
    report = exact_extremes(fair_coin(), FIRST_BIT)
    assert report.max_expectation == report.min_expectation == 0


def test_extremes_match_their_strategies():
    # the oracle-consistency invariant: replaying the reported strategy
    # through the forward distribution reproduces the reported value
    wit = Witness([1, -1, 1, F(-1, 2)], "NK_PLUS")
    spec = SourceSpec(
        ("a", "b", "c", "d"), [("1/2", "1/2", "0", "0"), ("0", "0", "1/3", "2/3")]
    )
    for n in (1, 2, 3):
        table = ExtractorTable.for_bit_exp(wit, n)
        report = exact_extremes(spec, table)
        hi = expectation(output_distribution(spec, report.max_strategy, table))
        lo = expectation(output_distribution(spec, report.min_strategy, table))
        assert hi == report.max_expectation
        assert lo == report.min_expectation
        assert report.min_expectation <= report.max_expectation


def test_tree_guard_raises(monkeypatch):
    monkeypatch.setattr(gsvkit.oracle, "TREE_GUARD", 1)
    with pytest.raises(TreeLimitError):
        exact_extremes(SV, FIRST_BIT)


def test_tree_guard_counts_the_nodes_each_pass_visits(monkeypatch):
    # each pass counts the game-tree nodes it visits, equal states once,
    # and refuses one past its count, naming the count and the limit;
    # |F|^n (4^10 on e2, 2^6 on SV) decides nothing
    psi = Witness([1, -1, F(1, 2), F(-1, 2)], "NK")
    walk = ExtractorTable.for_threshold(psi, F(1, 2), 10)  # freezes once |2z| >= 4
    bits = ExtractorTable.for_bit_exp(PM, 6)
    interned, game = "game-tree states interned", "(depth, state) pairs to sweep"
    swept, pairs = "(state, steps left) pairs to sweep", "game-tree states reached"
    greedy = greedy_plus_strategy(SV, bits, "1/8")
    cases = [
        # a game sweeps the states at each exact depth: on e2, 11 states
        # and 91 (depth, state) pairs at depths < 10, while a bias sweep
        # to 10 takes 92 (state, steps left) pairs, each state once per r
        # it is within reach of
        (lambda: exact_extremes(e2(), walk), 91, game, TreeLimitError),
        (lambda: exact_biases(e2(), walk, [10, 3]), 92, swept, TreeLimitError),
        # the damped walk interns 63 states to depth 6 but sweeps only 39
        # (depth, state) pairs at depths < 6
        (lambda: greedy_plus_strategy(SV, bits, "1/8"), 63, interned, TreeLimitError),
        # the multi-bit worst case sweeps every (depth, state) pair once per
        # output set: 2 sets of 13 pairs, 14 sets of 3 pairs
        (lambda: exact_multibit_error(SV, ExtractorTable.for_multibit(PM, 4, 1)), 26,
         f"{game} for 2 output sets", EnumLimitError),
        (lambda: exact_multibit_error(SV, ExtractorTable.for_multibit(PM, 2, 2)), 42,
         f"{game} for 14 output sets", EnumLimitError),
        # (strategy state, table state) pairs: one strategy state, the
        # greedy policy's 63 distinct (depth, state) pairs, and a callback's
        # histories, 2^t at depth t < 6 and 24 table states at depth 6
        (lambda: output_distribution(e2(), Strategy.constant(1), walk), 102, pairs,
         TreeLimitError),
        (lambda: output_distribution(SV, greedy, bits), 63, pairs, TreeLimitError),
        (lambda: output_distribution(SV, Strategy(lambda h: len(h) % 2), bits), 87, pairs,
         TreeLimitError),
    ]
    for call, count, what, error in cases:
        monkeypatch.setattr(gsvkit.oracle, "TREE_GUARD", count - 1)
        message = f"^{count} {re.escape(what)}, over the guard {count - 1}$"
        with pytest.raises(error, match=message):
            call()
        monkeypatch.setattr(gsvkit.oracle, "TREE_GUARD", count)
        call()
    # a one-state table: the oracle sweeps 60 (depth, state) pairs, one
    # per step, but the trees it writes out are the full 4^60 ones
    monkeypatch.setattr(gsvkit.oracle, "TREE_GUARD", 61)
    report = exact_extremes(e2(), ExtractorTable.constant(60, 1))
    assert report.bias == 1
    with pytest.raises(TreeLimitError, match="^62 strategy-tree nodes written, over the guard 61$"):
        report.to_json()


# -- history-walk references ---------------------------------------------------
#
# The oracle runs its backward induction once per distinct (depth,
# extractor state).  These references walk every history and fold every
# leaf through ``ext.value``; outputs must agree byte for byte.


def _extremes_by_history(spec, ext):
    labels = spec.face_labels

    def walk(history):
        if len(history) == ext.n:
            leaf = F(ext.value(history))
            return leaf, leaf, {}, {}
        kids = [walk(history + (f,)) for f in range(spec.num_faces)]
        best_hi = best_lo = None
        die_hi = die_lo = 0
        for i, die in enumerate(spec.dice):
            hi = sum((p * k[0] for p, k in zip(die.probs, kids)), F(0))
            lo = sum((p * k[1] for p, k in zip(die.probs, kids)), F(0))
            if best_hi is None or hi > best_hi:
                best_hi, die_hi = hi, i
            if best_lo is None or lo < best_lo:
                best_lo, die_lo = lo, i
        return (
            best_hi,
            best_lo,
            {"die": die_hi, "children": {labels[f]: k[2] for f, k in enumerate(kids)}},
            {"die": die_lo, "children": {labels[f]: k[3] for f, k in enumerate(kids)}},
        )

    hi, lo, hi_tree, lo_tree = walk(())
    return BiasReport(
        hi, lo, max(abs(hi), abs(lo)),
        Strategy.from_tree(hi_tree, labels), Strategy.from_tree(lo_tree, labels),
        labels, ext.n,
    )


def _greedy_tree_by_history(spec, ext, eps):
    labels = spec.face_labels

    def min_adv(history):
        if len(history) == ext.n:
            return F(1) if ext.value(history) == 1 else F(0)
        kids = [min_adv(history + (f,)) for f in range(spec.num_faces)]
        return min(sum((p * k for p, k in zip(d.probs, kids)), F(0)) for d in spec.dice)

    def build(history):
        if len(history) == ext.n:
            return {}
        alphas = [min_adv(history + (f,)) for f in range(spec.num_faces)]
        alpha = min_adv(history)
        for i, die in enumerate(spec.dice):
            gap = sum((p * (a - alpha) for p, a in zip(die.probs, alphas)), F(0))
            mean = sum((p * a for p, a in zip(die.probs, alphas)), F(0))
            var = sum((p * a * a for p, a in zip(die.probs, alphas)), F(0)) - mean * mean
            if gap >= eps * var:
                children = {labels[f]: build(history + (f,)) for f in range(spec.num_faces)}
                return {"die": i, "children": children}
        raise NoQualifyingDieError(f"no die satisfies the gain inequality at history {history}")

    return build(())


def _seeded_oracle_cases():
    rng = Random(41)
    for k in range(18):
        if k % 3 == 0:
            spec, psi = random_zero_mean_spec(rng, rng.randint(2, 4), rng.randint(1, 3))
        elif k % 3 == 1:
            spec, psi = random_hierarchical_spec(rng), (1, F(-1, 2), F(1, 3), -1)
        else:
            spec = random_spec(rng, rng.randint(2, 3), rng.randint(2, 3))
            psi = [rng.choice((1, -1, F(1, 2), F(-1, 3), 0)) for _ in range(spec.num_faces)]
        wit = Witness(psi, "NK")
        n = rng.randint(1, 5 if spec.num_faces < 4 else 4)
        yield spec, ExtractorTable.for_threshold(wit, F(1, 9), n)
        yield spec, ExtractorTable.for_bit_exp(wit, n)


def test_memoised_oracle_matches_history_walk():
    outcomes = set()
    for spec, table in _seeded_oracle_cases():
        assert exact_extremes(spec, table).to_json() == _extremes_by_history(spec, table).to_json()
        for eps in (F(1, 8), F(1, 2)):
            try:
                want = json.dumps(_greedy_tree_by_history(spec, table, eps))
            except NoQualifyingDieError as exc:
                with pytest.raises(NoQualifyingDieError) as got:
                    greedy_plus_strategy(spec, table, eps)
                assert str(got.value) == str(exc)
                outcomes.add("refused")
                continue
            strategy = greedy_plus_strategy(spec, table, eps)
            assert json.dumps(strategy.to_tree(spec, table.n)) == want
            outcomes.add("built")
    assert outcomes == {"built", "refused"}


def _layered_cases():
    """(spec, table): the seeded threshold and bit-exp tables, then
    explicit, constant, multi-bit (small n) and epsilon-1/2 threshold
    tables, whose walks freeze, so states recur across depths."""
    yield from _seeded_oracle_cases()
    rng = Random(97)
    for k in range(10):
        if k % 2:
            spec, psi = random_zero_mean_spec(rng, rng.randint(2, 4), rng.randint(1, 3))
        else:
            spec = random_spec(rng, rng.randint(2, 3), rng.randint(1, 3))
            psi = [rng.choice((1, -1, F(1, 2), F(-1, 3), 0)) for _ in range(spec.num_faces)]
        wit = Witness(psi, "NK")
        n = rng.randint(0, 4 if spec.num_faces < 4 else 3)
        outputs = [rng.choice((1, -1)) for _ in range(spec.num_faces**n)]
        yield spec, ExtractorTable.from_outputs(n, spec.num_faces, outputs)
        yield spec, ExtractorTable.constant(n, rng.choice((1, -1)))
        yield spec, ExtractorTable.for_multibit(wit, min(n, 3), rng.randint(1, 2))
        yield spec, ExtractorTable.for_threshold(wit, F(1, 2), n + 1)


def test_one_graph_oracle_matches_the_layered_engine():
    # the oracle's one state graph and policies against the layered
    # reference (per-depth layers, backward induction, dict-DAG trees):
    # values, to_json bytes, greedy trees or refusal texts, and the
    # multi-bit worst case
    seen = set()
    for spec, table in _layered_cases():
        if table.output_kind == "index":
            assert exact_multibit_error(spec, table) == layered.multibit_error(spec, table)
            seen.add("index")
            continue
        hi, lo, hi_tree, lo_tree = layered.extremes(spec, table)
        report = exact_extremes(spec, table)
        bias = max(abs(hi), abs(lo))
        assert (report.max_expectation, report.min_expectation, report.bias) == (hi, lo, bias)
        doc = {"max_expectation": rat_str(hi), "min_expectation": rat_str(lo),
               "bias": rat_str(bias), "max_strategy": hi_tree, "min_strategy": lo_tree}
        assert report.to_json() == json.dumps(doc, indent=2) + "\n"
        for eps in (F(1, 8), F(1, 2)):
            try:
                want = json.dumps(layered.greedy_tree(spec, table, eps))
            except NoQualifyingDieError as exc:
                with pytest.raises(NoQualifyingDieError) as got:
                    greedy_plus_strategy(spec, table, eps)
                assert str(got.value) == str(exc)
                seen.add("refused")
                continue
            assert json.dumps(greedy_plus_strategy(spec, table, eps).to_tree(spec, table.n)) == want
            seen.add("built")
        kids, _leaves = layered.layers(table, spec.num_faces)
        states = {reduce(table.step, h, table.init)
                  for t in range(table.n + 1) for h in product(range(spec.num_faces), repeat=t)}
        seen.add(len(states) < 1 + sum(len(layer) for layer in kids))  # states recur
    assert seen == {"index", "refused", "built", True, False}


def test_greedy_names_the_first_failing_history_in_depth_first_order():
    # history (1,) fails one step sooner, but (0, 0) comes first depth-first
    spec = SourceSpec(("a", "b"), [("5/9", "4/9")])
    table = ExtractorTable.from_outputs(3, 2, [-1, 1, -1, 1, -1, -1, 1, 1])
    for greedy in (greedy_plus_strategy, _greedy_tree_by_history):
        with pytest.raises(NoQualifyingDieError, match=r"at history \(0, 0\)$"):
            greedy(spec, table, F(1, 8))


def _distribution_by_history(spec, choose, ext):
    """The history-walk reference: every history depth-first, in order,
    asking ``choose(history)`` for its die at each one shorter than n and
    folding each leaf through ``ext.value``.  The first failing history
    raises, with the library's text for a die outside the source."""
    dist = {}
    stack = [((), F(1))]
    while stack:
        history, prob = stack.pop()
        if len(history) == ext.n:
            out = ext.value(history)
            dist[out] = dist.get(out, F(0)) + prob
            continue
        die = choose(history)
        if type(die) is not int or not 0 <= die < spec.num_dice:
            raise StrategyError(f"strategy chose die {die!r}, have {spec.num_dice} dice")
        probs = spec.dice[die].probs
        stack.extend((history + (f,), prob * probs[f])
                     for f in reversed(range(spec.num_faces)) if probs[f] > 0)
    return dist


def _tree_choice(tree, labels, history):
    """The reference tree walk: the die at ``history``, walked from the
    root of a tree (or DAG) of dicts, with the library's error texts."""
    node = tree
    try:
        for face in history:
            children = node.get("children", {})
            if labels[face] not in children:
                raise StrategyError(f"strategy tree has no branch for history {history}")
            node = children[labels[face]]
        if "die" not in node:
            raise StrategyError(f"strategy tree has no die at history {history}")
        die = node["die"]
    except (AttributeError, TypeError):
        raise StrategyError(
            f"strategy tree walk to history {history} meets a node that is not an object"
        ) from None
    if type(die) is not int:
        raise StrategyError(f"strategy tree die {die!r} at history {history} is not an integer")
    return die


def test_coprime_denominators_match_history_walk():
    # the dice denominators 7, 11 and 13 share no factor, so the engine's
    # common denominator Q = 1001 is a true lcm; one die skips a face
    spec = SourceSpec(
        ("x", "y", "z"), [("1/7", "2/7", "4/7"), ("3/11", "0", "8/11"), ("5/13", "6/13", "2/13")]
    )
    wit = Witness([1, F(-1, 2), F(1, 3)], "NK")
    outcomes = set()
    for n in range(5):
        for table in (ExtractorTable.for_threshold(wit, F(1, 9), n),
                      ExtractorTable.for_bit_exp(wit, n)):
            report = exact_extremes(spec, table)
            assert report.to_json() == _extremes_by_history(spec, table).to_json()
            strategies = [report.max_strategy, report.min_strategy]
            for eps in (F(1, 64), F(1, 8), F(2)):
                try:
                    want = json.dumps(_greedy_tree_by_history(spec, table, eps))
                except NoQualifyingDieError as exc:
                    with pytest.raises(NoQualifyingDieError) as got:
                        greedy_plus_strategy(spec, table, eps)
                    assert str(got.value) == str(exc)
                    outcomes.add("refused")
                    continue
                strategy = greedy_plus_strategy(spec, table, eps)
                assert json.dumps(strategy.to_tree(spec, n)) == want
                strategies.append(strategy)
                outcomes.add("built")
            for strategy in strategies:
                got = output_distribution(spec, strategy, table)
                assert list(got.items()) == list(
                    _distribution_by_history(spec, strategy.choose, table).items()
                )
    assert outcomes == {"built", "refused"}


def test_exact_values_beyond_the_history_walk():
    # |F|^12 = 16,777,216 histories: out of the history walks' reach.  Both
    # values were computed by the oracle when its values were Fraction sums
    # over the Fraction steppers, and are pinned here.
    eps = F(1, 16)
    table = ExtractorTable.for_threshold(mvr_witness(e2(), eps), eps, 12)
    assert exact_extremes(e2(), table).bias == F(233797674943, 371504185344)
    table = ExtractorTable.for_bit_exp(TWO_DIE_WIT, 12)
    assert exact_extremes(TWO_DIE, table).bias == F(1140451, 8503056)


def test_integer_table_steppers_match_fraction_steppers():
    # every face sequence up to n = 6: the integer states give the sign of
    # the Fraction fold on every prefix and intern to exactly as many
    # states per depth.  (1, -1, 1/2, 0) reaches z = 1/4 as (1, -1, 0) and
    # as (1/2, 0, 0), so a damped-walk stepper that skipped zero values
    # would count two states there.
    rng = Random(29)
    witnesses = [(1, -1, F(1, 2), 0)]
    for k in range(10):
        nfaces = rng.randint(2, 4)
        if k % 2:
            witnesses.append(random_zero_mean_spec(rng, nfaces, 1)[1])
        else:
            witnesses.append([rng.choice(PSI_POOL) for _ in range(nfaces)])
    seen = set()
    for k, psi in enumerate(witnesses):
        wit = Witness(psi, "NK")
        eps = (F(1, 2), F(1, 9), F(1, 16))[k % 3]
        walks = (
            (ExtractorTable.for_threshold(wit, eps, 6),
             ThresholdState.initial(threshold_bound_m(eps)), threshold_step),
            (ExtractorTable.for_bit_exp(wit, 6), BitExpState(), bit_exp_step),
        )
        for table, reference_init, reference_step in walks:
            layer = [(table.init, reference_init)]
            for _depth in range(6):
                layer = [
                    (table.step(state, f), reference_step(ref, v))
                    for state, ref in layer
                    for f, v in enumerate(wit.values)
                ]
                for state, ref in layer:
                    assert table.finish(state) == (1 if ref.z >= 0 else -1)
                    seen.add(getattr(ref, "frozen", False))
                assert len({state for state, _ in layer}) == len({ref for _, ref in layer})
        if 0 in wit.values:
            seen.add("zero")
        if len({v.denominator for v in wit.values if v}) > 1:
            seen.add("mixed")
    assert seen == {True, False, "zero", "mixed"}


def test_oracle_cost_follows_distinct_states():
    # threshold on the E2 ratio witness: 474 distinct (depth, state) pairs
    # at n=10 against 1,398,101 tree nodes; every distinct internal state
    # steps each of the 4 faces at most once
    eps = F(1, 16)
    wit = mvr_witness(e2(), eps)
    calls = 0

    def counted(step):
        def wrapped(state, face):
            nonlocal calls
            calls += 1
            return step(state, face)
        return wrapped

    table = ExtractorTable.for_threshold(wit, eps, 10)
    exact_extremes(e2(), dataclasses.replace(table, step=counted(table.step)))
    assert calls <= 4 * 474
    assert exact_extremes(e2(), ExtractorTable.for_threshold(wit, eps, 8)).bias == F(
        7105781, 11943936
    )


def test_constant_table_steps_each_face_once():
    calls = 0

    def counted(step):
        def wrapped(state, face):
            nonlocal calls
            calls += 1
            return step(state, face)
        return wrapped

    for n, out in ((0, 1), (1, -1), (6, 1)):
        calls = 0
        table = ExtractorTable.constant(n, out)
        report = exact_extremes(e2(), dataclasses.replace(table, step=counted(table.step)))
        assert report.bias == 1 and calls == (n > 0) * e2().num_faces


def test_explicit_table_steps_its_prefix_index():
    # a seeded 3-face table: the prefix-index machine gives the output the
    # big-endian index names, and the oracle over it agrees with the
    # history walk
    rng = Random(53)
    spec = random_spec(rng, 3, 3)
    for n in range(5):
        outputs = [rng.choice((1, -1)) for _ in range(3**n)]
        table = ExtractorTable.from_outputs(n, 3, outputs)
        for i, faces in enumerate(product(range(3), repeat=n)):
            state = reduce(table.step, faces, table.init)
            assert state == i and table.finish(state) == table.value(faces) == outputs[i]
        assert exact_extremes(spec, table).to_json() == _extremes_by_history(spec, table).to_json()


def test_deep_one_face_games():
    # a one-face source never trips the |F|^n guard; no entry point may
    # recurse once per depth, and neither may tree serialisation
    one = SourceSpec(("a",), [("1",)])
    for table in (ExtractorTable.from_outputs(2000, 1, [1]), ExtractorTable.constant(2000, 1)):
        report = exact_extremes(one, table)
        assert (report.max_expectation, report.min_expectation, report.bias) == (1, 1, 1)
        strategy = greedy_plus_strategy(one, table, F(1, 2))
        assert strategy.choose((0,) * 1999) == 0
        assert output_distribution(one, strategy, table) == {1: F(1)}
    text = report.to_json()
    chain = "".join(
        f'{{\n{"  " * (d + 1)}"die": 0,\n{"  " * (d + 1)}"children": {{\n{"  " * (d + 2)}"a": '
        for d in range(1, 4000, 2)
    )
    assert text.startswith(f'{{\n  "max_expectation": "1",\n  "min_expectation": "1",\n'
                           f'  "bias": "1",\n  "max_strategy": {chain}{{}}\n')
    assert text.count('"die": 0') == 4000 and text.endswith("\n  }\n}\n")
    tree = report.max_strategy.to_tree(one, 2000)
    for _depth in range(2000):
        assert list(tree) == ["die", "children"] and tree["die"] == 0
        (tree,) = tree["children"].values()
    assert tree == {}


# -- bias sweeps ---------------------------------------------------------------


def _sweep_cases():
    """(spec, table, ns): machine tables swept over every n up to theirs
    and over unsorted lists with repeats, explicit tables at their own n."""
    rng = Random(67)
    for spec, table in _seeded_oracle_cases():
        yield spec, table, list(range(table.n + 1))
    for k in range(6):
        spec = random_spec(rng, rng.randint(2, 3), rng.randint(1, 3))
        psi = [rng.choice((1, -1, F(1, 2), F(-1, 3), 0)) for _ in range(spec.num_faces)]
        wit = Witness(psi, "NK")
        n = 6 if spec.num_faces == 2 else 5
        # M = 2 at epsilon 1/2: the walks freeze, so states recur across depths
        yield spec, ExtractorTable.for_threshold(wit, F(1, 2), n), list(range(n + 1))
        yield spec, ExtractorTable.for_bit_exp(wit, n), [n, 1, n, 0, 2]
        m = rng.randint(0, 3)
        outputs = [rng.choice((1, -1)) for _ in range(spec.num_faces**m)]
        yield spec, ExtractorTable.from_outputs(m, spec.num_faces, outputs), [m]
        yield spec, ExtractorTable.constant(4, rng.choice((1, -1))), [3, 0, 4, 4]
    one = SourceSpec(("a",), [("1",)])
    yield one, ExtractorTable.constant(30, -1), list(range(31))
    yield one, ExtractorTable.for_bit_exp(Witness([0], "NK"), 30), [30, 0, 7]
    yield one, ExtractorTable.from_outputs(30, 1, [-1]), [30]


def test_bias_sweep_matches_exact_extremes_at_every_n():
    for spec, table, ns in _sweep_cases():
        want = [exact_extremes(spec, dataclasses.replace(table, n=n)).bias for n in ns]
        assert exact_biases(spec, table, ns) == want


def test_bias_sweep_checks_each_n_in_order(monkeypatch):
    table = ExtractorTable.for_bit_exp(PM, 3)
    assert exact_biases(SV, table, []) == []
    assert exact_biases(SV, table, [0]) == [1]
    # a negative n anywhere is refused before the guard counts anything
    monkeypatch.setattr(gsvkit.oracle, "TREE_GUARD", 4)
    for ns in ([2, 3, -1], [2, -1, 3]):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            exact_biases(SV, table, ns)
    with pytest.raises(TreeLimitError, match="^7 game-tree states interned, over the guard 4$"):
        exact_biases(SV, table, [2, 3])
    with pytest.raises(ValueError, match="needs a \\+/-1 extractor"):
        exact_biases(SV, ExtractorTable.for_multibit(PM, 2, 1), [2])


def test_bias_sweep_steps_each_state_once_per_face():
    # e2's threshold walk at epsilon 1/2 stays within a bounded set of
    # states, so a sweep to n = 60 steps each of them once per face
    eps = F(1, 2)
    psi = Witness([1, -1, F(1, 2), F(-1, 2)], "NK")
    table = ExtractorTable.for_threshold(psi, eps, 60)
    steps = []

    def counted(state, face):
        steps.append((state, face))
        return table.step(state, face)

    biases = exact_biases(e2(), dataclasses.replace(table, step=counted), range(61))
    # 2z runs over -5..5: a walk freezes once |2z| >= 4
    assert len(steps) == len(set(steps)) == 4 * 11
    assert biases[5] == exact_extremes(e2(), dataclasses.replace(table, n=5)).bias
    # the forward pass stops at the first depth that adds no state, and the
    # guard counts the (state, steps left) pairs of the whole sweep before
    # anything loops once per step: 11 states at each of the 10^30 + 1 steps
    # left but the first few, which sweep 18 fewer
    steps.clear()
    top = 10**30
    with pytest.raises(TreeLimitError, match=f"^{11 * (top + 1) - 18} "):
        exact_biases(e2(), dataclasses.replace(table, step=counted), range(top, top + 2))
    assert len(steps) == 4 * 11


def test_bias_report_json_matches_json_dumps():
    # the explicit-stack writer against the json module, on the seeded
    # cases and on labels that need escaping
    cases = list(_seeded_oracle_cases())
    odd = SourceSpec(('say "hi"', "back\\slash", "caf\u00e9", "two\nlines"),
                     [("1/4", "1/4", "1/4", "1/4"), ("1/2", "0", "0", "1/2")])
    cases.append((odd, ExtractorTable.for_bit_exp(Witness([1, -1, F(1, 2), 0], "NK"), 2)))
    cases.append((odd, ExtractorTable.constant(0, -1)))
    for spec, table in cases:
        report = exact_extremes(spec, table)
        doc = {
            "max_expectation": rat_str(report.max_expectation),
            "min_expectation": rat_str(report.min_expectation),
            "bias": rat_str(report.bias),
            "max_strategy": report.max_strategy.to_tree(spec, table.n),
            "min_strategy": report.min_strategy.to_tree(spec, table.n),
        }
        assert report.to_json() == json.dumps(doc, indent=2) + "\n"


def test_extractor_table_rejects_negative_n():
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        ExtractorTable.constant(-1, 1)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        ExtractorTable.from_outputs(-1, 2, [1])


def test_from_outputs_names_the_first_output_that_is_not_a_sign():
    with pytest.raises(ValueError, match="^output 2 is 0, not \\+1 or -1$"):
        ExtractorTable.from_outputs(2, 2, [1, -1, 0, 3])
    assert ExtractorTable.from_outputs(2, 2, [1, -1, -1, 1]).value((1, 1)) == 1


def test_constant_table_refuses_outputs_other_than_signs():
    one = SourceSpec(("a",), [("1",)])
    for out in (5, 0, 2, "1"):
        with pytest.raises(ValueError, match=f"^output {out!r} is not \\+1 or -1$"):
            ExtractorTable.constant(2, out)
    assert exact_extremes(one, ExtractorTable.constant(2, -1)).bias == 1


# -- forward distributions ---------------------------------------------------


def test_point_mass_distribution():
    spec = SourceSpec(("a", "b", "c"), [(0, 0, 1)])
    table = ExtractorTable.from_outputs(2, 3, [-1] * 8 + [1])
    dist = output_distribution(spec, Strategy.constant(0), table)
    assert dist == {1: F(1)}


def test_xor_of_fair_flips_is_uniform():
    table = ExtractorTable.from_outputs(2, 2, [1, -1, -1, 1])
    dist = output_distribution(fair_coin(), Strategy.constant(0), table)
    assert dist == {1: F(1, 2), -1: F(1, 2)}


@pytest.mark.parametrize("die", [-1, 5, True])
def test_distribution_refuses_a_die_outside_the_source(die):
    # e2 has 3 dice: -1 must not play die 2, 5 must not raise IndexError,
    # and True (an int to Python) must not play die 1
    table = ExtractorTable.constant(2, 1)
    for strategy in (Strategy.constant(die), Strategy(lambda _h: die)):
        with pytest.raises(StrategyError, match=f"^strategy chose die {die}, have 3 dice$"):
            output_distribution(e2(), strategy, table)


def test_constant_strategy_walks_no_histories():
    # a constant strategy is read once: choose is never asked, and a deep
    # one-face game keeps no history
    one = SourceSpec(("a",), [("1",)])
    strategy = Strategy.constant(0)
    asked = []
    strategy.choose = lambda history: asked.append(history) or 0
    assert output_distribution(one, strategy, ExtractorTable.constant(20_000, 1)) == {1: 1}
    assert asked == []
    # the same distribution, outputs in the same order, as the history walk
    for spec, table in _seeded_oracle_cases():
        for die in range(spec.num_dice):
            got = output_distribution(spec, Strategy.constant(die), table)
            walked = output_distribution(spec, Strategy(lambda _h, d=die: d), table)
            assert list(got.items()) == list(walked.items())


def test_sv_constant_die_distribution():
    dist = output_distribution(SV, Strategy.constant(0), FIRST_BIT)
    assert dist == {1: F(3, 4), -1: F(1, 4)}
    assert sum(dist.values()) == 1


def _distribution_cases():
    """(spec, table, pm1): seeded threshold, bit-exp, explicit, constant
    and multi-bit tables, each with a +/-1 table at the same n on the
    same source, from which the oracle's strategies are built."""
    for spec, table in _seeded_oracle_cases():
        yield spec, table, table
    rng = Random(83)
    for k in range(9):
        if k % 3:
            spec = random_spec(rng, rng.randint(2, 3), rng.randint(1, 3))
            psi = [rng.choice((1, -1, F(1, 2), F(-1, 3), 0)) for _ in range(spec.num_faces)]
        else:
            spec, psi = random_zero_mean_spec(rng, rng.randint(2, 4), rng.randint(1, 3))
        wit = Witness(psi, "NK")
        n = rng.randint(0, 4 if spec.num_faces < 4 else 3)
        pm1 = ExtractorTable.for_bit_exp(wit, n)
        outputs = [rng.choice((1, -1)) for _ in range(spec.num_faces**n)]
        yield spec, ExtractorTable.from_outputs(n, spec.num_faces, outputs), pm1
        yield spec, ExtractorTable.constant(n, rng.choice((1, -1))), pm1
        yield spec, ExtractorTable.for_multibit(wit, n, rng.randint(1, 2)), pm1


def test_distribution_matches_the_history_walk():
    # every kind of strategy against the walk over every history, items
    # in order: constant, callback, a tree read from JSON (no shared
    # nodes), exact_extremes' policies and the greedy policy, each against
    # a reference that walks its tree (the policy's, read through
    # to_tree, or the greedy reference's tree) from the root at every
    # history
    seen = set()
    for spec, table, pm1 in _distribution_cases():
        labels = spec.face_labels

        def callback(h, d=spec.num_dice):
            return (len(h) + sum(h)) % d

        file_tree = json.loads(json.dumps(Strategy(callback).to_tree(spec, table.n)))
        report = exact_extremes(spec, pm1)
        cases = [(Strategy.constant(d), lambda _h, d=d: d) for d in range(spec.num_dice)]
        cases += [
            (Strategy(callback), callback),
            (Strategy.from_tree(file_tree, labels), partial(_tree_choice, file_tree, labels)),
            (report.max_strategy,
             partial(_tree_choice, report.max_strategy.to_tree(spec, table.n), labels)),
            (report.min_strategy,
             partial(_tree_choice, report.min_strategy.to_tree(spec, table.n), labels)),
        ]
        try:
            greedy_tree = _greedy_tree_by_history(spec, pm1, F(1, 8))
        except NoQualifyingDieError:
            seen.add("refused")
        else:
            greedy = greedy_plus_strategy(spec, pm1, F(1, 8))
            cases.append((greedy, partial(_tree_choice, greedy_tree, labels)))
            seen.add("greedy")
        for strategy, choose in cases:
            got = output_distribution(spec, strategy, table)
            assert list(got.items()) == list(_distribution_by_history(spec, choose, table).items())
        seen.add(table.output_kind)
        seen.add(len(got) > 1)
    assert seen == {"greedy", "refused", "pm1", "index", True, False}


def _node(tree, labels, history):
    for face in history:
        tree = tree["children"][labels[face]]
    return tree


@pytest.mark.parametrize("edits, message", [
    # each tree fails at history (1,) or (1, 0) too, which the forward pass
    # meets first; the error names the one a depth-first walk meets first
    ([("drop-child", (0, 0), "T"), ("drop-die", (1,))],
     "strategy tree has no branch for history (0, 0, 1)"),
    ([("drop-die", (0, 0, 1)), ("drop-die", (1,))],
     "strategy tree has no die at history (0, 0, 1)"),
    ([("die", (0, 1, 1), True), ("die", (1,), 7)],
     "strategy tree die True at history (0, 1, 1) is not an integer"),
    ([("die", (0, 0, 0), 7), ("die", (1,), True)],
     "strategy chose die 7, have 2 dice"),
    ([("child", (0, 1), "H", 5), ("drop-child", (1,), "H")],
     "strategy tree walk to history (0, 1, 0) meets a node that is not an object"),
], ids=["branch", "die", "boolean-die", "die-range", "not-an-object"])
def test_strategy_errors_name_the_first_failing_history_depth_first(edits, message):
    labels = SV.face_labels
    table = ExtractorTable.for_bit_exp(PM, 4)
    tree = Strategy(lambda h: len(h) % 2).to_tree(SV, 4)
    for kind, history, *value in edits:
        node = _node(tree, labels, history)
        if kind == "drop-child":
            del node["children"][value[0]]
        elif kind == "drop-die":
            del node["die"]
        elif kind == "die":
            node["die"] = value[0]
        else:
            node["children"][value[0]] = value[1]
    with pytest.raises(StrategyError) as want:
        _distribution_by_history(SV, partial(_tree_choice, tree, labels), table)
    with pytest.raises(StrategyError) as got:
        output_distribution(SV, Strategy.from_tree(tree, labels), table)
    assert str(got.value) == str(want.value) == message


def test_strategy_errors_in_a_dag_name_the_least_history_reaching_them():
    # a tree whose children share node objects (the layered reference's
    # max tree, one node per distinct (depth, state)): a die dropped from a
    # shared node fails at every history reaching it, and the first of
    # them depth-first is named; a die out of range at a shared node
    # likewise
    psi = Witness([1, -1, F(1, 2), F(-1, 2)], "NK")
    table = ExtractorTable.for_threshold(psi, F(1, 2), 5)
    labels = e2().face_labels
    cases = [
        ((2, 3), None, "strategy tree has no die at history (0, 1)"),
        ((3, 3, 0, 1), None, "strategy tree has no die at history (0, 1, 3, 3)"),
        ((3, 0, 1), 3, "strategy chose die 3, have 3 dice"),
    ]
    for history, die, message in cases:
        _hi, _lo, dag, _min_dag = layered.extremes(e2(), table)
        node = _node(dag, labels, history)
        assert any(_node(dag, labels, other) is node and other != history
                   for other in product(range(4), repeat=len(history)))
        if die is None:
            del node["die"]
        else:
            node["die"] = die
        with pytest.raises(StrategyError) as want:
            _distribution_by_history(e2(), partial(_tree_choice, dag, labels), table)
        with pytest.raises(StrategyError) as got:
            output_distribution(e2(), Strategy.from_tree(dag, labels), table)
        assert str(got.value) == str(want.value) == message


def test_a_tree_needs_no_children_below_its_last_die():
    # no die is read at depth n, so a tree whose depth-(n - 1) nodes have no
    # "children" still samples and distributes at n
    spec, n = e2(), 3
    labels = spec.face_labels

    def callback(h):
        return (len(h) + sum(h)) % 3

    tree = Strategy(callback).to_tree(spec, n)
    for history in product(range(spec.num_faces), repeat=n - 1):
        del _node(tree, labels, history)["children"]
    bare = Strategy.from_tree(tree, labels)
    table = ExtractorTable.for_bit_exp(Witness([1, -1, F(1, 2), F(-1, 2)], "NK"), n)
    assert output_distribution(spec, bare, table) == output_distribution(
        spec, Strategy(callback), table)
    for seed in range(20):
        assert sample_sequence(spec, bare, n, seed) == sample_sequence(
            spec, Strategy(callback), n, seed)
    with pytest.raises(StrategyError, match=r"^strategy tree has no branch for history \(0, 0, 0\)$"):
        output_distribution(spec, bare, dataclasses.replace(table, n=n + 1))


def _counted(strategy):
    """The strategy with its step and die counting their calls."""
    calls = {"step": 0, "die": 0}
    step, die = strategy.step, strategy.die

    def counted_step(state, face):
        calls["step"] += 1
        return step(state, face)

    def counted_die(state):
        calls["die"] += 1
        return die(state)

    strategy.step, strategy.die = counted_step, counted_die
    return strategy, calls


def test_tree_strategies_cost_one_step_per_face():
    # sampling n faces under exact_extremes' policy, the greedy policy or
    # a tree reads n dice and steps between draws only, n - 1 times; the
    # greedy policy's distribution reads one die per distinct (depth,
    # table state) pair, not one per history
    psi = Witness([1, -1, F(1, 2), F(-1, 2)], "NK")
    for n in (1, 10, 300):
        table = ExtractorTable.for_threshold(psi, F(1, 2), n)
        strategy, calls = _counted(exact_extremes(e2(), table).max_strategy)
        sample_sequence(e2(), strategy, n, 7)
        assert calls == {"die": n, "step": n - 1}
    n = 8
    table = ExtractorTable.for_bit_exp(PM, n)
    tree = Strategy.from_tree(greedy_plus_strategy(SV, table, F(1, 8)).to_tree(SV, n), "HT")
    for strategy in (greedy_plus_strategy(SV, table, F(1, 8)), tree):
        strategy, calls = _counted(strategy)
        sample_sequence(SV, strategy, n, 7)
        assert calls == {"die": n, "step": n - 1}
    greedy, calls = _counted(greedy_plus_strategy(SV, table, F(1, 8)))
    output_distribution(SV, greedy, table)
    layers = [{reduce(table.step, h, table.init) for h in product(range(2), repeat=t)}
              for t in range(n)]
    assert calls == {"die": sum(map(len, layers)), "step": 2 * sum(map(len, layers[:-1]))}
    assert calls["die"] < 2**n - 1  # the histories a history walk asks


# -- multi-bit worst-case error ----------------------------------------------


def test_identity_on_uniform_die_is_exact():
    table = ExtractorTable(1, "index", 2, 0, lambda _s, f: f, lambda s: s)
    assert exact_multibit_error(fair_coin(), table) == 0


def test_constant_output_tv():
    table = ExtractorTable(1, "index", 2, 0, lambda s, _f: s, lambda s: s)
    assert exact_multibit_error(fair_coin(), table) == F(1, 2)


def test_e1_worst_tv_dominates_fixed_strategies():
    wit = Witness([-1, 1, 0, 0], "NK")
    # tossing only the dice whose faces have witness value 0 gives no
    # kernel movement at all: the output collapses to one index and the
    # worst case is 1 - 2^-m.  (3, 1) and (4, 2) are out of reach of an
    # enumeration of strategy trees (3^21 and 3^85 of them).
    for n, m in ((2, 1), (3, 1), (4, 2)):
        table = ExtractorTable.for_multibit(wit, n, m)
        worst = exact_multibit_error(e1(), table)
        for die in range(3):
            fixed = exact_multibit_error(e1(), table, strategy=Strategy.constant(die))
            assert worst >= fixed
        assert worst == 1 - F(1, 2**m)


def test_enum_guard_raises_and_fixed_mode_works(monkeypatch):
    # 2^32 - 2 output sets are refused before the forward pass; fixed
    # strategies still evaluate
    wit = Witness([-1, 1, 0, 0], "NK")
    table = ExtractorTable.for_multibit(wit, 2, 5)
    monkeypatch.setattr(gsvkit.oracle, "_reach", None)
    with pytest.raises(EnumLimitError) as got:
        exact_multibit_error(e1(), table)
    assert str(got.value) == "4294967294 output sets to sweep, over the guard 10000000"
    monkeypatch.undo()
    tv = exact_multibit_error(e1(), table, strategy=Strategy.constant(0))
    assert 0 <= tv <= 1
    # 65,534 sets within the guard, but 16,159 (depth, state) pairs per
    # set: refused after the forward pass, before any set is swept
    table = ExtractorTable.for_multibit(PM, 14, 4)
    t0 = time.perf_counter()
    with pytest.raises(EnumLimitError, match="^1058963906 \\(depth, state\\) pairs to sweep "
                                             "for 65534 output sets, over the guard 10000000$"):
        exact_multibit_error(SV, table)
    assert time.perf_counter() - t0 < 5


def _worst_tv_by_enumeration(spec, ext):
    """Worst-case TV over every strategy tree, one die per history shorter
    than n: |D|^(number of such histories) fixed-strategy evaluations."""
    histories = [h for t in range(ext.n) for h in product(range(spec.num_faces), repeat=t)]
    worst = F(0)
    for dice in product(range(spec.num_dice), repeat=len(histories)):
        table = dict(zip(histories, dice))
        strategy = Strategy(lambda h, t=table: t[h], "enumerated")
        worst = max(worst, exact_multibit_error(spec, ext, strategy=strategy))
    return worst


def test_worst_tv_matches_strategy_enumeration():
    rng = Random(7)
    seen = set()
    for k in range(30):
        if k % 2:
            spec, psi = random_zero_mean_spec(rng, rng.randint(2, 3), rng.randint(1, 3))
        else:
            spec = random_spec(rng, rng.randint(2, 3), rng.randint(1, 3))
            psi = [rng.choice((1, -1, F(1, 2), F(-1, 3), 0)) for _ in range(spec.num_faces)]
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        while spec.num_dice ** sum(spec.num_faces**t for t in range(n)) > 3**7:
            n -= 1
        table = ExtractorTable.for_multibit(Witness(psi, "NK"), n, m)
        worst = exact_multibit_error(spec, table)
        assert worst == _worst_tv_by_enumeration(spec, table)
        seen.add(worst == 0)
    assert seen == {True, False}


def test_multibit_table_fold_matches_its_stepper():
    # the fold the CLI runs against the oracle table's machine
    wit = Witness([-1, 1, 0, 0], "NK")
    table = ExtractorTable.for_multibit(wit, 2, 2)
    for faces in product(range(4), repeat=2):
        state = table.init
        for f in faces:
            state = table.step(state, f)
        assert int(multibit_extract_naive(wit, faces, 2), 2) == table.finish(state)


# -- greedy adversary ---------------------------------------------------------


def test_greedy_on_sv_first_bit():
    strategy = greedy_plus_strategy(SV, FIRST_BIT, F(1, 2))
    assert strategy.choose(()) == 0
    adv = output_distribution(SV, strategy, FIRST_BIT)[1]
    alpha0 = F(1, 4)  # exact guaranteed advantage of this extractor
    assert adv >= alpha0 + F(1, 3) * alpha0 * (1 - alpha0)


def test_greedy_requires_ratio_failure():
    with pytest.raises(NoQualifyingDieError):
        greedy_plus_strategy(fair_coin(), FIRST_BIT, F(1, 2))


def test_greedy_constant_extractor_trivially_qualifies():
    table = ExtractorTable.constant(2, 1)
    strategy = greedy_plus_strategy(SV, table, F(1, 2))
    assert output_distribution(SV, strategy, table) == {1: F(1)}


def test_greedy_gain_bound_over_all_tables():
    """The gain claim, checked exhaustively: whenever the greedy
    construction goes through, its advantage beats
    alpha + eps/(1+eps) * alpha * (1 - alpha)."""
    eps = F(1, 2)
    for n in (1, 2):
        for table in _all_tables(2, n):
            report = exact_extremes(SV, table)
            alpha0 = (report.min_expectation + 1) / 2
            strategy = greedy_plus_strategy(SV, table, eps)
            adv = output_distribution(SV, strategy, table).get(1, F(0))
            assert adv >= alpha0 + eps / (1 + eps) * alpha0 * (1 - alpha0)


def test_divergence_failure_gain_bound():
    """Statement-level check of the omitted induction: failing the
    divergence condition at (eps, delta) forces a strategy with gain
    alpha(1-alpha) - delta*n at rate eps/(1+eps)."""
    eps = F(1, 32)
    cert = dual_certificate(SV)
    delta = cert.constant * eps * eps  # 1/64
    # the source indeed fails MVD(eps, delta) on a witness grid
    grid = [F(k, 4) for k in range(-4, 5)]
    assert not any(check_mvd(SV, (x, y), eps, delta) for x in grid for y in grid)
    for n in (1, 2):
        for table in _all_tables(2, n):
            report = exact_extremes(SV, table)
            alpha0 = (report.min_expectation + 1) / 2
            max_adv = (report.max_expectation + 1) / 2
            assert max_adv >= alpha0 + eps / (1 + eps) * (alpha0 * (1 - alpha0) - delta * n)


def test_sample_floor_from_divergence_failure():
    """Desk-scale form of the sample-complexity floor: with delta from the
    duality constant, every extractor at n < 1/(8*delta) keeps bias at
    least eps/20."""
    eps = F(1, 32)
    delta = dual_certificate(SV).constant * eps * eps  # 1/64
    horizon = 1 / (8 * delta)  # = 8
    floor = eps / 20
    for n in (1, 2, 3):
        assert n < horizon
        assert all(exact_extremes(SV, t).bias >= floor for t in _all_tables(2, n))


# -- decay observations --------------------------------------------------------


def test_fair_coin_bit_exp_bias_is_exactly_zero():
    # flipping every face negates the walk exactly and the walk never
    # lands on zero, so the lone fair die gives a perfectly unbiased sign
    # for every n — there is no adversary to exploit it
    for n in range(1, 9):
        report = exact_extremes(fair_coin(), ExtractorTable.for_bit_exp(PM, n))
        assert report.bias == 0


def test_adversarial_bit_exp_bias_decays():
    # frozen oracle values for a source where the adversary can pick
    # between the symmetric die and a lopsided zero-mean die
    wit = Witness([1, -1, 1, F(-1, 2)], "NK_PLUS")
    spec = SourceSpec(
        ("a", "b", "c", "d"), [("1/2", "1/2", "0", "0"), ("0", "0", "1/3", "2/3")]
    )
    biases = [
        exact_extremes(spec, ExtractorTable.for_bit_exp(wit, n)).bias
        for n in range(1, 8)
    ]
    assert biases[:4] == [F(1, 3), F(1, 3), F(19, 54), F(2, 9)]
    assert all(b > 0 for b in biases)
    assert max(biases[4:]) < max(biases[:3])
