"""Adversary oracle: extremes, distributions, TV error, greedy adversary."""

import dataclasses
import json
from fractions import Fraction as F
from functools import reduce
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
from gsvkit.presets import e1, e2, fair_coin, sv_pair

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
    assert report.max_tree["die"] == 0
    assert report.min_tree["die"] == 1
    doc = report.to_jsonable()
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
    states, leaves = "game-tree states interned", "histories walked"
    cases = [
        (lambda: exact_extremes(e2(), walk), 102, states),  # per-depth layers
        (lambda: greedy_plus_strategy(SV, bits, "1/8"), 63, states),
        (lambda: exact_multibit_error(SV, ExtractorTable.for_multibit(PM, 4, 1)), 23, states),
        (lambda: exact_biases(e2(), walk, [10, 3]), 11, states),  # one sweep across depths
        (lambda: output_distribution(e2(), Strategy.constant(1), walk), 102,
         "game-tree states reached"),
        (lambda: output_distribution(SV, Strategy(lambda h: len(h) % 2), bits), 64, leaves),
    ]
    for call, count, what in cases:
        monkeypatch.setattr(gsvkit.oracle, "TREE_GUARD", count - 1)
        with pytest.raises(TreeLimitError, match=f"^{count} {what}, over the guard {count - 1}$"):
            call()
        monkeypatch.setattr(gsvkit.oracle, "TREE_GUARD", count)
        call()
    # a one-state table: the oracle visits 61 states, but the trees it
    # writes out are the full 4^60 ones
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
        hi_tree, lo_tree,
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


def test_greedy_names_the_first_failing_history_in_depth_first_order():
    # history (1,) fails one step sooner, but (0, 0) comes first depth-first
    spec = SourceSpec(("a", "b"), [("5/9", "4/9")])
    table = ExtractorTable.from_outputs(3, 2, [-1, 1, -1, 1, -1, -1, 1, 1])
    for greedy in (greedy_plus_strategy, _greedy_tree_by_history):
        with pytest.raises(NoQualifyingDieError, match=r"at history \(0, 0\)$"):
            greedy(spec, table, F(1, 8))


def _distribution_by_history(spec, strategy, ext):
    dist = {}

    def walk(history, prob):
        if len(history) == ext.n:
            out = ext.value(history)
            dist[out] = dist.get(out, F(0)) + prob
            return
        for f, p in enumerate(spec.dice[strategy.choose(history)].probs):
            if p > 0:
                walk(history + (f,), prob * p)

    walk((), F(1))
    return dist


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
                    _distribution_by_history(spec, strategy, table).items()
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


def test_constant_table_interns_one_state_per_depth():
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
        assert report.bias == 1 and calls == n * e2().num_faces


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
        assert report.to_json() == json.dumps(report.to_jsonable(), indent=2) + "\n"


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


def test_enum_guard_raises_and_fixed_mode_works():
    wit = Witness([-1, 1, 0, 0], "NK")
    table = ExtractorTable.for_multibit(wit, 2, 5)
    with pytest.raises(EnumLimitError) as got:
        exact_multibit_error(e1(), table)
    assert str(got.value) == "2^32 - 2 output sets exceed the guard 1000000"
    tv = exact_multibit_error(e1(), table, strategy=Strategy.constant(0))
    assert 0 <= tv <= 1


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
