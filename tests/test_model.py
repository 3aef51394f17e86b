"""Core model: exact moments, validation, strategies, and sampling."""

import math
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, strategies as st

from gsvkit import (
    Die,
    DimensionError,
    SourceSpec,
    SpecFormatError,
    Strategy,
    StrategyError,
    Witness,
    die_mean,
    die_var,
    rat,
    sample_sequence,
    support,
    validate_source,
)
from gsvkit.presets import e1, e2, fair_coin, hidden_sv, load_source, sv_pair
from specgen import random_spec


def test_rat_parses_exact_forms():
    assert rat("3/4") == F(3, 4)
    assert rat("0.25") == F(1, 4)
    assert rat(2) == 2
    assert rat(F(1, 3)) == F(1, 3)


def test_rat_rejects_floats_and_garbage():
    with pytest.raises(SpecFormatError):
        rat(0.5)
    with pytest.raises(SpecFormatError):
        rat("not-a-number")
    with pytest.raises(SpecFormatError):
        rat("1/0")


def test_rat_rejects_booleans():
    for value in (True, False):
        with pytest.raises(SpecFormatError, match=f"boolean {value}"):
            rat(value)


def test_die_mean_examples():
    assert die_mean(Die(["1/3", "2/3"]), [-1, 1]) == F(1, 3)
    assert die_mean(Die(["1/2", "1/2"]), [-1, 1]) == 0
    # point-mass die with the three-face witness
    assert die_mean(Die([0, 0, 1]), [-1, 1, 0]) == 0


def test_die_var_examples():
    assert die_var(Die(["1/3", "2/3"]), [-1, 1]) == F(8, 9)
    assert die_var(Die([1, 0]), [-1, 1]) == 0
    assert die_var(Die(["1/2", "1/2", 0, 0]), [-1, 1, 0, 0]) == 1


def test_moments_match_the_fraction_formula():
    # unvalidated dice too: zero and negative entries, sums other than 1
    rng = Random(13)
    pool = [F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3, 7), F(-5, 12), F(7, 30)]
    for _ in range(2000):
        n = rng.randint(0, 6)
        die = Die([rng.choice(pool) for _ in range(n)])
        psi = [rng.choice(pool) * rng.randint(-3, 3) for _ in range(n)]
        mean = sum((p * v for p, v in zip(die.probs, psi)), F(0))
        second = sum((p * v * v for p, v in zip(die.probs, psi)), F(0))
        assert die_mean(die, psi) == mean
        assert die_var(die, psi) == second - mean * mean


def test_moment_dimension_errors():
    with pytest.raises(DimensionError):
        die_mean(Die(["1/2", "1/2"]), [1, -1, 0])
    with pytest.raises(DimensionError):
        die_var(Die(["1/2", "1/2", 0]), [1, -1])


def test_support_examples():
    assert support(Die(["1/2", "1/2", 0, 0])) == {0, 1}
    assert support(Die([0, 0, 1])) == {2}
    assert support(Die(["1/4", "1/12", "1/3", "1/3"])) == {0, 1, 2, 3}


@given(
    st.lists(st.integers(0, 9), min_size=2, max_size=5).filter(lambda w: sum(w) > 0),
    st.data(),
)
def test_variance_identity(weights, data):
    total = sum(weights)
    die = Die([F(w, total) for w in weights])
    psi = data.draw(
        st.lists(
            st.fractions(min_value=-1, max_value=1, max_denominator=8),
            min_size=len(weights),
            max_size=len(weights),
        )
    )
    squared = [v * v for v in psi]
    assert die_var(die, psi) == die_mean(die, squared) - die_mean(die, psi) ** 2


def test_validate_accepts_the_corpus():
    for spec in (e1(), e2(), fair_coin(), hidden_sv(), sv_pair("1/4")):
        assert validate_source(spec).ok


def test_validate_orphan_face():
    spec = SourceSpec(("a", "b", "c"), [("1/2", "1/2", "0")])
    report = validate_source(spec)
    assert not report.ok
    assert [(v.code, v.face) for v in report.violations] == [("ORPHAN_FACE", 2)]


def test_validate_sum_not_one():
    report = validate_source(SourceSpec(("a", "b"), [("1/2", "1/3")]))
    assert [v.code for v in report.violations] == ["SUM_NOT_ONE"]


def test_validate_negative_and_arity():
    spec = SourceSpec(
        ("a", "b"), [("3/2", "-1/2"), ("1/2", "1/2"), ("1/2", "1/2", "0")]
    )
    codes = {v.code for v in validate_source(spec).violations}
    assert codes == {"NEGATIVE_PROB", "ARITY_MISMATCH"}


def test_source_constructor_rejects_structural_junk():
    with pytest.raises(ValueError):
        SourceSpec((), [("1",)])
    with pytest.raises(ValueError):
        SourceSpec(("a", "a"), [("1/2", "1/2")])
    with pytest.raises(ValueError):
        SourceSpec(("a", "b"), [])


def test_witness_range_enforced():
    with pytest.raises(ValueError):
        Witness(["3/2", 0], "NK")
    w = Witness([1, "-1/2"], "NK_PLUS", epsilon="1/8", min_variance="1/4")
    assert w.values == (1, F(-1, 2))
    assert w.epsilon == F(1, 8)


def test_json_round_trip():
    spec = e2()
    again = SourceSpec.from_json(spec.to_json())
    assert again == spec


def test_json_rejects_bare_floats():
    with pytest.raises(SpecFormatError):
        SourceSpec.from_json('{"faces": ["a", "b"], "dice": [[0.5, 0.5]]}')


def test_sample_empty_and_point_mass():
    spec = SourceSpec(("a", "b", "c"), [(0, 0, 1)])
    assert sample_sequence(spec, Strategy.constant(0), 0, 7) == ()
    assert sample_sequence(spec, Strategy.constant(0), 3, 7) == (2, 2, 2)


def test_sample_deterministic_given_seed():
    spec = sv_pair("1/4")
    strat = Strategy(lambda h: len(h) % 2)
    a = sample_sequence(spec, strat, 64, 1234)
    b = sample_sequence(spec, strat, 64, 1234)
    c = sample_sequence(spec, strat, 64, 1235)
    assert a == b
    assert a != c


def _reference_sample(spec, strategy, n, seed):
    """Inverse-CDF sampling with running Fraction sums, asking the
    strategy with the history at every step."""
    rng = Random(seed)
    out = []
    for _ in range(n):
        die = spec.dice[strategy.choose(tuple(out))]
        u = rng.getrandbits(64)
        cum = F(0)
        for f, p in enumerate(die.probs):
            cum += p
            if u * cum.denominator < cum.numerator << 64:
                out.append(f)
                break
    return tuple(out)


def test_sample_matches_the_fraction_cdf_reference():
    rng = Random(5)
    zero_entries = 0
    for k in range(40):
        spec = random_spec(rng, rng.randint(2, 5), rng.randint(1, 4))
        zero_entries += any(p == 0 for d in spec.dice for p in d.probs)
        ndice = spec.num_dice
        callback = Strategy(lambda h, d=ndice: (len(h) + sum(h)) % d)
        tree = Strategy.from_tree(callback.to_tree(spec, 4), spec.face_labels)
        for strategy, n in ((Strategy.constant(k % ndice), 300), (callback, 300), (tree, 4)):
            got = sample_sequence(spec, strategy, n, k)
            assert got == _reference_sample(spec, strategy, n, k)
    assert zero_entries >= 10
    for spec in (e2(), sv_pair("1/3"), SourceSpec(("a", "b", "c"), [(0, "1/2", "1/2")])):
        for die in range(spec.num_dice):
            constant = sample_sequence(spec, Strategy.constant(die), 500, die)
            assert constant == sample_sequence(spec, Strategy(lambda h, d=die: d), 500, die)
            assert constant == _reference_sample(spec, Strategy.constant(die), 500, die)


def test_sample_matches_the_reference_at_scale():
    # every die of every preset on the constant path, a callback that
    # switches dice at every step, and dice with a negative entry (outside
    # the validated contract), whose cumulative masses are not sorted
    specs = [preset() for preset in (fair_coin, e1, e2, hidden_sv)] + [sv_pair("1/3")]
    for k, spec in enumerate(specs):
        for die in range(spec.num_dice):
            got = sample_sequence(spec, Strategy.constant(die), 20_000, k)
            assert got == _reference_sample(spec, Strategy.constant(die), 20_000, k)
        switching = Strategy(lambda h, d=spec.num_dice: len(h) % d)
        got = sample_sequence(spec, switching, 3000, k)
        assert got == _reference_sample(spec, switching, 3000, k)
    unsorted = SourceSpec(("a", "b", "c"), [("1/2", "-1/4", "3/4"), ("3/2", "-1/3", "-1/6")])
    for die in range(2):
        got = sample_sequence(unsorted, Strategy.constant(die), 2000, die)
        assert got == _reference_sample(unsorted, Strategy.constant(die), 2000, die)
    got = sample_sequence(unsorted, Strategy(lambda h: len(h) % 2), 2000, 3)
    assert got == _reference_sample(unsorted, Strategy(lambda h: len(h) % 2), 2000, 3)


def test_sample_draws_at_the_cdf_boundaries(monkeypatch):
    # u/2^64 < cum exactly: u = ceil(cum * 2^64) - 1 is the last variate of
    # a face, for a non-dyadic and a dyadic cumulative mass alike
    third = -(-(1 << 64) // 3)
    draws = iter([third - 1, third, (1 << 64) - 1, 0, (1 << 63) - 1, 1 << 63])

    class Fixed:
        def __init__(self, _seed):
            pass

        def getrandbits(self, _k):
            return next(draws)

    monkeypatch.setattr("gsvkit.model.Random", Fixed)
    assert sample_sequence(sv_pair("1/6"), Strategy.constant(1), 4, 0) == (0, 1, 1, 0)
    assert sample_sequence(fair_coin(), Strategy.constant(0), 2, 0) == (0, 1)


def test_sample_rejects_bad_strategy():
    spec = fair_coin()
    with pytest.raises(StrategyError):
        sample_sequence(spec, Strategy.constant(3), 2, 0)


def test_sampling_needs_a_valid_source():
    # a die with total mass below one eventually strands a draw, which is
    # why sampling is contracted on validate_source passing first
    deficient = SourceSpec(("a", "b"), [("1/4", "1/4")])
    assert not validate_source(deficient).ok
    with pytest.raises(ValueError):
        sample_sequence(deficient, Strategy.constant(0), 50, 0)


def test_a_deficient_die_strands_a_draw_on_every_path():
    deficient = SourceSpec(("a", "b"), [("1", "0"), ("1/4", "1/4")])
    message = r"^die 1 is not a distribution \(mass 1/2 < 1\)$"
    for strategy in (Strategy.constant(1), Strategy(lambda h: 1), Strategy(lambda h: len(h) % 2)):
        with pytest.raises(ValueError, match=message):
            sample_sequence(deficient, strategy, 50, 0)


def test_sample_rejects_negative_seeds():
    # Random seeds with |seed|: -5 would repeat the faces of seed 5
    spec = e2()
    for strategy in (Strategy.constant(1), Strategy(lambda h: len(h) % 3)):
        for n in (0, 300):
            with pytest.raises(ValueError, match="^seed must be nonnegative, got -5$"):
                sample_sequence(spec, strategy, n, -5)
        assert len(sample_sequence(spec, strategy, 300, 0)) == 300


def test_sample_refuses_boolean_dice():
    # True is an int to Python and hashes like 1, so it must be refused
    # even after die 1 has been drawn
    spec = e2()
    for strategy in (Strategy.constant(True), Strategy(lambda h: True),
                     Strategy(lambda h: True if h else 1), Strategy(lambda h: False)):
        with pytest.raises(StrategyError, match="^strategy chose die (True|False), have 3 dice$"):
            sample_sequence(spec, strategy, 4, 0)


def test_sample_frequency_regression():
    # seed-fixed check of the 4*sqrt(p/n) envelope for a constant die
    spec = fair_coin()
    n = 100_000
    faces = sample_sequence(spec, Strategy.constant(0), n, 2024)
    for f in (0, 1):
        freq = F(faces.count(f), n)
        assert abs(freq - F(1, 2)) <= 4 * math.sqrt(0.5 / n)


def test_strategy_tree_round_trip():
    spec = sv_pair("1/4")
    strat = Strategy(lambda h: len(h) % 2)
    tree = strat.to_tree(spec, 2)
    again = Strategy.from_tree(tree, spec.face_labels)
    for h in ((), (0,), (1,)):
        assert again.choose(h) == strat.choose(h)
    with pytest.raises(StrategyError):
        again.choose((0, 1))  # beyond the materialized depth


def test_presets_by_name(tmp_path):
    assert load_source("e1") == e1()
    assert load_source("sv:1/4") == sv_pair("1/4")
    path = tmp_path / "src.json"
    path.write_text(e2().to_json())
    assert load_source(str(path)) == e2()
