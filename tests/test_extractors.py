"""Extractor state machines: examples, invariants, and proof-level checks."""

from fractions import Fraction as F
from itertools import product

import mpmath
import pytest
from hypothesis import given, strategies as st

from gsvkit import (
    BitExpState,
    MultiBitState,
    OutputWidthError,
    SourceSpec,
    Strategy,
    ThresholdState,
    Witness,
    bit_exp_step,
    bit_extract_exp,
    die_var,
    mvr_witness,
    sample_sequence,
    multibit_extract_naive,
    multibit_step_naive,
    threshold_bound_m,
    threshold_extract,
    threshold_step,
)
from gsvkit.extractors import _naive_machine
from gsvkit.presets import e2, fair_coin
from specgen import random_zero_mean_spec

PM = Witness([1, -1], "NK_PLUS", min_variance=1)

# two dice over three faces sharing the asymmetric zero-mean witness
TRI = SourceSpec(("a", "b", "c"), [("1/3", "2/3", "0"), ("1/6", "1/3", "1/2")])
TRI_PSI = Witness([1, "-1/2", 0], "NK_PLUS")

ASYM_COIN = SourceSpec(("a", "b"), [("1/3", "2/3")])
ASYM_PSI = Witness([1, "-1/2"], "NK_PLUS", min_variance="1/2")


# -- threshold --------------------------------------------------------------


def test_threshold_bound_m_values():
    assert threshold_bound_m("1/4") == 2
    assert threshold_bound_m("1/25") == 5
    assert threshold_bound_m("2/9") == 3  # smallest k with k*k >= 9/2
    assert threshold_bound_m("1/10") == 4


def test_threshold_step_examples():
    s = ThresholdState.initial(2)
    s = threshold_step(s, 1)
    assert (s.z, s.frozen) == (1, False)
    s = threshold_step(s, 1)
    assert (s.z, s.frozen) == (2, True)
    frozen = threshold_step(s, -1)
    assert frozen == s  # frozen walks ignore input


def test_threshold_step_sign_wiggle():
    s = ThresholdState.initial(2)
    for v in (1, -1, 1):
        s = threshold_step(s, v)
    assert (s.z, s.frozen) == (1, False)


def test_threshold_extract_examples():
    assert threshold_extract(PM, "1/4", (0, 0)) == 1
    assert threshold_extract(PM, "1/4", (1, 1, 1)) == -1
    assert threshold_extract(PM, "1/4", ()) == 1


@given(st.lists(st.sampled_from([F(-1), F(-1, 3), F(0), F(1, 2), F(1)]), max_size=60))
def test_threshold_walk_stays_bounded(values):
    s = ThresholdState.initial(3)
    for v in values:
        s = threshold_step(s, v)
        assert abs(s.z) <= 4  # M + 1
        assert s.frozen == (abs(s.z) >= 3)


# -- bit-exp ---------------------------------------------------------------


def test_bit_exp_step_examples():
    s = bit_exp_step(BitExpState(), 1)
    assert s.z == F(1, 2)
    assert bit_exp_step(s, 1).z == F(3, 4)
    assert bit_exp_step(s, -1).z == F(1, 4)


def test_bit_extract_examples():
    assert bit_extract_exp(PM, (0, 0)) == 1
    assert bit_extract_exp(PM, (0, 1)) == 1  # 1/2 then 1/4
    assert bit_extract_exp(PM, ()) == 1


@given(
    st.fractions(min_value=-1, max_value=1, max_denominator=16).filter(
        lambda z: abs(z) < 1
    ),
    st.fractions(min_value=-1, max_value=1, max_denominator=16),
)
def test_bit_exp_distance_ratio_bounds(z, psi):
    before = BitExpState(z, 0)
    after = bit_exp_step(before, psi)
    d_old, d_new = 1 - abs(z), 1 - abs(after.z)
    assert d_old / 2 <= d_new <= 3 * d_old / 2
    assert abs(after.z) < 1


def test_log_distance_drift_lower_bound():
    """Pointwise form of the drift claim: one step multiplies the distance
    to the boundary by at least e^(v/24) in log-expectation, checked on a
    z grid with 60-digit interval arithmetic (tolerance 1e-9)."""
    mpmath.mp.dps = 60
    for spec, psi in ((fair_coin(), PM), (ASYM_COIN, ASYM_PSI)):
        v = min(die_var(d, psi) for d in spec.dice)
        bound = mpmath.mpf(v.numerator) / v.denominator / 24
        for k in range(-19, 20):
            z = F(k, 20)
            d_old = 1 - abs(z)
            for die in spec.dice:
                drift = mpmath.mpf(0)
                for face, p in enumerate(die.probs):
                    if p == 0:
                        continue
                    z_new = bit_exp_step(BitExpState(z, 0), psi.values[face]).z
                    ratio = F(d_old, 1 - abs(z_new))
                    term = mpmath.log(
                        mpmath.mpf(ratio.numerator) / mpmath.mpf(ratio.denominator)
                    )
                    drift += term * p.numerator / p.denominator
                assert drift >= bound - mpmath.mpf("1e-9"), (spec, z, die)


# -- integer folds against the Fraction steppers ----------------------------


def _stepper_signs(psi, epsilon, faces):
    """(threshold, bit-exp) signs from folding the Fraction steppers."""
    t = ThresholdState.initial(threshold_bound_m(epsilon))
    b = BitExpState()
    for f in faces:
        t = threshold_step(t, psi.values[f])
        b = bit_exp_step(b, psi.values[f])
    return (1 if t.z >= 0 else -1), (1 if b.z >= 0 else -1)


def _assert_folds_match(psi, epsilon, faces):
    want = _stepper_signs(psi, epsilon, faces)
    got = (threshold_extract(psi, epsilon, faces), bit_extract_exp(psi, faces))
    assert got == want, (psi.values, epsilon, faces)


def test_integer_folds_match_the_steppers():
    import random

    rng = random.Random(41)
    mixed = 0
    for k in range(60):
        spec, values = random_zero_mean_spec(rng, rng.randint(2, 6), rng.randint(1, 4))
        psi = Witness(values, "NK_PLUS")
        mixed += len({v.denominator for v in values}) > 1 and 0 in values
        epsilon = F(1, rng.choice((2, 4, 9, 16, 25)))
        for n in (0, 1, 7, 40):
            faces = sample_sequence(spec, Strategy(lambda h: len(h) % spec.num_dice), n, k)
            _assert_folds_match(psi, epsilon, faces)
            faces = [rng.randrange(len(values)) for _ in range(n)]
            _assert_folds_match(psi, epsilon, faces)
    assert mixed >= 10  # the inputs do mix denominators with zero values


def test_integer_folds_on_exact_freezes_and_zero_ends():
    halves = Witness([F(1, 2), F(-1, 2), 0], "NK")
    tie = Witness([F(2, 3), -1], "NK")
    cases = [
        # land exactly on +M or -M (M = 2), then walk back across zero:
        # the frozen sum keeps its sign
        (PM, "1/4", (0, 0, 1, 1, 1)),
        (PM, "1/4", (1, 1, 0, 0, 0)),
        (halves, "1/4", (0, 0, 0, 0, 1, 1, 1, 1, 1, 2)),
        (halves, "1/4", (1, 1, 2, 1, 1, 0, 0, 0, 0, 0)),
        # one step short of M: the walk goes on
        (PM, "1/9", (0, 0, 1, 1, 1)),
        # sums and damped walks that end at exactly zero
        (PM, "1/4", (0, 1)),
        (PM, "1/4", (1, 0, 1, 0, 0, 1)),
        (halves, "1/4", (2, 2, 2)),
        (tie, "1/4", (0, 1)),
        (tie, "1/4", (0, 1, 0, 1)),
    ]
    for psi, epsilon, faces in cases:
        _assert_folds_match(psi, epsilon, faces)
    # all sequences up to length 6 over the three-valued witness
    for n in range(7):
        for faces in product(range(3), repeat=n):
            _assert_folds_match(halves, "1/4", faces)


def test_integer_folds_on_a_long_e2_walk():
    spec = e2()
    eps = F(1, 16)
    psi = mvr_witness(spec, eps)
    for die in range(spec.num_dice):
        faces = sample_sequence(spec, Strategy.constant(die), 1200, die)
        _assert_folds_match(psi, eps, faces)


# -- multi-bit, naive -------------------------------------------------------


def test_multibit_step_m1_example():
    st0 = MultiBitState.from_vector([F(1, 2), F(1, 2)], 1)
    st1 = multibit_step_naive(st0, 1)
    assert st1.z == (F(1, 4), F(3, 4))


def test_multibit_step_zero_value_is_identity():
    st0 = MultiBitState.from_vector([F(1, 8), F(3, 8), F(1, 4), F(1, 4)], 2)
    assert multibit_step_naive(st0, 0) == st0


def test_multibit_step_postconditions():
    import random

    rng = random.Random(3)
    state = MultiBitState.initial(3)
    for _ in range(200):
        psi = F(rng.randint(-8, 8), 8)
        before = state.z
        state = multibit_step_naive(state, psi)
        assert sum(state.z) == 1
        assert all(x > 0 for x in state.z)
        if psi != 0:
            # the per-coordinate move is at most (|psi|/2) * previous value
            for old, new in zip(before, state.z):
                assert abs(new - old) <= abs(psi) / 2 * old


def test_multibit_extract_examples():
    assert multibit_extract_naive(PM, (), 2) == "11"
    assert multibit_extract_naive(PM, (0, 0), 1) == "1"
    # the underlying state after (0, 0) is (1/8, 7/8)
    s = MultiBitState.initial(1)
    for f in (0, 0):
        s = multibit_step_naive(s, PM.values[f])
    assert s.z == (F(1, 8), F(7, 8))


def test_multibit_extract_matches_step_fold():
    for faces in product(range(2), repeat=5):
        for m in (1, 2):
            s = MultiBitState.initial(m)
            for f in faces:
                s = multibit_step_naive(s, PM.values[f])
            want = format(s.winner(), f"0{m}b")
            assert multibit_extract_naive(PM, faces, m) == want
    # mixed denominators and a zero entry: the shared integer scale of the
    # naive machine must order exactly as the Fraction fold does
    mixed = Witness([1, F(-1, 2), F(1, 3), 0], "NK")
    for faces in product(range(4), repeat=4):
        for m in (1, 2, 3):
            s = MultiBitState.initial(m)
            for f in faces:
                s = multibit_step_naive(s, mixed.values[f])
            want = format(s.winner(), f"0{m}b")
            assert multibit_extract_naive(mixed, faces, m) == want


def _assert_machine_matches(wit, m):
    init, step, finish, z = _naive_machine(wit, m)
    layer = [(init, MultiBitState.initial(m))]
    for _depth in range(5):
        layer = [
            (step(state, f), multibit_step_naive(ref, v))
            for state, ref in layer
            for f, v in enumerate(wit.values)
        ]
        for state, ref in layer:
            assert finish(state) == ref.winner()
            assert z(state) == ref.z[ref.order[-1]]
        assert len({state for state, _ in layer}) == len({ref for _, ref in layer})


def test_naive_machine_matches_multibit_state():
    # every face sequence up to n = 5: the integer (order, groups) machine
    # names the winner of the Fraction stepper on every prefix and interns
    # to exactly as many states per depth.  At m = 1, (1, -1, 1/2, 0)
    # reaches (3/8, 5/8) as (1, -1) and as (1/2, 0), so a machine whose
    # zero steps did not scale would count two states there.
    for psi in ([1, F(-1, 2), F(1, 3), 0], [1, -1, F(1, 2), 0]):
        wit = Witness(psi, "NK")
        for m in (1, 2, 3):
            _assert_machine_matches(wit, m)


def test_multibit_naive_guard():
    with pytest.raises(OutputWidthError):
        multibit_extract_naive(PM, (), 21)
    with pytest.raises(ValueError):
        multibit_extract_naive(PM, (), 0)


def _leader_walk(psi, faces):
    """Independent scalar form of the two-coordinate process.

    The rank-based update always shrinks the smaller coordinate, so with
    z = (z0, z1) and Z = z1 - z0 the move is Z += leader * (psi/2) *
    (1 - |Z|), where leader is the sign of the side currently on top
    (sticky across exact ties, +1 initially).  Note this only coincides
    with the plain damped walk while Z stays nonnegative: after a
    negative crossing the drive is reflected.
    """
    z, leader = F(0), 1
    for f in faces:
        z = z + leader * psi.values[f] / 2 * (1 - abs(z))
        if z != 0:
            leader = 1 if z > 0 else -1
    return z, leader


@pytest.mark.parametrize(
    "psi", [PM, Witness([F(2, 3), -1], "NK")], ids=["pm-one", "tie-prone"]
)
def test_multibit_m1_matches_the_leader_walk(psi):
    for n in range(0, 8):
        for faces in product(range(2), repeat=n):
            z, leader = _leader_walk(psi, faces)
            s = MultiBitState.initial(1)
            for f in faces:
                s = multibit_step_naive(s, psi.values[f])
            assert s.z[1] - s.z[0] == z
            assert multibit_extract_naive(psi, faces, 1) == ("1" if leader == 1 else "0")


def test_multibit_m1_equals_bit_extractor_on_nonnegative_walks():
    # while the difference walk never dips below zero the rank-based
    # update is exactly the damped scalar update, so the two extractors
    # agree bit for bit on such sequences (including all-tie sequences)
    agree = 0
    for n in range(0, 9):
        for faces in product(range(2), repeat=n):
            s = BitExpState()
            nonneg = True
            for f in faces:
                s = bit_exp_step(s, PM.values[f])
                nonneg = nonneg and s.z >= 0
            if not nonneg:
                continue
            agree += 1
            bit = bit_extract_exp(PM, faces)
            assert multibit_extract_naive(PM, faces, 1) == ("1" if bit == 1 else "0")
    assert agree > 150  # the regime is not vacuous


# -- exact martingale checks ------------------------------------------------


def _enumerate_strategies(spec, n):
    histories = [()]
    level = [()]
    for _ in range(n - 1):
        level = [h + (f,) for h in level for f in range(spec.num_faces)]
        histories.extend(level)
    for choice in product(range(spec.num_dice), repeat=len(histories)):
        table = dict(zip(histories, choice))
        yield Strategy(lambda h, t=table: t[h], "enumerated")


def _sequence_distribution(spec, strategy, n):
    seqs = [((), F(1))]
    for _ in range(n):
        nxt = []
        for hist, prob in seqs:
            die = spec.dice[strategy.choose(hist)]
            for f, p in enumerate(die.probs):
                if p > 0:
                    nxt.append((hist + (f,), prob * p))
        seqs = nxt
    return seqs


def test_bit_exp_walk_is_an_exact_martingale():
    for strategy in _enumerate_strategies(TRI, 2):
        total = F(0)
        for faces, prob in _sequence_distribution(TRI, strategy, 2):
            s = BitExpState()
            for f in faces:
                s = bit_exp_step(s, TRI_PSI.values[f])
            total += prob * s.z
        assert total == 0


def test_multibit_coordinates_are_exact_martingales():
    for m in (1, 2):
        size = 1 << m
        for strategy in _enumerate_strategies(TRI, 2):
            sums = [F(0)] * size
            for faces, prob in _sequence_distribution(TRI, strategy, 2):
                s = MultiBitState.initial(m)
                for f in faces:
                    s = multibit_step_naive(s, TRI_PSI.values[f])
                for j in range(size):
                    sums[j] += prob * s.z[j]
            assert sums == [F(1, size)] * size


def test_threshold_variance_decomposition():
    """Exact small-n form of the variance lower bound: the walk's final
    variance dominates half the accumulated conditional step variance."""
    cases = [
        (fair_coin(), PM, F(1, 4), Strategy.constant(0), 6),
        (e2(), mvr_witness(e2(), F(1, 100)), F(1, 100), Strategy.constant(1), 4),
        (e2(), mvr_witness(e2(), F(1, 100)), F(1, 100),
         Strategy(lambda h: len(h) % 3), 4),
    ]
    for spec, psi, eps, strategy, n in cases:
        m_bound = threshold_bound_m(eps)
        paths = []
        for faces, prob in _sequence_distribution(spec, strategy, n):
            zs = [F(0)]
            state = ThresholdState.initial(m_bound)
            for f in faces:
                state = threshold_step(state, psi.values[f])
                zs.append(state.z)
            paths.append((prob, zs))
        mean = sum(p * zs[-1] for p, zs in paths)
        var_zn = sum(p * zs[-1] ** 2 for p, zs in paths) - mean**2
        accum = F(0)
        for i in range(1, n + 1):
            groups: dict[F, list[tuple[F, F]]] = {}
            for p, zs in paths:
                groups.setdefault(zs[i - 1], []).append((p, zs[i] - zs[i - 1]))
            for entries in groups.values():
                gp = sum(p for p, _x in entries)
                ex = sum(p * x for p, x in entries) / gp
                ex2 = sum(p * x * x for p, x in entries) / gp
                accum += gp * (ex2 - ex * ex)
        assert var_zn >= accum / 2
