"""Grouped fast path vs the materialized reference."""

from fractions import Fraction as F
from itertools import product
from random import Random

import pytest

import gsvkit.fastmultibit
from gsvkit import (
    FastMultibitState,
    GroupLimitError,
    MultiBitState,
    OutputWidthError,
    Witness,
    multibit_extract_fast,
    multibit_extract_naive,
    multibit_step_naive,
)
from gsvkit.fastmultibit import _MULT, _TOP

PM = Witness([1, -1], "NK_PLUS")
TIE = Witness([F(2, 3), -1, F(2, 3)], "NK")


def test_empty_sequence_all_ones():
    assert multibit_extract_fast(PM, (), 5) == "11111"
    assert multibit_extract_fast(PM, (), 1) == "1"


def test_exhaustive_equivalence_small():
    wits = [PM, TIE]
    for wit in wits:
        nf = len(wit.values)
        for n in range(0, 6):
            for faces in product(range(nf), repeat=n):
                for m in (1, 2):
                    assert multibit_extract_fast(wit, faces, m) == multibit_extract_naive(
                        wit, faces, m
                    )


def test_random_equivalence():
    rng = Random(41)
    for _ in range(100):
        nf = rng.randint(2, 4)
        vals = [F(rng.randint(-6, 6), rng.choice([2, 3, 6])) for _ in range(nf)]
        vals = [max(min(v, F(1)), F(-1)) for v in vals]
        wit = Witness(vals, "NK")
        n, m = rng.randint(1, 100), rng.randint(1, 8)
        faces = tuple(rng.randrange(nf) for _ in range(n))
        assert multibit_extract_fast(wit, faces, m) == multibit_extract_naive(
            wit, faces, m
        )


def test_group_values_track_the_materialized_state():
    # the fast state's (value, count) groups expand to exactly the sorted
    # coordinate values of the naive state, step by step
    rng = Random(9)
    wit = Witness([1, F(-1, 2), F(1, 3)], "NK")
    fast = FastMultibitState(6)
    naive = MultiBitState.initial(6)
    for _ in range(40):
        f = rng.randrange(3)
        fast.advance(wit.values[f])
        naive = multibit_step_naive(naive, wit.values[f])
        expanded = [v for v, c in fast.groups for _ in range(c)]
        assert expanded == sorted(naive.z)
        values = [v for v, _c in fast.groups]
        assert values == sorted(set(values)), "groups are distinct and ascending"


def test_list_views_invariants():
    # the (value, count) group list covers all 2^m coordinates with
    # positive counts and keeps total mass 1 at every step
    rng = Random(13)
    wit = Witness([1, -1, F(1, 2)], "NK")
    state = FastMultibitState(7)
    assert state.groups == [(F(1, 128), 128)]
    for _ in range(1, 60):
        state.advance(wit.values[rng.randrange(3)])
        groups = state.groups
        assert sum(c for _v, c in groups) == 1 << 7
        assert all(c > 0 for _v, c in groups)
        assert state.total_mass() == 1


def _stable_order(state):
    """Coordinate index at every position of the fast state's order."""
    return [
        state._resolve(k, rank)
        for k, (_v, count) in enumerate(state.groups)
        for rank in range(1, count + 1)
    ]


def _last_step_slices(state):
    """(kind, source group) of each slice, per group of the last step record."""
    record = state._records[-1]
    groups, i = [], 1
    for _ in range(record[0]):
        n = record[i + 1]
        groups.append([tuple(record[j : j + 2]) for j in range(i + 2, i + 2 + 5 * n, 5)])
        i += 2 + 5 * n
    return groups


@pytest.mark.parametrize(
    "m, faces, tie",
    [
        # step 2: a parity slice of group 0 and one of group 1 meet
        (2, (0, 0), [(_MULT, 0), (_MULT, 1)]),
        # step 2: the top's new value equals a multiplied value of the
        # group below it and of its own group
        (3, (0, 1), [(_MULT, 0), (_MULT, 1), (_TOP, 1)]),
    ],
    ids=["slice-ties-higher-group", "top-ties-multiplied"],
)
def test_value_ties_keep_the_stable_order(m, faces, tie):
    # equal values join one group in the previous order: lower source
    # group first, the balancing top member last
    fast = FastMultibitState(m)
    naive = MultiBitState.initial(m)
    for f in faces:
        fast.advance(PM.values[f])
        naive = multibit_step_naive(naive, PM.values[f])
        assert _stable_order(fast) == list(naive.order)
    assert tie in _last_step_slices(fast)
    assert multibit_extract_fast(PM, faces, m) == multibit_extract_naive(PM, faces, m)


def test_zero_steps_are_identity():
    state = FastMultibitState(4)
    state.advance(F(1, 2))
    groups_before = list(state.groups)
    winner_before = state.winner()
    state.advance(0)
    assert state.groups == groups_before
    assert state.winner() == winner_before
    # a witness with a zero entry exercises the same path end to end
    wit = Witness([1, 0, -1], "NK")
    for faces in product(range(3), repeat=4):
        assert multibit_extract_fast(wit, faces, 2) == multibit_extract_naive(
            wit, faces, 2
        )


def test_zero_steps_keep_the_stable_order():
    # a zero value regroups every group as one identity slice: each
    # coordinate keeps its place in the order, across steps before and after
    wit = Witness([1, 0, -1], "NK")
    fast = FastMultibitState(3)
    naive = MultiBitState.initial(3)
    for f in (0, 1, 2, 1):
        fast.advance(wit.values[f])
        naive = multibit_step_naive(naive, wit.values[f])
        assert _stable_order(fast) == list(naive.order)


def test_width_guards():
    with pytest.raises(OutputWidthError):
        FastMultibitState(63)
    with pytest.raises(ValueError):
        FastMultibitState(0)
    FastMultibitState(62)  # constructs fine; counts fit int64


def test_group_guard(monkeypatch):
    monkeypatch.setattr(gsvkit.fastmultibit, "FAST_GROUP_GUARD", 3)
    state = FastMultibitState(4)
    state.advance(1)
    state.advance(-1)
    before = state.groups
    with pytest.raises(GroupLimitError) as got:
        state.advance(1)
    assert str(got.value) == "step 3 makes 4 groups, over the guard 3"
    assert got.value.guard == "GROUP_LIMIT"
    assert state.groups == before
    assert state.winner() == int(multibit_extract_naive(PM, (0, 1), 4), 2)


def test_wide_state_never_materializes():
    # m = 50: 2^50 coordinates, a handful of groups
    state = FastMultibitState(50)
    for f in (0, 1, 0, 0, 1):
        state.advance(PM.values[f])
    assert sum(c for _v, c in state.groups) == 1 << 50
    assert len(state.groups) <= 11
    assert state.total_mass() == 1
    assert 0 <= state.winner() < 1 << 50
