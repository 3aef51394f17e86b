"""The three extraction algorithms as streaming state machines.

* threshold: sum the witness values, freeze once the sum leaves
  (-M, M) with M ~ 1/sqrt(eps), output the sign.
* bit-exp: damped update z += (psi/2)*(1 - |z|) keeping z in (-1, 1);
  output the sign.  Under a positive-variance witness the distance to
  the nearest endpoint shrinks exponentially.
* multi-bit: run 2^m coupled martingales forming an exact probability
  vector; output the index of the largest coordinate as m bits.

Each extractor's step rule is written once, as an exact integer state
machine built by a private factory that returns ``(init, step, finish, z)``:
``step(state, face)`` gives the next state, ``finish(state)`` the output
(a +/-1 sign or a coordinate index) and ``z(state)`` the exact
``Fraction`` summary that the CLI transcript prints.  A state is a
hashable integer or tuple of integers, and all states at one depth share
one scale, so equal walks at equal depth are one state.  The one-shot folds
(``threshold_extract``, ``bit_extract_exp``, ``multibit_extract_naive``),
the oracle's ``ExtractorTable`` and the transcript all run these
machines.  The ``Fraction`` steppers (``threshold_step``,
``bit_exp_step``, ``multibit_step_naive``), which consume witness values
rather than faces, are the exact reference the machines are tested
against; no production path calls them.

Ordering convention for the multi-bit extractor: coordinates are kept in
a stable order — sorted ascending by value, with ties keeping their
order from the previous step (coordinate index order at step 0).  The
same rule picks the final winner (the last coordinate in the order).
The step on value groups, tie rule included, is written once, in
``_regroup``: the naive machine applies it to the materialized order and
:mod:`gsvkit.fastmultibit` to ranks within groups, which is what makes
the two paths bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, groupby
from math import isqrt
from operator import itemgetter
from typing import Sequence

from .errors import OutputWidthError
from .model import Witness, _integer_rows, rat

__all__ = [
    "BitExpState",
    "MultiBitState",
    "ThresholdState",
    "bit_exp_step",
    "bit_extract_exp",
    "multibit_extract_naive",
    "multibit_step_naive",
    "threshold_bound_m",
    "threshold_extract",
    "threshold_step",
]

NAIVE_WIDTH_GUARD = 20  # the naive multi-bit state materializes 2^m coordinates


def _sign(z: int) -> int:
    return 1 if z >= 0 else -1


# --------------------------------------------------------------------------
# threshold extractor


@dataclass(frozen=True)
class ThresholdState:
    """Running sum with a freeze threshold; |z| <= M + 1 always."""

    z: Fraction
    m_threshold: Fraction
    frozen: bool = False

    @classmethod
    def initial(cls, m_threshold) -> "ThresholdState":
        return cls(Fraction(0), rat(m_threshold), False)


def threshold_step(state: ThresholdState, psi_value) -> ThresholdState:
    """One update: add the value unless the walk is already frozen.

    The freeze test uses the pre-step value (a walk freezes for step i
    when |z_{i-1}| >= M), which keeps the final sum within M + 1.
    """
    if state.frozen:
        return state
    z = state.z + rat(psi_value)
    return ThresholdState(z, state.m_threshold, abs(z) >= state.m_threshold)


def threshold_bound_m(epsilon) -> int:
    """Smallest integer M with M^2 >= 1/epsilon.

    1/sqrt(eps) is irrational in general; an integer threshold keeps the
    walk arithmetic exact and is within the constant the analysis needs.
    """
    eps = rat(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    inv = 1 / eps
    m = isqrt(inv.numerator // inv.denominator)
    while m * m * inv.denominator < inv.numerator:
        m += 1
    return max(m, 1)


def _threshold_machine(psi: Witness, epsilon):
    """(init, step, finish, z) of the threshold walk in integers.

    The state is the int z * L, L the lcm of the witness denominators,
    and a step that starts at |z * L| >= M * L leaves it as it is (the
    freeze of :func:`threshold_step`).  sign(0) = +1.
    """
    scale, (nums,) = _integer_rows((psi.values,))
    bound = threshold_bound_m(epsilon) * scale

    def step(z: int, face: int) -> int:
        return z if abs(z) >= bound else z + nums[face]

    return 0, step, _sign, lambda z: Fraction(z, scale)


def threshold_extract(psi: Witness, epsilon, faces: Sequence[int]) -> int:
    """Fold the threshold walk over the face sequence; sign of the sum.

    Returns +1 or -1, with sign(0) = +1 (the empty sequence gives +1).
    A frozen walk is a fixed point of every face's step, so the fold
    stops at the first state that no face moves.
    """
    z, step, finish, _z = _threshold_machine(psi, epsilon)
    every_face = range(len(psi.values))
    for face in faces:
        moved = step(z, face)
        if moved == z and all(step(z, f) == z for f in every_face):
            break
        z = moved
    return finish(z)


# --------------------------------------------------------------------------
# exponential-error bit extractor


@dataclass(frozen=True)
class BitExpState:
    """Damped walk state, always inside the open interval (-1, 1)."""

    z: Fraction = Fraction(0)
    steps: int = 0


def bit_exp_step(state: BitExpState, psi_value) -> BitExpState:
    """z += (psi/2) * (1 - |z|), exactly."""
    if abs(state.z) >= 1:
        raise ValueError("bit-exp state left (-1, 1)")
    value = rat(psi_value)
    z = state.z + value / 2 * (1 - abs(state.z))
    return BitExpState(z, state.steps + 1)


def _bit_exp_machine(psi: Witness):
    """(init, step, finish, z) of the damped walk in integers.

    The state z = N / D is the pair (N, D).  With L the lcm of the witness
    denominators and A = psi_f * L, a step is N <- 2L*N + A*(D - |N|) and
    D <- 2L*D, a zero value included, so D = (2L)^t at depth t and equal
    z at equal depth is one state.  sign(0) = +1.
    """
    scale, (nums,) = _integer_rows((psi.values,))
    scale2 = 2 * scale

    def step(state: tuple[int, int], face: int) -> tuple[int, int]:
        num, den = state
        return scale2 * num + nums[face] * (den - abs(num)), den * scale2

    return (0, 1), step, lambda state: _sign(state[0]), lambda state: Fraction(*state)


def bit_extract_exp(psi: Witness, faces: Sequence[int]) -> int:
    """Sign of the damped walk after consuming the sequence.

    The exponential error guarantee holds when ``psi`` has zero mean and
    positive variance under every die (an NK+ witness); the fold itself
    accepts any witness.  sign(0) = +1.
    """
    init, step, finish, _z = _bit_exp_machine(psi)
    return finish(reduce(step, faces, init))


# --------------------------------------------------------------------------
# multi-bit extractor, naive (materialized) form


@dataclass(frozen=True)
class MultiBitState:
    """2^m coupled martingales: an exact probability vector plus the
    stable coordinate order (ascending value; ties keep previous order).
    """

    z: tuple[Fraction, ...]
    m: int
    order: tuple[int, ...]

    @classmethod
    def initial(cls, m: int) -> "MultiBitState":
        if m < 1:
            raise ValueError("need m >= 1")
        size = 1 << m
        return cls((Fraction(1, size),) * size, m, tuple(range(size)))

    @classmethod
    def from_vector(cls, z: Sequence, m: int) -> "MultiBitState":
        """Adopt an arbitrary state; the order is seeded by (value, index)."""
        vec = tuple(rat(x) for x in z)
        if len(vec) != 1 << m:
            raise ValueError("state length must be 2^m")
        order = tuple(sorted(range(len(vec)), key=lambda c: (vec[c], c)))
        return cls(vec, m, order)

    def winner(self) -> int:
        """Coordinate holding the largest value (stable-order tie rule)."""
        return self.order[-1]


def multibit_step_naive(state: MultiBitState, psi_value) -> MultiBitState:
    """One coupled update of all 2^m martingales.

    In the current order, coordinate at position j (1-based) moves by
    (psi/2) * (-1)^j * z for j < M, and the largest coordinate absorbs
    the balancing amount, so the entries stay positive and sum to one.
    """
    value = rat(psi_value)
    if value == 0:
        return state
    z = list(state.z)
    order = state.order
    size = len(z)
    half = value / 2
    balance = Fraction(0)
    for j, coord in enumerate(order[:-1], start=1):
        d = -z[coord] if j % 2 == 1 else z[coord]
        balance += d
        z[coord] += half * d
    z[order[-1]] -= half * balance
    new_order = tuple(sorted(order, key=z.__getitem__))  # stable: ties keep rank
    return MultiBitState(tuple(z), state.m, new_order)


def encode_index(index: int, m: int) -> str:
    return format(index, f"0{m}b")


_MULT, _TOP = 0, 1  # slice kinds; the top member sorts last among ties


def _regroup(groups, a: int, b2: int) -> list[tuple[int, int, int, int, int, int]]:
    """One multi-bit step on ascending (numerator, count) value groups.

    The step value is a / (b2/2): every numerator gets the factor b2 in
    its scale.  In the stable order the member at position j (1-based,
    counted over all groups) moves by the factor b2 - a when j is odd and
    b2 + a when j is even; the top member, the last of the last group,
    sits out and becomes N_top*b2 - a*B, B the balancing sum of the
    moved numerators with sign + at even and - at odd positions.  So the
    numerators still sum to the scale.

    A group's members are consecutive in the order, so each splits by
    position parity into two arithmetic runs of its ranks.  The result
    lists these slices (numerator, source group, kind, first rank, rank
    stride, count), plus the top member as (.., _TOP, last rank, 0, 1),
    sorted.  Equal numerators are then adjacent in the new stable order:
    a tie goes to the lower source group, whose members sat lower, and
    the top member, which sat highest, comes last.  For a = 0 every group
    is one identity slice (b2 * N, k, _MULT, 1, 1, count).
    """
    if not a:
        return [(v * b2, k, _MULT, 1, 1, count) for k, (v, count) in enumerate(groups)]
    low, high = b2 - a, b2 + a
    top = len(groups) - 1
    slices = []
    balance = 0
    pos = 1  # position of the group's rank 1
    for k, (v, count) in enumerate(groups):
        if k == top:
            count -= 1  # the top member sits out
        odd = (pos + count) // 2 - pos // 2  # odd positions in pos..pos+count-1
        even = count - odd
        balance += v * (even - odd)
        first_odd = 2 - (pos & 1)
        if odd:
            slices.append((v * low, k, _MULT, first_odd, 2, odd))
        if even:
            slices.append((v * high, k, _MULT, 3 - first_odd, 2, even))
        pos += count
    top_v, top_count = groups[top]
    slices.append((top_v * b2 - a * balance, top, _TOP, top_count, 0, 1))
    slices.sort()
    return slices


def _naive_machine(psi: Witness, m: int):
    """(init, step, finish, z) of the 2^m coupled martingales in integers.

    The state is (order, groups): ``order`` lists the coordinates in the
    stable order of :class:`MultiBitState` and ``groups`` the
    (numerator, count) runs of equal value along it, ascending.  Every
    numerator is over the scale 2^m * (2L)^t at depth t, L the lcm of the
    witness denominators, and a step is :func:`_regroup` with the value
    psi_f * L over 2L, so every step scales, a zero value included, and
    equal vectors at equal depth are one state.  ``finish`` gives the top
    coordinate's index and ``z`` its value; the numerators sum to the scale.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if m > NAIVE_WIDTH_GUARD:
        raise OutputWidthError(
            f"m={m} exceeds the naive guard ({NAIVE_WIDTH_GUARD}); use the fast path"
        )
    scale, (nums,) = _integer_rows((psi.values,))
    scale2 = 2 * scale
    size = 1 << m

    def step(state, face: int):
        order, groups = state
        starts = list(accumulate((count for _v, count in groups), initial=-1))
        new_order: list[int] = []
        new_groups = []
        for v, run in groupby(_regroup(groups, nums[face], scale2), key=itemgetter(0)):
            before = len(new_order)
            for _v, k, _kind, first, stride, count in run:
                i = starts[k] + first  # order index of the slice's first rank
                # the top slice has stride 0 and one member
                new_order += order[i : i + stride * (count - 1) + 1 : stride or 1]
            new_groups.append((v, len(new_order) - before))
        return tuple(new_order), tuple(new_groups)

    def z(state) -> Fraction:
        groups = state[1]
        return Fraction(groups[-1][0], sum(v * count for v, count in groups))

    return (tuple(range(size)), ((1, size),)), step, lambda state: state[0][-1], z


def multibit_extract_naive(psi: Witness, faces: Sequence[int], m: int) -> str:
    """Materialized multi-bit extraction; returns m bits, big-endian.

    Every coordinate's place in the stable order is followed individually
    (equal values are stored once per run), which makes this the
    reference the grouped fast path is checked against.
    """
    init, step, finish, _z = _naive_machine(psi, m)
    return encode_index(finish(reduce(step, faces, init)), m)
