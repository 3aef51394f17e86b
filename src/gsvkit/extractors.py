"""The three extraction algorithms as streaming state machines.

* threshold: sum the witness values, freeze once the sum leaves
  (-M, M) with M ~ 1/sqrt(eps), output the sign.
* bit-exp: damped update z += (psi/2)*(1 - |z|) keeping z in (-1, 1);
  output the sign.  Under a positive-variance witness the distance to
  the nearest endpoint shrinks exponentially.
* multi-bit: run 2^m coupled martingales forming an exact probability
  vector; output the index of the largest coordinate as m bits.

Extractors consume witness values, not faces; the face-to-value mapping
happens at the entry points so the state machines are testable with
synthetic value streams.  All state arithmetic is exact.

Each extractor has a one-shot fold over a face sequence
(``threshold_extract``, ``bit_extract_exp``, ``multibit_extract_naive``)
and a ``Fraction`` stepper (``threshold_step``, ``bit_exp_step``,
``multibit_step_naive``).  The folds keep integer numerators over one
fixed scale and are checked against the steppers, which stay the exact
reference and drive the CLI transcript.  The oracle's threshold and
damped-walk tables step integers over the folds' scale; its multi-bit
table steps ``multibit_step_naive``.

Ordering convention for the multi-bit extractor: coordinates are kept in
a stable order — sorted ascending by value, with ties keeping their
order from the previous step (coordinate index order at step 0).  The
same rule picks the final winner (the last coordinate in the order).
The fast implementation in :mod:`gsvkit.fastmultibit` reproduces this
rule without materializing the 2^m coordinates, which is what makes the
two paths bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence

from .errors import OutputWidthError
from .model import Witness, rat

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

NAIVE_WIDTH_GUARD = 20  # multibit_extract_naive materializes 2^m states


def _psi_stream(psi: Witness, faces: Iterable[int]):
    values = psi.values
    for face in faces:
        yield values[face]


def _sign(z: int) -> int:
    return 1 if z >= 0 else -1


def _scaled(psi: Witness) -> tuple[int, list[int]]:
    """(L, [psi_f * L]): the witness as integers over the lcm L of its
    denominators."""
    scale = lcm(*(v.denominator for v in psi.values))
    return scale, [v.numerator * (scale // v.denominator) for v in psi.values]


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


def threshold_extract(psi: Witness, epsilon, faces: Sequence[int]) -> int:
    """Fold the threshold walk over the face sequence; sign of the sum.

    Returns +1 or -1, with sign(0) = +1 (the empty sequence gives +1).
    The sum is kept as the integer z * L, where L is the lcm of the
    witness denominators, and the walk stops at the first step that
    starts with |z * L| >= M * L: the fold of :func:`threshold_step`,
    which is its ``Fraction`` reference, in integers.
    """
    scale, nums = _scaled(psi)
    bound = threshold_bound_m(epsilon) * scale
    z = 0
    for face in faces:
        if abs(z) >= bound:
            break
        z += nums[face]
    return _sign(z)


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


def bit_extract_exp(psi: Witness, faces: Sequence[int]) -> int:
    """Sign of the damped walk after consuming the sequence.

    The exponential error guarantee holds when ``psi`` has zero mean and
    positive variance under every die (an NK+ witness); the fold itself
    accepts any witness.  sign(0) = +1.

    The state z = N / D is kept as two integers.  With L the lcm of the
    witness denominators and A = psi_f * L, a step is
    N <- 2L*N + A*(D - |N|) and D <- 2L*D, so D = (2L)^t after t steps
    with a nonzero value (a zero value leaves z, N and D as they are).
    This is the fold of :func:`bit_exp_step`, its ``Fraction``
    reference, without a gcd per step.
    """
    scale, nums = _scaled(psi)
    scale2 = 2 * scale
    num, den = 0, 1
    for face in faces:
        a = nums[face]
        if a:
            num = scale2 * num + a * (den - abs(num))
            den *= scale2
    return _sign(num)


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


def multibit_extract_naive(psi: Witness, faces: Sequence[int], m: int) -> str:
    """Materialized multi-bit extraction; returns m bits, big-endian.

    Internally the 2^m coordinates are bucketed by shared value (the
    update only ever produces a handful of distinct values per step), but
    every coordinate's state is followed individually — this is the
    reference the grouped fast path is checked against.

    Values are kept exact as integer numerators over one scale shared by
    all coordinates.  At step t every coordinate has the denominator
    D_t = 2^m * prod_s 2*b_s, where a_s/b_s is the (reduced) witness
    value of step s: a step with value a/b multiplies every numerator N
    by 2b - a (odd positions) or 2b + a (even positions), and the top
    becomes N_top*2b - a*B with B the integer balancing sum.  Only
    order and equality are ever read, and under one common denominator
    those of N/D are those of N, so the scale itself is never formed.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if m > NAIVE_WIDTH_GUARD:
        raise OutputWidthError(
            f"m={m} exceeds the naive guard ({NAIVE_WIDTH_GUARD}); use the fast path"
        )
    size = 1 << m
    values: list[int] = [1]  # numerators over the shared scale D_t
    vidx = [0] * size  # per-coordinate value id
    order = list(range(size))
    for psi_value in _psi_stream(psi, faces):
        if psi_value == 0:
            continue
        a, b2 = psi_value.numerator, 2 * psi_value.denominator
        low_f, high_f = b2 - a, b2 + a
        # contiguous blocks of equal value in the sorted order
        blocks: list[tuple[int, int]] = []  # (value id, block length)
        prev, run = vidx[order[0]], 0
        for coord in order:
            if vidx[coord] == prev:
                run += 1
            else:
                blocks.append((prev, run))
                prev, run = vidx[coord], 1
        blocks.append((prev, run))
        # balancing amount over positions 1..M-1 and per-value update maps
        balance = 0
        low_of: dict[int, int] = {}
        high_of: dict[int, int] = {}
        pos = 1
        for vid, length in blocks:
            hi = min(pos + length - 1, size - 1)
            if pos <= hi:
                odd = (hi + 1) // 2 - pos // 2
                even = (hi - pos + 1) - odd
                balance += values[vid] * (even - odd)
            low_of[vid] = values[vid] * low_f
            high_of[vid] = values[vid] * high_f
            pos += length
        top_coord = order[-1]
        top_value = values[vidx[top_coord]] * b2 - a * balance
        new_values: list[int] = []
        new_index: dict[int, int] = {}

        def intern(v: int) -> int:
            got = new_index.get(v)
            if got is None:
                got = len(new_values)
                new_index[v] = got
                new_values.append(v)
            return got

        new_vidx = [0] * size
        for j, coord in enumerate(order[:-1], start=1):
            table = low_of if j % 2 == 1 else high_of
            new_vidx[coord] = intern(table[vidx[coord]])
        new_vidx[top_coord] = intern(top_value)
        # stable re-sort: bucket by value rank, keeping the old order
        by_value = {v: r for r, v in enumerate(sorted(new_values))}
        rank_of = [by_value[v] for v in new_values]
        buckets: list[list[int]] = [[] for _ in new_values]
        for coord in order:
            buckets[rank_of[new_vidx[coord]]].append(coord)
        order = [coord for bucket in buckets for coord in bucket]
        values, vidx = new_values, new_vidx
    return encode_index(order[-1], m)
