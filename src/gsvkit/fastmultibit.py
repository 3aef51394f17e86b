"""Multi-bit extraction without materializing the 2^m martingales.

Coordinates sharing a value move in lockstep, so the state is a short
list of (numerator, count) groups over one shared integer scale, and a
step is :func:`gsvkit.extractors._regroup` on those groups: O(g log g)
in the group count g, with exact big-integer counts, so widths up to
m = 62 are fine.  The ``groups`` view builds reduced Fractions only when
it is read.

Each step appends a record (a flat int64 array): the new group count,
then per new group its members, its slice count and each slice's (kind,
source group, first rank, rank stride, count).  The final winner, the
last member of the largest group, is traced back through the records
step by step to its rank in the uniform initial state, i.e. its
coordinate index.

``multibit_extract_fast`` is the counterpart of
:func:`gsvkit.extractors.multibit_extract_naive` and must agree with it
bit for bit wherever the naive guard allows both to run.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Sequence

from .errors import GroupLimitError, OutputWidthError
from .model import Witness, rat
from .extractors import _MULT, _TOP, _regroup, encode_index

__all__ = ["FastMultibitState", "multibit_extract_fast", "FAST_GROUP_GUARD", "FAST_WIDTH_GUARD"]

FAST_WIDTH_GUARD = 62  # counts are stored as int64 in the step records
# A step costs O(g log g) in the group count g, which grows polynomially
# in n with an exponent that rises with |F|.
FAST_GROUP_GUARD = 2**16


class FastMultibitState:
    """Value-grouped state of the 2^m coupled martingales.

    Single-owner accumulator: ``advance`` replaces the groups and appends
    one step record per witness value.  ``groups`` lists (value, count)
    ascending by value, built from the integer numerators on each read;
    the global order within a group is its members' previous-step order,
    which the rank arithmetic preserves, so (group index, rank) addresses
    a unique martingale at every step.  ``winner`` maps the last rank of
    the largest group back through the step records to a coordinate.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("need m >= 1")
        if m > FAST_WIDTH_GUARD:
            raise OutputWidthError(f"m={m} exceeds the fast-path guard ({FAST_WIDTH_GUARD})")
        self.m = m
        self.size = 1 << m
        # (numerator, count) ascending; every value is numerator / _scale
        self._groups: list[tuple[int, int]] = [(1, self.size)]
        self._scale = self.size
        self._records: list[array] = []

    # -- exact views ------------------------------------------------------

    @property
    def groups(self) -> list[tuple[Fraction, int]]:
        """(value, count) per group, ascending by value."""
        scale = self._scale
        return [(Fraction(n, scale), c) for n, c in self._groups]

    def top_value(self) -> Fraction:
        """Value of the largest group."""
        return Fraction(self._groups[-1][0], self._scale)

    def total_mass(self) -> Fraction:
        return Fraction(sum(n * c for n, c in self._groups), self._scale)

    # -- forward ----------------------------------------------------------

    def advance(self, psi_value) -> None:
        """Consume one witness value a/b: one :func:`_regroup` step.

        Each new group is a run of equal slices, recorded as its members,
        its slice count and the slices' (kind, source group, first rank,
        rank stride, count).  A zero value still multiplies the scale by 2;
        the views are reduced Fractions, so they do not change.

        Raises GroupLimitError, leaving the state as it was, when the step
        would make more than FAST_GROUP_GUARD groups.
        """
        value = rat(psi_value)
        b2 = 2 * value.denominator
        new_groups: list[tuple[int, int]] = []
        record: list[int] = [0]
        for v, run in groupby(_regroup(self._groups, value.numerator, b2), key=itemgetter(0)):
            head = len(record)
            record += (0, 0)  # members and slice count, filled in below
            members = nslices = 0
            for _v, src, kind, first, stride, count in run:
                record += (kind, src, first, stride, count)
                members += count
                nslices += 1
            record[head : head + 2] = members, nslices
            new_groups.append((v, members))
        if len(new_groups) > FAST_GROUP_GUARD:
            raise GroupLimitError(
                f"step {len(self._records) + 1} makes {len(new_groups)} groups, "
                f"over the guard {FAST_GROUP_GUARD}"
            )
        record[0] = len(new_groups)

        self._groups = new_groups
        self._scale *= b2
        self._records.append(array("q", record))

    # -- identity resolution ----------------------------------------------

    def winner(self) -> int:
        """Coordinate index of the largest martingale (stable tie rule)."""
        cls = len(self._groups) - 1
        rank = self._groups[cls][1]
        return self._resolve(cls, rank)

    def _resolve(self, cls: int, rank: int) -> int:
        """Trace (group, rank) back through the step records to step 0."""
        for record in reversed(self._records):
            cls, rank = self._resolve_one(record, cls, rank)
        return rank - 1  # the initial order is coordinate order

    @staticmethod
    def _resolve_one(record: array, cls: int, rank: int) -> tuple[int, int]:
        i = 1
        for gidx in range(record[0]):
            members, ncontribs = record[i], record[i + 1]
            i += 2
            if gidx != cls:
                i += 5 * ncontribs
                continue
            local = rank
            for _ in range(ncontribs):
                kind, src, first, stride, count = record[i : i + 5]
                i += 5
                if local > count:
                    local -= count
                    continue
                if kind == _TOP:
                    return src, first
                return src, first + (local - 1) * stride
            raise AssertionError("rank outside group during resolution")
        raise AssertionError("group missing from step record")


def multibit_extract_fast(psi: Witness, faces: Sequence[int], m: int) -> str:
    """Grouped multi-bit extraction; bit-identical to the naive path."""
    state = FastMultibitState(m)
    values = psi.values
    for face in faces:
        state.advance(values[face])
    return encode_index(state.winner(), m)
