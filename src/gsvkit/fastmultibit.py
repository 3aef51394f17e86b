"""Multi-bit extraction without materializing the 2^m martingales.

The coupled update moves every non-largest coordinate multiplicatively:
at sorted position j it is scaled by (1 - psi/2) when j is odd and by
(1 + psi/2) when j is even, while the largest coordinate absorbs the
balancing amount.  Coordinates sharing a value therefore evolve in
lockstep, so the whole state compresses into a short list of
(value, count) groups, one per distinct value, plus one step record per
consumed witness value.

Within the stable order (ascending value, ties keeping their previous
rank) the members of a group occupy consecutive positions, so each group
splits by position parity into two arithmetic subsequences of its rank
space.  A step is O(g log g) in the number g of groups: count arithmetic
for the splits, one multiplication per (group, parity) slice, one sort of
the slices and the top member by (value, source group, kind), and a pass
that joins equal values into the new groups.  Group counts stay exact big
integers; nothing ever enumerates 2^m coordinates, so widths up to m = 62
are fine.

Group values are exact but not stored as Fractions: each is an integer
numerator over one scale shared by the whole state, 2^m * prod_s 2*b_s
after steps with witness values a_s/b_s.  Order and equality under a
common denominator are those of the numerators, so the sort and the
regrouping are plain int work with no gcd; the ``groups`` view builds
the reduced Fractions only when it is read.

A step record (a flat int64 array) lists, for every new group, the
slices it was joined from.  The final winner, the last member of the
largest group, is traced back through the records step by step to its
rank in the uniform initial state, i.e. its coordinate index.

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
from .extractors import encode_index

__all__ = ["FastMultibitState", "multibit_extract_fast", "FAST_GROUP_GUARD", "FAST_WIDTH_GUARD"]

FAST_WIDTH_GUARD = 62  # counts are stored as int64 in the step records
# A step costs O(g log g) in the group count g, which grows polynomially
# in n with an exponent that rises with |F|.
FAST_GROUP_GUARD = 2**16

_MULT, _TOP = 0, 1  # record kinds; the top member sorts last among ties


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
        """Consume one witness value; O(g log g) exact arithmetic.

        Raises GroupLimitError, leaving the state as it was, when the step
        would make more than FAST_GROUP_GUARD groups.

        A value a/b multiplies the scale by 2b, so the numerators update
        in integers: N*(2b - a) at odd positions, N*(2b + a) at even
        ones, and N_top*2b - a*B for the top, B being the balancing sum.

        Each new group is made of slices (value, source group, kind,
        first rank, rank stride, count).  Sorting the slices puts equal
        values next to each other in the stable order: a tie goes to the
        lower source group (its members sat lower before the step), and
        the balancing top member, which sat highest, comes last.
        """
        value = rat(psi_value)
        groups = self._groups
        if value == 0:
            record = [len(groups)]
            for k, (_n, cnt) in enumerate(groups):
                record.extend((cnt, 1, _MULT, k, 1, 1, cnt))
            self._records.append(array("q", record))
            return
        a, b2 = value.numerator, 2 * value.denominator
        low_f, high_f = b2 - a, b2 + a

        top_k = len(groups) - 1
        top_v, top_cnt = groups[top_k]
        # the top member, last rank of the last group, sits out of the
        # multiplicative update
        movers = groups[:top_k]
        movers.append((top_v, top_cnt - 1))
        slices: list[tuple[int, int, int, int, int, int]] = []
        balance = 0
        pos = 1
        for k, (v, cnt) in enumerate(movers):
            if cnt:
                odd = (pos + cnt) // 2 - pos // 2  # odd positions in pos..pos+cnt-1
                even = cnt - odd
                balance += v * (even - odd)
                # rank 1 sits at position pos: odd positions start at rank 1
                # when pos is odd and at rank 2 when it is even
                first_odd = 2 - (pos & 1)
                if odd:
                    slices.append((v * low_f, k, _MULT, first_odd, 2, odd))
                if even:
                    slices.append((v * high_f, k, _MULT, 3 - first_odd, 2, even))
            pos += cnt
        slices.append((top_v * b2 - a * balance, top_k, _TOP, top_cnt, 0, 1))
        slices.sort()

        new_groups: list[tuple[int, int]] = []
        record: list[int] = [0]
        for v, run in groupby(slices, key=itemgetter(0)):
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
