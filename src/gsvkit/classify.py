"""Deciding the structural conditions of a source type, exactly.

The conditions, in increasing strength:

* NK       — some nonzero psi has zero mean under every die.
* HNK      — NK survives restriction to every die subset (on the faces
             that subset supports).
* NK+      — some psi has zero mean and strictly positive variance under
             every die.

plus the two analytic conditions parameterized by epsilon (and delta):

* MVR(eps)        — |E_d[psi]| <  eps * Var_d[psi]        for all dice
* MVD(eps, delta) — |E_d[psi]| <  eps * (Var_d[psi] - delta)

These categorize a source: NK+ means extraction with exponentially small
error is possible, HNK without NK+ means polynomial error, and failing
HNK means no extraction at all.  Every decision here is exact (rational
arithmetic throughout) and, where the answer is positive, constructive:
the returned witness or certificate can be re-verified independently.

HNK is decided over support unions, not over die subsets.  For a union
U of die supports, let D(U) be every die whose support lies inside U.
HNK fails iff for some U the pmf rows of D(U), restricted to U, have
full column rank: enlarging a failing subset to D(U) keeps its union
and cannot lower the rank.  So the decision costs one rank test per
distinct union, at most min(2^|F|, 2^|D|) - 1 of them, and the die
subsets are walked only to name the certificate once HNK is known to
fail.  The guard, SUBSET_GUARD, counts those unions and walked subsets.
An NK+ source holds HNK outright, so neither :func:`classify` nor
:func:`mvr_witness` runs the decision on one.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, repeat

from . import linalg
from .errors import EmptySupportError, EpsilonTooLargeError, NotHnkError, SubsetLimitError
from .model import (
    SourceSpec,
    Witness,
    WitnessKind,
    _integer_rows,
    die_mean,
    die_var,
    rat,
    rat_str,
    support,
)

__all__ = [
    "Category",
    "ClassificationReport",
    "DualCertificate",
    "HnkCertificate",
    "KernelBasis",
    "check_hnk",
    "check_mvd",
    "check_mvr",
    "check_nk",
    "check_nk_plus",
    "classify",
    "dual_certificate",
    "kernel_basis",
    "mvr_witness",
]

SUBSET_GUARD = 2**15  # support unions plus die subsets one check_hnk may test


@dataclass(frozen=True)
class KernelBasis:
    """A basis of the space of face functions with zero mean under every die."""

    basis: tuple[tuple[Fraction, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class HnkCertificate:
    """A die subset whose supported faces admit no nonzero witness."""

    dice: tuple[int, ...]
    faces: tuple[int, ...]


@dataclass(frozen=True)
class DualCertificate:
    """Duality data for a source failing NK+.

    For the named die, the indicator difference of the face pair
    (f_star, f_low) lies in the span of the dice pmfs with coefficients
    ``beta``, so psi(f_star) - psi(f_low) = sum_d beta[d] * E_d[psi] for
    every face function psi.  ``constant`` is the square of the largest
    sum of |beta| over the support face pairs, the constant appearing in
    the divergence lower bound.
    """

    die: int
    f_star: int
    f_low: int
    beta: tuple[Fraction, ...]
    constant: Fraction


class Category(Enum):
    EXP_ERROR = "EXP_ERROR"
    POLY_ERROR = "POLY_ERROR"
    NON_EXTRACTABLE = "NON_EXTRACTABLE"


def kernel_basis(spec: SourceSpec) -> KernelBasis:
    """Exact basis of the kernel; empty means NK fails."""
    rows = [[Fraction(p) for p in die.probs] for die in spec.dice]
    return KernelBasis(tuple(linalg.nullspace(rows, spec.num_faces)))


def _normalized(values) -> tuple[Fraction, ...]:
    """Rescale so max |psi| = 1 and the extreme value +1 is attained."""
    scale = max(abs(v) for v in values)
    if scale == 0:
        raise ValueError("cannot normalize the zero function")
    vals = tuple(v / scale for v in values)
    if max(vals) < 1:
        vals = tuple(-v for v in vals)
    return vals


def check_nk(spec: SourceSpec) -> tuple[bool, Witness | None]:
    """NK holds iff the kernel is nonzero; the witness is a basis vector."""
    return _nk(kernel_basis(spec).basis)


def _nk(basis) -> tuple[bool, Witness | None]:
    if not basis:
        return False, None
    return True, Witness(_normalized(basis[0]), WitnessKind.NK)


def _nonconstant_on(vec, faces: frozenset[int]) -> bool:
    return len({vec[f] for f in faces}) > 1


def _combine_positive_variance(spec, dice_idx, basis):
    """Combine per-die kernel vectors into one with positive variance
    under every listed die, or return None.

    Each listed die picks the first basis vector that is not constant on
    its support (None if it has none), and the result is the normalized
    combination sum c_i * pick_i for the lexicographically first
    coefficient tuple c in {1, ..., k+1}^k, k = len(dice_idx), under
    which no listed die sees a constant on its support (for a die with
    nonnegative entries, positive variance).

    The tuple is fixed one coordinate at a time, each time to the
    smallest value whose prefix has a completion.  Let last(d) be the
    last pick that is not constant on die d's support.  Picks after
    last(d) add a constant there, so die d is settled once coordinate
    last(d) is fixed, and a prefix has a completion exactly when every
    die it settles sees a non-constant.  Each die settled at a
    coordinate rules out at most one of its k+1 values, so one is
    always left.
    """
    supports = [support(spec.dice[d]) for d in dice_idx]
    picks = []
    for supp in supports:
        vec = next((b for b in basis if _nonconstant_on(b, supp)), None)
        if vec is None:
            return None
        picks.append(vec)
    # one common denominator keeps the combination in integers; scaling
    # by it changes neither constancy nor the normalized result
    _scale, int_picks = _integer_rows(picks)
    settled_at: list[list[frozenset[int]]] = [[] for _ in picks]
    for supp in supports:
        last = max(i for i, vec in enumerate(int_picks) if _nonconstant_on(vec, supp))
        settled_at[last].append(supp)
    combo = [0] * len(basis[0])
    for vec, settled in zip(int_picks, settled_at):
        for c in range(1, len(picks) + 2):
            trial = [x + c * y for x, y in zip(combo, vec)]
            if all(_nonconstant_on(trial, supp) for supp in settled):
                combo = trial
                break
    return _normalized([Fraction(x) for x in combo])


def check_nk_plus(spec: SourceSpec) -> tuple[bool, Witness | None]:
    """NK+ holds iff every die sees a non-constant kernel direction on its
    support; the returned witness has exact zero mean and positive
    variance under every die, with the minimum variance recorded."""
    return _nk_plus(spec, kernel_basis(spec).basis)


def _nk_plus(spec: SourceSpec, basis) -> tuple[bool, Witness | None]:
    if not basis:
        return False, None
    combo = _combine_positive_variance(spec, list(range(spec.num_dice)), basis)
    if combo is None:
        return False, None
    v = min(die_var(d, combo) for d in spec.dice)
    return True, Witness(combo, WitnessKind.NK_PLUS, min_variance=v)


def _restricted_kernel(spec: SourceSpec, dice_idx, faces) -> list[tuple[Fraction, ...]]:
    rows = [[spec.dice[d].probs[f] for f in faces] for d in dice_idx]
    return linalg.nullspace(rows, len(faces))


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(f for f in range(mask.bit_length()) if mask >> f & 1)


def _count(count: int, what: str) -> None:
    """Refuse :func:`check_hnk` past SUBSET_GUARD, read at each check."""
    if count > SUBSET_GUARD:
        raise SubsetLimitError(f"{count} {what}, over the guard {SUBSET_GUARD}")


def check_hnk(spec: SourceSpec) -> tuple[bool, HnkCertificate | None]:
    """HNK via the closure of die-support unions.

    HNK fails iff some union U of die supports has this property: the
    pmf rows of D(U), every die whose support lies inside U, restricted
    to the faces of U, have full column rank.  Enlarging a die subset to
    D(U) keeps its union and cannot lower the rank, so one rank test per
    distinct union decides HNK.

    When HNK fails, the certificate is the first failing subset by size,
    then lexicographically, with the faces it supports.  A failing
    subset S lies inside D(U(S)), has U(S) failing and |S| >= |U(S)|, so
    the walk visits only such subsets of the failing unions' dice.

    The guard counts the unions as the closure grows, before any rank
    test, then the subsets the walk tests, and names the count it passes.
    """
    masks = [sum(1 << f for f in support(die)) for die in spec.dice]
    unions: set[int] = set()
    for m in masks:
        unions |= {m | u for u in unions}
        unions.add(m)
        _count(len(unions), "support unions")
    inside = {u: tuple(d for d, m in enumerate(masks) if m & ~u == 0) for u in unions}
    failing = [
        u for u in unions
        if len(inside[u]) >= u.bit_count() and not _restricted_kernel(spec, inside[u], _bits(u))
    ]
    if not failing:
        return True, None
    tested = len(unions)
    # max(1, ...): a die with no positive entry has the empty union
    for size in range(max(1, min(u.bit_count() for u in failing)), spec.num_dice + 1):
        pools = [
            zip(combinations(inside[u], size), repeat(u))
            for u in failing
            if u.bit_count() <= size
        ]
        for subset, u in heapq.merge(*pools):
            tested += 1
            _count(tested, "support unions and die subsets tested")
            mask = 0
            for d in subset:
                mask |= masks[d]
            if mask == u and not _restricted_kernel(spec, subset, _bits(u)):
                return False, HnkCertificate(subset, _bits(u))
    raise AssertionError("D(U) of a failing union U is itself a failing subset")


def check_mvr(spec: SourceSpec, psi, epsilon) -> bool:
    """Does |E_d[psi]| < eps * Var_d[psi] hold for every die, exactly?"""
    eps = rat(epsilon)
    return all(abs(die_mean(d, psi)) < eps * die_var(d, psi) for d in spec.dice)


def check_mvd(spec: SourceSpec, psi, epsilon, delta) -> bool:
    """Does |E_d[psi]| < eps * (Var_d[psi] - delta) hold for every die?"""
    eps, dlt = rat(epsilon), rat(delta)
    return all(
        abs(die_mean(d, psi)) < eps * (die_var(d, psi) - dlt) for d in spec.dice
    )


def _ratio_witness_values(spec, faces, dice_idx, eps):
    """Recursive construction of a ratio witness on a sub-source.

    Returns a full-length vector, zero outside ``faces``, satisfying
    |E_d| < eps * Var_d for every die in ``dice_idx`` (verified exactly
    before returning at each level).
    """
    basis = _restricted_kernel(spec, dice_idx, faces)
    if not basis:
        raise NotHnkError(f"die subset {tuple(dice_idx)} admits no nonzero witness")

    def embed(restricted) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * spec.num_faces
        for f, v in zip(faces, restricted):
            out[f] = v
        return tuple(out)

    # If the sub-source has a positive-variance witness, it already
    # satisfies the ratio condition for any eps > 0 (its means vanish).
    combo = _combine_positive_variance(spec, dice_idx, [embed(b) for b in basis])
    if combo is not None:
        return combo

    psi = embed(_normalized(basis[0]))
    flat = [d for d in dice_idx if die_var(spec.dice[d], psi) == 0]
    lively = [d for d in dice_idx if d not in flat]
    # flat is a proper nonempty subset here: nonempty since the combine
    # step failed, proper since psi is nonzero on some supported face
    v = min(die_var(spec.dice[d], psi) for d in lively)
    sub_faces = sorted(set().union(*(support(spec.dice[d]) for d in flat)))
    sub_eps = v * eps * eps / 8
    psi2 = _ratio_witness_values(spec, sub_faces, flat, sub_eps)
    phi = tuple(a + (v * eps / 8) * b for a, b in zip(psi, psi2))
    for d in dice_idx:
        if not abs(die_mean(spec.dice[d], phi)) < eps * die_var(spec.dice[d], phi):
            raise EpsilonTooLargeError(
                f"ratio witness fails at die {d} for epsilon {eps}; retry smaller"
            )
    return phi


def mvr_witness(spec: SourceSpec, epsilon) -> Witness:
    """Construct and exactly verify a witness for the ratio condition.

    The construction recurses on the zero-variance die subset, combining
    the sub-witness (scaled by v*eps/8) with the current kernel witness.
    The result is verified before returning: every die must satisfy the
    strict ratio inequality, and the minimum variance must clear the
    eps^(3*2^|D| - 3) floor.  Verification failure raises
    EpsilonTooLargeError — the guarantee only kicks in for small epsilon,
    and the operational threshold is this verified-or-reject contract.
    A source failing HNK raises NotHnkError; NK+ sources skip the check.
    """
    return _mvr_witness(spec, epsilon, None)


def _below_power(x: Fraction, eps: Fraction, k: int) -> bool:
    """x < eps^k, for 0 < eps < 1 and k >= 0, without forming eps^k unless
    x is about that small.

    With j the smallest exponent for which eps^j <= x, x >= eps^k holds
    exactly when j <= k: then eps^k <= eps^j <= x, and otherwise
    x < eps^(j-1) <= eps^k.  The exponents 1, 2, 4, ... are tried in
    turn, capped at k, so the last power formed is eps^k or eps^i with
    i < 2j.
    """
    j = 1
    while True:
        j = min(j, k)
        if eps**j <= x:
            return False
        if j == k:
            return True
        j *= 2


def _mvr_witness(spec: SourceSpec, epsilon, hnk: bool | None) -> Witness:
    """:func:`mvr_witness`, trusting ``hnk`` as the source's HNK verdict
    (a classification report's) unless it is None."""
    eps = rat(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if hnk is None:
        hnk = check_nk_plus(spec)[0] or check_hnk(spec)[0]
    if not hnk:
        raise NotHnkError("source fails HNK; no ratio witness exists")
    values = _ratio_witness_values(
        spec, list(range(spec.num_faces)), list(range(spec.num_dice)), eps
    )
    floor = 3 * 2**spec.num_dice - 3
    variances = [die_var(d, values) for d in spec.dice]
    for d, (die, var) in enumerate(zip(spec.dice, variances)):
        if not abs(die_mean(die, values)) < eps * var:
            raise EpsilonTooLargeError(f"ratio inequality fails at die {d} for epsilon {eps}")
        if _below_power(var, eps, floor):
            raise EpsilonTooLargeError(
                f"variance {var} under die {d} is below the floor epsilon^{floor}"
            )
    return Witness(values, WitnessKind.MVR, epsilon=eps, min_variance=min(variances))


def dual_certificate(spec: SourceSpec) -> DualCertificate | None:
    """Duality certificate for NK+ failure, or None when NK+ holds.

    Picks the lexicographically smallest die whose support sees only
    constant kernel directions, then for each face pair in its support
    expresses the indicator difference in the span of the pmf rows.  The
    reported pair maximizes sum |beta|; ``constant`` is that sum squared.
    """
    return _dual_certificate(spec, kernel_basis(spec).basis)


def _dual_certificate(spec: SourceSpec, basis) -> DualCertificate | None:
    # NK+ holds exactly when every die sees a non-constant kernel
    # direction: _combine_positive_variance then always finds a witness
    die_index = next(
        (
            d
            for d in range(spec.num_dice)
            if not any(_nonconstant_on(b, support(spec.dice[d])) for b in basis)
        ),
        None,
    )
    if die_index is None:
        return None
    supp = sorted(support(spec.dice[die_index]))
    if not supp:
        raise EmptySupportError(f"die {die_index} has no face with positive probability")
    # columns are the dice pmfs; unknowns are the beta coefficients.  The
    # canonical solution (free variables 0) is linear in the target, so
    # with y(f) solving e_f - e_f0 for f0 = supp[0], the pair (f*, f_low)
    # has beta = y(f*) - y(f_low): one elimination answers every pair.
    mat = [[spec.dice[d].probs[f] for d in range(spec.num_dice)] for f in range(spec.num_faces)]
    f0 = supp[0]
    targets = [[int(f == f_star) - int(f == f0) for f in range(spec.num_faces)] for f_star in supp]
    ys = linalg.solve(mat, targets)
    if None in ys:  # impossible for the qualifying die
        raise RuntimeError("indicator difference left the pmf span")
    # weights compare in integers, over the common denominator of every y
    scale, ints = _integer_rows(ys)
    best = None
    for i, y_star in enumerate(ints):
        for j, y_low in enumerate(ints):
            weight = sum(abs(a - b) for a, b in zip(y_star, y_low))
            if best is None or weight > best[0]:
                best = (weight, i, j)
    weight, i, j = best
    beta = tuple(Fraction(a - b, scale) for a, b in zip(ints[i], ints[j]))
    return DualCertificate(
        die_index, supp[i], supp[j], beta, Fraction(weight, scale) ** 2
    )


@dataclass(frozen=True)
class ClassificationReport:
    """Where a source sits in the three-way extractability split."""

    nk: bool
    nk_witness: Witness | None
    nk_plus: bool
    nk_plus_witness: Witness | None
    hnk: bool
    hnk_certificate: HnkCertificate | None
    dual: DualCertificate | None
    category: Category

    def to_jsonable(self) -> dict:
        doc: dict = {
            "category": self.category.value,
            "nk": {"holds": self.nk},
            "nk_plus": {"holds": self.nk_plus},
            "hnk": {"holds": self.hnk},
        }
        if self.nk_witness is not None:
            doc["nk"]["witness"] = self.nk_witness.to_jsonable()
        if self.nk_plus_witness is not None:
            doc["nk_plus"]["witness"] = self.nk_plus_witness.to_jsonable()
        if self.hnk_certificate is not None:
            doc["hnk"]["failing_subset"] = {
                "dice": list(self.hnk_certificate.dice),
                "faces": list(self.hnk_certificate.faces),
            }
        if self.dual is not None:
            doc["dual_certificate"] = {
                "die": self.dual.die,
                "f_star": self.dual.f_star,
                "f_low": self.dual.f_low,
                "beta": [rat_str(b) for b in self.dual.beta],
                "constant": rat_str(self.dual.constant),
            }
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2) + "\n"


def classify(spec: SourceSpec) -> ClassificationReport:
    """Full classification: condition flags, witnesses, and the category.
    An NK+ source holds HNK, so only other sources run :func:`check_hnk`."""
    basis = kernel_basis(spec).basis
    nk, nk_w = _nk(basis)
    plus, plus_w = _nk_plus(spec, basis)
    # NK+ implies HNK: on any die subset's support union, an NK+ witness is
    # nonzero with zero mean under those dice, so no subset is enumerated
    hnk, hnk_cert = (True, None) if plus else check_hnk(spec)
    dual = None if plus else _dual_certificate(spec, basis)
    if plus:
        category = Category.EXP_ERROR
    elif hnk:
        category = Category.POLY_ERROR
    else:
        category = Category.NON_EXTRACTABLE
    return ClassificationReport(nk, nk_w, plus, plus_w, hnk, hnk_cert, dual, category)
